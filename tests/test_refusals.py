"""Every constructor and entry point refuses a bad argument with its own
error and reason, at the call that passes it."""

import re
from dataclasses import dataclass
from fractions import Fraction

import pytest

from pgclkit import (
    CumulativeDist,
    DistError,
    EvalError,
    Expectation,
    Expr,
    Machine,
    MachineFormatError,
    MachineNode,
    ProbeFamily,
    Program,
    SpaceError,
    StateSpace,
    VarDomain,
    VariantError,
    VariantSpec,
    Verdict,
    WindowInvariantError,
    WpConfig,
    WpError,
    check_equal,
    compile_program,
    constant,
    eval_expr,
    pretty_expr,
    pretty_print,
    space_of,
)
from pgclkit.exprs import BoolLit, Var, evaluate, static_kind
from pgclkit.programs import Assign, GuardedIf, Skip, SuchThat

F = Fraction
SPACE = space_of(("x", (0, 1)))


@dataclass(frozen=True)
class Odd(Expr):
    """An expression node that no evaluator knows."""


@dataclass(frozen=True)
class Jump(Program):
    """A statement that neither the compiler nor the printer knows."""


LEAF = MachineNode(0, "leaf", outcome=1)

CASES = [
    ("verdict-status", lambda: Verdict("maybe"), ValueError, "bad verdict status 'maybe'"),
    ("verdict-method", lambda: Verdict("holds", method="guess"), ValueError,
     "bad verdict method 'guess'"),
    ("wp-config", lambda: WpConfig(undefined="ignore"), WpError,
     "undefined must be 'raise' or 'mask'"),
    ("expectation-length", lambda: Expectation(SPACE, (F(1),)), EvalError,
     "expectation has 1 entries for a space of 2 states"),
    ("expectation-negative", lambda: Expectation(SPACE, (F(1), F(-1))), EvalError,
     "expectations must be non-negative everywhere"),
    ("constant-negative", lambda: constant(SPACE, -1), EvalError,
     "expectations must be non-negative everywhere"),
    ("suchthat-no-variable", lambda: SuchThat((), BoolLit(True)), DistError,
     "suchthat needs at least one variable"),
    ("guarded-if-no-branch", lambda: GuardedIf(()), DistError,
     "guarded IF needs at least one branch"),
    ("variant-negative-bound", lambda: VariantSpec(Var("x"), -1, F(1, 2)), VariantError,
     "upper bound must be a natural number"),
    ("variant-epsilon-0", lambda: VariantSpec(Var("x"), 1, 0), VariantError,
     "epsilon must lie in (0, 1]"),
    ("variant-epsilon-3/2", lambda: VariantSpec(Var("x"), 1, F(3, 2)), VariantError,
     "epsilon must lie in (0, 1]"),
    ("variable-name", lambda: VarDomain("1x", (0,)), SpaceError, "bad variable name '1x'"),
    ("no-variable", lambda: StateSpace([]), SpaceError,
     "state space needs at least one variable"),
    ("domain-value", lambda: VarDomain("x", (None,)), SpaceError,
     "unsupported domain value None"),
    ("state-index", lambda: SPACE.state_at(2), SpaceError, "state index 2 out of range"),
    ("interior-node", lambda: MachineNode(0, "interior", heads=1), MachineFormatError,
     "interior node 0 missing successors"),
    ("leaf-node", lambda: MachineNode(0, "leaf", outcome=0), MachineFormatError,
     "leaf node 0 needs a 1-based outcome"),
    ("node-kind", lambda: MachineNode(0, "branch"), MachineFormatError,
     "node 0 has unknown kind 'branch'"),
    ("machine-root", lambda: Machine((LEAF,), root=1, outcomes=1), MachineFormatError,
     "root 1 is not a node"),
    ("window-bounds", lambda: CumulativeDist(0, (1, 2, 3), 4, 2).check_invariant(),
     WindowInvariantError, "window [0, 3) outside 0..2"),
    ("window-low", lambda: CumulativeDist(-1, (1,), 3, 2).check_invariant(),
     WindowInvariantError, "window [-1, 0) outside 0..2"),
    ("window-entries", lambda: CumulativeDist(0, (2, 1), 3, 2).check_invariant(),
     WindowInvariantError, "window entry dL[1] = 1 not strictly between 2 and total 3"),
    ("empty-probe-family", lambda: check_equal(Skip(), Skip(), ProbeFamily(())),
     VariantError, "empty probe family"),
    ("expr-eval", lambda: eval_expr(Odd(), SPACE.state_at(0)), EvalError,
     "unknown expression node Odd"),
    ("expr-column", lambda: evaluate(SPACE, Odd()), EvalError, "unknown expression node Odd"),
    ("expr-kind", lambda: static_kind(Odd(), SPACE), EvalError, "unknown expression node Odd"),
    ("expr-print", lambda: pretty_expr(Odd()), EvalError, "unknown expression node Odd"),
    ("expr-compile", lambda: compile_program(Assign("x", Odd()), SPACE), EvalError,
     "unknown expression node Odd"),
    ("program-compile", lambda: compile_program(Jump(), SPACE), WpError,
     "unknown program node Jump"),
    ("program-print", lambda: pretty_print(Jump()), TypeError, "unknown program node Jump"),
]


@pytest.mark.parametrize("build, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_a_bad_argument_is_refused_with_its_reason(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
