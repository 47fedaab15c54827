"""Program syntax for a guarded-command language with probabilistic and
demonic choice.

The statement forms, one node class each:

    SKIP, ABORT
    x := e
    P; Q
    IF b THEN P ELSE Q            boolean conditional
    IF g1 -> P1 [] g2 -> P2 FI    guarded alternation, demonic on overlap
    WHILE b DO P OD               loop (probabilistic when b is numeric)
    P <p> Q                       run P with probability p, else Q
    P |^| Q                       demonic choice
    xs :suchthat pred             demonic choice of any satisfying values

The parser lowers the other surface forms to these, as pGCL defines them
(McIver & Morgan 2005), so they have no node of their own:

    x :in e1 <p> e2               x := e1 <p> x := e2
    x :in e1 |^| e2               x := e1 |^| x := e2
    x :in {e1, ..., ek}           (x := e1 |^| ...) |^| x := ek
    x :dist [e1: p1, ..., ek: pk] x := e1 <p1> (x := e2 <p2/(1-p1)> (...)),
                                  leaving out the items of probability 0
    IF p THEN P ELSE Q            P <p> Q, when p is numeric
    { pred }                      IF pred THEN SKIP ELSE ABORT

Probabilities may be state-dependent expressions; they are checked to lie
in [0, 1] when evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DistError, VariantError
from .exprs import Expr, pretty_expr


class Program:
    __slots__ = ()

    def __str__(self):
        return pretty_print(self)


@dataclass(frozen=True)
class Skip(Program):
    pass


@dataclass(frozen=True)
class Abort(Program):
    pass


@dataclass(frozen=True)
class Assign(Program):
    var: str
    expr: Expr


@dataclass(frozen=True)
class Seq(Program):
    first: Program
    second: Program


@dataclass(frozen=True)
class IfBool(Program):
    guard: Expr
    then: Program
    orelse: Program


@dataclass(frozen=True)
class While(Program):
    guard: Expr  # boolean, or numeric for a probabilistic loop
    body: Program


@dataclass(frozen=True)
class ProbChoice(Program):
    left: Program
    prob: Expr
    right: Program


@dataclass(frozen=True)
class DemonChoice(Program):
    left: Program
    right: Program


@dataclass(frozen=True)
class SuchThat(Program):
    vars: tuple[str, ...]
    pred: Expr

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if not self.vars:
            raise DistError("suchthat needs at least one variable")


@dataclass(frozen=True)
class GuardedIf(Program):
    """IF g1 -> P1 [] ... FI.  Overlapping guards resolve demonically;
    when no guard holds the statement behaves as ABORT."""

    branches: tuple[tuple[Expr, Program], ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise DistError("guarded IF needs at least one branch")


@dataclass(frozen=True)
class VariantSpec:
    """Progress certificate for a loop: a natural-valued variant bounded by
    upper_bound that decreases with probability at least epsilon on every
    demonically resolved iteration."""

    variant: Expr
    upper_bound: int
    epsilon: Fraction

    def __post_init__(self):
        if isinstance(self.epsilon, (float, bool)):
            raise VariantError(f"epsilon {self.epsilon!r} is not exact; "
                               "use an int or a Fraction")
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if not isinstance(self.upper_bound, int) or isinstance(self.upper_bound, bool):
            raise VariantError(f"upper bound {self.upper_bound!r} is not an int")
        if self.upper_bound < 0:
            raise VariantError("upper bound must be a natural number")
        if not 0 < self.epsilon <= 1:
            raise VariantError("epsilon must lie in (0, 1]")


# --- structure helpers ----------------------------------------------------


def children(p: Program) -> tuple[Program, ...]:
    if isinstance(p, Seq):
        return (p.first, p.second)
    if isinstance(p, IfBool):
        return (p.then, p.orelse)
    if isinstance(p, While):
        return (p.body,)
    if isinstance(p, (ProbChoice, DemonChoice)):
        return (p.left, p.right)
    if isinstance(p, GuardedIf):
        return tuple(b for _, b in p.branches)
    return ()


def loop_free(p: Program) -> bool:
    if isinstance(p, While):
        return False
    return all(loop_free(c) for c in children(p))


def collect_predicates(p: Program) -> tuple[Expr, ...]:
    """All guards and suchthat predicates, in syntactic order."""
    out: list[Expr] = []

    def walk(node: Program):
        if isinstance(node, IfBool):
            out.append(node.guard)
        elif isinstance(node, While):
            out.append(node.guard)
        elif isinstance(node, GuardedIf):
            out.extend(g for g, _ in node.branches)
        elif isinstance(node, SuchThat):
            out.append(node.pred)
        for c in children(node):
            walk(c)

    walk(p)
    return tuple(out)


# --- pretty printing ------------------------------------------------------


def _operand(p: Program) -> str:
    """Render p for use inside a choice chain or a THEN/ELSE slot; a
    :suchthat predicate would read a following `<p>` as a comparison."""
    text = pretty_print(p)
    if isinstance(p, (Seq, IfBool, ProbChoice, DemonChoice, SuchThat)):
        return f"({text})"
    return text


def _chain(p: Program) -> str:
    # flatten the left spine of a probabilistic/demonic choice chain
    if isinstance(p, ProbChoice):
        return f"{_chain_left(p.left)} <{pretty_expr(p.prob)}> {_operand(p.right)}"
    if isinstance(p, DemonChoice):
        return f"{_chain_left(p.left)} |^| {_operand(p.right)}"
    return _operand(p)


def _chain_left(p: Program) -> str:
    if isinstance(p, (ProbChoice, DemonChoice)):
        return _chain(p)
    return _operand(p)


def pretty_print(p: Program) -> str:
    """Canonical one-line rendering; reparsing yields an equal tree."""
    if isinstance(p, Skip):
        return "SKIP"
    if isinstance(p, Abort):
        return "ABORT"
    if isinstance(p, Assign):
        return f"{p.var} := {pretty_expr(p.expr)}"
    if isinstance(p, Seq):
        parts: list[Program] = []
        node: Program = p
        while isinstance(node, Seq):
            parts.append(node.second)
            node = node.first
        parts.append(node)
        parts.reverse()
        rendered = []
        for part in parts:
            text = pretty_print(part)
            rendered.append(f"({text})" if isinstance(part, Seq) else text)
        return "; ".join(rendered)
    if isinstance(p, IfBool):
        return f"IF {pretty_expr(p.guard)} THEN {_operand(p.then)} ELSE {_operand(p.orelse)}"
    if isinstance(p, While):
        return f"WHILE {pretty_expr(p.guard)} DO {pretty_print(p.body)} OD"
    if isinstance(p, (ProbChoice, DemonChoice)):
        return _chain(p)
    if isinstance(p, SuchThat):
        return f"{', '.join(p.vars)} :suchthat {pretty_expr(p.pred)}"
    if isinstance(p, GuardedIf):
        inner = " [] ".join(
            f"{pretty_expr(g)} -> {pretty_print(b)}" for g, b in p.branches
        )
        return f"IF {inner} FI"
    raise TypeError(f"unknown program node {type(p).__name__}")
