"""Forward semantics of loop-free programs as sets of output distributions.

A demon resolves every demonic choice point (binary choice, guarded IF
overlap, suchthat) and may decide differently at every intermediate
state; the parser has already made `x :in {a, b, c}` two binary choices.
Enumerating all such policies yields, per initial state, the finite set
of achievable output subdistributions; the minimum expected value over
them coincides with wp, which the test-suite checks.

Distinct policies are kept apart even when they induce the same output
distribution (two branches of a guarded IF may coincide at the boundary
state, and both count).  The enumeration is bounded; blowing past the
bound raises ResolutionLimitError rather than grinding forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from evaluation import eval_expr
from pgclkit.errors import EvalError, PgclError
from pgclkit.expectations import Expectation
from pgclkit.programs import (
    Abort,
    Assign,
    DemonChoice,
    GuardedIf,
    IfBool,
    ProbChoice,
    Program,
    Seq,
    Skip,
    SuchThat,
    While,
    loop_free,
)
from pgclkit.states import State, StateSpace


class ResolutionLimitError(PgclError):
    """Demonic strategy enumeration exceeded the configured bound."""


ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_LIMIT = 10**6


@dataclass(frozen=True)
class Dist:
    """Subdistribution over state indices; missing mass is divergence."""

    mass: tuple[tuple[int, Fraction], ...]  # sorted by index, nonzero entries

    @staticmethod
    def point(index: int) -> "Dist":
        return Dist(((index, ONE),))

    @staticmethod
    def zero() -> "Dist":
        return Dist(())

    def total(self) -> Fraction:
        return sum((p for _, p in self.mass), ZERO)

    def expectation(self, values) -> Fraction:
        """Expected value of a vector of Fractions, weighting lost mass 0."""
        return sum((p * values[i] for i, p in self.mass), ZERO)

    def items(self):
        return self.mass


def _mix(p: Fraction, a: Dist, b: Dist) -> Dist:
    acc: dict[int, Fraction] = {}
    for i, w in a.mass:
        acc[i] = acc.get(i, ZERO) + p * w
    q = ONE - p
    for i, w in b.mass:
        acc[i] = acc.get(i, ZERO) + q * w
    return Dist(tuple(sorted((i, w) for i, w in acc.items() if w != 0)))


def _compose(mu: Dist, continuations: dict[int, Dist]) -> Dist:
    acc: dict[int, Fraction] = {}
    for i, w in mu.mass:
        for j, v in continuations[i].mass:
            acc[j] = acc.get(j, ZERO) + w * v
    return Dist(tuple(sorted((i, w) for i, w in acc.items() if w != 0)))


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit

    def charge(self, count: int):
        if count > self.limit:
            raise ResolutionLimitError(
                f"demonic policy enumeration exceeded {self.limit} alternatives"
            )


def _check(value, what: str, state: State):
    if isinstance(value, bool):
        return value
    raise EvalError(f"{what} is not boolean at {state}")


def _resolve(prog: Program, index: int, space: StateSpace,
             budget: _Budget) -> list[Dist]:
    """All achievable output subdistributions of prog from one state."""
    state = space.state_at(index)
    if isinstance(prog, Skip):
        return [Dist.point(index)]
    if isinstance(prog, Abort):
        return [Dist.zero()]
    if isinstance(prog, Assign):
        return [Dist.point(_target(space, index, prog.var, prog.expr))]
    if isinstance(prog, Seq):
        out: list[Dist] = []
        for mu in _resolve(prog.first, index, space, budget):
            support = [i for i, _ in mu.mass]
            follow = [_resolve(prog.second, i, space, budget) for i in support]
            count = 1
            for f in follow:
                count *= len(f)
            budget.charge(len(out) + count)
            for pick in itertools.product(*follow):
                out.append(_compose(mu, dict(zip(support, pick))))
        return out
    if isinstance(prog, IfBool):
        g = _check(eval_expr(prog.guard, state), "guard", state)
        return _resolve(prog.then if g else prog.orelse, index, space, budget)
    if isinstance(prog, ProbChoice):
        pv = eval_expr(prog.prob, state)
        if not isinstance(pv, Fraction) or not 0 <= pv <= 1:
            raise EvalError(f"probability {prog.prob} = {pv} outside [0, 1] at {state}")
        if pv == 1:
            return _resolve(prog.left, index, space, budget)
        if pv == 0:
            return _resolve(prog.right, index, space, budget)
        lefts = _resolve(prog.left, index, space, budget)
        rights = _resolve(prog.right, index, space, budget)
        budget.charge(len(lefts) * len(rights))
        return [_mix(pv, a, b) for a in lefts for b in rights]
    if isinstance(prog, DemonChoice):
        out = _resolve(prog.left, index, space, budget)
        out += _resolve(prog.right, index, space, budget)
        budget.charge(len(out))
        return out
    if isinstance(prog, SuchThat):
        positions = [space.var_pos(v) for v in prog.vars]
        out = []
        for combo in itertools.product(
            *(space.domains[p].values for p in positions)
        ):
            t = index
            for pos, v in zip(positions, combo):
                t = space.reindex(t, pos, v)
            if _check(eval_expr(prog.pred, space.state_at(t)), "predicate",
                      space.state_at(t)):
                out.append(Dist.point(t))
        if not out:
            raise EvalError(
                f"no values of {', '.join(prog.vars)} satisfy {prog.pred} at {state}"
            )
        budget.charge(len(out))
        return out
    if isinstance(prog, GuardedIf):
        out = []
        for g, body in prog.branches:
            if _check(eval_expr(g, state), "guard", state):
                out += _resolve(body, index, space, budget)
        budget.charge(max(1, len(out)))
        return out if out else [Dist.zero()]
    if isinstance(prog, While):
        raise ResolutionLimitError("policy enumeration handles loop-free programs only")
    raise EvalError(f"unknown program node {type(prog).__name__}")


def _target(space: StateSpace, index: int, var: str, expr) -> int:
    state = space.state_at(index)
    v = eval_expr(expr, state)
    if isinstance(v, bool):
        raise EvalError(f"cannot assign a boolean to {var} at {state}")
    t = space.reindex(index, space.var_pos(var), v)
    if t < 0:
        raise EvalError(f"{var} := {v} leaves the domain of {var} at {state}")
    return t


def resolutions_by_state(prog: Program, space: StateSpace, limit: int = DEFAULT_LIMIT,
                         undefined: str = "raise") -> dict[State, Optional[list[Dist]]]:
    """Achievable output subdistributions from every initial state.  An
    evaluation error raises, or with undefined="mask" maps its initial
    state to None."""
    if not loop_free(prog):
        raise ResolutionLimitError("policy enumeration handles loop-free programs only")
    budget = _Budget(limit)
    out: dict[State, Optional[list[Dist]]] = {}
    for i in range(space.size):
        try:
            out[space.state_at(i)] = _resolve(prog, i, space, budget)
        except EvalError:
            if undefined == "raise":
                raise
            out[space.state_at(i)] = None
    return out


def enumerate_resolutions(prog: Program, space: StateSpace,
                          limit: int = DEFAULT_LIMIT
                          ) -> list[tuple[int, dict[State, Dist]]]:
    """Every state-dependent demonic policy as (id, initial state -> output).

    The policy count is the product over initial states of the per-state
    alternative counts, and is capped by `limit`.
    """
    per_state = resolutions_by_state(prog, space, limit)
    states = list(per_state)
    count = 1
    for s in states:
        count *= len(per_state[s])
        if count > limit:
            raise ResolutionLimitError(
                f"{count}+ demonic policies exceed the limit of {limit}"
            )
    out = []
    for k, combo in enumerate(itertools.product(*(per_state[s] for s in states))):
        out.append((k, dict(zip(states, combo))))
    return out


def min_expected(dists: list[Dist], post: Expectation) -> Fraction:
    """Demonic value of a post-expectation over a set of outcomes."""
    return min(d.expectation(post.values) for d in dists)
