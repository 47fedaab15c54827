"""Expectations: non-negative rational-valued functions on a state space.

Stored densely as a tuple of Fractions in the canonical state order of the
space, which makes pointwise arithmetic and comparisons exact and cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import EvalError
from .exprs import Bracket, Expr, eval_expr, free_vars, static_kind
from .states import State, StateSpace

ZERO = Fraction(0)


@dataclass(frozen=True)
class Expectation:
    space: StateSpace
    values: tuple[Fraction, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.values) != self.space.size:
            raise EvalError(
                f"expectation has {len(self.values)} entries for a space of "
                f"{self.space.size} states"
            )
        vals = tuple(v if isinstance(v, Fraction) else _exact(v)
                     for v in self.values)
        if any(v < 0 for v in vals):
            raise EvalError("expectations must be non-negative everywhere")
        object.__setattr__(self, "values", vals)

    @classmethod
    def proven(cls, space: StateSpace, values: tuple, label: str = "") -> "Expectation":
        """An expectation from a tuple of Fractions that the caller has
        proved non-negative, of the right length: nothing is checked."""
        exp = object.__new__(cls)
        object.__setattr__(exp, "space", space)
        object.__setattr__(exp, "values", values)
        object.__setattr__(exp, "label", label)
        return exp

    def __getitem__(self, state) -> Fraction:
        if isinstance(state, State):
            return self.values[state.index]
        return self.values[state]

    def max_value(self) -> Fraction:
        return max(self.values)

    def __str__(self):
        if self.label:
            return self.label
        return "expectation on " + repr(self.space)


def from_expr(space: StateSpace, expr: Expr, label: str = "") -> Expectation:
    """Evaluate an expression statewise, once per value of its free
    variables.  Boolean expressions are wrapped in an Iverson bracket, so
    guards can be used as expectations directly."""
    if static_kind(expr, space) == "bool":
        expr = Bracket(expr)
    positions, results = evaluate(space, expr)
    index, _ = space.projection(positions)
    ok = [isinstance(v, Fraction) and v >= 0 for v in results]
    if not all(ok):
        # the first state that reads a bad value, as a state-by-state walk
        i = next(i for i, c in enumerate(index) if not ok[c])
        v, state = results[index[i]], space.state_at(i)
        if isinstance(v, EvalError):
            raise EvalError(f"expectation {expr} is undefined at {state}: {v}") from v
        if not isinstance(v, Fraction):
            raise EvalError(f"expectation is non-numeric at {state}")
        raise EvalError(f"expectation is negative at {state}")
    return Expectation.proven(space, tuple(map(results.__getitem__, index)),
                              label=label or str(expr))


def evaluate(space: StateSpace, expr) -> tuple:
    """expr evaluated once per value of its free variables: (positions,
    results), the positions of those variables in order, and per
    combination of their values, numbered as in StateSpace.projection,
    the result or the EvalError.  Each is evaluated at the first state
    with that combination."""
    positions = tuple(sorted(space.var_pos(v) for v in free_vars(expr)))
    first = [d.values[0] for d in space.domains]
    results = []
    for combo in itertools.product(*(space.domains[p].values for p in positions)):
        for p, v in zip(positions, combo):
            first[p] = v
        try:
            results.append(eval_expr(expr, State(space, tuple(first))))
        except EvalError as exc:
            results.append(exc)
    return positions, results


def _exact(value) -> Fraction:
    """value as a Fraction; a float or a bool is refused, not converted."""
    if isinstance(value, (float, bool)):
        raise EvalError(f"expectation value {value!r} is not exact; "
                        "use an int or a Fraction")
    return Fraction(value)


def constant(space: StateSpace, value) -> Expectation:
    v = value if isinstance(value, Fraction) else _exact(value)
    return Expectation(space, (v,) * space.size, label=str(v))


def indicator(space: StateSpace, index: int) -> Expectation:
    values = [ZERO] * space.size
    values[index] = Fraction(1)
    return Expectation(space, tuple(values),
                       label=f"point {space.state_at(index)}")

