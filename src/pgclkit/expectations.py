"""Expectations: non-negative rational-valued functions on a state space.

Stored densely as a tuple of Fractions in the canonical state order of the
space, which makes pointwise arithmetic and comparisons exact and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EvalError
from .exprs import Bracket, Expr, eval_expr, static_kind
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
        vals = tuple(Fraction(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise EvalError("expectations must be non-negative everywhere")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, state) -> Fraction:
        if isinstance(state, State):
            return self.values[state.index]
        return self.values[state]

    def max_value(self) -> Fraction:
        return max(self.values)

    def scaled(self, c: Fraction) -> "Expectation":
        c = Fraction(c)
        if c < 0:
            raise EvalError("scale factor must be non-negative")
        return Expectation(self.space, tuple(c * v for v in self.values),
                           label=f"{c} * {self.label}" if self.label else "")

    def plus(self, other: "Expectation") -> "Expectation":
        self._check_space(other)
        return Expectation(
            self.space, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def le(self, other: "Expectation") -> bool:
        self._check_space(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def _check_space(self, other: "Expectation"):
        if self.space != other.space:
            raise EvalError("expectations live on different state spaces")

    def __str__(self):
        if self.label:
            return self.label
        return "expectation on " + repr(self.space)


def from_expr(space: StateSpace, expr: Expr, label: str = "") -> Expectation:
    """Evaluate an expression statewise.  Boolean expressions are wrapped
    in an Iverson bracket, so guards can be used as expectations directly."""
    if static_kind(expr, space) == "bool":
        expr = Bracket(expr)
    values = []
    for state in space.states():
        v = eval_expr(expr, state)
        if not isinstance(v, Fraction):
            raise EvalError(f"expectation is non-numeric at {state}")
        if v < 0:
            raise EvalError(f"expectation is negative at {state}")
        values.append(v)
    return Expectation(space, tuple(values), label=label or str(expr))


def constant(space: StateSpace, value) -> Expectation:
    v = Fraction(value)
    return Expectation(space, (v,) * space.size, label=str(v))


def indicator(space: StateSpace, index: int) -> Expectation:
    values = [ZERO] * space.size
    values[index] = Fraction(1)
    return Expectation(space, tuple(values),
                       label=f"point {space.state_at(index)}")

