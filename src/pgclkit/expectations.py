"""Expectations: non-negative rational-valued functions on a state space.

Stored densely as a tuple of Fractions in the canonical state order of the
space, which makes pointwise arithmetic and comparisons exact and cheap.
Each keeps the column it was built from (Expectation.column), which a
compiled program reads per class of what it and the post read (see the
boundary notes in wp): from_expr keeps the ints of exprs.evaluate, a
constant reads no variable, and a tuple of values reads every one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from .errors import EvalError
from .exprs import Bracket, Expr, evaluate, static_kind
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
    def proven(cls, space: StateSpace, values: tuple, label: str = "",
               column: Optional[tuple] = None) -> "Expectation":
        """An expectation from a tuple of Fractions that the caller has
        proved non-negative, of the right length, and has built from
        `column` where it is given: nothing is checked."""
        exp = object.__new__(cls)
        object.__setattr__(exp, "space", space)
        object.__setattr__(exp, "values", values)
        object.__setattr__(exp, "label", label)
        if column is not None:
            object.__setattr__(exp, "column", column)
        return exp

    @cached_property
    def column(self) -> tuple:
        """(reads, ints, den): the positions of the variables it reads, and
        per combination of their values (numbered as StateSpace.radices
        numbers them) its value as an int over den.
        Built from a tuple of values, it reads every variable."""
        return _scaled(tuple(range(len(self.space.domains))), self.values)

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
    positions, column, den = evaluate(space, expr)
    index = space.projection(positions)[0]
    ok = [v.__class__ is int and v >= 0 for v in column]
    if not all(ok):
        # the first state that reads a bad value, as a state-by-state walk
        i = next(i for i, c in enumerate(index) if not ok[c])
        v, state = column[index[i]], space.state_at(i)
        if isinstance(v, EvalError):
            raise EvalError(f"expectation {expr} is undefined at {state}: {v}") from v
        if v.__class__ is not int:
            raise EvalError(f"expectation is non-numeric at {state}")
        raise EvalError(f"expectation is negative at {state}")
    exact = {v: Fraction(v, den) for v in set(column)}  # one per distinct value
    return Expectation.proven(space, tuple(map(exact.__getitem__, map(column.__getitem__, index))),
                              label or str(expr), (positions, column, den))


def from_column(space: StateSpace, positions: tuple, column: list, label: str) -> Expectation:
    """The expectation that reads the variables at `positions` (distinct),
    whose value at a state is column[c], c the number of its
    values there (StateSpace.projection).  The entries must be non-negative
    Fractions; nothing is checked."""
    positions = tuple(positions)
    return Expectation.proven(space, tuple(map(column.__getitem__, space.projection(positions)[0])),
                              label, _scaled(positions, column))


def _scaled(reads: tuple, column) -> tuple:
    """(reads, ints, den): a column of Fractions as ints over the lcm of
    their denominators."""
    den = lcm(*{v.denominator for v in column})
    return reads, [v.numerator * (den // v.denominator) for v in column], den


def _exact(value) -> Fraction:
    """value as a Fraction; a float or a bool is refused, not converted."""
    if isinstance(value, (float, bool)):
        raise EvalError(f"expectation value {value!r} is not exact; "
                        "use an int or a Fraction")
    return Fraction(value)


def constant(space: StateSpace, value) -> Expectation:
    v = value if isinstance(value, Fraction) else _exact(value)
    if v < 0:
        raise EvalError("expectations must be non-negative everywhere")
    return Expectation.proven(space, (v,) * space.size, str(v), _scaled((), (v,)))


def indicator(space: StateSpace, index: int) -> Expectation:
    values = [ZERO] * space.size
    values[index] = Fraction(1)
    return Expectation(space, tuple(values),
                       label=f"point {space.state_at(index)}")

