"""Finite state spaces: named variables over small explicit domains.

A domain value is either an exact rational (integers included) or a
symbolic token such as H or T, stored as a plain string.  Floats are
rejected everywhere.  Values, probabilities and expectations are exact:
fractions.Fraction at the API, while the wp engine carries its vectors as
Python ints over one common denominator, and its compiler evaluates each
expression once per value of its free variables (see projection).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import SpaceError

Scalar = Union[Fraction, str]


def as_scalar(value) -> Scalar:
    """Normalise a raw domain value: ints become Fractions, floats are refused."""
    if isinstance(value, bool):
        raise SpaceError("booleans are not domain values")
    if isinstance(value, float):
        raise SpaceError(f"float {value!r} is not exact; use Fraction or a string literal")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, str)):
        return value
    raise SpaceError(f"unsupported domain value {value!r}")


def scalar_str(value: Scalar) -> str:
    return value if isinstance(value, str) else str(value)


@dataclass(frozen=True)
class VarDomain:
    """One variable together with its ordered, finite, duplicate-free domain."""

    name: str
    values: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.name or not self.name[0].isalpha():
            raise SpaceError(f"bad variable name {self.name!r}")
        normal = tuple(as_scalar(v) for v in self.values)
        object.__setattr__(self, "values", normal)
        if not normal:
            raise SpaceError(f"variable {self.name} has an empty domain")
        if len(set(normal)) != len(normal):
            raise SpaceError(f"variable {self.name} has duplicate domain values")

    @property
    def size(self) -> int:
        return len(self.values)

    def index_of(self, value: Scalar) -> int:
        """Position of a value in the domain, or -1 when absent."""
        try:
            return self.values.index(value)
        except ValueError:
            return -1


class StateSpace:
    """Cartesian product of variable domains with a canonical enumeration.

    States are enumerated in row-major order over the declaration order of
    the variables, the last variable varying fastest.  Everything downstream
    (expectation vectors, JSON maps, counterexamples) uses this order.
    """

    def __init__(self, domains):
        self.domains: tuple[VarDomain, ...] = tuple(domains)
        if not self.domains:
            raise SpaceError("state space needs at least one variable")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise SpaceError("duplicate variable names")
        self._pos = {d.name: i for i, d in enumerate(self.domains)}
        self._value_pos = [
            {v: i for i, v in enumerate(d.values)} for d in self.domains
        ]
        # stride[i] = number of states spanned by one step of variable i
        strides = [1] * len(self.domains)
        for i in range(len(self.domains) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.domains[i + 1].size
        self._strides = strides
        self.size = strides[0] * self.domains[0].size

    def __eq__(self, other):
        return isinstance(other, StateSpace) and self.domains == other.domains

    def __hash__(self):
        return hash(self.domains)

    def __repr__(self):
        inner = ", ".join(f"{d.name}[{d.size}]" for d in self.domains)
        return f"StateSpace({inner})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.domains)

    def has_var(self, name: str) -> bool:
        return name in self._pos

    def domain(self, name: str) -> VarDomain:
        try:
            return self.domains[self._pos[name]]
        except KeyError:
            raise SpaceError(f"undeclared variable {name!r}") from None

    def var_pos(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise SpaceError(f"undeclared variable {name!r}") from None

    def tokens(self) -> frozenset[str]:
        """All symbolic tokens appearing in any domain."""
        out = set()
        for d in self.domains:
            out.update(v for v in d.values if isinstance(v, str))
        return frozenset(out)

    # --- state indexing -------------------------------------------------

    def state_at(self, index: int) -> "State":
        if not 0 <= index < self.size:
            raise SpaceError(f"state index {index} out of range")
        values = []
        rest = index
        for d, stride in zip(self.domains, self._strides):
            q, rest = divmod(rest, stride)
            values.append(d.values[q])
        return State(self, tuple(values))

    def index_of(self, values) -> int:
        idx = 0
        for d, stride, v in zip(self.domains, self._strides, values):
            pos = self._value_pos[self._pos[d.name]].get(as_scalar(v), -1)
            if pos < 0:
                raise SpaceError(f"value {v!r} not in domain of {d.name}")
            idx += pos * stride
        return idx

    def reindex(self, index: int, var_pos: int, value: Scalar) -> int:
        """Index of the state obtained by overwriting one variable.

        Returns -1 when the value is outside the variable's domain; the
        caller decides whether that is an error.
        """
        pos = self._value_pos[var_pos].get(value, -1)
        if pos < 0:
            return -1
        stride = self._strides[var_pos]
        size = self.domains[var_pos].size
        old = (index // stride) % size
        return index + (pos - old) * stride

    def projection(self, positions) -> tuple[list[int], list[int]]:
        """Per state, the index of its values at `positions` (repeats
        allowed) among the row-major combinations of those variables'
        values; and per combination, the first state that has it, or -1
        when none does (a repeated variable with two different values).
        """
        weights = [0] * len(self.domains)
        step = 1
        for p in reversed(positions):
            weights[p] += step
            step *= self.domains[p].size
        index = [0]
        for d, w in zip(self.domains, weights):
            index = [a + k * w for a in index for k in range(d.size)]
        firsts = [-1] * step
        for i, c in enumerate(index):
            if firsts[c] < 0:
                firsts[c] = i
        return index, firsts

    def states(self) -> Iterator["State"]:
        for combo in itertools.product(*(d.values for d in self.domains)):
            yield State(self, combo)

    def state(self, **assignments) -> "State":
        """Build a state from keyword arguments, one per variable."""
        if set(assignments) != set(self.names):
            raise SpaceError(
                f"state needs exactly the variables {self.names}, got {tuple(assignments)}"
            )
        values = tuple(as_scalar(assignments[n]) for n in self.names)
        idx = self.index_of(values)  # validates domain membership
        return self.state_at(idx)


@dataclass(frozen=True)
class State:
    """A single point of a StateSpace: one in-domain value per variable."""

    space: StateSpace
    values: tuple[Scalar, ...]

    def __getitem__(self, name: str) -> Scalar:
        return self.values[self.space.var_pos(name)]

    @property
    def index(self) -> int:
        return self.space.index_of(self.values)

    def assign(self, name: str, value: Scalar) -> "State":
        pos = self.space.var_pos(name)
        value = as_scalar(value)
        if self.space.domains[pos].index_of(value) < 0:
            raise SpaceError(f"value {value!r} not in domain of {name}")
        vals = list(self.values)
        vals[pos] = value
        return State(self.space, tuple(vals))

    def __str__(self):
        pairs = ", ".join(
            f"{n}={scalar_str(v)}" for n, v in zip(self.space.names, self.values)
        )
        return "{" + pairs + "}"


def space_of(*decls) -> StateSpace:
    """Shorthand constructor: space_of(("x", (0, 1)), ("c", ("H", "T")))."""
    return StateSpace(VarDomain(name, tuple(values)) for name, values in decls)
