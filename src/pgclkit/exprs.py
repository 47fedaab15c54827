"""Expression trees over program variables, with exact evaluation.

Expressions evaluate to a Fraction, a symbolic token (str), or a bool.
Numeric operators demand Fractions, comparisons demand operands of the
same kind, and the Iverson bracket [b] turns a bool into 0 or 1.  Any
violation raises EvalError; there is no silent coercion and no floating
point anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import EvalError
from .states import StateSpace

Value = Union[Fraction, str, bool]

ZERO = Fraction(0)
ONE = Fraction(1)


class Expr:
    """Base class; concrete nodes are frozen dataclasses below."""

    __slots__ = ()

    def __str__(self):
        return pretty_expr(self)


@dataclass(frozen=True)
class Lit(Expr):
    value: Fraction

    def __post_init__(self):
        if isinstance(self.value, (float, bool)):
            raise EvalError(f"{type(self.value).__name__} literals are not allowed")
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class TokenLit(Expr):
    """A symbolic scalar such as H or T."""

    name: str


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # = != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Bracket(Expr):
    """Iverson bracket: [b] is 1 when b holds and 0 otherwise."""

    operand: Expr


# --- evaluation ----------------------------------------------------------

# the meaning of each operator, by its spelling in program text
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _num(v: Value, what: str) -> Fraction:
    if isinstance(v, Fraction):
        return v
    raise EvalError(f"{what} needs a number, got {_kind_name(v)}")


def _bool(v: Value, what: str) -> bool:
    if isinstance(v, bool):
        return v
    raise EvalError(f"{what} needs a boolean, got {_kind_name(v)}")


def _kind_name(v: Value) -> str:
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, Fraction):
        return "number"
    return f"token {v}"


def eval_expr(e: Expr, state) -> Value:
    """Evaluate an expression at a State, or at any {name: value} mapping
    of its free variables.  Total over well-typed inputs."""
    if isinstance(e, (Lit, BoolLit)):
        return e.value
    if isinstance(e, TokenLit):
        return e.name
    if isinstance(e, Var):
        return state[e.name]
    if isinstance(e, Neg):
        return -_num(eval_expr(e.operand, state), "unary minus")
    if isinstance(e, BinOp):
        a = _num(eval_expr(e.left, state), f"operator {e.op}")
        b = _num(eval_expr(e.right, state), f"operator {e.op}")
        try:
            return ARITHMETIC[e.op](a, b)
        except KeyError:
            raise EvalError(f"unknown operator {e.op}") from None
        except ZeroDivisionError:
            raise EvalError("division by zero") from None
    if isinstance(e, Cmp):
        a = eval_expr(e.left, state)
        b = eval_expr(e.right, state)
        if isinstance(a, bool) or isinstance(b, bool):
            raise EvalError("comparisons over booleans are not supported")
        if isinstance(a, str) != isinstance(b, str):
            raise EvalError(
                f"type mismatch (comparing {_kind_name(a)} to {_kind_name(b)})"
            )
        if isinstance(a, str) and e.op not in ("=", "!="):
            raise EvalError("tokens admit only = and !=")
        try:
            return COMPARISONS[e.op](a, b)
        except KeyError:
            raise EvalError(f"unknown comparison {e.op}") from None
    if isinstance(e, Not):
        return not _bool(eval_expr(e.operand, state), "negation")
    if isinstance(e, And):
        # short-circuit, so the right side may be partial when the left fails
        return _bool(eval_expr(e.left, state), "conjunction") and _bool(
            eval_expr(e.right, state), "conjunction"
        )
    if isinstance(e, Or):
        return _bool(eval_expr(e.left, state), "disjunction") or _bool(
            eval_expr(e.right, state), "disjunction"
        )
    if isinstance(e, Bracket):
        return ONE if _bool(eval_expr(e.operand, state), "Iverson bracket") else ZERO
    raise EvalError(f"unknown expression node {type(e).__name__}")


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (Lit, TokenLit, BoolLit)):
        return frozenset()
    if isinstance(e, (Neg, Not, Bracket)):
        return free_vars(e.operand)
    if isinstance(e, (BinOp, Cmp, And, Or)):
        return free_vars(e.left) | free_vars(e.right)
    raise EvalError(f"unknown expression node {type(e).__name__}")


_KINDS = {Cmp: "bool", Not: "bool", And: "bool", Or: "bool", BoolLit: "bool",
          Lit: "num", Neg: "num", BinOp: "num", Bracket: "num", TokenLit: "token"}


def static_kind(e: Expr, space: StateSpace) -> str:
    """Coarse type of an expression: 'bool', 'num', 'token' or 'mixed'.

    Used to tell boolean conditionals from probabilistic ones at parse
    time.  Variables over all-numeric domains count as numeric; a domain
    mixing tokens and numbers yields 'mixed'.
    """
    if isinstance(e, Var):
        kinds = {isinstance(v, str) for v in space.domain(e.name).values}
        if kinds == {True}:
            return "token"
        if kinds == {False}:
            return "num"
        return "mixed"
    try:
        return _KINDS[type(e)]
    except KeyError:
        raise EvalError(f"unknown expression node {type(e).__name__}") from None


# --- pretty printing ------------------------------------------------------

_OR, _AND, _NOT, _CMP, _ADD, _MUL, _UNARY, _ATOM = range(8)
_LEVELS = {Or: _OR, And: _AND, Not: _NOT, Cmp: _CMP, Neg: _UNARY}


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _ADD if e.op in "+-" else _MUL
    if isinstance(e, Lit) and e.value.denominator != 1:
        return _MUL  # prints as num/den, so a product: x / (1/2) is not x / 1/2
    return _LEVELS.get(type(e), _ATOM)


def _wrap(e: Expr, minimum: int) -> str:
    text = pretty_expr(e)
    return f"({text})" if _level(e) < minimum else text


def pretty_expr(e: Expr) -> str:
    """Render an expression.  Parsing the text rebuilds an equal tree for
    any tree the parser built, but not for every tree built through the
    API: the parser folds a minus on a literal, and a `/` between two
    literals, into one Lit, so Neg(Lit(1/2)) comes back as Lit(-1/2), and
    BinOp("/", Lit(1), Lit(0)) prints as `1 / 0`, which it refuses."""
    if isinstance(e, Lit):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, TokenLit):
        return e.name
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, _UNARY)
    if isinstance(e, BinOp):
        lvl = _level(e)
        return f"{_wrap(e.left, lvl)} {e.op} {_wrap(e.right, lvl + 1)}"
    if isinstance(e, Cmp):
        return f"{_wrap(e.left, _ADD)} {e.op} {_wrap(e.right, _ADD)}"
    if isinstance(e, Not):
        return "!" + _wrap(e.operand, _NOT)
    if isinstance(e, And):
        return f"{_wrap(e.left, _AND)} & {_wrap(e.right, _NOT)}"
    if isinstance(e, Or):
        return f"{_wrap(e.left, _OR)} | {_wrap(e.right, _AND)}"
    if isinstance(e, Bracket):
        return f"[{pretty_expr(e.operand)}]"
    raise EvalError(f"unknown expression node {type(e).__name__}")

