"""Expression trees over program variables, with exact evaluation.

Expressions evaluate to a Fraction, a symbolic token (str), or a bool.
Numeric operators demand Fractions, comparisons demand operands of the
same kind, and the Iverson bracket [b] turns a bool into 0 or 1.  Any
violation raises EvalError; there is no silent coercion and no floating
point anywhere.

eval_expr evaluates at one state.  evaluate evaluates at every
combination of an expression's free variables at once, a column per
node, with numbers as Python ints over the node's common denominator; at
each combination it gives what eval_expr gives there, errors included.
"""

from __future__ import annotations

import math
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
    raise _needs(v, what, "number")


def _bool(v: Value, what: str) -> bool:
    if isinstance(v, bool):
        return v
    raise _needs(v, what, "boolean")


def _needs(v, what: str, kind: str) -> EvalError:
    """The error of `what` reading v where it needs a `kind`: v itself
    when v is an error."""
    if isinstance(v, EvalError):
        return v
    return EvalError(f"{what} needs a {kind}, got {_kind_name(v)}")


def _kind_name(v) -> str:
    """What a value is, for a message; a number may be a column's int."""
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, str):
        return f"token {v}"
    return "number"


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


# --- evaluation over columns -----------------------------------------------
#
# A column has one entry per combination of the values of the evaluated
# expression's free variables, numbered as StateSpace.projection numbers
# them: a number as an int over the column's denominator, a bool, a token,
# or the EvalError that eval_expr raises there.  A node's denominator is
# read off the domains and literals below it: + and - take the lcm of
# their operands' denominators, * their product, and / the lcm of the
# divisor's nonzero numerators times the dividend's.  _column also gives
# the class that every entry shares (None when they differ, or some are
# errors), so an operator whose operands are both pure runs as one map.


def evaluate(space: StateSpace, e: Expr) -> tuple:
    """(positions, column, den): e at every combination of the values of
    its free variables, whose positions in space are listed in order."""
    positions = tuple(sorted(space.var_pos(v) for v in free_vars(e)))
    n = math.prod(space.domains[p].size for p in positions)
    column, den, _ = _column(e, space, dict(zip(positions, space.radices(positions))), n)
    return positions, column, den


def as_value(v, den: int) -> Value:
    """A column entry as eval_expr gives it: an int over den as a Fraction."""
    return Fraction(v, den) if v.__class__ is int else v


# per unary node: what its message names, the class of operand it needs,
# the map of such an operand, and the class of the result
_UNARIES = {Neg: ("unary minus", int, operator.neg, int),
            Not: ("negation", bool, operator.not_, bool),
            Bracket: ("Iverson bracket", bool, int, int)}
_WORDS = {int: "number", bool: "boolean"}


def _kind_of(column: list):
    kinds = set(map(type, column))
    return kinds.pop() if len(kinds) == 1 else None


def _column(e: Expr, space: StateSpace, radices: dict, n: int) -> tuple:
    """(column, den, the class of every entry or None) of e, where radices
    maps each free variable's position to its place value."""
    def of(sub):
        return _column(sub, space, radices, n)

    if isinstance(e, Lit):
        return [e.value.numerator] * n, e.value.denominator, int
    if isinstance(e, BoolLit):
        return [e.value] * n, 1, bool
    if isinstance(e, TokenLit):
        return [e.name] * n, 1, str
    if isinstance(e, Var):
        p = space.var_pos(e.name)
        values = space.domains[p].values
        den = math.lcm(*(v.denominator for v in values if not isinstance(v, str)))
        scaled = [v if isinstance(v, str) else v.numerator * (den // v.denominator)
                  for v in values]
        r = radices[p]
        column = [v for v in scaled for _ in range(r)] * (n // (r * len(values)))
        return column, den, _kind_of(scaled)
    if type(e) in _UNARIES:
        what, needs, fn, gives = _UNARIES[type(e)]
        a, den, kind = of(e.operand)
        den = den if gives is int and needs is int else 1
        if kind is needs:
            return list(map(fn, a)), den, gives
        column = [fn(x) if x.__class__ is needs else _needs(x, what, _WORDS[needs])
                  for x in a]
        return column, den, _kind_of(column)
    if isinstance(e, BinOp):
        return _arithmetic(e.op, *of(e.left), *of(e.right))
    if isinstance(e, Cmp):
        return _comparison(e.op, *of(e.left), *of(e.right))
    # And or Or: evaluate called free_vars first, which refuses any other node
    a, _, ka = of(e.left)
    b, _, kb = of(e.right)
    if ka is bool and kb is bool:
        return list(map(operator.or_ if isinstance(e, Or) else operator.and_, a, b)), 1, bool
    # short-circuit: the left value that decides is the result
    what, decides = ("disjunction", True) if isinstance(e, Or) else ("conjunction", False)

    def junction(x, y):
        if x.__class__ is not bool:
            return _needs(x, what, "boolean")
        if x is decides:
            return x
        return y if y.__class__ is bool else _needs(y, what, "boolean")

    column = list(map(junction, a, b))
    return column, 1, _kind_of(column)


def _arithmetic(op: str, a: list, da: int, ka, b: list, db: int, kb) -> tuple:
    """The column of `a op b`: combine(fa(x), fb(y)) over den, where fa
    and fb (None for the identity) bring each operand to the result."""
    fa = fb = combine = None
    if op in ("+", "-"):
        den = math.lcm(da, db)
        fa, fb = (None if den == da else (den // da).__mul__,
                  None if den == db else (den // db).__mul__)
        combine = operator.add if op == "+" else operator.sub
    elif op == "*":
        den, combine = da * db, operator.mul
    elif op == "/":
        # x/da over y/db is x * db * (m // y) over da * m
        divisors = set(b) if kb is int else {y for y in b if y.__class__ is int}
        m = math.lcm(*map(abs, divisors - {0}))
        den, fb, combine = da * m, m.__floordiv__, operator.mul
        fa = None if db == 1 else db.__mul__
    else:
        den = 1
    if ka is int and kb is int and combine is not None and not (op == "/" and 0 in b):
        column = list(map(combine, a if fa is None else map(fa, a),
                          b if fb is None else map(fb, b)))
        return column, den, int
    what = f"operator {op}"

    def arithmetic(x, y):
        if x.__class__ is not int:
            return _needs(x, what, "number")
        if y.__class__ is not int:
            return _needs(y, what, "number")
        if combine is None:
            return EvalError(f"unknown operator {op}")
        if op == "/" and y == 0:
            return EvalError("division by zero")
        return combine(x if fa is None else fa(x), y if fb is None else fb(y))

    column = list(map(arithmetic, a, b))
    return column, den, _kind_of(column)


def _comparison(op: str, a: list, da: int, ka, b: list, db: int, kb) -> tuple:
    """The column of `a op b`: numbers compare as x * db against y * da."""
    compare = COMPARISONS.get(op)
    if compare is not None and ka is int and kb is int:
        column = list(map(compare, a if db == 1 else map(db.__mul__, a),
                          b if da == 1 else map(da.__mul__, b)))
        return column, 1, bool
    if ka is str and kb is str and op in ("=", "!="):
        return list(map(compare, a, b)), 1, bool

    def comparison(x, y):
        if isinstance(x, EvalError) or isinstance(y, EvalError):
            return x if isinstance(x, EvalError) else y
        if x.__class__ is bool or y.__class__ is bool:
            return EvalError("comparisons over booleans are not supported")
        if (x.__class__ is str) != (y.__class__ is str):
            return EvalError(f"type mismatch (comparing {_kind_name(x)} to {_kind_name(y)})")
        if x.__class__ is str and op not in ("=", "!="):
            return EvalError("tokens admit only = and !=")
        if compare is None:
            return EvalError(f"unknown comparison {op}")
        return compare(x, y) if x.__class__ is str else compare(x * db, y * da)

    column = list(map(comparison, a, b))
    return column, 1, _kind_of(column)


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

