"""Expressions evaluated at one state, the reference that exprs.evaluate,
which evaluates at every combination of an expression's free variables at
once, is checked against (see test_exprs), and that the test oracles in
helpers.py and resolutions.py read guards and assignments with."""

from __future__ import annotations

import operator
from fractions import Fraction

from pgclkit.errors import EvalError
from pgclkit.exprs import (
    COMPARISONS,
    And,
    BinOp,
    BoolLit,
    Bracket,
    Cmp,
    Expr,
    Lit,
    Neg,
    Not,
    Or,
    TokenLit,
    Value,
    Var,
    _kind_name,
    _needs,
)

ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


def _num(v: Value, what: str) -> Fraction:
    if isinstance(v, Fraction):
        return v
    raise _needs(v, what, "number")


def _bool(v: Value, what: str) -> bool:
    if isinstance(v, bool):
        return v
    raise _needs(v, what, "boolean")


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
        return Fraction(1) if _bool(eval_expr(e.operand, state), "Iverson bracket") else Fraction(0)
    raise EvalError(f"unknown expression node {type(e).__name__}")
