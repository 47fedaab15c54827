import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evaluation import eval_expr
from pgclkit import EvalError, free_vars, parse_expression, pretty_expr, space_of
from pgclkit.exprs import (
    COMPARISONS, BinOp, BoolLit, Bracket, Cmp, Lit, Neg, TokenLit, Var, as_value, evaluate,
)

F = Fraction


def s2():
    return space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)))


def coin():
    return space_of(("c", ("H", "T")))


def ev(text, space, **vals):
    e = parse_expression(text, space)
    return eval_expr(e, space.state(**vals))


def test_arithmetic_is_exact():
    s = s2()
    assert ev("1 - y + 3", s, x=0, y=1) == F(3)
    assert ev("x * x - y / 2", s, x=3, y=1) == F(17, 2)
    assert ev("(x + y) / 2", s, x=3, y=0) == F(3, 2)


def test_division_by_zero_raises():
    s = s2()
    with pytest.raises(EvalError):
        ev("1 / y", s, x=0, y=0)


def test_comparisons_and_connectives():
    s = s2()
    assert ev("0 < y & y < 2", s, x=0, y=1) is True
    assert ev("x = 3 | y = 1", s, x=0, y=0) is False
    assert ev("!(x = 0)", s, x=1, y=0) is True
    assert ev("x != y", s, x=0, y=0) is False


def test_token_equality_only():
    c = coin()
    assert ev("c = H", c, c="H") is True
    assert ev("c != T", c, c="H") is True
    with pytest.raises(EvalError):
        ev("c < T", c, c="H")


def test_token_number_mix_is_an_error():
    s = space_of(("c", ("H", "T")), ("x", (0, 1)))
    with pytest.raises(EvalError) as ei:
        ev("c = x", s, c="H", x=0)
    assert "token" in str(ei.value)


def test_brackets_embed_booleans_as_0_1():
    s = s2()
    assert ev("[0 < y & y < 2]", s, x=0, y=1) == F(1)
    assert ev("[x = 3] * 5 + y", s, x=3, y=1) == F(6)
    assert ev("[x = 3]", s, x=0, y=0) == F(0)


def test_short_circuit_skips_undefined_side():
    s = s2()
    # right operand divides by zero, but the left side decides
    assert ev("y = 0 | 1 / y = 1", s, x=0, y=0) is True
    assert ev("y = 1 & 1 / y = 1", s, x=0, y=0) is False


def test_free_vars():
    s = s2()
    e = parse_expression("[x = 3] + y * y", s)
    assert free_vars(e) == frozenset({"x", "y"})


def test_pretty_round_trip_preserves_tree():
    s = s2()
    texts = [
        "x + y * 2",
        "(x + y) * 2",
        "[x = 1] + [y = 0]",
        "!(x = 1 & y = 0) | x < y",
        "x - y - 1",
        "x - (y - 1)",
        "3/4 * x",
        # a fractional literal after * or / keeps its parentheses
        "x / (1/2)",
        "x * (1/2)",
        "x * (-1/2)",
        # a trailing newline ends the expression
        "x\n",
    ]
    for text in texts:
        e = parse_expression(text, s)
        assert parse_expression(pretty_expr(e), s) == e


def random_condition(rng, nums, conds, depth=4):
    """A seeded text from a small grammar: unary minus, brackets, the
    numeric atoms `nums` and the conditions `conds`, every comparison, !,
    & and |."""

    def num(depth):
        pick = rng.randrange(6 if depth else 2)
        if pick == 0:
            return rng.choice(nums)
        if pick == 1:
            return rng.choice(("1", "3", "1/2", "-3/4", "0.25", "-2"))
        if pick == 2:
            return f"[{cond(depth - 1)}]"
        if pick == 3:
            return f"-{num(depth - 1)}"
        text = f"{num(depth - 1)} {rng.choice('+-*/')} {num(depth - 1)}"
        return f"({text})" if pick == 4 else text

    def cond(depth):
        pick = rng.randrange(5 if depth else 2)
        if pick == 0:
            return f"{num(depth)} {rng.choice(tuple(COMPARISONS))} {num(depth)}"
        if pick == 1:
            return rng.choice(conds)
        if pick == 2:
            return f"!{cond(depth - 1)}"
        if pick == 3:
            return f"({cond(depth - 1)})"
        return f"{cond(depth - 1)} {rng.choice('&|')} {cond(depth - 1)}"

    return cond(depth)


def test_pretty_round_trip_on_random_texts():
    # fractional and negative literals and tokens; no literal is 0, since
    # the parser refuses a literal divided by 0
    s = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)), ("c", ("H", "T")))
    rng = random.Random(24)
    for _ in range(2000):
        text = random_condition(rng, ("x", "y"), ("c = H", "c != T", "true", "false"))
        e = parse_expression(text, s)
        assert parse_expression(pretty_expr(e), s) == e


def test_columns_agree_with_eval_expr_on_random_texts():
    # m mixes tokens and numbers, x and m are 0 somewhere, and a token or
    # a condition where a number belongs is a type error at every state
    s = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)), ("c", ("H", "T")),
                 ("m", (F(1, 2), "H", 0)))
    rng = random.Random(26)
    texts = [random_condition(rng, ("x", "y", "m", "m", "H"),
                              ("c = H", "c != T", "true", "false", "m = H", "m < 1",
                               "c < H", "c = 1", "!x", "y & c = H"))
             for _ in range(1500)]
    texts += ["x + (y = 1)", "-(y = 1)"]  # a condition where a number belongs
    trees = [parse_expression(text, s) for text in texts] + [
        BinOp("%", Var("x"), Lit(1)), Cmp("~", Var("x"), Lit(1)),
        Cmp("~", Var("c"), TokenLit("H")), Cmp("<", BoolLit(True), Lit(1)),
        BinOp("/", Var("y"), Var("y")), Lit(F(3, 4)), Neg(Var("m")), Var("m"), TokenLit("T")]
    seen = set()
    for e in trees:
        positions, column, den = evaluate(s, e)
        domains = [s.domains[p] for p in positions]
        combos = list(itertools.product(*(d.values for d in domains)))
        assert len(column) == len(combos)
        for combo, got in zip(combos, column):
            try:
                want = eval_expr(e, {d.name: v for d, v in zip(domains, combo)})
            except EvalError as exc:
                assert isinstance(got, EvalError) and str(got) == str(exc), (str(e), combo)
                seen.update((str(exc), str(exc).split(",")[0]))
                continue
            value = as_value(got, den)
            assert type(value) is type(want) and value == want, (str(e), combo)
            seen.add(type(want))
    assert {bool, F, str, "division by zero", "comparisons over booleans are not supported",
            "tokens admit only = and !=", "unknown operator %", "unknown comparison ~",
            "operator + needs a number", "conjunction needs a boolean", "negation needs a boolean",
            "type mismatch (comparing token H to number)",
            "operator + needs a number, got boolean",
            "unary minus needs a number, got boolean"} <= seen


def test_pretty_prints_rationals_as_num_slash_den():
    assert pretty_expr(Lit(F(3, 4))) == "3/4"
    assert pretty_expr(Bracket(Var("b"))) == "[b]"


@settings(max_examples=50)
@given(st.fractions(min_value=-4, max_value=4))
def test_literals_round_trip(q):
    s = s2()
    e = Lit(q)
    assert parse_expression(pretty_expr(e), s) == e
