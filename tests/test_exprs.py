import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgclkit import EvalError, eval_expr, free_vars, parse_expression, pretty_expr, space_of
from pgclkit.exprs import COMPARISONS, Bracket, Lit, Var

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


def test_pretty_round_trip_on_random_texts():
    # seeded texts from a small grammar: unary minus, brackets, fractional
    # and negative literals, every comparison, !, &, | and tokens; no
    # literal is 0, since the parser refuses a literal divided by 0
    s = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)), ("c", ("H", "T")))
    rng = random.Random(24)

    def num(depth):
        pick = rng.randrange(6 if depth else 2)
        if pick == 0:
            return rng.choice(("x", "y"))
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
            return rng.choice(("c = H", "c != T", "true", "false"))
        if pick == 2:
            return f"!{cond(depth - 1)}"
        if pick == 3:
            return f"({cond(depth - 1)})"
        return f"{cond(depth - 1)} {rng.choice('&|')} {cond(depth - 1)}"

    for _ in range(2000):
        e = parse_expression(cond(4), s)
        assert parse_expression(pretty_expr(e), s) == e


def test_pretty_prints_rationals_as_num_slash_den():
    assert pretty_expr(Lit(F(3, 4))) == "3/4"
    assert pretty_expr(Bracket(Var("b"))) == "[b]"


@settings(max_examples=50)
@given(st.fractions(min_value=-4, max_value=4))
def test_literals_round_trip(q):
    s = s2()
    e = Lit(q)
    assert parse_expression(pretty_expr(e), s) == e
