"""Engine-wide algebraic laws, checked exhaustively over the corpus."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from pgclkit import (
    Expectation,
    constant,
    from_expr,
    indicator,
    wp,
)
from pgclkit.exprs import Bracket
from resolutions import min_expected, resolutions_by_state

F = Fraction


def random_expectation(space, rng, bound=4):
    return Expectation(
        space,
        tuple(F(rng.randrange(0, bound * 8 + 1), 8) for _ in range(space.size)),
    )


def test_corpus_spaces_stay_small():
    for _, space in helpers.corpus() + helpers.loop_corpus():
        assert space.size <= 10**4


def test_monotonicity_exhaustive_loop_free():
    rng = random.Random(42)
    for p, space in helpers.corpus():
        for _ in range(6):
            f = random_expectation(space, rng)
            bump = random_expectation(space, rng, bound=2)
            g = helpers.plus(f, bump)
            assert helpers.le(wp(p, f, space).pre, wp(p, g, space).pre)


def test_monotonicity_on_loops_up_to_residual():
    # loops are solved exactly, so monotonicity holds with no slack
    rng = random.Random(43)
    for p, space in helpers.loop_corpus():
        for _ in range(3):
            f = random_expectation(space, rng)
            g = helpers.plus(f, random_expectation(space, rng, bound=2))
            rf, rg = wp(p, f, space), wp(p, g, space)
            assert rf.loop_residual == rg.loop_residual == 0
            assert helpers.le(rf.pre, rg.pre)


def test_feasibility_bound():
    rng = random.Random(44)
    for p, space in helpers.corpus() + helpers.loop_corpus():
        for _ in range(4):
            f = random_expectation(space, rng)
            r = wp(p, f, space)
            assert r.loop_residual == 0
            bound = f.max_value()
            assert all(0 <= v <= bound for v in r.pre.values)


def test_scaling_loop_free():
    rng = random.Random(45)
    for p, space in helpers.corpus():
        f = random_expectation(space, rng)
        base = wp(p, f, space).pre
        for c in (F(0), F(1, 2), F(2), F(7, 3)):
            scaled = wp(p, helpers.scaled(f, c), space).pre
            assert scaled.values == helpers.scaled(base, c).values


def test_skip_unit_and_abort_zero_laws():
    rng = random.Random(46)
    for _, space in helpers.corpus():
        f = random_expectation(space, rng)
        assert wp(helpers.prog("SKIP", space), f, space).pre.values == f.values
        assert set(wp(helpers.prog("ABORT", space), f, space).pre.values) == {F(0)}


def test_wp_agrees_with_min_over_resolutions():
    rng = random.Random(47)
    for p, space in helpers.corpus():
        by_state = resolutions_by_state(p, space)
        probes = [random_expectation(space, rng) for _ in range(6)]
        probes.append(constant(space, 1))
        for f in probes:
            r = wp(p, f, space)
            for state, outs in by_state.items():
                assert r.pre[state] == min_expected(outs, f)


def test_boolean_embedding_matches_classical_wp():
    # over the probability-free demonic fragment, wp([A]) is the indicator
    # of Dijkstra's wp(P, A)
    cases = [
        ("SKIP", "x = 1"),
        ("ABORT", "x = 1"),
        ("x := 1", "x = 1"),
        ("y := 1 - y; x := y", "y = 0 | x = 1"),
        ("IF x = 0 THEN y := 1 ELSE y := 0", "x + y = 1"),
        ("x := 0 |^| x := 1", "x <= 1"),
        ("x := 0 |^| x := 1", "x = 0"),
        ("x :in {0, 1, 2}", "x < 2"),
        ("x :suchthat x > y", "x > 1"),
        ("IF x <= 1 -> y := 0 [] x >= 1 -> y := 1 FI", "y <= x"),
        ("{x = y}; x := 2", "x = 2"),
    ]
    space = helpers.space_of(("x", (0, 1, 2)), ("y", (0, 1)))
    for prog_text, pred_text in cases:
        p = helpers.prog(prog_text, space)
        post = helpers.bracket_post(space, pred_text)
        got = wp(p, post, space).pre
        want = helpers.classical_wp(p, space, helpers.pred_states(space, pred_text))
        for i in range(space.size):
            assert got.values[i] in (F(0), F(1)), (prog_text, i)
            assert (got.values[i] == 1) == (i in want), (prog_text, pred_text, i)


def test_loop_corpus_converges_within_tolerance():
    # exactly: every loop in the corpus ends almost surely, so wp(1) = 1
    for p, space in helpers.loop_corpus():
        r = wp(p, constant(space, 1), space)
        assert r.loop_residual == 0
        assert set(r.pre.values) == {F(1)}


def test_seq_composes():
    rng = random.Random(48)
    s = helpers.coin_space()
    first = helpers.prog("c1 :in H <1/3> T", s)
    second = helpers.prog("c2 :in H <1/4> T", s)
    both = helpers.prog("c1 :in H <1/3> T; c2 :in H <1/4> T", s)
    for _ in range(4):
        f = random_expectation(s, rng)
        inner = wp(second, f, s).pre
        assert wp(first, inner, s).pre.values == wp(both, f, s).pre.values


def test_if_decomposes_into_guard_brackets():
    s = helpers.space_of(("x", (0, 1, 2)), ("y", (0, 1)))
    p = helpers.prog("IF x = 0 THEN y := 1 ELSE y := 0", s)
    then = helpers.prog("y := 1", s)
    orelse = helpers.prog("y := 0", s)
    guard = from_expr(s, Bracket(helpers.expr("x = 0", s)))
    rng = random.Random(49)
    f = random_expectation(s, rng)
    got = wp(p, f, s).pre
    t, e = wp(then, f, s).pre, wp(orelse, f, s).pre
    for i in range(s.size):
        g = guard.values[i]
        assert got.values[i] == g * t.values[i] + (1 - g) * e.values[i]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([F(1, 8), F(1, 3), F(5, 8), F(1)]))
def test_prob_choice_mixes_linearly(seed, pv):
    s = helpers.bit_space()
    rng = random.Random(seed)
    f = random_expectation(s, rng)
    left = helpers.prog("x := 0", s)
    right = helpers.prog("x := 1", s)
    mixed = helpers.prog("x := 0 <p> x := 1", s, p=pv)
    a = wp(left, f, s).pre
    b = wp(right, f, s).pre
    got = wp(mixed, f, s).pre
    for i in range(s.size):
        assert got.values[i] == pv * a.values[i] + (1 - pv) * b.values[i]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16))
def test_demon_choice_is_pointwise_min(seed):
    s = helpers.coin_space()
    rng = random.Random(seed)
    f = random_expectation(s, rng)
    left = helpers.prog("c1 := H", s)
    right = helpers.prog("c2 := T", s)
    both = helpers.prog("c1 := H |^| c2 := T", s)
    a = wp(left, f, s).pre
    b = wp(right, f, s).pre
    got = wp(both, f, s).pre
    assert got.values == tuple(map(min, a.values, b.values))


def test_indicator_probes_separate_distinct_programs():
    s = helpers.bit_space()
    left = helpers.prog("x :in 1 <1/4> 0", s)
    right = helpers.prog("x :in 1 <3/8> 0", s)
    diffs = [
        i
        for i in range(s.size)
        if wp(left, indicator(s, i), s).pre.values
        != wp(right, indicator(s, i), s).pre.values
    ]
    assert diffs
