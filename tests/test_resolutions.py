from fractions import Fraction

import pytest

import helpers
from pgclkit import (
    ResolutionLimitError,
    from_expr,
    indicator,
    wp,
)
from resolutions import Dist, enumerate_resolutions, min_expected, resolutions_by_state

F = Fraction


def test_demon_choice_yields_two_point_outcomes():
    s = helpers.coin_space()
    p = helpers.prog("c2 := H |^| c2 := T", s)
    by_state = resolutions_by_state(p, s)
    start = s.state(c1="H", c2="H")
    outs = by_state[start]
    assert len(outs) == 2
    targets = sorted(i for d in outs for i, _ in d.items())
    assert [s.state_at(i)["c2"] for i in targets] == ["H", "T"]
    assert all(d.total() == 1 for d in outs)


def test_overlapping_guards_keep_both_selections():
    # at the boundary both branches are enabled and coincide; they still
    # count as two distinct demonic selections
    s = helpers.pqr_space()
    p = helpers.prog(
        "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI", s
    )
    half = s.state(x=0, p=F(1, 2), q=0, r=0)
    outs = resolutions_by_state(p, s)[half]
    assert len(outs) == 2
    assert outs[0] == outs[1]
    (target, mass), = outs[0].items()
    assert mass == 1
    assert s.state_at(target)["q"] == 0
    assert s.state_at(target)["r"] == 1

    low = s.state(x=0, p=F(1, 4), q=0, r=0)
    assert len(resolutions_by_state(p, s)[low]) == 1


def test_probabilistic_program_has_single_resolution():
    s = helpers.coin_space()
    p = helpers.prog("c1 :in H <1/3> T; c2 :in H <1/2> T", s)
    for state, outs in resolutions_by_state(p, s).items():
        assert len(outs) == 1
        (d,) = outs
        assert d.total() == 1
        assert len(d.items()) == 4


def test_abort_loses_all_mass():
    s = helpers.bit_space()
    p = helpers.prog("ABORT <1/4> SKIP", s)
    for outs in resolutions_by_state(p, s).values():
        (d,) = outs
        assert d.total() == F(3, 4)


def test_assertion_failure_loses_mass_pointwise():
    s = helpers.coin_space()
    p = helpers.prog("{c1 = c2}", s)
    by_state = resolutions_by_state(p, s)
    assert by_state[s.state(c1="H", c2="H")][0].total() == 1
    assert by_state[s.state(c1="H", c2="T")][0] == Dist.zero()


def test_wp_is_min_over_resolutions_on_corpus():
    for p, space in helpers.corpus():
        by_state = resolutions_by_state(p, space)
        probes = [from_expr(space, helpers.expr("1", space))]
        probes.extend(indicator(space, i) for i in range(space.size))
        for probe in probes:
            r = wp(p, probe, space)
            for state, outs in by_state.items():
                assert r.pre[state] == min_expected(outs, probe)


def test_enumerate_resolutions_counts_policy_product():
    s = helpers.bit_space()
    p = helpers.prog("x := 0 |^| x := 1", s)
    policies = enumerate_resolutions(p, s)
    # two choices at each of the two initial states
    assert len(policies) == 4
    assert [k for k, _ in policies] == [0, 1, 2, 3]
    seen = {tuple(sorted((st.index, d.items()) for st, d in pol.items()))
            for _, pol in policies}
    assert len(seen) == 4


def test_seq_lets_the_demon_look_at_intermediate_state():
    # first a fair flip, then a demonic choice: the demon may pick
    # differently on each branch, giving four policies from one state
    s = helpers.coin_space()
    p = helpers.prog("c1 :in H <1/2> T; c2 := H |^| c2 := T", s)
    outs = resolutions_by_state(p, s)[s.state(c1="H", c2="H")]
    assert len(outs) == 4
    post = helpers.bracket_post(s, "c1 = c2")
    vals = sorted(d.expectation(post.values) for d in outs)
    assert vals == [F(0), F(1, 2), F(1, 2), F(1)]


def test_loops_are_rejected():
    s = helpers.coin_space()
    p = helpers.prog("WHILE c1 = H DO c1 := T OD", s)
    with pytest.raises(ResolutionLimitError):
        resolutions_by_state(p, s)


def test_budget_is_enforced():
    s = helpers.coin_space()
    p = helpers.prog(
        "c1 := H |^| c1 := T; c2 := H |^| c2 := T; c1 := H |^| c1 := T", s
    )
    with pytest.raises(ResolutionLimitError):
        resolutions_by_state(p, s, limit=3)
    assert len(resolutions_by_state(p, s, limit=100)[s.state_at(0)]) == 8


def test_suchthat_enumerates_satisfying_assignments():
    s = helpers.pqr_space(grid=(F(0), F(1, 2), F(1)))
    p = helpers.prog("q,r :suchthat (q+r)/2 = p", s)
    start = s.state(x=0, p=F(1, 2), q=0, r=0)
    outs = resolutions_by_state(p, s)[start]
    pairs = sorted(
        (s.state_at(d.items()[0][0])["q"], s.state_at(d.items()[0][0])["r"])
        for d in outs
    )
    assert pairs == [(F(0), F(1)), (F(1, 2), F(1, 2)), (F(1), F(0))]
