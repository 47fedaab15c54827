from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgclkit import (
    BitsExhaustedError,
    CumulativeDist,
    DistError,
    RandomBitSource,
    ScriptedBitSource,
    WeightedDist,
    WindowInvariantError,
    read_trials_file,
    run_trials,
    sample_binary,
    sample_discrete,
)

F = Fraction


def test_weighted_dist_validation():
    d = WeightedDist((2, 1, 3, 4))
    assert d.size == 4
    assert d.total == 10
    assert d.probability(1) == F(1, 5)
    assert d.probability(4) == F(2, 5)
    for bad in ((), (0,), (1, -2), (1.5,), (True,)):
        with pytest.raises(DistError):
            WeightedDist(bad)


def test_weighted_dist_parse():
    assert WeightedDist.parse("1 2 3").weights == (1, 2, 3)
    with pytest.raises(DistError):
        WeightedDist.parse("1 two 3")


def test_initial_cumulative_list():
    c = CumulativeDist.initial(WeightedDist((2, 1, 3, 4)))
    assert c.dL == (2, 3, 6)
    assert c.total == 10
    assert (c.low, c.high) == (0, 3)
    assert c.support_size == 4
    c.check_invariant()


def test_heads_doubles_until_past_half():
    c = CumulativeDist.initial(WeightedDist((2, 1, 3, 4)))
    h = c.split_left()
    assert (h.low, h.window(), h.high) == (0, (4, 6), 2)
    h.check_invariant()


def test_tails_mirrors_heads():
    c = CumulativeDist.initial(WeightedDist((2, 1, 3, 4)))
    t = c.split_right()
    assert t.high == 3
    assert all(0 < v < 10 for v in t.window())
    t.check_invariant()


def test_boundary_entry_stops_both_sweeps():
    # dL = (1,) with total 2: the halved mass splits exactly at the boundary
    c = CumulativeDist.initial(WeightedDist((1, 1)))
    h = c.split_left()
    assert h.is_terminal and h.outcome == 1
    t = c.split_right()
    assert t.is_terminal and t.outcome == 2


def test_single_outcome_needs_no_flips():
    trace = sample_discrete(WeightedDist((1,)), ScriptedBitSource(()))
    assert trace.outcome == 1
    assert trace.flips == 0
    trace = sample_discrete(WeightedDist((7,)), ScriptedBitSource(()))
    assert trace.outcome == 1


DIE = WeightedDist((1, 1, 1, 1, 1, 1))


def test_die_traces_match_hand_runs():
    for bits, outcome in (
        ((0, 0, 0), 1),
        ((0, 1, 1), 3),
        ((1, 1, 1), 6),
        ((1, 0, 0), 4),
    ):
        trace = sample_discrete(DIE, ScriptedBitSource(bits))
        assert trace.outcome == outcome
        assert trace.flips == 3
        assert trace.bits == bits


def test_die_intermediate_configurations():
    c = CumulativeDist.initial(DIE)
    assert c.dL == (1, 2, 3, 4, 5)
    h = c.split_left()
    assert h.key() == (0, (2, 4), 2)
    hh = h.split_left()
    assert hh.key() == (0, (4,), 1)
    assert not hh.is_terminal


def test_die_runs_out_of_bits_mid_sample():
    with pytest.raises(BitsExhaustedError):
        sample_discrete(DIE, ScriptedBitSource((0, 0)))


def test_leftover_scripted_bits_are_fine():
    src = ScriptedBitSource((1, 1, 0, 1, 0))
    trace = sample_discrete(WeightedDist((1, 1)), src)
    assert trace.outcome == 2
    assert trace.flips == 1
    assert src.consumed == 1


def test_scripted_source_validates_bits():
    with pytest.raises(DistError):
        ScriptedBitSource((0, 2))


BINARY_TRACES = (
    (F(0), (), 0),
    (F(1), (), 1),
    (F(1, 2), (0,), 0),
    (F(1, 2), (1,), 1),
    (F(1, 3), (0,), 0),
    (F(1, 3), (1, 1), 1),
    (F(1, 3), (1, 0, 0), 0),
    (F(2, 3), (0, 0), 0),
    (F(2, 3), (1,), 1),
    (F(3, 8), (0,), 0),
    (F(3, 8), (1, 1), 1),
    (F(3, 8), (1, 0, 0), 0),
    (F(3, 4), (1,), 1),
    (F(3, 4), (0, 0), 0),
    (F(3, 4), (0, 1), 1),
)


def test_binary_traces_match_hand_runs():
    for p, bits, outcome in BINARY_TRACES:
        trace = sample_binary(p, ScriptedBitSource(bits))
        assert trace.outcome == outcome, (p, bits)
        assert trace.flips == len(bits)


def test_binary_needs_more_bits_for_odd_biases():
    with pytest.raises(BitsExhaustedError):
        sample_binary(F(1, 3), ScriptedBitSource((1, 0)))


def test_binary_rejects_bias_outside_unit_interval():
    with pytest.raises(DistError):
        sample_binary(F(3, 2), ScriptedBitSource(()))


def test_trials_are_reproducible_and_exhaustive():
    d = WeightedDist((1, 2))
    a = run_trials(d, 500, seed=7)
    b = run_trials(d, 500, seed=7)
    assert a == b
    assert sum(a.tallies) == 500
    assert a.avg_flips > 0
    c = run_trials(d, 500, seed=8)
    assert c != a


def test_trials_sharding_is_reproducible():
    d = WeightedDist((2, 1, 3, 4))
    a = run_trials(d, 1000, seed=3, shards=4)
    b = run_trials(d, 1000, seed=3, shards=4)
    assert a == b
    assert sum(a.tallies) == 1000
    with pytest.raises(DistError):
        run_trials(d, 10, seed=0, shards=11)
    # seed * 1_000_003 + shard: (0, 1_000_003) would replay (1, 0)
    with pytest.raises(DistError):
        run_trials(d, 2_000_000, 0, shards=1_000_004)


def test_fair_coin_statistics_are_sane():
    r = run_trials(WeightedDist((1, 1)), 2000, seed=1)
    assert r.total_flips == 2000  # one flip per run, always
    assert r.flip_variance() == 0
    assert all(F(9, 10) < f < F(11, 10) for f in r.rel_freq)


def test_format_table_mentions_every_outcome():
    r = run_trials(WeightedDist((1, 2)), 100, seed=0)
    text = r.format_table()
    assert "outcome 1" in text and "outcome 2" in text
    assert "100 runs" in text


def test_read_trials_file():
    runs, d = read_trials_file("1000\n1 2\n3\n")
    assert runs == 1000
    assert d.weights == (1, 2, 3)
    with pytest.raises(DistError):
        read_trials_file("")
    with pytest.raises(DistError):
        read_trials_file("x\n1 2\n")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_window_invariant_holds_for_random_weights_and_bits(ws, rng):
    # the invariant re-check inside sample_discrete raises on any violation
    class _Rng:
        def next_bit(self):
            return rng.randrange(2)

    d = WeightedDist(tuple(ws))
    trace = sample_discrete(d, _Rng())
    assert 1 <= trace.outcome <= d.size


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 64), st.integers(1, 64), st.integers(0, 2**32))
def test_binary_sampler_always_terminates(num, den, seed):
    p = F(min(num, den), den)
    trace = sample_binary(p, RandomBitSource(seed))
    assert trace.outcome in (0, 1)


def test_split_of_terminal_configuration_is_rejected():
    c = CumulativeDist.initial(WeightedDist((5,)))
    assert c.is_terminal
    with pytest.raises(WindowInvariantError):
        c.split_left()
    with pytest.raises(WindowInvariantError):
        c.split_right()


def test_outcome_before_terminal_is_rejected():
    c = CumulativeDist.initial(WeightedDist((1, 1)))
    with pytest.raises(WindowInvariantError):
        c.outcome
