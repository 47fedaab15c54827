import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgclkit import (
    BitsExhaustedError,
    CumulativeDist,
    TrialsResult,
    DistError,
    RandomBitSource,
    SampleTrace,
    ScriptedBitSource,
    WeightedDist,
    WindowInvariantError,
    read_trials_file,
    run_trials,
    sample_binary,
    sample_discrete,
)
from pgclkit.bits import BLOCK_BITS, random_bit_blocks
from pgclkit.sampler import build_machine

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
    assert c.window == (2, 3, 6)
    assert c.total == 10
    assert (c.low, c.high, c.n_sums) == (0, 3, 3)
    c.check_invariant()


def test_heads_doubles_until_past_half():
    c = CumulativeDist.initial(WeightedDist((2, 1, 3, 4)))
    h = c.split_left()
    assert (h.low, h.window, h.high) == (0, (4, 6), 2)
    h.check_invariant()


def test_tails_mirrors_heads():
    c = CumulativeDist.initial(WeightedDist((2, 1, 3, 4)))
    t = c.split_right()
    assert t.high == 3
    assert all(0 < v < 10 for v in t.window)
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


def test_a_sample_trace_is_a_pair_with_named_fields():
    trace = sample_discrete(WeightedDist((1, 1)), ScriptedBitSource((1,)))
    assert repr(trace) == "SampleTrace(outcome=2, bits=(1,))"
    assert (trace.outcome, trace.bits, trace.flips) == (2, (1,), 1)
    assert trace == SampleTrace(2, (1,)) == (2, (1,))


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
    assert c.window == (1, 2, 3, 4, 5)
    h = c.split_left()
    assert (h.low, h.window, h.high) == (0, (2, 4), 2)
    hh = h.split_left()
    assert (hh.low, hh.window, hh.high) == (0, (4,), 1)
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


def test_binary_refuses_floats_and_bools():
    # 0.1 would be sampled at its binary value, and True as the bias 1
    for bad in (0.1, 0.5, True, False):
        with pytest.raises(DistError, match="is not exact"):
            sample_binary(bad, ScriptedBitSource((0, 1) * 40))
    assert sample_binary(1, ScriptedBitSource(())).outcome == 1
    assert sample_binary(0, ScriptedBitSource(())).outcome == 0


def test_trials_are_reproducible_and_exhaustive():
    d = WeightedDist((1, 2))
    a = run_trials(d, 500, seed=7)
    b = run_trials(d, 500, seed=7)
    assert a == b
    assert sum(a.tallies) == 500
    assert a.avg_flips > 0
    c = run_trials(d, 500, seed=8)
    assert c != a


def test_trials_repeat_per_seed_and_reject_negative_seeds():
    d = WeightedDist((2, 1, 3, 4))
    a = run_trials(d, 1000, seed=3)
    b = run_trials(d, 1000, seed=3)
    assert a == b
    assert sum(a.tallies) == 1000
    # random.Random seeds with |seed|, so seed -1 would replay seed 1
    with pytest.raises(DistError, match="non-negative"):
        run_trials(WeightedDist((1, 2, 3)), 200, -1)
    with pytest.raises(DistError, match="non-negative"):
        RandomBitSource(-1)


@pytest.mark.parametrize("seed", [True, False, 2.0, "1"])
def test_a_seed_that_is_no_int_is_refused(seed):
    # random.Random seeds True as 1 and 2.0 as 2, so either would replay
    # the stream of an int seed
    with pytest.raises(DistError, match="seed must be an int"):
        RandomBitSource(seed)
    with pytest.raises(DistError, match="seed must be an int"):
        run_trials(WeightedDist((1, 2, 3)), 200, seed)


@pytest.mark.parametrize("runs", [True, 2.5, 3.0, "3"])
def test_a_run_count_that_is_no_int_is_refused(runs):
    # True would run once and report runs=True; 2.5 has no count of draws
    with pytest.raises(DistError, match="run count must be an int"):
        run_trials(WeightedDist((1, 2, 3)), runs, 0)


def test_trials_repeat_the_results_pinned_before_the_block_walk():
    # taken with the bit-by-bit walk over RandomBitSource(seed).next_bit
    assert run_trials(WeightedDist((1, 2, 3)), 3000, 11) == \
        TrialsResult((1, 2, 3), 3000, 11, (521, 1009, 1470), 6073)
    die = WeightedDist((1,) * 6)
    for seed, tallies, flips in (
            (0, (3308, 3362, 3421, 3268, 3347, 3294), 79885),
            (1, (3328, 3387, 3242, 3315, 3376, 3352), 80229),
            (2**31 - 1, (3267, 3417, 3395, 3339, 3317, 3265), 80260)):
        assert run_trials(die, 20_000, seed) == \
            TrialsResult(die.weights, 20_000, seed, tallies, flips)


def test_bit_blocks_are_the_stream_of_next_bit():
    for seed in (0, 1, 2**31 - 1):
        source, blocks = RandomBitSource(seed), random_bit_blocks(seed)
        for _ in range(3):
            block = next(blocks)
            assert len(block) == BLOCK_BITS
            assert list(block) == [source.next_bit() for _ in range(BLOCK_BITS)]
    # the seed is checked when the blocks are asked for, not at the first
    for seed in (-1, True, 2.0):
        with pytest.raises(DistError):
            random_bit_blocks(seed)


def _interval_sample(d, bits):
    # the independent oracle, the interval algorithm with no sampler code:
    # reading heads as 0, the bits b1..bk pick the dyadic interval
    # [x / 2^k, (x + 1) / 2^k); sampling stops at the first k where no
    # boundary C_j / T of the cumulative weights lies strictly inside it,
    # and the outcome is the weight interval that contains it
    total, sums = d.total, list(accumulate(d.weights))
    x, scale, consumed = 0, 1, []
    inside = sums[:-1]  # the boundaries strictly inside (x, x + 1) / scale
    while inside:
        b = bits.next_bit()
        consumed.append(b)
        x, scale = 2 * x + b, 2 * scale
        # a boundary inside the half was inside the whole
        inside = [c for c in inside if x * total < c * scale < (x + 1) * total]
    outcome = next(j for j, c in enumerate(sums, 1) if (x + 1) * total <= c * scale)
    return SampleTrace(outcome, tuple(consumed))


def _reference_trials(d, runs, seed):
    # one oracle draw per run, all on the one stream of the seed
    tallies = [0] * d.size
    total_flips = 0
    source = RandomBitSource(seed)
    for _ in range(runs):
        trace = _interval_sample(d, source)
        tallies[trace.outcome - 1] += 1
        total_flips += trace.flips
    return TrialsResult(d.weights, runs, seed, tuple(tallies), total_flips)


WEIGHTS = [
    (1,), (7,), (1, 1), (1, 2), (2, 1, 3, 4), (5, 1, 1, 1), (1,) * 6,
    tuple(range(1, 17)), (54, 25, 64), (50, 98, 54, 6, 34, 66, 63, 52),
    (1, 999999936),
]


@pytest.mark.parametrize("weights", WEIGHTS)
def test_trials_walk_matches_per_flip_sampling_bit_for_bit(weights):
    d = WeightedDist(weights)
    for seed in (0, 1, 2**31 - 1):
        for runs in (1, 7, 3000):
            assert run_trials(d, runs, seed) == _reference_trials(d, runs, seed)
        # per draw, its flip count: what the total grows by with one more run
        source = RandomBitSource(seed)
        flips = [_interval_sample(d, source).flips for _ in range(60)]
        totals = [0] + [run_trials(d, runs, seed).total_flips for runs in range(1, 61)]
        assert [b - a for a, b in zip(totals, totals[1:])] == flips


@pytest.mark.parametrize("weights", WEIGHTS)
def test_sample_discrete_matches_per_flip_sampling_bit_for_bit(weights):
    for seed in (0, 1, 2**31 - 1):
        # a cold table: a fresh dist object for every draw
        source, reference = RandomBitSource(seed), RandomBitSource(seed)
        for _ in range(30):
            assert sample_discrete(WeightedDist(weights), source) == \
                _interval_sample(WeightedDist(weights), reference)
        # a warm table, grown by earlier trials on the same object
        d = WeightedDist(weights)
        run_trials(d, 2000, seed + 1)
        source, reference = RandomBitSource(seed), RandomBitSource(seed)
        for _ in range(300):
            assert sample_discrete(d, source) == _interval_sample(d, reference)
        # trials and single draws interleaved on one object
        d = WeightedDist(weights)
        source, reference = RandomBitSource(seed), RandomBitSource(seed)
        for runs in (1, 2, 5, 40):
            for _ in range(runs):
                assert sample_discrete(d, source) == _interval_sample(d, reference)
            assert run_trials(d, runs, seed + runs) == \
                _reference_trials(d, runs, seed + runs)


def _seeded_vectors():
    rng = random.Random(31)
    for n in (2, 3, 5, 17, 64, 150, 300):
        yield tuple(rng.randint(1, 10 ** rng.randint(1, 9)) for _ in range(n))
    yield tuple(range(1, 301))


@pytest.mark.parametrize("weights", list(_seeded_vectors()))
def test_draws_follow_the_dyadic_interval_rule(weights):
    # every configuration derived cold, on a fresh dist, against an oracle
    # that shares no code with the sampler
    for seed in (0, 7):
        source, reference = RandomBitSource(seed), RandomBitSource(seed)
        d = WeightedDist(weights)
        for _ in range(200):
            assert sample_discrete(d, source) == _interval_sample(d, reference)
        assert run_trials(WeightedDist(weights), 1000, seed) == \
            _reference_trials(WeightedDist(weights), 1000, seed)


def test_a_cold_ramp_of_1000_outcomes_stays_small():
    # a configuration stores only its window's sums, so memory follows the
    # live windows, not N times the configurations derived
    tracemalloc.start()
    try:
        run_trials(WeightedDist(tuple(range(1, 1001))), 20_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def _discrete_trials(d, runs, seed):
    # `runs` sample_discrete draws from the stream of the seed, which the
    # tests above pin to the interval oracle: their result, and the
    # (first bit, end) of each draw on the stream
    source, tallies, spans, pos = RandomBitSource(seed), [0] * d.size, [], 0
    for _ in range(runs):
        trace = sample_discrete(d, source)
        tallies[trace.outcome - 1] += 1
        spans.append((pos, pos + trace.flips))
        pos += trace.flips
    return TrialsResult(d.weights, runs, seed, tuple(tallies), pos), spans


@pytest.mark.parametrize("weights, kinds", [
    # over seeds 0..19, the die's draws that run off a block all start in
    # its last 8 bits, which no window of 8 bits covers; a 300-outcome
    # ramp's draws, of 9 flips and more, also start before them and run
    # past the 8 bits of their window
    ((1,) * 6, {True}),
    (tuple(range(1, 301)), {True, False}),
])
def test_trials_match_single_draws_across_block_ends(weights, kinds):
    d, k, seen = WeightedDist(weights), BLOCK_BITS, set()
    for seed in range(20):
        expected, spans = _discrete_trials(d, 3000, seed)
        assert run_trials(d, 3000, seed) == expected
        # per draw that runs off a block: whether it starts in the last 8 bits
        seen |= {a % k > k - 8 for a, b in spans if a // k < (b - 1) // k}
    assert seen == kinds
    assert run_trials(d, 3000, 0) == _reference_trials(d, 3000, 0)


def test_windows_of_8_bits_never_read_past_a_block():
    # 128 equal weights: every draw takes 7 flips; the block length is not
    # a multiple of 7, so draws start at each of the last 7 bits of one
    # block or another, where a window would hold bits of the next block
    d, k = WeightedDist((1,) * 128), BLOCK_BITS
    for seed in range(4):
        expected, spans = _discrete_trials(d, 8400, seed)
        assert {b - a for a, b in spans} == {7}
        assert {k - a % k for a, _ in spans if a % k > k - 8} == set(range(1, 8))
        assert run_trials(d, 8400, seed) == expected


def test_trials_match_per_flip_sampling_past_the_root_row():
    d = WeightedDist((1, 999999936))
    for seed in (0, 1):
        # the root row resolves a draw's first 8 flips; these go on
        assert sum(b - a > 8 for a, b in _discrete_trials(d, 20_000, seed)[1]) > 20
        assert run_trials(d, 20_000, seed) == _reference_trials(d, 20_000, seed)


def test_exhausted_scripted_bits_leave_the_table_usable():
    for weights in ((1,) * 6, (54, 25, 64), (1, 999999936)):
        rng = random.Random(sum(weights))
        d = WeightedDist(weights)
        for _ in range(40):
            bits = [rng.randrange(2) for _ in range(40)]
            full = _interval_sample(d, ScriptedBitSource(bits))
            if full.flips:
                # run out one bit short, part way into the draw
                with pytest.raises(BitsExhaustedError):
                    sample_discrete(d, ScriptedBitSource(bits[: full.flips - 1]))
            assert sample_discrete(d, ScriptedBitSource(bits)) == full


def test_every_derived_configuration_is_checked_before_use(monkeypatch):
    real = CumulativeDist.check_invariant

    def check(c):
        if (c.low, c.window, c.high) == (0, (4,), 1):  # the die after heads, heads
            raise WindowInvariantError("planted")
        real(c)

    monkeypatch.setattr(CumulativeDist, "check_invariant", check)
    d = WeightedDist((1,) * 6)
    with pytest.raises(WindowInvariantError, match="planted"):
        sample_discrete(d, ScriptedBitSource((0, 0, 0)))
    derived = len(d._successor_table)
    # a failed derivation is never stored, so the retry checks and fails again
    with pytest.raises(WindowInvariantError, match="planted"):
        sample_discrete(d, ScriptedBitSource((0, 0, 0)))
    assert len(d._successor_table) == derived
    with pytest.raises(WindowInvariantError, match="planted"):
        run_trials(d, 1, _seed_starting_with(0, 0))
    # draws whose bits avoid it succeed
    assert sample_discrete(d, ScriptedBitSource((0, 1, 1))).outcome == 3
    assert sample_discrete(d, ScriptedBitSource((1, 1, 1))).outcome == 6


@pytest.mark.parametrize("weights, planted, unfilled", [
    # the die after heads, heads: inside the root row, so no window that
    # starts with two heads gets an entry
    ((1,) * 6, (0, (4,), 1), range(0, 256, 4)),
    # after 9 heads: past the root row
    ((1, 999999936), (0, (512,), 1), ()),
])
def test_a_failed_check_inside_bulk_trials_stores_nothing(monkeypatch, weights,
                                                         planted, unfilled):
    real = CumulativeDist.check_invariant

    def check(c):
        if (c.low, c.window, c.high) == planted:
            raise WindowInvariantError("planted")
        real(c)

    monkeypatch.setattr(CumulativeDist, "check_invariant", check)
    d = WeightedDist(weights)
    with pytest.raises(WindowInvariantError, match="planted"):
        run_trials(d, 20_000, 1)
    table = d._successor_table
    derived, row = len(table), list(table.root_row)
    assert all(row[w] is None for w in unfilled)
    # a failed derivation is never stored, so the retry checks and fails again
    with pytest.raises(WindowInvariantError, match="planted"):
        run_trials(d, 20_000, 1)
    assert len(table) == derived
    assert table.root_row == row


def _seed_starting_with(*bits):
    for seed in range(1000):
        source = RandomBitSource(seed)
        if [source.next_bit() for _ in bits] == list(bits):
            return seed


@pytest.mark.parametrize("weights", [tuple(range(1, 17)), (1, 999999936)])
def test_table_holds_only_the_configurations_draws_reach(weights):
    # at depth k at most N - 1 unresolved dyadic intervals remain, so
    # `draws` draws reach about (N - 1) * log2(draws) configurations
    d = WeightedDist(weights)
    draws = 100_000
    run_trials(d, draws, seed=5)
    assert len(d._successor_table) <= (d.size - 1) * (math.log2(draws) + 8)


def test_trials_with_fewer_runs_than_nodes_match_per_flip_sampling():
    # fewer runs than the built machine has nodes, so the walk reaches only
    # part of it; the draws still read the same bits as the interval oracle
    d = WeightedDist((50, 98, 54, 6, 34, 66, 63, 52))
    assert 200 < build_machine(d).size
    for runs in (1, 7, 200):
        for seed in (0, 1, 2**31 - 1):
            assert run_trials(d, runs, seed) == _reference_trials(d, runs, seed)
    # beyond the node cap of build_machine
    d = WeightedDist((1, 999999936))
    for runs in (1, 2, 5):
        for seed in (0, 1, 2**31 - 1):
            assert run_trials(d, runs, seed) == _reference_trials(d, runs, seed)


def test_random_bits_are_getrandbits_1():
    for seed in (0, 7, 2**40 + 1):
        src, rng = RandomBitSource(seed), random.Random(seed)
        assert [src.next_bit() for _ in range(10_000)] == \
            [rng.getrandbits(1) for _ in range(10_000)]


def test_fair_coin_statistics_are_sane():
    r = run_trials(WeightedDist((1, 1)), 2000, seed=1)
    assert r.total_flips == 2000  # one flip per run, always
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
    # sample_discrete checks the invariant at every configuration it
    # derives, here all of them on a fresh dist, and raises on any violation
    class _Rng:
        def next_bit(self):
            return rng.randrange(2)

    d = WeightedDist(tuple(ws))
    trace = sample_discrete(d, _Rng())
    assert 1 <= trace.outcome <= d.size


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**12).flatmap(
    lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
    st.randoms(use_true_random=False))
def test_binary_sampler_is_the_two_outcome_discrete_sampler(ab, rng):
    # outcome 1 of sample_binary(a/b) is the upper interval of mass a/b
    a, b = ab
    bits = [rng.randrange(2) for _ in range(200)]
    binary = sample_binary(F(a, b), ScriptedBitSource(bits))
    discrete = sample_discrete(WeightedDist((b - a, a)), ScriptedBitSource(bits))
    assert binary.bits == discrete.bits
    assert binary.outcome + 1 == discrete.outcome


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
