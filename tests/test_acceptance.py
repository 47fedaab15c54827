"""Acceptance gate: one test per shipped criterion, pinned tolerances.

Each test prints a single `criterion N: PASS|FAIL` line (visible with
pytest -s, and in the captured output of any failure).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import scipy.stats

import helpers
from pgclkit import (
    ProbeFamily,
    RandomBitSource,
    ScriptedBitSource,
    VariantSpec,
    WeightedDist,
    WpConfig,
    WpError,
    analyze,
    build_machine,
    check_equal,
    check_refines,
    check_variant,
    constant,
    dyadic_grid,
    from_expr,
    indicator,
    load_machine,
    min_expected,
    parse_expression,
    resolutions_by_state,
    run_trials,
    sample_binary,
    sample_discrete,
    space_of,
    wp,
)

F = Fraction

DIE = WeightedDist((1, 1, 1, 1, 1, 1))
TRIALS_SEED = 20260814


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {label}")
        raise
    print(f"criterion {n}: PASS - {label}")


def test_criterion_1_wp_oracle_suite():
    with criterion(1, "wp oracle suite, exact equalities under 1 s"):
        t0 = time.monotonic()
        coins = helpers.coin_space()
        post = helpers.bracket_post(coins, "c1 = c2")

        r = wp(helpers.prog("c1 :in H <1/2> T; c2 :in H <1/2> T", coins), post)
        assert r.pre.values == (F(1, 2),) * 4 and r.loop_residual == 0

        for pv in dyadic_grid():
            mixed = helpers.prog("c1 :in H <p> T; c2 :in H <1/2> T", coins, p=pv)
            assert wp(mixed, post).pre.values == (F(1, 2),) * 4

            after = helpers.prog("c1 :in H <p> T; c2 :in H |^| T", coins, p=pv)
            assert wp(after, post).pre.values == (F(0),) * 4

            before = helpers.prog("c2 :in H |^| T; c1 :in H <p> T", coins, p=pv)
            assert wp(before, post).pre.values == (min(pv, 1 - pv),) * 4

        grid = space_of(("x", (0, 1, 3, 9)), ("y", (0, 1)))
        assign = helpers.prog("x := 1 - y <1/3> x := 3 * x", grid)
        got = wp(assign, from_expr(grid, helpers.expr("x + 3", grid)),
                 cfg=WpConfig(undefined="mask"))
        undefined = {st.index for st in got.undefined_states}
        checked = 0
        for st in grid.states():
            if st.index in undefined:
                assert st["x"] == 9  # 3x leaves the domain there
                continue
            x, y = st["x"], st["y"]
            assert got.pre[st] == F(1, 3) * (1 - y + 3) + F(2, 3) * (3 * x + 3)
            checked += 1
        assert checked == 6

        assert time.monotonic() - t0 < 1.0


def test_criterion_2_derivation_step_suite():
    with criterion(2, "derivation steps: equality, refinement, variants"):
        # one unrolled split step against the specification, per grid bias
        step_space = space_of(
            ("x", (0, 1)), ("q", helpers.EIGHTHS), ("r", helpers.EIGHTHS)
        )
        fam = ProbeFamily.over_vars(step_space, ("x",))
        for pv in dyadic_grid():
            spec = helpers.prog(helpers.BIAS_SPEC, step_space, p=pv)
            step = helpers.prog(helpers.SPLIT_THEN_COIN, step_space, p=pv)
            v = check_equal(spec, step, fam, step_space)
            assert v.holds and v.residual == 0, (pv, str(v))
            assert v.method == "rows", pv  # every side is one flat pick

        # the full loop: exact on dyadic biases
        dyadic = helpers.pqr_space()
        fam = ProbeFamily.over_vars(dyadic, ("x",))
        v = check_equal(
            helpers.prog(helpers.BIAS_SPEC, dyadic),
            helpers.prog(helpers.HALVING_LOOP, dyadic),
            fam, dyadic,
        )
        assert v.holds and v.residual == 0 and v.method == "rows", str(v)

        # and on the non-dyadic biases 1/3 and 2/3, whose fixpoint is a limit
        thirds = helpers.pqr_space(grid=helpers.THIRDS)
        fam = ProbeFamily.over_vars(thirds, ("x",))
        v = check_equal(
            helpers.prog(helpers.BIAS_SPEC, thirds),
            helpers.prog(helpers.HALVING_LOOP, thirds),
            fam, thirds,
        )
        assert v.holds and v.residual == 0 and v.method == "rows", str(v)

        # constraining the split to an extreme endpoint refines the free split
        split_space = space_of(
            ("p", helpers.EIGHTHS), ("q", helpers.EIGHTHS), ("r", helpers.EIGHTHS)
        )
        free = helpers.prog("q,r :suchthat (q+r)/2 = p", split_space)
        extreme = helpers.prog(
            "q,r :suchthat (q+r)/2 = p & (q = 0 | r = 1)", split_space
        )
        fam = ProbeFamily.over_vars(split_space, ("q", "r"), extra=4)
        v = check_refines(free, extreme, fam, split_space)
        assert v.holds and v.method == "rows", str(v)

        # progress certificates
        coin = space_of(("c", ("H", "T")))
        loop = helpers.prog("WHILE c = H DO c :in H <1/2> T OD", coin)
        spec = VariantSpec(parse_expression("[c = H]", coin), 1, F(1, 2))
        assert check_variant(loop, spec, coin).holds

        halving = helpers.prog(
            f"WHILE 0 < p & p < 1 DO {helpers.HALVING_BODY} OD", dyadic
        )
        spec = VariantSpec(parse_expression("[0 < p & p < 1]", dyadic), 1, F(1, 2))
        assert check_variant(halving, spec, dyadic).holds

        spin = helpers.prog("WHILE true DO SKIP OD", coin)
        spec = VariantSpec(parse_expression("1", coin), 1, F(1, 2))
        assert check_variant(spin, spec, coin).status == "fails"


def test_criterion_3_sampler_exactness_corpus():
    with criterion(3, "machine analysis exact over the weight corpus, under 5 s"):
        t0 = time.monotonic()
        corpus = (
            (1,), (1, 1), (1, 2), (1, 3), (2, 1, 3, 4),
            (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1), (5, 1, 1, 1),
        )
        for ws in corpus:
            d = WeightedDist(ws)
            a = analyze(build_machine(d))
            for i, w in enumerate(ws, start=1):
                assert a.probability(i) == F(w, d.total), ws
            assert a.expected_flips <= 2 * len(ws) - 2, ws
        assert time.monotonic() - t0 < 5.0


def test_criterion_4_die_machine_shape():
    with criterion(4, "die machine: 17 nodes, 4 expected flips"):
        a = analyze(build_machine(DIE))
        assert a.node_count == 17
        assert a.expected_flips == F(4)
        assert a.outcome_prob == (F(1, 6),) * 6


def test_criterion_5_optimal_die_machine_file():
    with criterion(5, "hand-encoded optimal die machine: 13 states, 11/3 flips"):
        from importlib import resources

        text = (
            resources.files("pgclkit").joinpath("data/knuth_yao_die.machine")
            .read_text()
        )
        m = load_machine(text)
        assert m.size == 13
        a = analyze(m)
        assert a.outcome_prob == (F(1, 6),) * 6
        assert a.expected_flips == F(11, 3)


def test_criterion_6_statistical_reproduction():
    with criterion(6, "a million die rolls: frequencies, flips, chi-square"):
        t0 = time.monotonic()
        runs = 10**6
        r = run_trials(DIE, runs, seed=TRIALS_SEED)
        assert sum(r.tallies) == runs
        for f in r.rel_freq:
            assert F(99, 100) <= f <= F(101, 100), r.rel_freq
        assert F(397, 100) <= r.avg_flips <= F(403, 100), r.avg_flips
        chi = scipy.stats.chisquare(r.tallies, [runs / 6] * 6)
        assert chi.pvalue > 0.001, chi
        assert time.monotonic() - t0 < 30.0


def test_criterion_7_binary_sampler_laws():
    with criterion(7, "binary sampler: flip counts and agreement in law"):
        assert sample_binary(F(0), ScriptedBitSource(())).flips == 0
        assert sample_binary(F(1), ScriptedBitSource(())).flips == 0
        assert sample_binary(F(1, 2), ScriptedBitSource((0,))).flips == 1
        assert sample_binary(F(1, 2), ScriptedBitSource((1,))).flips == 1

        # expected flips through the equivalent 2-outcome machines
        third = analyze(build_machine(WeightedDist((1, 2))))
        assert third.expected_flips == F(2)
        assert third.probability(1) == F(1, 3)
        quarters = analyze(build_machine(WeightedDist((3, 1))))
        assert quarters.expected_flips == F(3, 2)
        assert quarters.probability(1) == F(3, 4)

        # agreement in distribution at 10^5 trials
        runs = 10**5
        num, den = 1, 3
        src = RandomBitSource(TRIALS_SEED + 1)
        ones_binary = sum(
            sample_binary(F(num, den), src).outcome for _ in range(runs)
        )
        discrete = run_trials(WeightedDist((num, den - num)), runs,
                              seed=TRIALS_SEED + 2)
        table = [
            [ones_binary, runs - ones_binary],
            [discrete.tallies[0], discrete.tallies[1]],
        ]
        chi = scipy.stats.chi2_contingency(table)
        assert chi.pvalue > 0.001, table


def test_criterion_8_property_suites():
    with criterion(8, "algebraic laws exhaustively over the corpus"):
        rng = random.Random(2026)
        for p, space in helpers.corpus():
            assert space.size <= 10**4
            f = helpers.bracket_post(space, "true")
            base = wp(p, f, space)
            # feasibility
            assert all(0 <= v <= 1 for v in base.pre.values)
            # monotonicity against a pointwise-smaller expectation
            smaller = constant(space, 0)
            assert helpers.le(wp(p, smaller, space).pre, base.pre)
            # scaling
            doubled = wp(p, helpers.scaled(f, 2), space).pre
            assert doubled.values == helpers.scaled(base.pre, 2).values
            # wp equals the demonic minimum over enumerated resolutions
            by_state = resolutions_by_state(p, space)
            probes = [indicator(space, rng.randrange(space.size))
                      for _ in range(3)]
            probes.append(f)
            for probe in probes:
                r = wp(p, probe, space)
                for state, outs in by_state.items():
                    assert r.pre[state] == min_expected(outs, probe)

        # the loop solver's fixpoint check trips on a body that is no wp:
        # its constant term escapes the linear form, so the solved vector
        # is not a fixpoint of the step
        class _Affine:
            def run(self, f):
                return [x * F(1, 2) + F(1, 2) for x in f]

        try:
            helpers.one_state_loop(_Affine()).run([F(1)])
        except WpError:
            pass
        else:
            raise AssertionError("a non-fixpoint loop solve went unnoticed")

        # the window invariant is checked at every configuration a draw
        # reaches, when that configuration is first derived
        for ws in ((1,), (1, 1), (1, 2), (2, 1, 3, 4), (1, 1, 1, 1, 1, 1)):
            d = WeightedDist(ws)
            src = RandomBitSource(7)
            for _ in range(200):
                trace = sample_discrete(d, src)
                assert 1 <= trace.outcome <= d.size
