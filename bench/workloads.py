"""The workloads: their inputs, operations and output checks.

A workload's set-up takes the freshly imported pgclkit package, the seed
and a scratch directory, and returns one Round: the operations the run
repeats, unchanged, until its time is up.  Every operation calls pgclkit
through its public names (the package exports and pgclkit.cli.main), so
the tracer sees each call at the layer boundary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable, Optional

import checkers
from checkers import Wrong


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # raises Wrong on a wrong output; returns a description when the
    # operation failed (a known fault), None when it succeeded
    check: Callable[[Any], Optional[str]]


@dataclass
class Round:
    ops: list
    # checks that compare the outputs of several operations of one round
    check: Callable[[dict], None] = lambda outputs: None


def _domain(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _grid(denominator: int) -> tuple:
    return tuple(F(k, denominator) for k in range(denominator + 1))


def _run_cli(pg, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pg.cli.main(argv)
    return code, out.getvalue()


# --- derivation ------------------------------------------------------------

BIAS_SPEC = "x :in 1 <p> 0"
SPLIT_THEN_COIN = (
    "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI; "
    "(x :in 1 <q> 0) <1/2> (x :in 1 <r> 0)"
)
HALVING_BODY = (
    "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI; "
    "p :in q <1/2> r"
)
HALVING_LOOP = f"WHILE 0 < p & p < 1 DO {HALVING_BODY} OD; x := p"
FREE_SPLIT = "q,r :suchthat (q+r)/2 = p"
ENDPOINT_SPLIT = "q,r :suchthat (q+r)/2 = p & (q = 0 | r = 1)"

HOLDS = {"holds"}
AGREES = {"holds", "inconclusive"}
FAILS = {"fails"}


def _pqr_space(pg, grid):
    return pg.space_of(("x", (0, 1)), ("p", grid), ("q", grid), ("r", grid))


def _verdict_check(allowed, label):
    def check(v):
        checkers.check_verdict(v.status, allowed, label)
        if v.status == "holds" and v.residual != 0:
            raise Wrong(f"{label}: holds with residual {v.residual}")
        if v.status == "fails":
            c = v.counterexample
            if c is not None and abs(c.lhs - c.rhs) <= v.residual:
                raise Wrong(f"{label}: fails on a gap within the residual")
        return None
    return check


def derivation(pg, seed, workdir):
    eighths = _grid(8)
    header = f"var x in {{0, 1}}\nvar q in {_domain(eighths)}\nvar r in {_domain(eighths)}\n"
    spec_file = os.path.join(workdir, "spec.pgcl")
    step_file = os.path.join(workdir, "step.pgcl")
    with open(spec_file, "w") as fh:
        fh.write(header + BIAS_SPEC + "\n")
    with open(step_file, "w") as fh:
        fh.write(header + SPLIT_THEN_COIN + "\n")
    split_argv = ["check-equal", "--left", spec_file, "--right", step_file,
                  "--grid", "p", "--probe-vars", "x", "--seed", str(seed), "--json"]

    def check_split(result):
        code, text = result
        report = json.loads(text)
        values = [r["value"] for r in report["results"]]
        if values != [f"{g.numerator}/{g.denominator}" for g in eighths]:
            raise Wrong(f"split step: grid values {values}")
        for r in report["results"]:
            checkers.check_verdict(r["status"], AGREES, f"split step at p = {r['value']}")
        want = 0 if all(r["status"] == "holds" for r in report["results"]) else 3
        if code != want:
            raise Wrong(f"split step: exit code {code}, expected {want}")
        return None

    ops = [Op("split-step-cli", lambda: _run_cli(pg, split_argv), check_split)]

    quarters = _grid(4)
    for label, grid in (("quarters", quarters), ("thirds", (F(0), F(1, 3), F(2, 3), F(1)))):
        space = _pqr_space(pg, grid)
        spec = pg.parse_program(BIAS_SPEC, space)
        loop = pg.parse_program(HALVING_LOOP, space)

        def run(space=space, spec=spec, loop=loop):
            probes = pg.ProbeFamily.over_vars(space, ("x",), seed=seed)
            return pg.check_equal(spec, loop, probes, space)

        ops.append(Op(f"halving-loop-{label}", run,
                      _verdict_check(AGREES, f"halving loop on {label}")))

    split_space = pg.space_of(("p", quarters), ("q", quarters), ("r", quarters))
    free = pg.parse_program(FREE_SPLIT, split_space)
    endpoint = pg.parse_program(ENDPOINT_SPLIT, split_space)
    for label, spec, impl, allowed in (("free-below-endpoint", free, endpoint, AGREES),
                                       ("endpoint-below-free", endpoint, free, FAILS)):
        def run(spec=spec, impl=impl):
            probes = pg.ProbeFamily.over_vars(split_space, ("q", "r"), seed=seed, extra=4)
            return pg.check_refines(spec, impl, probes, split_space)

        ops.append(Op(f"refines-{label}", run, _verdict_check(allowed, label)))

    coin = pg.space_of(("c", ("H", "T")))
    dyadic = _pqr_space(pg, eighths)
    certificates = (
        ("coin", coin, "WHILE c = H DO c :in H <1/2> T OD", "[c = H]", HOLDS),
        ("halving", dyadic, f"WHILE 0 < p & p < 1 DO {HALVING_BODY} OD",
         "[0 < p & p < 1]", HOLDS),
        ("spin", coin, "WHILE true DO SKIP OD", "1", FAILS),
    )
    for label, space, text, variant, allowed in certificates:
        loop = pg.parse_program(text, space)
        spec = pg.VariantSpec(pg.parse_expression(variant, space), 1, F(1, 2))

        def run(loop=loop, spec=spec, space=space):
            return pg.check_variant(loop, spec, space)

        ops.append(Op(f"variant-{label}", run, _verdict_check(allowed, f"{label} variant")))
    return Round(ops)


# --- loops -----------------------------------------------------------------

HALVING_GRIDS = (8, 3, 5, 7)
RUIN_N = 16
DEMON_N = 12


def _loop_op(pg, name, text, post, closed):
    space, prog = pg.parse_source(text)
    post_exp = pg.from_expr(space, pg.parse_expression(post, space))
    reference = {str(s): closed(s) for s in space.states()}

    def check(result):
        if result.undefined_states:
            raise Wrong(f"{name}: undefined at {result.undefined_states[0]}")
        returned = {str(s): result.pre[s] for s in space.states()}
        checkers.check_pre_below(returned, reference, name)
        return checkers.loop_gap_problem(returned, reference, result.loop_residual, name)

    return Op(name, lambda: pg.wp(prog, post_exp), check)


def loops(pg, seed, workdir):
    # the seed scales the posts of the loops that converge soundly; the
    # three loops whose residual is known to be unsound keep fixed inputs
    scale = random.Random(seed).randint(1, 8)
    # a geometric coin stops almost surely with c = T, whatever its bias
    coin = "var c in {H, T}\nWHILE c = H DO c :in H <%s> T OD"
    ops = [
        _loop_op(pg, "geometric-fair", coin % "1/2", f"{scale} * [c = T]", lambda s: scale),
        _loop_op(pg, "geometric-3/4", coin % "3/4", "[c = T]", lambda s: 1),
    ]
    for d in HALVING_GRIDS:
        grid = _domain(_grid(d))
        text = (f"var x in {{0, 1}}\nvar p in {grid}\nvar q in {grid}\n"
                f"var r in {grid}\n{HALVING_LOOP}")
        # the halving loop outputs x = 1 with probability exactly p
        ops.append(_loop_op(pg, f"halving-1/{d}", text, f"{scale} * x",
                            lambda s: scale * s["p"]))
    fair = "i := i + 1 <1/2> i := i - 1"
    demon = f"({fair}) |^| (i := i + 1 <1/3> i := i - 1)"
    for name, n, body, closed in (
        ("ruin-fair", RUIN_N, fair, lambda s: checkers.ruin_value(int(s["i"]), RUIN_N, F(1, 2))),
        ("ruin-demonic", DEMON_N, demon,
         lambda s: checkers.demonic_ruin_value(int(s["i"]), DEMON_N, (F(1, 2), F(1, 3)))),
    ):
        text = f"var i in {_domain(range(n + 1))}\nWHILE 0 < i & i < {n} DO {body} OD"
        ops.append(_loop_op(pg, name, text, f"[i = {n}]", closed))
    return Round(ops)


# --- sampling --------------------------------------------------------------

SAMPLING_DISTS = (
    ("die", (1, 1, 1, 1, 1, 1)),
    ("one-two", (1, 2)),
    ("mixed", (2, 1, 3, 4)),
    ("sixteen", tuple(range(1, 17))),
)
TRIAL_RUNS = 20_000
SINGLE_DRAWS = 5_000
BINARY_DRAWS = 20_000


def sampling(pg, seed, workdir):
    rng = random.Random(seed)
    ops = []
    for name, weights in SAMPLING_DISTS:
        argv = ["trials", "--dist", " ".join(map(str, weights)), "--runs",
                str(TRIAL_RUNS), "--seed", str(rng.randrange(2**31)), "--json"]

        def check(result, weights=weights, name=name):
            code, text = result
            if code != 0:
                raise Wrong(f"trials {name}: exit code {code}")
            report = json.loads(text)
            if report["weights"] != list(weights) or report["runs"] != TRIAL_RUNS:
                raise Wrong(f"trials {name}: report is for {report['weights']} "
                            f"x {report['runs']}")
            checkers.check_tallies(report["tallies"], weights, TRIAL_RUNS, f"trials {name}")
            checkers.check_mean_flips(report["total_flips"], TRIAL_RUNS, weights,
                                      f"trials {name}", exact=4 if name == "die" else None)
            return None

        ops.append(Op(f"trials-{name}", lambda argv=argv: _run_cli(pg, argv), check))

    for name, weights in (SAMPLING_DISTS[0], SAMPLING_DISTS[3]):
        dist = pg.WeightedDist(weights)
        source_seed = rng.randrange(2**31)

        def run(dist=dist, source_seed=source_seed):
            bits = pg.RandomBitSource(source_seed)
            return [pg.sample_discrete(dist, bits) for _ in range(SINGLE_DRAWS)]

        def check(traces, weights=weights, name=name):
            tallies = [0] * len(weights)
            for t in traces:
                if t.flips != len(t.bits) or t.outcome != checkers.interval_outcome(weights, t.bits):
                    raise Wrong(f"draws {name}: outcome {t.outcome} from bits {t.bits}")
                tallies[t.outcome - 1] += 1
            checkers.check_tallies(tallies, weights, SINGLE_DRAWS, f"draws {name}")
            return None

        ops.append(Op(f"draws-{name}", run, check))

    third = F(1, 3)
    binary_seed = rng.randrange(2**31)

    def run_binary():
        bits = pg.RandomBitSource(binary_seed)
        return [pg.sample_binary(third, bits) for _ in range(BINARY_DRAWS)]

    def check_binary(traces):
        # outcome 1 is the upper interval of mass 1/3: weights (2, 1)
        for t in traces:
            if t.flips != len(t.bits) or t.outcome + 1 != checkers.interval_outcome((2, 1), t.bits):
                raise Wrong(f"binary 1/3: outcome {t.outcome} from bits {t.bits}")
        return None

    ops.append(Op("binary-1/3", run_binary, check_binary))

    def check_round(outputs):
        ones = sum(t.outcome for t in outputs["binary-1/3"])
        tallies = json.loads(outputs["trials-one-two"][1])["tallies"]
        p = checkers.chi2_two_samples([ones, BINARY_DRAWS - ones], tallies)
        if not p > checkers.P_MIN:
            raise Wrong(f"sample_binary(1/3) and trials (1, 2) differ in law: p = {p:.2e}")

    return Round(ops, check_round)


# --- machines --------------------------------------------------------------

CORPUS = ((1,), (1, 1), (1, 2), (1, 3), (2, 1, 3, 4), (1, 1, 1, 1, 1, 1),
          (1, 1, 1, 1, 1, 1, 1), (5, 1, 1, 1))
LONG_CYCLES = ((54, 25, 64), (30, 4, 14, 33))
# (outcomes, total): totals chosen so the node count barely moves with the
# partition, which keeps the cost of a seeded draw steady
SLOTS = ((2, 29), (3, 13), (4, 17), (5, 31), (6, 15), (7, 14), (8, 28), (9, 16),
         (10, 12), (11, 12), (12, 16), (13, 16), (14, 16), (15, 16), (16, 32))
DRAWS_PER_SLOT = 2
NODE_CAP = 64
DIE = (1, 1, 1, 1, 1, 1)


def _node_table(machine):
    return {n.id: ("leaf", n.outcome) if n.kind == "leaf" else ("interior", n.heads, n.tails)
            for n in machine.nodes}


def _partition(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0, *cuts, total]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def _build_op(pg, weights, label):
    dist = pg.WeightedDist(weights)
    expect = (17, F(4)) if weights == DIE else (None, None)

    def run():
        machine = pg.build_machine(dist)
        return machine, pg.analyze(machine)

    def check(result):
        machine, analysis = result
        if analysis.node_count != machine.size:
            raise Wrong(f"{label}: analysis counts {analysis.node_count} nodes of {machine.size}")
        checkers.check_machine(_node_table(machine), machine.root, weights,
                               analysis.outcome_prob, analysis.expected_flips, label,
                               expect_nodes=expect[0], expect_flips=expect[1])
        interval_flips = checkers.flip_moments(weights)[0]
        if abs(interval_flips - float(analysis.expected_flips)) > 1e-9 * max(1.0, interval_flips):
            raise Wrong(f"{label}: {analysis.expected_flips} expected flips, the "
                        f"interval algorithm needs {interval_flips!r}")
        return None

    return Op(label, run, check)


def machines(pg, seed, workdir):
    ops = [_build_op(pg, w, f"corpus {w}") for w in CORPUS]
    with open(os.path.join(os.path.dirname(pg.__file__), "data", "knuth_yao_die.machine")) as fh:
        shipped = fh.read()

    def run_shipped():
        machine = pg.load_machine(shipped)
        return machine, pg.analyze(machine)

    def check_shipped(result):
        machine, analysis = result
        checkers.check_machine(_node_table(machine), machine.root, DIE,
                               analysis.outcome_prob, analysis.expected_flips,
                               "knuth_yao_die.machine", expect_nodes=13,
                               expect_flips=F(11, 3))
        return None

    ops.append(Op("knuth-yao-die-file", run_shipped, check_shipped))
    ops += [_build_op(pg, w, f"long cycle {w}") for w in LONG_CYCLES]

    rng = random.Random(seed)
    for outcomes, total in SLOTS:
        for _ in range(DRAWS_PER_SLOT):
            while True:
                weights = _partition(rng, total, outcomes)
                if pg.build_machine(pg.WeightedDist(weights)).size <= NODE_CAP:
                    break
            ops.append(_build_op(pg, weights, f"drawn #{len(ops)} {weights}"))
    return Round(ops)


def _joined(*parts):
    """One workload whose round runs the operations of several parts."""
    def setup(pg, seed, workdir):
        rounds = [part(pg, seed, workdir) for part in parts]

        def check(outputs):
            for rnd in rounds:
                rnd.check(outputs)

        return Round([op for rnd in rounds for op in rnd.ops], check)
    return setup


# Two workloads of two parts each, rather than four, so that a run can be
# long: this machine's speed drops by about a third for a minute or two at
# a time, and only runs longer than such a spell keep its effect on the
# median round small.
WORKLOADS = {
    "reasoning": _joined(derivation, loops),
    "sampling": _joined(sampling, machines),
}
