"""Benchmark for pgclkit: one workload, timed end to end or per layer.

Run from the root of a pgclkit checkout:

    python3 bench/run.py --workload reasoning --seed 1 --seconds 50 --trace 0

The run imports pgclkit from ./src, sets the workload up several times,
then repeats whole rounds of its operations, one process and one thread,
until --seconds have passed.  Every output is checked (see checkers.py).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
rounds alternate between untraced and traced, the metrics are the
per-layer ones (per traced round) plus the tracing overhead, and the spans
are written to bench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from checkers import Wrong  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 9


class LoadError(Exception):
    pass


def fresh_import(src: str):
    """Import pgclkit from `src` anew, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "pgclkit" or m.startswith("pgclkit.")]:
        del sys.modules[name]
    pg = importlib.import_module("pgclkit")
    importlib.import_module("pgclkit.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(pg.__file__))) != src:
        raise LoadError(f"pgclkit was imported from {pg.__file__}, not from {src}")
    return pg


class Tally:
    """Operation outcomes of a run; each distinct problem is printed once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.seen: set[str] = set()

    def note(self, kind: str, message: str):
        key = f"{kind}: {message}"
        if key not in self.seen:
            print(key, file=sys.stderr)
            self.seen.add(key)


def run_round(rnd, tally: Tally) -> float:
    """Run and check every operation once; return their total time."""
    elapsed, outputs = 0.0, {}
    for op in rnd.ops:
        tally.attempted += 1
        start = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises has failed
            elapsed += perf_counter() - start
            tally.failed += 1
            tally.note("failed", f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        elapsed += perf_counter() - start
        outputs[op.name] = out
        try:
            problem = op.check(out)
        except Wrong as exc:
            tally.wrong += 1
            tally.note("wrong", str(exc))
            continue
        except Exception:
            tally.wrong += 1
            tally.note("wrong", f"{op.name}: output could not be checked\n{traceback.format_exc()}")
            continue
        if problem is not None:
            tally.failed += 1
            tally.note("failed", problem)
    try:
        rnd.check(outputs)
    except Exception as exc:
        tally.wrong += 1
        tally.note("wrong", str(exc))
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pgclkit", "__init__.py")):
        print(f"error: no pgclkit sources under {src}; run from a pgclkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, src, workdir)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, src: str, workdir: str) -> int:
    setup = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUPS):
        start = perf_counter()
        pg = fresh_import(src)
        rnd = setup(pg, args.seed, workdir)
        setup_times.append(perf_counter() - start)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        rnd = setup(pg, args.seed, workdir)  # one traced set-up, for parse time
        tracer.uninstall()
        tracer.phase = "round"
        tracer.counts.update(dict.fromkeys(tracer.counts, 0))  # counts are per round

    tally = Tally()
    walls = {False: [], True: []}  # operation time per round, by tracing
    traced = False
    start = perf_counter()
    while True:
        if traced:
            tracer.install()
        walls[traced].append(run_round(rnd, tally))
        if traced:
            tracer.uninstall()
        # a traced run ends after a traced round, so the two kinds pair up
        if perf_counter() - start >= args.seconds and (tracer is None or traced):
            break
        traced = tracer is not None and not traced

    if tracer:
        metrics = layer_metrics(tracer, len(walls[True]))
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        metrics["trace.absent_layers"] = (len(tracer.absent_layers), "count")
        for site in tracer.absent_sites:
            print(f"absent: {site}", file=sys.stderr)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                     {"untraced": walls[False], "traced": walls[True]})
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
