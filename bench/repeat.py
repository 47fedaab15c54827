"""Repeat mode: run workloads several times and summarise the spread.

    python3 bench/repeat.py --workload all --runs 10 --first-seed 1

Each run is a separate `bench/run.py` process with its own seed, started
one after another from the current directory.  For every metric the
summary gives the median, the quartiles (statistics.quantiles, n=4) and
the spread, (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json; the spread should stay below a third of the bound.  It
also lists the share of failed operations, which must be the same in
every run.  The summary is printed and saved under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def benchmark_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarise(workload, results, limits) -> list[str]:
    lines = [f"== {workload}: {len(results)} runs"]
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    lines.append("   correct in every run: " + str(all(r["correct"] for r in results)))
    lines.append("   failed/attempted: " + ", ".join(f"{f}/{a}" for f, a in shares))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = ""
        if bound is not None:
            flag = f"  bound {bound:g}" + ("  WIDE" if spread > bound / 3 else "")
        lines.append(f"   {name:28s} {med:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} "
                     f"spread {spread:.3f}{flag}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    limits = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = []
    for name in names:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(name, seed, seconds, args.trace))
            print(f"{name} seed {seed}: {json.dumps(results[-1])}", flush=True)
        report += summarise(name, results, limits)
        print("\n".join(report[-len(results[0]["metrics"]) - 3:]), flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"repeat-{args.workload}-trace{args.trace}.txt"), "w") as fh:
        fh.write("\n".join(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
