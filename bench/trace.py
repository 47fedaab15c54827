"""Traced run: per-layer metrics of one workload, with each layer's share.

    python3 bench/trace.py --workload reasoning --seed 1

Runs `bench/run.py --trace 1` as a separate process, prints its per-layer
metrics with each time as a share of the mean traced round's operation time,
and leaves the spans in bench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from repeat import benchmark_spec, run_once  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    result = run_once(args.workload, args.seed, seconds, 1)
    path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
    with open(path) as fh:
        rounds = json.load(fh)["rounds"]
    # the per-layer times are means over the traced rounds, so share of the mean
    round_s = statistics.fmean(rounds["traced"])
    print(f"{args.workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}; mean traced round {round_s:.4f} s, mean untraced "
          f"{statistics.fmean(rounds['untraced']):.4f} s")
    for name, m in result["metrics"].items():
        share = f"{100 * m['value'] / round_s:6.1f}%" if m["unit"] == "s" else ""
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} {share}")
    print(f"spans: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
