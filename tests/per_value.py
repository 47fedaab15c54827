"""A --grid check run one grid value at a time: each file's program parsed
with the parameter as a literal of the value, then checked alone.  This is
how `pgcl check-equal` and `check-refines` answered a --grid before one
compile over the grid settled the values its rows decide; the CLI keeps
it for every other value.  test_cli runs both on the same arguments and
compares everything they print and their exit codes.

run_check takes the place of pgclkit.cli._run_check, which the check
subcommands look up when they run."""

from __future__ import annotations

import json

from pgclkit import ProbeFamily, Verdict, check_equal, check_refines, dyadic_grid
from pgclkit.cli import (
    _named,
    _parse_params,
    _program_text,
    _refuse_unread,
    _report,
    _verdict_json,
    rat,
)
from pgclkit.errors import UsageError


def _probes_for(args, space, progs) -> ProbeFamily:
    if args.probe_vars is not None:
        names = [n.strip() for n in args.probe_vars.split(",") if n.strip()]
        if not names:
            raise UsageError(f"--probe-vars {args.probe_vars!r} names no variable")
        if len(set(names)) < len(names):
            raise UsageError(f"--probe-vars {args.probe_vars!r} names a variable twice")
        return ProbeFamily.over_vars(space, names, seed=args.seed,
                                     extra=args.extra_probes)
    return ProbeFamily.default(space, progs, seed=args.seed,
                               extra=args.extra_probes)


def run_check(args, kind: str) -> int:
    params = _parse_params(args.param)
    left = _program_text(args.lhs)
    right = _program_text(args.rhs, left.space)
    _refuse_unread(left.names | right.names, params, args.grid)
    space = left.space

    def one(extra_params) -> Verdict:
        merged = {**params, **extra_params}
        lhs = _named(args.lhs, left.program, merged)
        rhs = _named(args.rhs, right.program, merged)
        probes = _probes_for(args, space, (lhs, rhs))
        fn = check_equal if kind == "equal" else check_refines
        return fn(lhs, rhs, probes, space)

    if args.grid:
        results = []
        for value in dyadic_grid(args.grid_denominator):
            v = one({args.grid: value})
            results.append((value, v))
            if not args.json:
                print(f"{args.grid} = {rat(value)}: {v}")
        holds = all(v.holds for _, v in results)
        if args.json:
            print(json.dumps({
                "parameter": args.grid,
                "results": [
                    {"value": rat(value), **_verdict_json(v)}
                    for value, v in results
                ],
            }, indent=2))
        else:
            print(f"overall: {'holds' if holds else 'fails'}")
        return 0 if holds else 1
    return _report(args, one({}))
