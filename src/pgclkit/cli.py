"""Command-line front end.

Exit codes: 0 success or verdict holds, 1 failure (counterexample on
stdout), 2 usage or parse error.  Every loop is solved exactly, so there
is no inconclusive outcome.  Diagnostics go to stderr, results to stdout.
Every subcommand takes --json; rationals are rendered as "num/den" strings.

A program file opens with its `var` declarations, but a --right or --impl
file may leave them out and is then read over the other file's space; if
it has them, they must declare that same space.  Under --grid each file
is read, tokenized and its header checked once, and its program parsed at
each grid value, as a parameter's value may change it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .checks import (
    ProbeFamily,
    Verdict,
    check_equal,
    check_refines,
    check_variant,
    dyadic_grid,
)
from .errors import DistError, PgclError, PgclSyntaxError
from .machine import (
    DEFAULT_MAX_NODES,
    analyze,
    build_machine,
    load_machine,
    machine_to_text,
    run_trials,
    to_dot,
)
from .bits import RandomBitSource, ScriptedBitSource
from .parser import ProgramText, parse_expression, parse_rational, parse_source
from .programs import VariantSpec, While
from .expectations import from_expr
from .sampler import WeightedDist, _weight_lines, read_trials_file, sample_discrete
from .states import StateSpace
from .wp import WpConfig, wp


def rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise PgclSyntaxError(f"cannot read {path}: {exc}", 1, 1) from None


def _parse_params(pairs) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise PgclSyntaxError(f"bad --param {pair!r}, expected name=value", 1, 1)
        params[name] = parse_rational(value)
    return params


def _named(path: str, fn, *args):
    """fn(*args), where an error in the file at path names it, and keeps
    its class (so its exit code)."""
    try:
        return fn(*args)
    except PgclError as exc:
        name = "<stdin>" if path == "-" else path
        sep = ":" if isinstance(exc, PgclSyntaxError) else ": "  # path:line:col
        exc.args = (f"{name}{sep}{exc}",)
        raise


def _load_program(path: str, params):
    """Parse a program file, `var` declarations first."""
    return _named(path, parse_source, _read_text(path), params)


def _program_file(path: str):
    """parse(params, space=None) -> (space, program) for the program file
    at path.  The first call reads the file, tokenizes it and reads its
    `var` header, which may be left out when a space from a sibling file
    is supplied, and must match it if not; each call then parses the
    program with its params, as they may change its literals."""
    source = None

    def parse(params, space: Optional[StateSpace] = None):
        nonlocal source
        if source is None:
            source = _named(path, ProgramText, _read_text(path), space)
        return source.space, _named(path, source.program, params)

    return parse


def _load_dist(value: str) -> tuple[Optional[int], WeightedDist]:
    """A --dist argument is a file path or an inline weight list.

    A file whose first non-comment line is a single integer followed by
    more lines is a trials file carrying its own run count.  A `#` starts
    a comment anywhere on a line.
    """
    text = _read_text(value) if value != "-" and Path(value).exists() else (
        sys.stdin.read() if value == "-" else value
    )
    lines = _weight_lines(text)
    if len(lines) > 1 and len(lines[0].split()) == 1:
        runs, dist = read_trials_file(text)
        return runs, dist
    return None, WeightedDist.parse(" ".join(lines) if lines else text)


def _verdict_json(v: Verdict) -> dict:
    out = {"status": v.status, "residual": rat(v.residual)}
    if v.detail:
        out["detail"] = v.detail
    if v.counterexample is not None:
        c = v.counterexample
        out["counterexample"] = {
            "probe": str(c.probe),
            "state": str(c.state),
            "lhs": rat(c.lhs),
            "rhs": rat(c.rhs),
        }
    return out


def _verdict_exit(v: Verdict) -> int:
    return 0 if v.holds else 1


# --- subcommands -----------------------------------------------------------


def _cmd_wp(args) -> int:
    params = _parse_params(args.param)
    space, prog = _load_program(args.program, params)
    post = from_expr(space, parse_expression(args.post, space, params))
    result = wp(prog, post, space, WpConfig(undefined=args.undefined))
    if args.json:
        payload = {
            "post": args.post,
            "pre": {str(s): rat(result.pre[s]) for s in space.states()},
            "loop_residual": rat(result.loop_residual),
            "undefined_states": [str(s) for s in result.undefined_states],
        }
        print(json.dumps(payload, indent=2))
    else:
        for s in space.states():
            print(f"{s}  {rat(result.pre[s])}")
        for s in result.undefined_states:
            print(f"undefined at {s}", file=sys.stderr)
    return 0


def _probes_for(args, space, progs) -> ProbeFamily:
    if args.probe_vars:
        names = [n.strip() for n in args.probe_vars.split(",") if n.strip()]
        return ProbeFamily.over_vars(space, names, seed=args.seed,
                                     extra=args.extra_probes)
    return ProbeFamily.default(space, progs, seed=args.seed,
                               extra=args.extra_probes)


def _run_check(args, kind: str) -> int:
    params = _parse_params(args.param)
    left, right = _program_file(args.lhs), _program_file(args.rhs)

    def one(extra_params) -> Verdict:
        merged = {**params, **extra_params}
        space, lhs = left(merged)
        space, rhs = right(merged, space)
        probes = _probes_for(args, space, (lhs, rhs))
        fn = check_equal if kind == "equal" else check_refines
        return fn(lhs, rhs, probes, space)

    if args.grid:
        grid = dyadic_grid(args.grid_denominator)
        results = []
        for value in grid:
            v = one({args.grid: value})
            results.append((value, v))
            if not args.json:
                print(f"{args.grid} = {rat(value)}: {v}")
        worst = max(results, key=lambda r: _verdict_exit(r[1]))
        if args.json:
            print(json.dumps({
                "parameter": args.grid,
                "results": [
                    {"value": rat(value), **_verdict_json(v)}
                    for value, v in results
                ],
            }, indent=2))
        else:
            print(f"overall: {worst[1].status}")
        return _verdict_exit(worst[1])
    v = one({})
    if args.json:
        print(json.dumps(_verdict_json(v), indent=2))
    else:
        print(v)
    return _verdict_exit(v)


def _cmd_check_variant(args) -> int:
    params = _parse_params(args.param)
    space, prog = _load_program(args.program, params)
    if not isinstance(prog, While):
        print("check-variant expects the program to be a single loop",
              file=sys.stderr)
        return 2
    spec = VariantSpec(
        variant=parse_expression(args.variant, space, params),
        upper_bound=args.bound,
        epsilon=parse_rational(args.epsilon),
    )
    v = check_variant(prog, spec, space)
    if args.json:
        print(json.dumps(_verdict_json(v), indent=2))
    else:
        print(v)
    return _verdict_exit(v)


def _cmd_sample(args) -> int:
    _, dist = _load_dist(args.dist)
    if args.bits is not None:
        text = args.bits.replace(",", "")
        if not set(text) <= {"0", "1"}:
            raise DistError(f"bits must be 0 or 1, got {args.bits!r}")
        bits = ScriptedBitSource(int(b) for b in text)
    else:
        bits = RandomBitSource(args.seed)
    trace = sample_discrete(dist, bits)
    if args.json:
        print(json.dumps({
            "outcome": trace.outcome,
            "flips": trace.flips,
            "bits": list(trace.bits),
        }))
    else:
        bit_text = "".join(str(b) for b in trace.bits)
        print(f"outcome={trace.outcome} flips={trace.flips} bits={bit_text}")
    return 0


def _cmd_trials(args) -> int:
    file_runs, dist = _load_dist(args.dist)
    runs = args.runs if args.runs is not None else file_runs
    if runs is None:
        print("run count missing: pass --runs or use a trials file",
              file=sys.stderr)
        return 2
    result = run_trials(dist, runs, args.seed)
    if args.json:
        print(json.dumps({
            "weights": list(result.weights),
            "runs": result.runs,
            "seed": result.seed,
            "tallies": list(result.tallies),
            "rel_freq": [rat(f) for f in result.rel_freq],
            "avg_flips": rat(result.avg_flips),
            "total_flips": result.total_flips,
        }, indent=2))
    else:
        print(result.format_table())
    return 0


def _machine_from_args(args):
    if getattr(args, "machine", None):
        return load_machine(_read_text(args.machine))
    if args.dist is None:
        raise PgclSyntaxError("pass --dist or --machine", 1, 1)
    _, dist = _load_dist(args.dist)
    return build_machine(dist, max_nodes=args.max_nodes)


def _cmd_machine_build(args) -> int:
    m = _machine_from_args(args)
    if args.json:
        print(json.dumps({
            "outcomes": m.outcomes,
            "root": m.root,
            "nodes": [
                {"id": n.id, "kind": n.kind, "heads": n.heads, "tails": n.tails,
                 "outcome": n.outcome, "label": n.label}
                for n in m.nodes
            ],
        }, indent=2))
    else:
        sys.stdout.write(machine_to_text(m))
    return 0


def _cmd_machine_analyze(args) -> int:
    m = _machine_from_args(args)
    a = analyze(m)
    if args.json:
        print(json.dumps({
            "nodes": a.node_count,
            "expected_flips": rat(a.expected_flips),
            "probabilities": [rat(p) for p in a.outcome_prob],
        }, indent=2))
    else:
        print(f"nodes={a.node_count} expected_flips={rat(a.expected_flips)}")
        for i, p in enumerate(a.outcome_prob, start=1):
            print(f"outcome {i}: {rat(p)}")
    return 0


def _cmd_machine_dot(args) -> int:
    m = _machine_from_args(args)
    if args.json:
        print(json.dumps({"dot": to_dot(m)}))
    else:
        sys.stdout.write(to_dot(m))
    return 0


# --- argument wiring ---------------------------------------------------------


def _add_check_flags(p: argparse.ArgumentParser):
    p.add_argument("--param", action="append", metavar="NAME=RAT",
                   help="substitute a rational for a parameter name")
    p.add_argument("--probe-vars", metavar="X,Y",
                   help="compare only on functions of these variables")
    p.add_argument("--seed", type=int, default=0, help="probe seed")
    p.add_argument("--extra-probes", type=int, default=16)
    p.add_argument("--grid", metavar="NAME",
                   help="check once per grid value of this parameter")
    p.add_argument("--grid-denominator", type=int, default=8)
    p.add_argument("--json", action="store_true")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pgcl",
        description="Exact reasoning and fair-coin sampling for probabilistic "
                    "guarded-command programs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wp", help="pre-expectation of a post-expectation")
    p.add_argument("--program", required=True, metavar="FILE",
                   help="program file with var declarations, or - for stdin")
    p.add_argument("--post", default="1", help="post-expectation (default 1)")
    p.add_argument("--param", action="append", metavar="NAME=RAT")
    p.add_argument("--undefined", choices=("raise", "mask"), default="raise")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_wp)

    p = sub.add_parser("check-equal", help="program equivalence, decided exactly "
                       "from the compiled programs where possible, else on the probe family")
    p.add_argument("--left", dest="lhs", required=True, metavar="FILE")
    p.add_argument("--right", dest="rhs", required=True, metavar="FILE")
    _add_check_flags(p)
    p.set_defaults(fn=lambda a: _run_check(a, "equal"))

    p = sub.add_parser("check-refines", help="refinement, decided exactly from the "
                       "compiled programs where possible, else on the probe family")
    p.add_argument("--spec", dest="lhs", required=True, metavar="FILE")
    p.add_argument("--impl", dest="rhs", required=True, metavar="FILE")
    _add_check_flags(p)
    p.set_defaults(fn=lambda a: _run_check(a, "refines"))

    p = sub.add_parser("check-variant", help="loop progress certificate")
    p.add_argument("--program", required=True, metavar="FILE")
    p.add_argument("--variant", required=True, metavar="EXPR")
    p.add_argument("--bound", required=True, type=int)
    p.add_argument("--epsilon", required=True, metavar="RAT")
    p.add_argument("--param", action="append", metavar="NAME=RAT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check_variant)

    p = sub.add_parser("sample", help="draw one outcome with fair flips")
    p.add_argument("--dist", required=True,
                   help="weight list, trials file, or - for stdin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", help="scripted flips, e.g. 0,1,1 (overrides --seed)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("trials", help="repeated sampling with tallies")
    p.add_argument("--dist", required=True)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_trials)

    for name, fn in (("machine-build", _cmd_machine_build),
                     ("machine-analyze", _cmd_machine_analyze),
                     ("machine-dot", _cmd_machine_dot)):
        p = sub.add_parser(name)
        p.add_argument("--dist")
        p.add_argument("--machine", metavar="FILE",
                       help="load a machine file instead of building one")
        p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES,
                       help="node budget for building (default %(default)s)")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PgclSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PgclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
