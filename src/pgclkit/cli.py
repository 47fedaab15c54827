"""Command-line front end.

Exit codes: 0 success or verdict holds, 1 failure (counterexample on
stdout), 2 usage or parse error.  Every loop is solved exactly, so there
is no inconclusive outcome.  Diagnostics go to stderr, results to stdout.
Every subcommand takes --json; rationals are rendered as "num/den" strings.

A program file opens with its `var` declarations, but a --right or --impl
file may leave them out and is then read over the other file's space; if
it has them, they must declare that same space.  Under --grid each file
is read, tokenized and its header checked once, then parsed once over the
space with the grid parameter a variable over the grid; both sides are
compiled once, and a grid value whose classes all hold by the rows is
`holds`, as its check alone would say.  Every other value has its program
parsed with the value and checked alone; so has every value where that
space has more than _GRID_STATES states, or where its parse reads the
parameter's value (which may change the parse from value to value) or
anything else raises.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .bits import RandomBitSource, ScriptedBitSource, check_count, check_seed
from .checks import (
    GRID_DENOMINATOR,
    PROBE_COUNT,
    ProbeFamily,
    Verdict,
    _held_by_rows,
    check_equal,
    check_refines,
    check_variant,
    dyadic_grid,
)
from .errors import DistError, PgclError, PgclSyntaxError, UsageError
from .machine import analyze, load_machine, machine_to_text, to_dot
from .parser import ProgramText, identifiers, parse_expression, parse_rational, tokenize
from .parser import parse_source  # noqa: F401  (a parse site bench/tracing.py wraps)
from .programs import VariantSpec, While
from .expectations import from_expr
from .sampler import (
    DEFAULT_MAX_NODES,
    WeightedDist,
    build_machine,
    read_dist,
    run_trials,
    sample_discrete,
)
from .states import StateSpace, VarDomain
from .wp import WpConfig, wp


def rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _parse_params(pairs) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"bad --param {pair!r}, expected name=value")
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


def _program_text(path: str, space: Optional[StateSpace] = None) -> ProgramText:
    """The program file at path, read, tokenized and its `var` header read
    once; the header may be left out when a space from a sibling file is
    supplied, and must match it if not.  Parse its program with
    _named(path, source.program, params), as params may change its
    literals."""
    return _named(path, ProgramText, _read_text(path), space)


def _refuse_unread(read: frozenset, params: dict, grid: Optional[str] = None) -> None:
    """A --param or --grid name that no text of the command reads would
    change nothing, so it is refused, as a misspelt name would be."""
    for flag, name in [*(("--param", n) for n in params), ("--grid", grid)]:
        if name is not None and name not in read:
            raise UsageError(f"{flag} {name} names nothing the command reads")


def _load_dist(value: str) -> tuple[Optional[int], WeightedDist]:
    """A --dist argument is - for stdin, a file, or an inline weight list,
    holding weights or a trials file (sampler.read_dist).  Anything but a
    regular file is inline text: '' is no path, and a long weight list is
    no file name."""
    return read_dist(_read_text(value) if value == "-" or os.path.isfile(value) else value)


def _verdict_json(v: Verdict) -> dict:
    out = {"status": v.status}
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


def _report(args, v: Verdict) -> int:
    """Print one verdict, as --json asks, and return its exit code."""
    print(json.dumps(_verdict_json(v), indent=2) if args.json else v)
    return 0 if v.holds else 1


# --- subcommands -----------------------------------------------------------


def _cmd_wp(args) -> int:
    params = _parse_params(args.param)
    source = _program_text(args.program)
    space, prog = source.space, _named(args.program, source.program, params)
    post = from_expr(space, parse_expression(args.post, space, params))
    _refuse_unread(source.names | identifiers(tokenize(args.post)), params)
    result = wp(prog, post, space, WpConfig(undefined=args.undefined))
    if args.json:
        payload = {
            "post": args.post,
            "pre": {str(s): rat(result.pre[s]) for s in space.states()},
            "undefined_states": [str(s) for s in result.undefined_states],
            "undefined_reasons": list(result.undefined_reasons),
        }
        print(json.dumps(payload, indent=2))
    else:
        for s in space.states():
            print(f"{s}  {rat(result.pre[s])}")
        for s, why in zip(result.undefined_states, result.undefined_reasons):
            print(f"undefined at {s}: {why}", file=sys.stderr)
    return 0


def _probe_names(args, space: StateSpace) -> Optional[tuple]:
    """The --probe-vars names, each a variable of space; None without it."""
    if args.probe_vars is None:
        return None
    names = tuple(n.strip() for n in args.probe_vars.split(",") if n.strip())
    if not names:
        raise UsageError(f"--probe-vars {args.probe_vars!r} names no variable")
    if len(set(names)) < len(names):
        raise UsageError(f"--probe-vars {args.probe_vars!r} names a variable twice")
    for name in names:
        if not space.has_var(name):
            raise UsageError(f"--probe-vars {args.probe_vars!r} names {name}, "
                             "which is no declared variable")
    return names


# the most states a space over the grid may have: its compiled programs
# and rows may hold a class per state, where a check per value holds the
# classes of one value at a time
_GRID_STATES = 1 << 12


def _held_by_grid(args, kind: str, left: ProgramText, right: ProgramText,
                  params: dict, names: tuple, values: tuple) -> set:
    """The positions in the grid of the values at which one compile of
    each file over the grid, the parameter a variable over its values,
    settles the check as `holds` by the rows, as the check at that value
    alone says.  A space over the grid of more than _GRID_STATES states,
    or any error here (a parse that reads the parameter's value, a bad
    --seed), settles none, and each value is then checked alone."""
    if len(values) * left.space.size > _GRID_STATES:
        return set()
    try:
        check_seed(args.seed)
        check_count("extra probes", args.extra_probes)
        over = StateSpace((VarDomain(args.grid, values), *left.space.domains))
        return _held_by_rows(left.program(params, over), right.program(params, over),
                             over, names, kind == "refines")
    except Exception:
        return set()


def _run_check(args, kind: str) -> int:
    params = _parse_params(args.param)
    left = _program_text(args.lhs)
    right = _program_text(args.rhs, left.space)
    _refuse_unread(left.names | right.names, params, args.grid)
    if args.grid in params:
        raise UsageError(f"--param {args.grid} names the --grid parameter")
    space = left.space
    names = _probe_names(args, space)

    def one(extra_params) -> Verdict:
        merged = {**params, **extra_params}
        lhs = _named(args.lhs, left.program, merged)
        rhs = _named(args.rhs, right.program, merged)
        if names is None:
            probes = ProbeFamily.default(space, (lhs, rhs), seed=args.seed,
                                         extra=args.extra_probes)
        else:
            probes = ProbeFamily.over_vars(space, names, seed=args.seed,
                                           extra=args.extra_probes)
        fn = check_equal if kind == "equal" else check_refines
        return fn(lhs, rhs, probes, space)

    if args.grid:
        values = dyadic_grid(args.grid_denominator)
        held = _held_by_grid(args, kind, left, right, params, names or space.names, values)
        results = []
        for k, value in enumerate(values):
            v = Verdict("holds", method="rows") if k in held else one({args.grid: value})
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


def _cmd_check_variant(args) -> int:
    params = _parse_params(args.param)
    source = _program_text(args.program)
    space, prog = source.space, _named(args.program, source.program, params)
    if not isinstance(prog, While):
        print("check-variant expects the program to be a single loop",
              file=sys.stderr)
        return 2
    spec = VariantSpec(
        variant=parse_expression(args.variant, space, params),
        upper_bound=args.bound,
        epsilon=parse_rational(args.epsilon),
    )
    _refuse_unread(source.names | identifiers(tokenize(args.variant)), params)
    return _report(args, check_variant(prog, spec, space))


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
        raise UsageError("pass --dist or --machine")
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
    p.add_argument("--extra-probes", type=int, default=PROBE_COUNT,
                   help="seeded random probes (default %(default)s)")
    p.add_argument("--grid", metavar="NAME",
                   help="check once per grid value of this parameter")
    p.add_argument("--grid-denominator", type=int, default=GRID_DENOMINATOR,
                   help="the grid is 0, 1/d, ..., 1 (default %(default)s)")
    p.add_argument("--json", action="store_true")


@functools.cache
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
    except (PgclSyntaxError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PgclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
