"""Spans at pgclkit's layer boundaries, recorded by wrapping functions.

Each layer's public function is wrapped under every name its callers look
it up by: the package export the benchmark calls, and the module globals
that other pgclkit modules call.  A wrapper records a span (layer, site,
start, end, parent, phase) in memory; a call nested inside an open span of
the same layer (compile_program recursing, say) is not recorded again.
A site that no longer exists is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass
from time import perf_counter

# layer -> sites (module, attribute); "Class.method" patches a staticmethod
LAYERS = {
    "parser.parse": [
        ("pgclkit", "parse_program"), ("pgclkit", "parse_source"),
        ("pgclkit", "parse_expression"),
        ("pgclkit.parser", "parse_program"), ("pgclkit.parser", "parse_source"),
        ("pgclkit.parser", "parse_expression"),
        ("pgclkit.cli", "parse_source"), ("pgclkit.cli", "parse_expression"),
    ],
    "cli.main": [("pgclkit.cli", "main")],
    "checks.probe_build": [
        ("pgclkit.checks", "ProbeFamily.over_vars"),
        ("pgclkit.checks", "ProbeFamily.default"),
    ],
    "checks.check": [
        (mod, fn) for mod in ("pgclkit", "pgclkit.cli")
        for fn in ("check_equal", "check_refines", "check_variant")
    ],
    "wp.wp": [("pgclkit", "wp"), ("pgclkit.checks", "wp"), ("pgclkit.cli", "wp")],
    "wp.compile": [("pgclkit.wp", "compile_program")],
    "sampler.run_trials": [("pgclkit", "run_trials"), ("pgclkit.cli", "run_trials")],
    "sampler.sample_discrete": [
        ("pgclkit", "sample_discrete"), ("pgclkit.cli", "sample_discrete"),
    ],
    "sampler.sample_binary": [("pgclkit", "sample_binary")],
    "machine.build": [("pgclkit", "build_machine"), ("pgclkit.cli", "build_machine")],
    "machine.analyze": [("pgclkit", "analyze"), ("pgclkit.cli", "analyze")],
    "machine.solve": [("pgclkit.machine", "solve_linear")],
    "machine.load": [("pgclkit", "load_machine"), ("pgclkit.cli", "load_machine")],
}

# counted, not timed: a span per call would swamp the layers above
COUNTED = {
    "exprs.eval": [
        ("pgclkit.wp", "eval_expr"), ("pgclkit.expectations", "eval_expr"),
        ("pgclkit.checks", "eval_expr"),
    ],
}


@dataclass
class Span:
    layer: str
    site: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    phase: str
    data: dict


def _denominator_bits(result) -> int:
    return max(v.denominator.bit_length() for v in result.pre.values)


# what a span keeps from its result, for the count metrics
OBSERVE = {
    ("wp.wp", "pgclkit.wp"): lambda r: {"den_bits": _denominator_bits(r)},
    ("sampler.run_trials", "pgclkit.run_trials"): lambda r: {"runs": r.runs, "flips": r.total_flips},
    ("sampler.run_trials", "pgclkit.cli.run_trials"): lambda r: {"runs": r.runs, "flips": r.total_flips},
    ("machine.build", "pgclkit.build_machine"): lambda r: {"nodes": r.size},
    ("machine.build", "pgclkit.cli.build_machine"): lambda r: {"nodes": r.size},
}


def _resolve(module_name: str, attr: str):
    """(owner, name, raw attribute) or None when the site is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTED, 0)
        self.phase = "setup"
        self.absent_sites: list[str] = []
        self.absent_layers: list[str] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._saved: list[tuple] = []

    def install(self):
        """Wrap every site that exists; remember the originals."""
        self.absent_sites, self.absent_layers = [], []
        for table, make in ((LAYERS, self._timed), (COUNTED, self._counted)):
            for layer, sites in table.items():
                found = False
                for module_name, attr in sites:
                    hit = _resolve(module_name, attr)
                    if hit is None:
                        self.absent_sites.append(f"{module_name}.{attr}")
                        continue
                    owner, name, raw = hit
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = make(layer, f"{module_name}.{attr}", fn)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    setattr(owner, name, wrapped)
                    self._saved.append((owner, name, raw))
                    found = True
                if not found:
                    self.absent_layers.append(layer)

    def uninstall(self):
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved = []

    def _timed(self, layer, site, fn):
        observe = OBSERVE.get((layer, site))
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in open_:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(layer, site, 0.0, 0.0, stack[-1] if stack else -1,
                        self.phase, {})
            spans.append(span)
            stack.append(index)
            open_.add(layer)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                open_.discard(layer)
            if observe is not None:
                span.data = observe(result)
            return result

        return traced

    def _counted(self, layer, site, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: str, rounds: dict):
        """Spans, counts, absent sites and the operation time per round."""
        with open(path, "w") as fh:
            json.dump({
                "rounds": rounds,
                "spans": [
                    {"name": s.layer, "site": s.site, "start": s.start,
                     "end": s.end, "parent": s.parent, "phase": s.phase,
                     **s.data}
                    for s in self.spans
                ],
                "counts": self.counts,
                "absent_sites": self.absent_sites,
                "absent_layers": self.absent_layers,
            }, fh)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round (parse time adds one set-up)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    by_layer: dict[tuple[str, str], list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
        by_layer.setdefault((s.layer, s.phase), []).append(i)

    def pick(layer, phase="round"):
        return [spans[i] for i in by_layer.get((layer, phase), ())]

    def total(layer, phase="round"):
        return sum(s.end - s.start for s in pick(layer, phase))

    def self_time(layer):
        return sum(spans[i].end - spans[i].start - child_time[i]
                   for i in by_layer.get((layer, "round"), ()))

    def data_sum(layer, key):
        return sum(s.data.get(key, 0) for s in pick(layer))

    trials_s = total("sampler.run_trials")
    samples = data_sum("sampler.run_trials", "runs")
    flips = data_sum("sampler.run_trials", "flips")
    draws = len(pick("sampler.sample_discrete"))
    draw_s = total("sampler.sample_discrete")
    den_bits = [s.data["den_bits"] for s in pick("wp.wp") if "den_bits" in s.data]
    checks_wp = [s for s in pick("wp.wp") if s.site == "pgclkit.checks.wp"]
    per = 1.0 / rounds
    return {
        "parser.parse_s": (total("parser.parse", "setup") + total("parser.parse") * per, "s"),
        "cli.main_self_s": (self_time("cli.main") * per, "s"),
        "checks.probe_build_s": (total("checks.probe_build") * per, "s"),
        "checks.self_s": (self_time("checks.check") * per, "s"),
        "checks.wp_calls": (len(checks_wp) * per, "count"),
        "wp.compile_calls": (len(pick("wp.compile")) * per, "count"),
        "wp.compile_s": (total("wp.compile") * per, "s"),
        "exprs.eval_calls": (tracer.counts["exprs.eval"] * per, "count"),
        "wp.run_s": (self_time("wp.wp") * per, "s"),
        "wp.max_den_bits": (max(den_bits, default=0), "bits"),
        "sampler.run_trials_s": (trials_s * per, "s"),
        "sampler.flips": (flips * per, "count"),
        "sampler.flips_per_sample": (flips / samples if samples else 0.0, "flips"),
        "sampler.samples_per_s": (samples / trials_s if trials_s else 0.0, "1/s"),
        "sampler.sample_discrete_s": (draw_s * per, "s"),
        "sampler.trace_samples_per_s": (draws / draw_s if draw_s else 0.0, "1/s"),
        "sampler.sample_binary_s": (total("sampler.sample_binary") * per, "s"),
        "machine.build_s": (total("machine.build") * per, "s"),
        "machine.nodes": (data_sum("machine.build", "nodes") * per, "count"),
        "machine.analyze_s": (total("machine.analyze") * per, "s"),
        "machine.solve_s": (total("machine.solve") * per, "s"),
        "machine.load_s": (total("machine.load") * per, "s"),
    }
