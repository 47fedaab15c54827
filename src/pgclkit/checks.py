"""Equivalence, refinement and loop-progress checks.

Two programs are compared through a finite family of probe expectations:
per-state indicators separate any two distinct pre-expectation maps on the
space, guard brackets cover the predicates the programs actually branch
on, and a few seeded pseudo-random expectations guard against functionals
that happen to agree on indicators.  Every pre-expectation is exact, loops
included, so any probe disagreement refutes and agreement on every probe
confirms.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DistError, UndefinedStateError, VariantError
from .expectations import Expectation, from_expr, indicator
from .exprs import Bracket, Cmp, Expr, Lit, eval_expr, static_kind
from .programs import Program, VariantSpec, While, collect_predicates
from .states import State, StateSpace
from .wp import WpConfig, compile_program

ZERO = Fraction(0)
ONE = Fraction(1)

PROBE_COUNT = 16
PROBE_BOUND = 4
PROBE_DENOMINATOR = 8


@dataclass(frozen=True)
class Counterexample:
    probe: Expectation
    state: State
    lhs: Fraction
    rhs: Fraction

    def __str__(self):
        return (f"probe {self.probe}: at {self.state} "
                f"lhs = {self.lhs}, rhs = {self.rhs}")


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "fails"
    counterexample: Optional[Counterexample] = None
    residual: Fraction = ZERO  # always 0: every loop is solved exactly
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("holds", "fails"):
            raise ValueError(f"bad verdict status {self.status!r}")

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def __str__(self):
        tail = f" ({self.detail})" if self.detail else ""
        if self.counterexample is not None:
            tail += f" [{self.counterexample}]"
        return self.status + tail


@dataclass(frozen=True)
class ProbeFamily:
    """Finite witness family of expectations used by the checkers."""

    probes: tuple[Expectation, ...]
    seed: Optional[int] = None

    def __iter__(self):
        return iter(self.probes)

    def __len__(self):
        return len(self.probes)

    @staticmethod
    def default(space: StateSpace, programs: Iterable[Program] = (),
                seed: int = 0, extra: int = PROBE_COUNT) -> "ProbeFamily":
        """Indicators of every state, brackets of every boolean guard or
        assertion appearing in the given programs (a loop guard may be a
        probability instead), and `extra` seeded random expectations with
        values in [0, PROBE_BOUND]."""
        probes = [indicator(space, i) for i in range(space.size)]
        seen = {p.values for p in probes}
        for prog in programs:
            for pred in collect_predicates(prog):
                if static_kind(pred, space) != "bool":
                    continue
                exp = from_expr(space, Bracket(pred))
                if exp.values not in seen:
                    seen.add(exp.values)
                    probes.append(exp)
        probes.extend(_random_probes(space, seed, extra, seen))
        return ProbeFamily(tuple(probes), seed=seed)

    @staticmethod
    def over_vars(space: StateSpace, names: Iterable[str], seed: int = 0,
                  extra: int = PROBE_COUNT) -> "ProbeFamily":
        """Probes measurable in a subset of the variables.

        Needed when comparing programs that agree on their observable
        variables but use scratch variables differently.
        """
        names = tuple(names)
        positions = [space.var_pos(n) for n in names]
        rng = random.Random(seed)
        probes: list[Expectation] = []
        seen = set()

        combos: list[tuple] = [()]
        for p in positions:
            combos = [c + (v,) for c in combos for v in space.domains[p].values]
        # per state its combination, by stride arithmetic; a probe is a
        # column over the combinations, and two probes are equal exactly
        # when their columns agree on the combinations some state has
        index, firsts = space.projection(positions)
        present = [c for c, first in enumerate(firsts) if first >= 0]

        def add(column, label):
            key = tuple(column[c] for c in present)
            if key not in seen:
                seen.add(key)
                probes.append(Expectation.proven(
                    space, tuple(map(column.__getitem__, index)), label=label))

        for k, combo in enumerate(combos):
            column = [ZERO] * len(combos)
            column[k] = ONE
            add(column, f"[{', '.join(f'{n}={v}' for n, v in zip(names, combo))}]")
        for k in range(extra):
            column = [Fraction(rng.randrange(0, PROBE_BOUND * PROBE_DENOMINATOR + 1),
                               PROBE_DENOMINATOR) for _ in combos]
            add(column, f"random probe {k} over {', '.join(names)}")
        return ProbeFamily(tuple(probes), seed=seed)


def _random_probes(space: StateSpace, seed: int, count: int, seen: set):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        values = tuple(
            Fraction(rng.randrange(0, PROBE_BOUND * PROBE_DENOMINATOR + 1),
                     PROBE_DENOMINATOR)
            for _ in range(space.size)
        )
        if values not in seen:
            seen.add(values)
            out.append(Expectation(space, values, label=f"random probe {k}"))
    return out


def dyadic_grid(denominator: int = 8) -> tuple[Fraction, ...]:
    """The grid {0, 1/d, 2/d, ..., 1} used to instantiate parameters."""
    if denominator < 1:
        raise DistError(f"grid denominator must be at least 1, got {denominator}")
    return tuple(Fraction(k, denominator) for k in range(denominator + 1))


def _compare(left: Program, right: Program, probes: ProbeFamily,
             space: Optional[StateSpace], cfg: Optional[WpConfig],
             violates) -> Verdict:
    """Run both programs on every probe; a state where violates(lhs, rhs)
    refutes the relation."""
    if not len(probes):
        raise VariantError("empty probe family")
    space = space or probes.probes[0].space
    left_c, right_c = compile_program(left, space), compile_program(right, space)
    for probe in probes:
        lhs, rhs = left_c.wp(probe, cfg), right_c.wp(probe, cfg)
        for i, (a, b) in enumerate(zip(lhs.pre.values, rhs.pre.values)):
            if violates(a, b):
                return Verdict(
                    "fails",
                    counterexample=Counterexample(probe, space.state_at(i), a, b),
                )
    return Verdict("holds")


def check_equal(left: Program, right: Program, probes: ProbeFamily,
                space: Optional[StateSpace] = None,
                cfg: Optional[WpConfig] = None) -> Verdict:
    """Probe-based equivalence: holds exactly when every probe agrees
    exactly; a disagreement is a counterexample."""
    return _compare(left, right, probes, space, cfg, operator.ne)


def check_refines(spec: Program, impl: Program, probes: ProbeFamily,
                  space: Optional[StateSpace] = None,
                  cfg: Optional[WpConfig] = None) -> Verdict:
    """Refinement: every probe must satisfy wp(spec) <= wp(impl) pointwise.

    The implementation may only improve the guaranteed value; a state where
    the spec's guarantee exceeds the implementation's refutes the
    refinement.
    """
    return _compare(spec, impl, probes, space, cfg, operator.gt)


def check_variant(loop: Program, spec: VariantSpec,
                  space: StateSpace) -> Verdict:
    """Zero-one style progress check for almost-sure termination.

    On every guard-satisfying state the variant must be a natural number
    bounded by spec.upper_bound, and every demonic resolution of one body
    iteration must make it strictly decrease with probability at least
    spec.epsilon.  The demonic minimum of that probability is computed as
    the pre-expectation of the bracket [variant < current value].
    """
    if not isinstance(loop, While):
        raise VariantError("variant checking expects a loop")
    if static_kind(loop.guard, space) != "bool":
        raise VariantError("variant checking expects a boolean loop guard")

    guard_states: list[tuple[int, Fraction]] = []
    for i, state in enumerate(space.states()):
        if not eval_expr(loop.guard, state):
            continue
        v = eval_expr(spec.variant, state)
        if not isinstance(v, Fraction) or v.denominator != 1 or v < 0:
            raise VariantError(
                f"variant {spec.variant} = {v!r} at {state} is not a natural number"
            )
        if v > spec.upper_bound:
            return Verdict(
                "fails",
                counterexample=Counterexample(
                    from_expr(space, spec.variant), state, v,
                    Fraction(spec.upper_bound),
                ),
                detail="variant exceeds its bound",
            )
        guard_states.append((i, v))

    if not guard_states:
        return Verdict("holds", detail="loop guard nowhere satisfied")

    # the body's wp outside the guard is irrelevant; mask it, then surface
    # undefinedness only where the loop actually iterates
    body = compile_program(loop.body, space)
    for cut in sorted({v for _, v in guard_states}):
        decrease = from_expr(
            space,
            Bracket(_lt(spec.variant, cut)),
            label=f"[{spec.variant} < {cut}]",
        )
        result = body.wp(decrease, WpConfig(undefined="mask"))
        masked = {st.index for st in result.undefined_states}
        for i, v in guard_states:
            if v != cut:
                continue
            if i in masked:
                raise UndefinedStateError(
                    f"loop body wp is undefined at guard state {space.state_at(i)}",
                    state=space.state_at(i),
                )
            achieved = result.pre.values[i]
            if achieved < spec.epsilon:
                return Verdict(
                    "fails",
                    counterexample=Counterexample(
                        decrease, space.state_at(i), achieved, spec.epsilon
                    ),
                    detail="variant may fail to decrease often enough",
                )
    return Verdict("holds")


def _lt(variant: Expr, cut: Fraction) -> Expr:
    return Cmp("<", variant, Lit(cut))
