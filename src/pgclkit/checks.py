"""Equivalence, refinement and loop-progress checks.

Two programs are compared over the posts that are functions of the
family's observed variables.  When each program compiles to one flat pick
with no marker, the check is decided from the compiled rows (method
"rows"): per class of what it and the observed variables read, the
demonic set of sub-distributions pushed forward onto those variables, one
comparison per pair of the two sides' classes.  Equal sets agree on every
post.  Otherwise the rows decide when each side has one option there
(equality needs equal weights, refinement the spec's weight at most the
implementation's on every combination), or when every option is a single
point or ABORT (refinement needs each implementation target to be a spec
target, or the spec to have ABORT; McIver & Morgan 2005).  A `holds` from
the rows is a proof over all such posts.

Any other case, a family with no observed variables, and every program
that meets a marker are checked through the family's probe expectations
(method "probes"): per-state indicators separate any two distinct
pre-expectation maps on the space, guard brackets cover the predicates the
programs actually branch on, and a few seeded pseudo-random expectations
guard against functionals that happen to agree on indicators.  Every
pre-expectation is exact, loops included, so any probe disagreement
refutes and agreement on every probe confirms, on those probes.  A
`fails` from the rows runs the probes too, with the rows' witness as the
last probe, so its counterexample is the first probe that refutes.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .bits import check_count, check_seed
from .errors import EvalError, SpaceError, UndefinedStateError, VariantError, WpError
from .expectations import Expectation, from_column, from_expr
from .exprs import Bracket, as_value, evaluate, static_kind
from .programs import Program, VariantSpec, While, collect_predicates
from .states import State, StateSpace
from .wp import WpConfig, compile_program

ZERO = Fraction(0)
ONE = Fraction(1)

PROBE_COUNT = 16
PROBE_BOUND = 4
PROBE_DENOMINATOR = 8
GRID_DENOMINATOR = 8


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
    # how it was decided, "probes" or "rows" (from the compiled rows); two
    # verdicts that say the same compare equal however they were reached
    method: str = field(default="probes", compare=False)

    def __post_init__(self):
        if self.status not in ("holds", "fails"):
            raise ValueError(f"bad verdict status {self.status!r}")
        if self.method not in ("rows", "probes"):
            raise ValueError(f"bad verdict method {self.method!r}")

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
    """Finite witness family of expectations used by the checkers.

    `observed` names the variables every probe is a function of, so that
    a check may decide from the compiled rows over them.  Only `default`
    and `over_vars` set it, since only they know what their probes read;
    their families build the probes when `probes`, a cached_property, is
    first read, so a check that the rows decide as `holds` builds none.
    A family built from a tuple of probes has no observed variables and
    always runs its probes."""

    probes: tuple[Expectation, ...]
    seed: Optional[int] = None
    observed: Optional[tuple[str, ...]] = field(default=None, init=False)

    @property
    def space(self) -> Optional[StateSpace]:
        return self.probes[0].space if self.probes else None

    def __iter__(self):
        return iter(self.probes)

    def __len__(self):
        return len(self.probes)

    @staticmethod
    def default(space: StateSpace, programs: Iterable[Program] = (),
                seed: int = 0, extra: int = PROBE_COUNT) -> "ProbeFamily":
        """`over_vars` over every variable, plus the brackets of every
        boolean guard or assertion in the given programs, placed before
        the random probes (a loop guard may be a probability instead, and
        a bracket undefined at some state is skipped)."""
        return _Built(seed, space.names, space, tuple(programs), extra)

    @staticmethod
    def over_vars(space: StateSpace, names: Iterable[str], seed: int = 0,
                  extra: int = PROBE_COUNT) -> "ProbeFamily":
        """Probes measurable in a subset of the variables: the indicator
        of each combination of their values, then `extra` seeded random
        expectations of them with values in [0, PROBE_BOUND].

        Needed when comparing programs that agree on their observable
        variables but use scratch variables differently.
        """
        names = tuple(names)
        for k, n in enumerate(names):
            space.var_pos(n)  # an undeclared name fails here, not on first use
            if n in names[:k]:
                raise SpaceError(f"variable {n!r} is named twice")
        return _Built(seed, names, space, (), extra)


@dataclass(frozen=True, eq=False)
class _Built(ProbeFamily):
    """The family that `default` and `over_vars` return: its probes are
    `_probes` of its fields, built when `probes` is first read, as
    `_CPick.pushed` is on its first run; it compares as ProbeFamily does."""

    def _build(self) -> tuple:
        return tuple(_probes(self.space, self.observed, self.programs, self.seed,
                             self.extra))

    # a descriptor as the field's default stays on the class, out of
    # __init__, and caches the probes in the instance on first read
    probes: tuple = field(init=False, repr=False, default=cached_property(_build))
    observed: tuple[str, ...] = ()
    space: Optional[StateSpace] = None
    programs: tuple = ()
    extra: int = PROBE_COUNT

    def __post_init__(self):
        check_seed(self.seed)
        check_count("extra probes", self.extra)


def _probes(space: StateSpace, names: tuple, programs: tuple, seed: int,
            extra: int) -> list:
    """In order: the indicator of each combination of the named variables'
    values, the bracket of each boolean guard or assertion in `programs`,
    and `extra` seeded random columns with values in [0, PROBE_BOUND];
    a probe equal to an earlier one is dropped."""
    positions = tuple(space.var_pos(n) for n in names)
    rng = random.Random(seed)
    probes: list[Expectation] = []
    seen = set()

    # a probe is a column over the combinations of the named variables,
    # which are distinct, so two probes are equal exactly when their
    # columns are
    combos = list(itertools.product(*(space.domains[p].values for p in positions)))

    def add(column, label):
        key = tuple(column)
        if key not in seen:
            seen.add(key)
            probes.append(from_column(space, positions, column, label))

    for k, combo in enumerate(combos):
        column = [ZERO] * len(combos)
        column[k] = ONE
        add(column, _point_label(names, combo))
    # programs come with every variable named, in order: there a state is
    # its own combination, so a bracket's values are its column, and the
    # bracket keeps the column of what it reads.  A loop guard may be a
    # probability, and a bracket undefined somewhere is no probe.
    for prog in programs:
        for pred in collect_predicates(prog):
            if static_kind(pred, space) != "bool":
                continue
            try:
                exp = from_expr(space, Bracket(pred))
            except EvalError:
                continue
            if exp.values not in seen:
                seen.add(exp.values)
                probes.append(exp)
    for k in range(extra):
        column = [Fraction(rng.randrange(0, PROBE_BOUND * PROBE_DENOMINATOR + 1),
                           PROBE_DENOMINATOR) for _ in combos]
        add(column, f"random probe {k} over {', '.join(names)}")
    return probes


def _point_label(names, values) -> str:
    """The label [n=v, ...] of the indicator of one combination."""
    return f"[{', '.join(f'{n}={v}' for n, v in zip(names, values))}]"


def dyadic_grid(denominator: int = GRID_DENOMINATOR) -> tuple[Fraction, ...]:
    """The grid {0, 1/d, 2/d, ..., 1} used to instantiate parameters."""
    check_count("grid denominator", denominator, 1)
    return tuple(Fraction(k, denominator) for k in range(denominator + 1))


def _compare(left: Program, right: Program, probes: ProbeFamily,
             space: Optional[StateSpace], cfg: Optional[WpConfig],
             refines: bool) -> Verdict:
    """Decide `left` = `right`, or `left` refined by `right`, from the
    compiled rows where they can; else run both programs on every probe."""
    if probes.space is None:
        raise VariantError("empty probe family")
    space = space or probes.space
    left_c, right_c = compile_program(left, space), compile_program(right, space)
    violates = operator.gt if refines else operator.ne
    decided = None
    if probes.observed is not None and probes.space == space:
        positions = [space.var_pos(n) for n in probes.observed]
        decided = _by_rows(space, left_c.rows(positions), right_c.rows(positions), refines)
    if decided is None:
        return _by_probes(left_c, right_c, probes, space, cfg, violates)
    if decided is _HOLDS:
        return Verdict("holds", method="rows")
    # the first probe that refutes, with the rows' witness as the last one
    i, witness = decided[0], _witness(space, positions, probes.observed, *decided[1:])
    verdict = _by_probes(left_c, right_c, (*probes, witness), space, cfg, violates)
    if verdict.holds:
        raise WpError(f"the rows' witness {witness} does not refute at "
                      f"{space.state_at(i)}; this is a bug in the checker")
    return replace(verdict, method="rows")


def _by_probes(left_c, right_c, probes: Iterable[Expectation], space: StateSpace,
               cfg: Optional[WpConfig], violates) -> Verdict:
    """Run both compiled programs on every probe; the first state where
    violates(lhs, rhs) refutes the relation."""
    for probe in probes:
        lhs, rhs = left_c.wp(probe, cfg), right_c.wp(probe, cfg)
        for i, (a, b) in enumerate(zip(lhs.pre.values, rhs.pre.values)):
            if violates(a, b):
                return Verdict(
                    "fails",
                    counterexample=Counterexample(probe, space.state_at(i), a, b),
                )
    return Verdict("holds")


_HOLDS = object()
_UNDECIDED = object()


def _by_rows(space: StateSpace, left: Optional[tuple], right: Optional[tuple],
             refines: bool):
    """The relation decided from both sides' rows (Compiled.rows): _HOLDS,
    or (i, c, flip) at the first state i where it fails, with the witness
    post [combination c] (1 - [c] if flip, and 1 where c is -1); None when
    a side has no rows, or when no state fails and some state cannot be
    decided."""
    if left is None or right is None:
        return None
    key = tuple(sorted({*left[0], *right[0]}))
    undecided = False
    for k, gap in _gaps(space, key, left, right, refines):
        if gap is _UNDECIDED:
            undecided = True
        else:
            return (space.projection(key)[1][k],) + gap
    return None if undecided else _HOLDS


def _gaps(space: StateSpace, key: tuple, left: tuple, right: tuple, refines: bool):
    """Per class k of key (sorted positions that hold both sides' own, see
    Compiled.rows) where the two sides' option sets differ, in order:
    (k, _row_gap of them).  Each distinct pair of a left and a right class
    is compared once."""
    gaps: dict = {}
    for k, pair in enumerate(zip(space.restrict(key, left[0]), space.restrict(key, right[0]))):
        if pair in gaps:
            gap = gaps[pair]
        else:
            a, b = left[1][pair[0]], right[1][pair[1]]
            gap = gaps[pair] = None if a == b else _row_gap(a, b, refines)
        if gap is not None:
            yield k, gap


def _held_by_rows(left: Program, right: Program, space: StateSpace,
                  observed: Iterable[str], refines: bool) -> set:
    """The positions in the first variable's domain at whose every state
    both programs' rows over the observed variables show that the relation
    holds: where check_equal (or check_refines) of the programs with that
    variable a parameter of that value says `holds` by the rows.  Each
    class of what either reads gets its value from its number."""
    positions = [space.var_pos(n) for n in observed]
    left_rows = compile_program(left, space).rows(positions)
    right_rows = compile_program(right, space).rows(positions)
    if left_rows is None or right_rows is None:
        return set()
    key = tuple(sorted({0, *left_rows[0], *right_rows[0]}))
    step = space.radices(key)[0]  # the classes of one value of position 0
    held = set(range(space.domains[0].size))
    for k, _ in _gaps(space, key, left_rows, right_rows, refines):
        held.discard(k // step)
        if not held:
            break
    return held


def _row_gap(spec: frozenset, impl: frozenset, refines: bool):
    """At one state with unequal option sets: None where the relation
    holds, a witness (c, flip) where it fails, _UNDECIDED otherwise."""
    if len(spec) == 1 and len(impl) == 1:
        (a,), (b,) = spec, impl
        a, b = dict(a), dict(b)
        for c in sorted(a.keys() | b.keys()):
            x, y = a.get(c, ZERO), b.get(c, ZERO)
            if x > y or (x < y and not refines):
                return c, False
        return None
    if all(len(o) == 0 or (len(o) == 1 and next(iter(o))[1] == 1)
           for o in spec | impl):
        gap = _point_gap(spec, impl)
        return gap if gap is not None or refines else _point_gap(impl, spec)
    return _UNDECIDED


def _point_gap(spec: frozenset, impl: frozenset):
    """Refinement where every option is a point or ABORT: the witness of
    an implementation target that is no spec target, unless the spec may
    ABORT; None where it holds."""
    if frozenset() in spec:
        return None
    if frozenset() in impl:
        return -1, True
    targets = {c for o in spec for c, _ in o}
    missing = sorted(c for o in impl for c, _ in o if c not in targets)
    return (missing[0], True) if missing else None


def _witness(space: StateSpace, positions: list, names, c: int,
             flip: bool) -> Expectation:
    """The post [c] over the observed combinations, or 1 - [c] if flip."""
    firsts = space.projection(positions)[1]
    if c < 0:
        label = "1"
    else:
        at = space.state_at(firsts[c])
        label = _point_label(names, (at[n] for n in names))
        label = f"1 - {label}" if flip else label
    column = [ONE if (k == c) != flip else ZERO for k in range(len(firsts))]
    return from_column(space, positions, column, label)


def check_equal(left: Program, right: Program, probes: ProbeFamily,
                space: Optional[StateSpace] = None,
                cfg: Optional[WpConfig] = None) -> Verdict:
    """Equivalence over the posts on the family's observed variables.

    Decided from the compiled rows where they can (method "rows": a
    `holds` is then a proof over every such post), else by running both
    programs on every probe (method "probes": `holds` means exact
    agreement on every probe).  A `fails` comes with a counterexample."""
    return _compare(left, right, probes, space, cfg, refines=False)


def check_refines(spec: Program, impl: Program, probes: ProbeFamily,
                  space: Optional[StateSpace] = None,
                  cfg: Optional[WpConfig] = None) -> Verdict:
    """Refinement: wp(spec) <= wp(impl) pointwise, for every post on the
    family's observed variables.

    The implementation may only improve the guaranteed value; a state where
    the spec's guarantee exceeds the implementation's refutes the
    refinement.  Decided from the compiled rows where they can (method
    "rows"), else on every probe (method "probes"), as check_equal.
    """
    return _compare(spec, impl, probes, space, cfg, refines=True)


def check_variant(loop: Program, spec: VariantSpec,
                  space: StateSpace) -> Verdict:
    """Zero-one style progress check for almost-sure termination.

    On every guard-satisfying state the variant must be a natural number
    bounded by spec.upper_bound, and every demonic resolution of one body
    iteration must make it strictly decrease with probability at least
    spec.epsilon.  The demonic minimum of that probability is computed as
    the pre-expectation of the bracket [variant < current value].

    A variant above its bound at a guard state fails with a counterexample
    whose probe, labelled with the variant, is the variant where it is a
    non-negative number and 0 elsewhere, so a variant that is negative or
    undefined outside the guard still gets that verdict.
    """
    if not isinstance(loop, While):
        raise VariantError("variant checking expects a loop")
    if static_kind(loop.guard, space) != "bool":
        raise VariantError("variant checking expects a boolean loop guard")

    # each evaluated once per value of its free variables, and read per
    # class of what either reads; classes are numbered in the order of
    # their first states, so the first class that stops the check holds
    # the first state that does, as in a state-by-state walk
    guard_at, guards, _ = evaluate(space, loop.guard)
    variant_at, variants, den = evaluate(space, spec.variant)
    key = tuple(sorted({*guard_at, *variant_at}))
    index, firsts = space.projection(key)
    guards = list(map(guards.__getitem__, space.restrict(key, guard_at)))
    variants = list(map(variants.__getitem__, space.restrict(key, variant_at)))
    top = spec.upper_bound * den
    cuts = []  # per class, the variant's value where the guard holds, else None
    for g, v in zip(guards, variants):
        if g is False:
            cuts.append(None)
        elif g is True and v.__class__ is int and 0 <= v <= top and v % den == 0:
            cuts.append(v // den)
        else:
            break
    if len(cuts) < len(guards):
        stop = len(cuts)
        g, v, state = guards[stop], variants[stop], space.state_at(firsts[stop])
        if isinstance(g, EvalError):
            raise EvalError(f"loop guard {loop.guard} is undefined at {state}: {g}") from g
        if isinstance(v, EvalError):
            raise EvalError(f"variant {spec.variant} is undefined at {state}: {v}") from v
        if v.__class__ is not int or v < 0 or v % den:
            raise VariantError(f"variant {spec.variant} = {as_value(v, den)!r} at {state} "
                               "is not a natural number")
        column = [Fraction(x, den) if x.__class__ is int and x >= 0 else ZERO
                  for x in variants]
        return Verdict(
            "fails",
            counterexample=Counterexample(
                from_column(space, key, column, str(spec.variant)), state,
                Fraction(v, den), Fraction(spec.upper_bound)),
            detail="variant exceeds its bound",
        )
    values = sorted(set(cuts) - {None})
    if not values:
        return Verdict("holds", detail="loop guard nowhere satisfied")

    # the body's wp outside the guard is irrelevant; mask it, then surface
    # undefinedness only where the loop actually iterates
    body = compile_program(loop.body, space)
    bar = spec.epsilon
    for cut in values:
        # [variant < cut]: 0 where the variant is undefined or not a
        # number, which counts as no decrease and so never over-claims
        top = cut * den
        column = [ONE if x.__class__ is int and x < top else ZERO for x in variants]
        decrease = from_column(space, key, column, f"[{spec.variant} < {cut}]")
        result = body.wp(decrease, WpConfig(undefined="mask"))
        masked = {st.index: why for st, why in zip(result.undefined_states,
                                                   result.undefined_reasons)}
        achieved = result.pre.values
        for i in [i for i, c in enumerate(index) if cuts[c] == cut]:
            if i in masked:
                raise UndefinedStateError(
                    f"loop body wp is undefined at guard state {space.state_at(i)}: "
                    f"{masked[i]}",
                    state=space.state_at(i),
                )
            x = achieved[i]
            if x.numerator * bar.denominator < bar.numerator * x.denominator:  # x < bar
                return Verdict(
                    "fails",
                    counterexample=Counterexample(
                        decrease, space.state_at(i), x, spec.epsilon
                    ),
                    detail="variant may fail to decrease often enough",
                )
    return Verdict("holds")
