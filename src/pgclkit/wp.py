"""Exact pre-expectation transformer over finite state spaces.

wp(P, post) maps a post-expectation to the greatest guaranteed expected
value of `post` after running P, as a function of the initial state.  As
in McIver & Morgan (2005), a statement maps each state to a demonic set of
distributions over outcomes, and wp takes the least expected value over
that set: a coin averages, a demonic choice takes the pointwise minimum,
assertion failure and a guarded IF with no enabled branch contribute 0.
A program compiles to three node kinds: _CPick for every statement but
`;` and WHILE (see the compiled-form notes), _CSeq and _CWhile.  A part
of the program with no demonic choice left means one fixed
sub-distribution per state, whatever the post, so it is composed at
compile time into one flat _CPick (weights may sum to less than 1: the
rest is mass lost to ABORT or to a loop that runs forever).

Arithmetic is exact and integer: Fractions appear only at the API.
Compiled.wp scales the post to ints over D, the lcm of its denominators;
each pick holds its weights as ints over W, the lcm of theirs, so its
output is over D * W, and the result becomes Fractions once, at the end.
Scaling by a positive W keeps the order of values, so every demonic
minimum picks the option it would pick over Fractions.

Loops are least fixpoints, solved exactly with the compiled body as the
only oracle (McIver & Morgan 2005; Baier & Katoen 2008, ch. 10).  A loop
first finds two sets, one way for both kinds of loop below:

- undefined states: the least marker set the step maps to itself;
- stuck states, where the demon can keep the loop going forever: the
  greatest set Z with step([not Z]) = 0 on Z; their value is 0;

The other states are solved by one of two rules:

- a demon-free loop, whose composed step has one option per class, is
  summarised once at compile time (_summary): it finds both sets over the
  classes of its key, and linear.absorb gives each class where the loop
  runs its sub-distribution over the exits, checked against the step
  exactly;
- a loop with a demonic choice (_CWhile) finds both sets over the states
  and is solved on every run by policy iteration over memoryless demon
  choices.  Each round runs the body once, on _Lin values: that gives the
  step at the current values, which the descent and fixpoint checks read,
  and the policy that attains it.  linear.absorb solves that policy's
  chain, and the loop ends when the step maps the solved values to
  themselves exactly.  Outside the stuck states every policy is
  absorbing, so that fixpoint is unique.

States whose live execution paths are undefined (division by zero, an
assignment leaving the variable's domain, a probability outside [0, 1])
are tracked with an explicit marker.  A side of weight exactly 0 is
dropped when the program is compiled, so errors on unreachable branches
are harmless, as they should be.  Surviving markers raise by default;
cfg.undefined="mask" reports them in WpResult.undefined_states instead,
with their reasons in WpResult.undefined_reasons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add
from typing import Optional

from .errors import EvalError, UndefinedStateError, WpError
from .expectations import Expectation, evaluate
from .exprs import static_kind
from .linear import absorb
from .programs import (
    Abort,
    Assign,
    ChooseFromDist,
    DemonChoice,
    GuardedIf,
    IfBool,
    ProbChoice,
    Program,
    Seq,
    Skip,
    SuchThat,
    While,
    children,
)
from .states import State, StateSpace

ZERO = Fraction(0)
ONE = Fraction(1)

@dataclass(frozen=True)
class WpConfig:
    undefined: str = "raise"  # or "mask"

    def __post_init__(self):
        if self.undefined not in ("raise", "mask"):
            raise WpError("undefined must be 'raise' or 'mask'")


@dataclass(frozen=True)
class WpResult:
    """Pre-expectation plus the states where it is undefined, each with
    the reason of the first marker met there (undefined_reasons).

    Every loop is solved exactly, so loop_residual is always 0; it stays
    for callers that read it.
    """

    pre: Expectation
    loop_residual: Fraction = ZERO
    undefined_states: tuple[State, ...] = ()
    undefined_reasons: tuple[str, ...] = ()


# --- compiled form ---------------------------------------------------------
#
# States that agree on what a statement reads behave alike, up to the
# variables it leaves unchanged, so the compiler works on classes, not
# states.  Every node that composition reads (a flat _CPick) has a key: the
# variables it reads before it writes them, in declaration order.  For a
# primitive statement that is the free variables of its expressions (less
# the variables a :suchthat chooses); for `a; b` it is key(a) plus the
# variables of key(b) that a does not write on every path (ABORT and a
# marker count as writing every variable); for a choice the union of its
# own and its branches' keys; a loop's key is below.  The node holds one
# entry per class of its key, a combination of the key's values numbered
# row-major (_Frame.classes), and an atom is a partial assignment: the
# values written on that path (_Frame).  Read at state i, an atom reaches
# i with its written digits replaced, by the strides of StateSpace.  A
# written value that the class already gives its variable is dropped, so
# two atoms are equal exactly when they reach the same state from every
# state of the class.
#
# Every statement but `;` and WHILE becomes one _CPick: per class, the
# marker of an evaluation error, or the demon's options, each a
# sub-distribution over atoms.  Primitive statements read the post, so an
# atom is in slot 0; IF, <p>, |^| and guarded IF read their branches'
# outputs stacked, so atom j * slots (nothing written) reads branch j:
#
#   entry:  an _Undef marker, an atom (the one option of going there), or
#           a tuple of options;
#   option: an atom, a marker, or a pair (weights, atoms) of tuples with
#           positive Fraction weights, where an atom is an int, or last a
#           marker met there.  The weights sum to 1, or to less where the
#           rest of the mass is lost to ABORT or to a loop that runs
#           forever; ((), ()) is ABORT, worth 0.  No option follows one
#           that meets a marker.
#
# This one form is the per-state demonic set of distributions of McIver &
# Morgan, with the markers in place: composition reads and writes it, and
# a pick runs a form derived from it (see Running).  A marker holds its
# reason and the atom that reaches the state it was met at, and renders
# that state only when it is reported (_Undef.placed, _Undef.reason).
#
# The first marker met in evaluation order (options in order, atoms in
# order) wins, so `x :dist [a: p, b: 1 - p]` reports the post's marker at
# a's target before b's undefined target, as `x := a <p> x := b` does, and
# so does `x := a |^| x := b`, which is what the parser makes of
# `x :in {a, b}`.  Sides of weight 0 are dropped here, so their markers
# never surface, and 1 - p is computed here, once per value of p.
#
# Summaries.  A part of the program with one option per class has a
# meaning that does not depend on the post, so it is composed here, bottom
# up (_compose reads, per class of the result, the entry each atom reaches
# and brings it back to that class).  A pick over flat branches (picks that
# read the post) and `a; b` with both flat become one flat pick whenever
# each option either is a single atom, which takes the options it reads as
# they are (scaled by its weight), or reads single-option entries only,
# which it mixes into one.  Any other case would enumerate the demon's
# choices and is left as it is.  Options equal as distributions are
# merged, so the halving body's guarded IF, whose two branches agree where
# they overlap, has one option there.  Composition keeps the evaluation
# order, markers included, so a composed pick meets the first marker the
# nodes it replaces would meet.
#
# Loops.  A WHILE whose composed step (the guard over the body, whose
# atoms go round again in slot 0, and the exit, in slot 1) has one option
# per class is solved once, here, into a flat pick over its exits
# (_summary).  Its key K is the step's key plus the variables the body may
# write but need not, so one absorbing chain runs over the classes of K,
# and an exit is a partial assignment: K's values where the loop stops,
# and the last round's values of the variables every round writes.  (A
# loop that may stop in the middle of a round, under a numeric guard, adds
# those variables to K too.)  The classes where the guard is false exit at
# once and stay out of the chain: HALVING_LOOP's chain is its 7 interior
# values of p on eighths.  A loop with a demonic choice left stays a
# _CWhile, a gate over the full chain of states, solved by policy
# iteration on every run.  A sequence is compiled from its last statement
# back, and every statement is compiled knowing the compiled statements
# that follow it, so a summarised loop finds its undefined classes, and
# their reasons, with the markers that what follows it meets at its exits
# (one run of it on 0), flat or not, whether the loop is followed directly
# or sits in a branch of a choice that more statements follow: it meets
# them in the order a _CWhile does.  Those markers may read any variable,
# so a loop followed by one keys on every variable.
#
# Compile cost follows the number of classes, not the number of states:
# HALVING_LOOP compiles 9 classes of p on eighths, where the space has
# 1 458 states.  Best of three compile_program calls of it (Python 3.11,
# 2 cores) took 60 ms on eighths and 399 ms on sixteenths with one entry
# per state, and 2-5 ms and 5-12 ms with one per class.
#
# Running.  A pick derives its run form on its first run and keeps it
# (_CPick.ints, built by _ints): every weight becomes an int over its W,
# each class lists its states, and each atom of a class becomes the column
# of positions it reaches from them; a marker becomes the column of its
# placed markers.  The pick then runs class by class, a column at a time.
# A bare atom, worth weight 1, reads its value times W.  A vector (_Vec)
# carries its common denominator; branch outputs are brought to the lcm
# of theirs before a pick reads them stacked.  A _CWhile runs its body on
# _Lin values through the same columns, once per policy-iteration round,
# and its output is over the input's denominator times the lcm of its
# solved rows' denominators.

_ABORT = (((), ()),)


class _Frame:
    """A space's variables as the digits of atoms.

    Digit v of an atom is 0 where it keeps variable v and 1 + k where it
    writes v's k-th value; the atom is slot * slots + sum digit_v * radix_v.
    Read at state i, it reaches slot * n + i with its written digits
    replaced.  A variable with one value is never written."""

    def __init__(self, space: StateSpace):
        self.space = space
        self.n = space.size
        self.sizes = tuple(d.size for d in space.domains)
        self.strides = space.strides
        radix, r = [], 1
        for size in reversed(self.sizes):
            radix.append(r)
            r *= size + 1
        self.radix = tuple(reversed(radix))
        self.slots = r
        self._digits: dict = {}  # atom -> (slot, per variable digit)
        self._classes: dict = {}  # key -> per class {variable: value index}
        self._radices: dict = {}  # key -> per variable of key, its radix
        self._members: dict = {}  # key -> per class its states
        self._bases: dict = {}  # written variables -> per state, i without them

    def digits(self, atom: int) -> tuple:
        got = self._digits.get(atom)
        if got is None:
            slot, rest = divmod(atom, self.slots)
            ds = []
            for r in self.radix:
                d, rest = divmod(rest, r)
                ds.append(d)
            got = self._digits[atom] = (slot, tuple(ds))
        return got

    def atom(self, slot: int, digits, at: dict) -> int:
        """The atom writing `digits` in `slot`, read from the class `at`:
        a value the class already gives its variable is not written."""
        code = slot * self.slots
        for v, d in enumerate(digits):
            if d and self.sizes[v] > 1 and at.get(v) != d - 1:
                code += d * self.radix[v]
        return code

    def then(self, a: int, b: int, at: dict) -> int:
        """b read at the state that a reaches from the class `at`."""
        first = self.digits(a)[1]
        slot, second = self.digits(b)
        return self.atom(slot, [y or x for x, y in zip(first, second)], at)

    def classes(self, key: tuple) -> list:
        """Per class of key, row-major, its values as {variable: index}."""
        got = self._classes.get(key)
        if got is None:
            got = self._classes[key] = [
                dict(zip(key, ds))
                for ds in itertools.product(*(range(self.sizes[v]) for v in key))]
        return got

    def index(self, key: tuple, at: dict) -> int:
        """The class of key that `at` (values of key's variables) is."""
        radices = self._radices.get(key)
        if radices is None:
            radices, r = [], 1
            for v in reversed(key):
                radices.append(r)
                r *= self.sizes[v]
            radices = self._radices[key] = tuple(reversed(radices))
        return sum(at[v] * r for v, r in zip(key, radices))

    def reach(self, key: tuple, a: int, at: dict) -> int:
        """The class of key of the state atom a reaches from the class `at`."""
        ds = self.digits(a)[1]
        return self.index(key, {v: ds[v] - 1 if ds[v] else at[v] for v in key})

    def members(self, key: tuple) -> list:
        """Per class of key, its states in order."""
        got = self._members.get(key)
        if got is None:
            got = [[] for _ in self.classes(key)]
            for i, c in enumerate(self.space.projection(list(key))[0]):
                got[c].append(i)
            self._members[key] = got
        return got

    def cells(self, a: int, states: list) -> list:
        """The positions atom a reaches from each of `states`."""
        slot, ds = self.digits(a)
        off = slot * self.n + sum((d - 1) * s for d, s in zip(ds, self.strides) if d)
        written = tuple(v for v, d in enumerate(ds) if d)
        if not written:
            return [i + off for i in states]
        base = self._bases.get(written)
        if base is None:
            base = [0]
            for v, (size, stride) in enumerate(zip(self.sizes, self.strides)):
                w = 0 if v in written else stride
                base = [b + k * w for b in base for k in range(size)]
            self._bases[written] = base
        return [base[i] + off for i in states]


class _Undef:
    """Marks a state whose value is undefined, with the first reason seen:
    `what` at the state that the atom `at` reaches from the state the
    entry is read at.  Placed at a state, it holds that state's index and
    formats the reason only when it is read.  A marker absorbs arithmetic,
    so a sum holds the first marker it meets."""

    __slots__ = ("what", "at", "frame", "index")

    def __init__(self, what: str, at: int, frame: _Frame, index: Optional[int] = None):
        self.what = what
        self.at = at
        self.frame = frame
        self.index = index

    def after(self, a: int, at: dict) -> "_Undef":
        """The marker read at the state that a reaches from the class `at`."""
        return _Undef(self.what, self.frame.then(a, self.at, at), self.frame)

    def placed(self, states: list) -> list:
        """The marker read at each of `states`."""
        return [_Undef(self.what, 0, self.frame, t)
                for t in self.frame.cells(self.at, states)]

    @property
    def reason(self) -> str:
        return f"{self.what} at {self.frame.space.state_at(self.index)}"

    def _absorb(self, other):
        return self

    __add__ = __radd__ = __mul__ = __rmul__ = _absorb

    def __repr__(self):
        return f"<undefined: {self.what if self.index is None else self.reason}>"


class _Vec(list):
    """A vector the engine runs on: per position an int over the common
    denominator `den`, a marker, or in a loop body a _Lin."""

    __slots__ = ("den",)

    def __init__(self, values, den: int):
        super().__init__(values)
        self.den = den


def _den(vec) -> int:
    """The common denominator of a vector; a plain list holds its values
    as they are, so it is over 1."""
    return vec.den if vec.__class__ is _Vec else 1


class _Lin:
    """An exact value plus the linear form that produced it, over a loop's
    states (keys i >= 0) and its exits (keys ~i).  Running a loop body on
    these gives each state's value at the current point together with the
    policy that attains it, since a pick keeps the form of the option it
    picks.  Constants (always 0 in a body) carry no form."""

    __slots__ = ("value", "form")

    def __init__(self, value, form: dict):
        self.value = value
        self.form = form

    def __add__(self, other):
        if other.__class__ is not _Lin:
            if other.__class__ is _Undef:
                return other
            return _Lin(self.value + other, self.form)
        form = dict(self.form)
        for k, c in other.form.items():
            form[k] = form.get(k, 0) + c
        return _Lin(self.value + other.value, form)

    __radd__ = __add__

    def __mul__(self, c):
        return _Lin(c * self.value, {k: c * w for k, w in self.form.items()})

    __rmul__ = __mul__

    def __le__(self, other):
        return self.value <= _value(other)

    def __ge__(self, other):
        return self.value >= _value(other)


def _value(v):
    return v.value if isinstance(v, _Lin) else v


def _ints(frame: _Frame, key: tuple, entries: list) -> tuple:
    """(w, plan), the run form of entries: every weight an int over w, the
    lcm of the weights' denominators, and per class its states with its
    options, each a list of parts (x, column): x times the values at the
    positions in column, or, where x is None, the placed markers in it."""
    w = lcm(*{x.denominator for e in entries if e.__class__ is tuple
              for o in e if o.__class__ is tuple for x in o[0]})
    plan = []
    for states, e in zip(frame.members(key), entries):
        options = []
        for o in (e if e.__class__ is tuple else (e,)):
            if o.__class__ is int:
                options.append([(w, frame.cells(o, states))])
            elif o.__class__ is _Undef:
                options.append([(None, o.placed(states))])
            else:
                options.append([(None, a.placed(states)) if a.__class__ is _Undef
                                else (x.numerator * (w // x.denominator), frame.cells(a, states))
                                for x, a in zip(*o)])
        plan.append((states, options))
    return w, plan


def _column(options: list, vec, size: int) -> list:
    """Per state of a class, its marker, or the least over the options of
    the expected value of vec; the first marker met, in order, wins."""
    best = None
    for parts in options:
        col = None
        for x, cells in parts:
            part = cells if x is None else [x * vec[t] for t in cells]
            col = part if col is None else list(map(add, col, part))
        if col is None:  # ABORT
            col = [0] * size
        if best is None:
            best = col
        else:
            best = [b if b.__class__ is _Undef else
                    c if c.__class__ is _Undef or not b <= c else b
                    for b, c in zip(best, col)]
    return best


class _CPick:
    """A demonic choice of distributions at every state: entries holds an
    entry per class of key, the form that composition reads and writes,
    and ints the run form derived from it."""

    def __init__(self, frame: _Frame, key: tuple, entries: list, branches=()):
        self.frame = frame
        self.key = key  # the variables it reads, in order
        self.entries = entries  # per class of key: an entry, as above
        self.branches = branches  # compiled branches; none: reads the post

    @cached_property
    def writes(self) -> tuple:
        """(may, must): the variables some atom writes, and those every
        atom writes (all of them, where there is no atom)."""
        may, must = frozenset(), None
        for a in (a for e in self.entries for a in _entry_atoms(e)):
            w = frozenset(v for v, d in enumerate(self.frame.digits(a)[1]) if d)
            may |= w
            must = w if must is None else must & w
        return may, frozenset(range(len(self.frame.sizes))) if must is None else must

    @cached_property
    def ints(self) -> tuple:
        """(w, plan): the entries with int weights and columns (_ints),
        built on the first run and kept, so the picks that composition
        replaces never build it."""
        return _ints(self.frame, self.key, self.entries)

    def apply(self, vec) -> _Vec:
        """Run the entries on vec, the post or the stacked branch outputs."""
        w, plan = self.ints
        if len(plan) == 1:
            out = _column(plan[0][1], vec, self.frame.n)
        else:
            out = [0] * self.frame.n
            for states, options in plan:
                for i, v in zip(states, _column(options, vec, len(states))):
                    out[i] = v
        return _reduced(_Vec(out, _den(vec) * w))

    def run(self, f):
        if self.branches:
            f = _stacked([branch.run(f) for branch in self.branches])
        return self.apply(f)


def _entry_atoms(e):
    """The int atoms of an entry."""
    if e.__class__ is int:
        yield e
    elif e.__class__ is tuple:
        for o in e:
            if o.__class__ is int:
                yield o
            elif o.__class__ is tuple:
                yield from (a for a in o[1] if a.__class__ is int)


def _reduced(vec: _Vec) -> _Vec:
    """vec over the least denominator its values allow, where they are all
    ints: an unfused chain of picks multiplies their W otherwise, and the
    bit length of its denominator grows with the chain."""
    try:
        g = gcd(vec.den, *vec)
    except TypeError:  # a marker or a _Lin
        return vec
    return vec if g == 1 else _Vec([v // g for v in vec], vec.den // g)


def _stacked(outs: list) -> _Vec:
    """Branch outputs one after another, over their least common
    denominator."""
    den = lcm(*(out.den for out in outs))
    vec = _Vec((), den)
    for out in outs:
        vec += out if out.den == den else [x * (den // out.den) for x in out]
    return vec


def _common(rows: dict) -> tuple:
    """(d, rows) with every coefficient of the rows an int over d."""
    d = lcm(*(c.denominator for r in rows.values() for c in r.values()))
    return d, {s: {k: c.numerator * (d // c.denominator) for k, c in r.items()}
               for s, r in rows.items()}


class _CSeq:
    def __init__(self, first, second):
        self.first = first
        self.second = second

    def run(self, f):
        return self.first.run(self.second.run(f))


class _CWhile:
    """A loop with a demonic choice left, solved exactly on every run; see
    the module notes.  The gate is a pick over the body's output (slot 0)
    and the exits (slot 1)."""

    def __init__(self, gate: _CPick, body):
        self.gate = gate
        self.body = body
        self.stuck = self._stuck_states(gate.frame.n)

    def _step(self, x: list, exits: list, den: int) -> _Vec:
        """The gate over the body's output at x and the exits, both over den."""
        out = self.body.run(_Vec(x, den))
        common = lcm(_den(out), den)
        if common != _den(out):
            out = [v * (common // _den(out)) for v in out]
        if common != den:
            exits = [e * (common // den) for e in exits]
        return self.gate.apply(_Vec(out + exits, common))

    def _stuck_states(self, n):
        """States where the demon can keep the loop going forever: the
        greatest Z with step([not Z]) = 0 on Z, exits scored 1."""
        stuck = set(range(n))
        while stuck:
            out = self._step([0 if i in stuck else 1 for i in range(n)], [1] * n, 1)
            kept = {i for i in stuck
                    if out[i].__class__ is not _Undef and out[i] == 0}
            if kept == stuck:
                break
            stuck = kept
        return stuck

    def _undefined(self, f):
        """The states that turn undefined on the way up from 0: the least
        marker set the step maps to itself.  Markers ignore values."""
        exits = [x if x.__class__ is _Undef else 0 for x in f]
        undef: dict[int, _Undef] = {}
        while True:
            out = self._step([undef.get(i, 0) for i in range(len(f))], exits, 1)
            grown = {i: v for i, v in enumerate(out) if v.__class__ is _Undef}
            if grown.keys() == undef.keys():
                return undef
            undef = grown

    def run(self, f):
        n, stuck, den = len(f), self.stuck, _den(f)
        undef, rows, ceiling = self._undefined(f), None, None
        live = [i for i in range(n) if i not in undef and i not in stuck]
        fv = [x if x.__class__ is _Undef else _value(x) for x in f]
        d, v = 1, [0] * n  # the values of the current policy, over den * d
        while True:
            # the step at v, run on _Lin values: its values, and its forms,
            # which are the improved policy
            x = [undef.get(i) or (0 if i in stuck else _Lin(v[i], {i: 1}))
                 for i in range(n)]
            exits = [x if x.__class__ is _Undef else _Lin(x * d, {~i: 1})
                     for i, x in enumerate(fv)]
            out = self._step(x, exits, den * d)
            scale = out.den // (den * d)
            step = [_value(y) for y in out]
            if rows is not None:
                # policy iteration descends: step(v) <= v, and each policy's
                # values lie below the step that chose it; a fixpoint ends it
                if any(step[s] > v[s] * scale or (ceiling is not None and
                       v[s] * ceiling.den > ceiling[s] * den * d) for s in live):
                    raise WpError(_FIXPOINT_BUG)
                if all(step[s] == v[s] * scale for s in live):
                    break
                ceiling = _Vec(step, out.den)
            rows = absorb({s: {k: Fraction(c, scale) for k, c in out[s].form.items()}
                           if isinstance(out[s], _Lin) else {} for s in live})
            d, ints = _common(rows)
            v = [0] * n
            for s in live:
                v[s] = sum(c * fv[~k] for k, c in ints[s].items())
        result: list = [0] * n
        for i, marker in undef.items():
            result[i] = marker
        for s in live:  # the last check ran on these rows: no marker is met
            result[s] = sum(c * f[~k] for k, c in ints[s].items())
        return _Vec(result, den * d)


_FIXPOINT_BUG = ("exact loop solve failed its fixpoint check; "
                 "this is a bug in the engine")


def _flat(node) -> bool:
    return isinstance(node, _CPick) and not node.branches


def _meets(opt) -> bool:
    """Whether an option meets a marker; only its last atom can."""
    return (opt.__class__ is _Undef
            or (opt.__class__ is tuple and bool(opt[1])
                and opt[1][-1].__class__ is _Undef))


def _option(mixed: dict):
    """An option from {atom: weight} in insertion order."""
    if len(mixed) == 1:
        (a, w), = mixed.items()
        if a.__class__ is _Undef or w == 1:
            return a
    return tuple(mixed.values()), tuple(mixed)


def _mix(weights, atoms, read, mixed: dict) -> bool:
    """Add to mixed the mixture, by weights, of the single-option entries
    read(a) at atoms, up to the first marker met; False if an entry has
    several options."""
    for w, p in zip(weights, atoms):
        sub = p if p.__class__ is _Undef else read(p)
        if sub.__class__ is tuple:
            if len(sub) != 1:
                return False
            sub = sub[0]
        if sub.__class__ is int:
            mixed[sub] = mixed[sub] + w if sub in mixed else w
            continue
        if sub.__class__ is _Undef:
            mixed[sub] = w
            return True
        for v, q in zip(*sub):
            v = v if w is ONE else w if v is ONE else w * v
            mixed[q] = mixed[q] + v if q in mixed else v
        if _meets(sub):
            return True
    return True


def _scaled(w, sub) -> list:
    """The options of an entry, each scaled by w."""
    out = []
    for o in ((sub,) if sub.__class__ is not tuple else sub):
        if o.__class__ is int:
            o = ((w,), (o,))
        elif o.__class__ is tuple:
            o = tuple(w * v for v in o[0]), o[1]
        out.append(o)
    return out


def _entry(options: list):
    """Normal form of an entry: an option equal to an earlier one as a
    distribution is dropped, and a marker met first is the entry."""
    if len(options) > 1:
        kept, seen = [], set()
        for o in options:
            key = o if o.__class__ is not tuple else frozenset(zip(*o))
            if key not in seen:
                seen.add(key)
                kept.append(o)
            if _meets(o):
                break
        options = kept
    first = options[0]
    if first.__class__ is tuple and first[1] and first[1][0].__class__ is _Undef:
        return first[1][0]
    if len(options) == 1 and first.__class__ is not tuple:
        return first
    return tuple(options)


def _rebased(frame: _Frame, entry, a: int, at: dict):
    """An entry read at the state that atom a reaches from the class `at`,
    as an entry read at the class."""
    if entry.__class__ is int:
        return frame.then(a, entry, at)
    if entry.__class__ is _Undef:
        return entry.after(a, at)

    options = [(o[0], tuple(_rebased(frame, b, a, at) for b in o[1]))
               if o.__class__ is tuple else _rebased(frame, o, a, at) for o in entry]
    # options that the class tells apart no more are merged
    return _entry(options) if len(options) > 1 else tuple(options)


def _compose(frame: _Frame, key: tuple, outer_key: tuple, outer: list, inner):
    """Entries per class of key, each the entry of `outer` (entries over
    outer_key) there, with every atom a replaced by inner(at, a), the
    entry it reads, brought back to the class `at`; None where an option
    would mix an entry that has several options."""
    out = []
    for at in frame.classes(key):
        def read(a, at=at):
            return _rebased(frame, inner(at, a), a, at)

        entry = outer[frame.index(outer_key, at)]
        if entry.__class__ is int:
            out.append(read(entry))
            continue
        if entry.__class__ is _Undef:
            out.append(entry)
            continue
        options: list = []
        for opt in entry:
            if opt.__class__ is int:
                sub = read(opt)
                options += sub if sub.__class__ is tuple else (sub,)
            elif opt.__class__ is _Undef:
                options.append(opt)
            elif len(opt[1]) == 1:
                (w,), (p,) = opt
                options += (p,) if p.__class__ is _Undef else _scaled(w, read(p))
            else:
                mixed: dict = {}
                if not _mix(*opt, read, mixed):
                    return None
                options.append(_option(mixed))
            if _meets(options[-1]):
                break
        out.append(_entry(options))
    return out


def _union(*keys) -> tuple:
    return tuple(sorted(set().union(*keys)))


def _seq(first, second):
    if _flat(first) and _flat(second):
        frame = first.frame
        key = _union(first.key, set(second.key) - first.writes[1])
        entries = _compose(frame, key, first.key, first.entries,
                           lambda at, a: second.entries[frame.reach(second.key, a, at)])
        if entries is not None:
            return _CPick(frame, key, entries)
    return _CSeq(first, second)


def _choice(frame: _Frame, key: tuple, entries: list, branches: list) -> _CPick:
    """A pick over its branches' stacked outputs, composed when it can be."""
    if all(_flat(b) for b in branches):
        def inner(at, a):
            branch = branches[a // frame.slots]
            return branch.entries[frame.index(branch.key, at)]

        full = _union(key, *(b.key for b in branches))
        composed = _compose(frame, full, key, entries, inner)
        if composed is not None:
            return _CPick(frame, full, composed)
    return _CPick(frame, key, entries, branches)


def _loop(prog: While, frame: _Frame, after: tuple):
    """A WHILE, summarised when its composed step has one option per
    class; the markers that the statements `after` it meet at the exits
    count then, as they would when run."""
    kind = static_kind(prog.guard, frame.space)
    if kind not in ("bool", "num"):
        raise WpError("loop condition must be boolean or numeric")
    key, gate = _either(frame, *_eval_guarded(frame, prog.guard,
                                              "bool" if kind == "bool" else "prob"))
    body = _compile(prog.body, frame)
    if _flat(body):
        # slot 0 goes round again through the body, slot 1 exits
        step_key = _union(key, body.key)
        step = _compose(frame, step_key, key, gate, lambda at, a: a if a else
                        body.entries[frame.index(body.key, at)])
        if _one_option(step):
            return _summary(frame, step_key, step, body, _exits(after, frame))
    return _CWhile(_CPick(frame, key, gate), body)


def _exits(after: tuple, frame: _Frame) -> tuple:
    """(key, marks) for the compiled statements `after` a loop, nearest
    first: per class of key, the first marker they meet on the post 0,
    read at the state the loop exits at, else None."""
    if all(_flat(node) and not any(map(_first_mark, node.entries)) for node in after):
        return (), [None]
    node = after[0]
    for later in after[1:]:
        node = _seq(node, later)
    if _flat(node):
        return node.key, [_first_mark(e) for e in node.entries]
    # run them: a marker's state may then depend on every variable, and
    # class i of that key is state i
    vec = _Vec([0] * frame.n, 1)
    for node in reversed(after):
        vec = node.run(vec)
    key = tuple(range(len(frame.sizes)))
    every = frame.classes(key)
    return key, [None if x.__class__ is not _Undef else _Undef(
        x.what, frame.atom(0, [d + 1 for d in every[x.index].values()], at), frame)
        for x, at in zip(vec, every)]


def _first_mark(e) -> Optional[_Undef]:
    """The marker an entry meets on the post 0, or None."""
    if e.__class__ is _Undef:
        return e
    for o in (e if e.__class__ is tuple else ()):
        if _meets(o):
            return o if o.__class__ is _Undef else o[1][-1]
    return None


def _one_option(step) -> bool:
    """Whether a composed step exists and has one option per class."""
    return step is not None and all(e.__class__ is not tuple or len(e) == 1
                                    for e in step)


def _atoms(entry, one=ONE) -> tuple:
    """(atoms, weights) of a step entry with one option; a bare atom
    weighs `one`."""
    if entry.__class__ is int:
        return (entry,), (one,)
    opt = entry[0]
    return ((opt,), (one,)) if opt.__class__ is int else (opt[1], opt[0])


def _summary(frame: _Frame, step_key: tuple, step: list, body: _CPick,
             exits: tuple) -> _CPick:
    """A loop whose composed step (entries over step_key: an atom of slot
    0 goes round again, slot 1 exits) has one option per class, solved
    once, with linear.absorb, over the classes of the loop's key.

    The undefined classes, given the markers that what follows meets at
    the exits (see _exits), and the stuck classes, which become ABORT, are
    set aside as _CWhile sets its states aside.  A class where the guard is false exits
    at once.  The rest get their exit sub-distribution, checked to satisfy
    the step exactly.
    """
    may, must = body.writes
    out_at = frame.slots  # the exit atom: slot 1, nothing written
    # what follows reads its markers at the exit state
    key = _union(step_key, may - must, exits[0])
    if any(e != out_at and out_at in _atoms(e)[0]
           for e in step if e.__class__ is not _Undef):
        key = _union(key, may)  # stops mid-round: keep what rounds write
    classes = frame.classes(key)
    opts = [step[frame.index(step_key, at)] for at in classes]

    def go(k, a):
        return frame.reach(key, a, classes[k])

    stuck = set(range(len(classes)))
    while stuck:
        kept = {k for k in stuck if opts[k].__class__ is not _Undef and all(
            a.__class__ is int and a < out_at and go(k, a) in stuck
            for a in _atoms(opts[k])[0])}
        if kept == stuck:
            break
        stuck = kept

    def met(k, a, undef):
        """The marker that atom a meets from class k, or None."""
        if a.__class__ is _Undef:
            return a
        if a == out_at:
            return exits[1][frame.index(exits[0], classes[k])]
        m = undef.get(go(k, a))
        return m.after(a, classes[k]) if m is not None else None

    undef: dict = {}
    while True:
        grown = {}
        for k, e in enumerate(opts):
            m = e if e.__class__ is _Undef else next(
                (m for m in (met(k, a, undef) for a in _atoms(e)[0]) if m is not None), None)
            if m is not None:
                grown[k] = m
        if grown.keys() == undef.keys():
            break
        undef = grown

    def exit_of(j, a):
        # key's values at class j, and what the last round wrote elsewhere
        ds = frame.digits(a)[1]
        return ~frame.atom(0, [classes[j][v] + 1 if v in classes[j] else d
                               for v, d in enumerate(ds)], {})

    done = {k for k, e in enumerate(opts) if e == out_at}  # the guard is false
    moves, rows = {}, {}
    for k in range(len(classes)):
        if k in undef or k in stuck or k in done:
            continue
        moves[k] = []
        for a, w in zip(*_atoms(opts[k])):
            if a == out_at:
                moves[k].append((w, exit_of(k, 0)))
                continue
            j = go(k, a)
            if j not in stuck:
                moves[k].append((w, exit_of(j, a) if j in done else j))
        row: dict = {}
        for w, t in moves[k]:
            row[t] = row.get(t, 0) + w
        rows[k] = row
    solved_rows = absorb(rows)
    # the fixpoint check: row k is its step applied to the rows, in ints
    # over d times the step's w
    d, solved = _common(solved_rows)
    for k, pairs in moves.items():
        w = lcm(*(x.denominator for x, _ in pairs))
        want: dict = {}
        for x, t in pairs:
            c = x.numerator * (w // x.denominator)
            for e, y in (solved[t] if t >= 0 else {t: d}).items():
                want[e] = want.get(e, 0) + c * y
        if ({e: y for e, y in want.items() if y}
                != {e: y * w for e, y in solved[k].items() if y}):
            raise WpError(_FIXPOINT_BUG)
    entries = []
    for k, at in enumerate(classes):
        if k in undef:
            entries.append(undef[k])
        elif k in stuck:
            entries.append(_ABORT)
        elif k in done:
            entries.append(0)
        else:
            # every exit writes the same variables, so in the order of their
            # atoms they reach states in order, as a _CWhile meets them
            exits_k = sorted((~t, c) for t, c in solved_rows[k].items() if c)
            opt = _option({frame.atom(0, frame.digits(e)[1], at): c for e, c in exits_k})
            entries.append(opt if opt.__class__ is int else (opt,))
    return _CPick(frame, key, entries)


def _eval_guarded(frame: _Frame, expr, want: str) -> tuple:
    """(key, per class): a guard (want "bool") or a probability (want
    "prob"), with errors downgraded to _Undef markers."""
    key, results = evaluate(frame.space, expr)
    out = []
    for v in results:
        if isinstance(v, EvalError):
            reason = str(v)
        elif want == "bool":
            reason = None if isinstance(v, bool) else f"guard {expr} is not boolean"
        elif isinstance(v, Fraction) and 0 <= v <= 1:
            reason = None
        else:
            reason = f"probability {expr} = {v} outside [0, 1]"
        out.append(v if reason is None else _Undef(reason, 0, frame))
    return key, out


def _assign_targets(frame: _Frame, var: str, expr) -> tuple:
    """(key, entries) of `var := expr`."""
    space = frame.space
    pos = space.var_pos(var)
    key, results = evaluate(space, expr)
    digits = [0] * len(frame.sizes)
    entries = []
    for at, v in zip(frame.classes(key), results):
        k = -1
        if isinstance(v, EvalError):
            reason = str(v)
        elif isinstance(v, bool):
            reason = f"cannot assign a boolean to {var}"
        else:
            k = space.domains[pos].index_of(v)
            reason = None if k >= 0 else f"{var} := {v} leaves the domain of {var}"
        if reason is None:
            digits[pos] = k + 1
            entries.append(frame.atom(0, digits, at))
        else:
            entries.append(_Undef(reason, 0, frame))
    return key, entries


def _either(frame: _Frame, key: tuple, gate: list) -> tuple:
    """(key, entries) of a two-way choice: per class the first way (slot
    0) with weight g and the second (slot 1) with 1 - g, where g is a
    guard's bool or a probability; a side of weight 0 is dropped."""
    second, weights, entries = frame.slots, {}, []
    for g in gate:
        if isinstance(g, _Undef):
            entries.append(g)
        elif g.denominator == 1:  # a bool, or the probability 0 or 1
            entries.append(0 if g else second)
        else:
            w = weights.get(g)
            if w is None:
                w = weights[g] = (g, ONE - g)
            entries.append(((w, (0, second)),))
    return key, entries


def _compile(prog: Program, frame: _Frame, after: tuple = ()):
    """Resolve a program against a space; see the compiled-form notes above.
    `after` holds the compiled statements that follow prog, nearest first,
    which a loop inside it reads for their markers."""
    if isinstance(prog, Seq):
        # from the last statement back, so a loop sees what follows it
        parts = _chain(prog)
        node = _compile(parts.pop(), frame, after)
        while parts:
            node = _seq(_compile(parts.pop(), frame, (node,) + after), node)
        return node
    if isinstance(prog, While):
        return _loop(prog, frame, after)
    # primitive statements: atoms read the post
    if isinstance(prog, Skip):
        return _CPick(frame, (), [0])
    if isinstance(prog, Abort):
        return _CPick(frame, (), [_ABORT])
    if isinstance(prog, Assign):
        return _CPick(frame, *_assign_targets(frame, prog.var, prog.expr))
    if isinstance(prog, SuchThat):
        return _CPick(frame, *_suchthat_options(frame, prog))
    if isinstance(prog, ChooseFromDist):
        weights, exprs = zip(*[(p, e) for e, p in prog.dist.items if p > 0])
        columns = [_assign_targets(frame, prog.var, e) for e in exprs]
        key = _union(*(k for k, _ in columns))
        entries, sides = [], range(len(exprs))
        for at in frame.classes(key):
            row = [_rebased(frame, col[frame.index(k, at)], 0, at) for k, col in columns]
            mixed: dict = {}
            _mix(weights, sides, row.__getitem__, mixed)
            entries.append(_entry([_option(mixed)]))
        return _CPick(frame, key, entries)
    # the rest read their branches' outputs, stacked
    branches = [_compile(c, frame, after) for c in children(prog)]
    if isinstance(prog, IfBool):
        key, entries = _either(frame, *_eval_guarded(frame, prog.guard, "bool"))
    elif isinstance(prog, ProbChoice):
        key, entries = _either(frame, *_eval_guarded(frame, prog.prob, "prob"))
    elif isinstance(prog, DemonChoice):
        key, entries = (), [(0, frame.slots)]
    elif isinstance(prog, GuardedIf):
        guards = [_eval_guarded(frame, g, "bool") for g, _ in prog.branches]
        key, entries = _union(*(k for k, _ in guards)), []
        for at in frame.classes(key):
            row = [values[frame.index(k, at)] for k, values in guards]
            undef = next((m for m in row if isinstance(m, _Undef)), None)
            enabled = tuple(j * frame.slots for j, m in enumerate(row) if m is True)
            entries.append(undef if undef is not None else enabled or _ABORT)
    else:
        raise WpError(f"unknown program node {type(prog).__name__}")
    return _choice(frame, key, entries, branches)


def _chain(prog: Program) -> list:
    """The statements of a sequence, in order."""
    if isinstance(prog, Seq):
        return _chain(prog.first) + _chain(prog.second)
    return [prog]


def _suchthat_options(frame: _Frame, prog: SuchThat) -> tuple:
    """(key, entries) of `vars :suchthat pred`: per class, the candidates
    that satisfy pred, in order, or the marker of the first candidate
    where it is undefined (an evaluation error names the state the choice
    is made at)."""
    space = frame.space
    positions = [space.var_pos(v) for v in prog.vars]
    pred_key, verdicts = evaluate(space, prog.pred)
    key = tuple(p for p in pred_key if p not in positions)
    candidates = [{}]
    for p in positions:
        candidates = [{**c, p: k} for c in candidates for k in range(frame.sizes[p])]
    atoms = [frame.atom(0, [c[v] + 1 if v in c else 0 for v in range(len(frame.sizes))], {})
             for c in candidates]
    unsatisfied = f"no values of {', '.join(prog.vars)} satisfy {prog.pred}"
    entries = []
    for at in frame.classes(key):
        ok, entry = [], None
        for c, a in zip(candidates, atoms):
            v = verdicts[frame.index(pred_key, {**at, **c})]
            if isinstance(v, EvalError):
                entry = _Undef(str(v), 0, frame)
                break
            if not isinstance(v, bool):
                entry = _Undef("suchthat predicate is not boolean", a, frame)
                break
            if v:
                ok.append(a)
        entries.append(entry or tuple(ok) or _Undef(unsatisfied, 0, frame))
    return key, entries


class Compiled:
    """A program resolved against one state space, to be run for many posts."""

    def __init__(self, space: StateSpace, root):
        self.space = space
        self._root = root

    def wp(self, post: Expectation, cfg: Optional[WpConfig] = None) -> WpResult:
        """Pre-expectation of `post`; see wp() for what it raises."""
        space = self.space
        if post.space != space:
            raise WpError("post-expectation lives on a different state space")
        cfg = cfg or WpConfig()
        # the post as ints over den; the result comes back over vec.den
        den = lcm(*{v.denominator for v in post.values})
        scaled = [v.numerator * (den // v.denominator) for v in post.values]
        vec = self._root.run(_Vec(scaled, den))
        top = max(scaled) * vec.den  # v / vec.den <= max post iff v * den <= top
        undefined: list[State] = []
        reasons: list[str] = []
        values = []
        exact: dict = {}  # each distinct value becomes one Fraction
        for i, v in enumerate(vec):
            if v.__class__ is _Undef:
                undefined.append(space.state_at(i))
                reasons.append(v.reason)
                if cfg.undefined == "raise":
                    raise UndefinedStateError(
                        f"wp is undefined at {space.state_at(i)}: {v.reason}",
                        state=space.state_at(i),
                    )
                values.append(ZERO)
                continue
            q = exact.get(v)
            if q is None:
                if v < 0 or v * den > top:
                    raise WpError(
                        f"feasibility violated at {space.state_at(i)}: "
                        f"{Fraction(v, vec.den)} outside [0, {post.max_value()}]"
                    )
                q = exact[v] = Fraction(v, vec.den)
            values.append(q)
        return WpResult(
            pre=Expectation.proven(space, tuple(values)),
            undefined_states=tuple(undefined),
            undefined_reasons=tuple(reasons),
        )

    def rows(self, positions) -> Optional[list]:
        """Per state, the set of its options, each pushed forward onto the
        variables at `positions`: a frozenset of (combination, weight)
        pairs, combinations numbered as in StateSpace.projection, and
        ABORT the empty one.  wp is the least expected value over them.
        None when the root is not one flat pick, or meets a marker."""
        root = self._root
        if not _flat(root):
            return None
        frame = root.frame
        steps, step = [], 1  # the combination is sum value * step
        for p in reversed(positions):
            steps.append((p, step))
            step *= frame.sizes[p]
        key = _union(root.key, positions)
        sets = []
        for at in frame.classes(key):
            e = root.entries[frame.index(root.key, at)]
            if e.__class__ is _Undef:
                return None
            options = []
            for o in (e if e.__class__ is tuple else (e,)):
                if _meets(o):
                    return None
                mass: dict = {}
                for a, w in zip(*_atoms((o,))):
                    ds = frame.digits(a)[1]
                    c = sum((ds[p] - 1 if ds[p] else at[p]) * s for p, s in steps)
                    mass[c] = mass[c] + w if c in mass else w
                options.append(frozenset(mass.items()))
            sets.append(frozenset(options))
        index, _ = frame.space.projection(list(key))
        return [sets[c] for c in index]


def compile_program(prog: Program, space: StateSpace) -> Compiled:
    """Resolve a program against a space once; run it with Compiled.wp."""
    return Compiled(space, _compile(prog, _Frame(space)))


def wp(prog: Program, post: Expectation, space: Optional[StateSpace] = None,
       cfg: Optional[WpConfig] = None) -> WpResult:
    """Pre-expectation of `post` under `prog`.

    Raises UndefinedStateError when a live path is undefined somewhere
    (unless cfg.undefined == "mask"), and WpError when a result leaves
    [0, max post] or a loop solve fails its fixpoint check, either of which
    would indicate a bug in the engine itself.
    """
    return compile_program(prog, post.space if space is None else space).wp(post, cfg)
