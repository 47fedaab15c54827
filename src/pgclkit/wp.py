"""Exact pre-expectation transformer over finite state spaces.

wp(P, post) maps a post-expectation to the greatest guaranteed expected
value of `post` after running P, as a function of the initial state.  As
in McIver & Morgan (2005), a statement maps each state to a demonic set of
distributions over outcomes, and wp takes the least expected value over
that set: a coin averages, a demonic choice takes the pointwise minimum,
assertion failure and a guarded IF with no enabled branch contribute 0.
A program compiles to three node kinds: _CPick for every statement but
`;` and WHILE (see the compiled-form notes), _CSeq and _CLoop.  A part
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
only oracle (McIver & Morgan 2005; Baier & Katoen 2008, ch. 10), by one
solver over the positions of a loop's step: the classes of what it reads
where the body composes into one flat step, else the states.  It finds
the stuck positions, where the demon can keep the loop going forever, and
the undefined ones, and runs policy iteration over memoryless demon
choices (Puterman 1994), which ends with an exact check.  A loop with no
demonic choice left has one policy and is solved once, at compile time,
into a flat pick; any other is solved on every run (see the Loops notes).

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
# demon's options, each a sub-distribution over atoms, or one option that
# meets the marker of an evaluation error.  Primitive statements read the
# post, so an atom is in slot 0; IF, <p>, |^| and guarded IF read their
# branches' outputs stacked, so atom j * slots (nothing written) reads
# branch j:
#
#   entry:  a non-empty tuple of options;
#   option: a pair (weights, atoms) of tuples of one length, with positive
#           Fraction weights and distinct atoms, where an atom is an int, or
#           last a marker met there.  The weights sum to 1, or to less where
#           the rest of the mass is lost to ABORT or to a loop that runs
#           forever; ((), ()) is ABORT, worth 0.  No option follows one that
#           meets a marker.
#
# Going surely to one atom, or meeting one marker, is _point(a).
#
# This one form is the per-state demonic set of distributions of McIver &
# Morgan, with the markers in place: composition reads and writes it, and
# a pick runs a form derived from it (see Running).  A marker holds its
# reason and the atom that reaches the state it was met at, and renders
# that state only when it is reported (_Undef.placed, _Undef.reason).
#
# The first marker met in evaluation order (options in order, atoms in
# order) wins, so `x := a <p> x := b`, which is what the parser makes of
# `x :dist [a: p, b: 1 - p]`, reports the post's marker at a's target
# before b's undefined target, and so does `x := a |^| x := b`, which is
# what it makes of `x :in {a, b}`.  Sides of weight 0 are dropped here, so
# their markers never surface, and 1 - p is computed here, once per value
# of p.
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
# Each flat pick knows whether it is single: every entry has at most one
# option.  A primitive pick or a gate finds out from its entries (an
# assignment, SKIP, ABORT and an IF or <p> gate always are); a composed
# pick is single when its outer and inner parts both are.  Composition
# can fail only where it mixes an inner entry with several options, so a
# composition whose inner parts are all single cannot fail, and its pick
# builds a class's entry the first time composition or a run reads it,
# and keeps it (_Lazy); the split step's coin, keyed on q and r, builds
# the one class of their 81 that the split before it reaches.  Any other
# composition builds every class at once, as it may fail.  A run, rows,
# the writes of a pick (read when it is the first part of a sequence or a
# loop body), a loop's step and the markers after a loop read every class
# of what they read, and so force them all.
#
# Loops.  One solver serves every WHILE.  It works on the loop's step (the
# guard over the body, whose atoms go round again in slot 0, and the exit,
# in slot 1) over positions, with one stuck fixpoint, one undefined
# fixpoint and one policy iteration:
#
# - stuck positions (_stuck): where some option keeps all its mass in the
#   set, so the demon can keep the loop going forever; the greatest Z with
#   step([not Z]) = 0 on Z, exits scored 1.  Their value is 0.
# - undefined positions (_undefined): the least marker set the step maps
#   to itself, each with the first marker met, in option order, then atom
#   order.
# - policy iteration (_solve): each round runs the step once, on _Lin
#   values, which gives the step at the current values, read by the
#   descent checks, and the policy that attains it; linear.absorb solves
#   that policy's chain.  The rounds end when the step maps the solved
#   values to themselves; outside the stuck positions every policy is
#   absorbing, so that fixpoint is unique.  The end check is exact: the
#   last policy's rows map its solved values to themselves as forms over
#   the exits, whatever the post.
#
# Where the body is a flat pick and the step composes (under a bool guard
# it always does; under a numeric one where the body has one option per
# class), a position is a class of the loop's key K (_positions): the
# step's key plus the variables the body may write but need not, and all
# it may write where the loop can stop in the middle of a round, under a
# numeric guard.  A class where the guard is false exits at once and is no
# position; an atom that reaches one is an exit, K's values where the loop
# stops and the last round's values of the variables every round writes,
# held at a position of its own, as a run over states holds a state where
# the guard is false.  Elsewhere (a demonic loop in the body, a demon after
# a coin, a numeric guard over a body with several options), a position is
# a state, and the step runs the body (_states_loop).
#
# A step with one option per class has one policy, so it is solved here,
# once, into a flat pick over its exits (a summary): HALVING_LOOP's chain
# is its 7 interior values of p on eighths.  A sequence is compiled from
# its last statement back, and every statement is compiled knowing the
# compiled statements that follow it, so a summary finds its undefined
# classes, and their reasons, with the markers that what follows it meets
# at its exits (one run of it on 0, _exits), flat or not, whether the loop
# is followed directly or sits in a branch of a choice that more
# statements follow: it meets them in the order a run would.  K then
# includes what those markers read, and a loop followed by a part that is
# not flat keys on every variable.
#
# Any other loop stays a _CLoop, solved on every run.  Its K also takes the
# variables the body never writes, so every exit is a state and the demon
# chooses by the post there; states of one class have isomorphic futures,
# so one memoryless choice per class is optimal (Puterman 1994).  The
# free-split loop, `q,r :suchthat (q+r)/2 = p; p :in q <1/2> r` under
# 0 < p < 1, runs on the 34 classes of p and x on sixteenths, not on the
# 9 826 states.  Its stuck and undefined positions are found when it is
# compiled, so a run is one policy iteration, unless markers reach its
# exits (met by what follows it, or passed in by an enclosing loop); then
# its undefined positions are found again with them.  The run ends with the
# flat pick of the policy the post makes the demon choose, the summary of
# that policy, run on the post (_CLoop.pick serves both).
#
# Compile cost follows the number of classes built, not the number of
# states: HALVING_LOOP compiles 9 classes of p on eighths, where the space
# has 1 458 states.  Best of three compile_program calls of it (Python
# 3.11, 2 cores) took 60 ms on eighths and 399 ms on sixteenths with one
# entry per state, and 2-5 ms and 5-12 ms with one per class.
# SPLIT_THEN_COIN at p = 3/8 over x, q, r (162 states) took 3.9 ms with
# every class of every pick built, and 0.7 ms with its classes built as
# they are read.
#
# Running.  A pick derives its run form on its first run and keeps it
# (_CPick.ints, built by _ints): every weight becomes an int over its W,
# each class lists its states, and each atom of a class becomes the column
# of positions it reaches from them; a marker becomes the column of its
# placed markers.  The pick then runs class by class, a column at a time.
# A vector (_Vec) carries its common denominator; branch outputs are
# brought to the lcm of theirs before a pick reads them stacked, and so are
# a loop body's output and the exits.  A _CLoop over states runs its body
# on _Lin values through the same columns, and one over classes its own
# plan of (weight, position) parts, once per policy-iteration round; it
# then runs the pick of the policy found, built as a summary is.

_ABORT = (((), ()),)
_SURE = (ONE,)


def _point(a) -> tuple:
    """The entry that goes surely to atom a, or meets marker a."""
    return ((_SURE, (a,)),)


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
        """The marker read at the state that a reaches from the class `at`;
        a placed marker is read alike everywhere."""
        if self.index is not None:
            return self
        return _Undef(self.what, self.frame.then(a, self.at, at), self.frame)

    def placed(self, states: list) -> list:
        """The marker read at each of `states`."""
        if self.index is not None:
            return [self] * len(states)
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
    w = lcm(*{x.denominator for e in entries for o in e for x in o[0]})
    plan = [(states, [[(None, a.placed(states)) if a.__class__ is _Undef
                       else (x.numerator * (w // x.denominator), frame.cells(a, states))
                       for x, a in zip(*o)] for o in e])
            for states, e in zip(frame.members(key), entries)]
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
        best = col if best is None else list(map(_least, best, col))
    return best


def _least(b, c):
    """The lesser of two values, where a marker wins over a value and the
    first marker met over a later one."""
    return b if b.__class__ is _Undef else c if c.__class__ is _Undef or not b <= c else b


class _Lazy:
    """Entries per class, each built by build(class) the first time it is
    read, by index or in iteration, and kept (got holds None until then).
    Once the last is built, build is dropped, and with it the picks it
    composes."""

    __slots__ = ("build", "got", "left")

    def __init__(self, build, size: int):
        self.build = build
        self.got = [None] * size
        self.left = size

    def __getitem__(self, k: int):
        e = self.got[k]
        if e is None:
            e = self.got[k] = self.build(k)
            self.left -= 1
            if not self.left:
                self.build = None
        return e

    def __iter__(self):
        return map(self.__getitem__, range(len(self.got)))

    def __len__(self) -> int:
        return len(self.got)


class _CPick:
    """A demonic choice of distributions at every state: entries holds an
    entry per class of key, the form that composition reads and writes
    (a list, or a _Lazy table where a composition builds it as it is
    read), and ints the run form derived from it."""

    def __init__(self, frame: _Frame, key: tuple, entries, branches=(),
                 single: Optional[bool] = None):
        self.frame = frame
        self.key = key  # the variables it reads, in order
        self.entries = entries  # per class of key: an entry, as above
        self.branches = branches  # compiled branches; none: reads the post
        if single is not None:
            self.single = single

    @cached_property
    def single(self) -> bool:
        """Whether every entry has at most one option, so that a
        composition with this pick as its inner part cannot fail (see
        Summaries); a pick built as it is read is told instead."""
        return all(len(e) == 1 for e in self.entries)

    @cached_property
    def writes(self) -> tuple:
        """(may, must): the variables some atom writes, and those every
        atom writes (all of them, where there is no atom)."""
        may, must = frozenset(), None
        for a in (a for e in self.entries for o in e for a in o[1]
                  if a.__class__ is not _Undef):
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
        return _reduced(_Vec(out, vec.den * w))

    def run(self, f):
        if self.branches:
            f = _stacked([branch.run(f) for branch in self.branches])
        return self.apply(f)


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


class _CSeq:
    def __init__(self, first, second):
        self.first = first
        self.second = second

    def run(self, f):
        return self.first.run(self.second.run(f))


class _CLoop:
    """A loop over the positions of its step (see Loops): class k of key is
    at position places[k], None where the loop exits at once, and position
    m + e holds exit e, which reaches atoms[e].  step(x, exits, den) runs
    the step, parts are the nodes it runs, and follow is what _exits gives
    for the statements after it."""

    def __init__(self, frame: _Frame, key: tuple, places, step, atoms: list,
                 follow: tuple, marks: list, m: int, held: int, parts: tuple):
        self.frame, self.key, self.places, self.step = frame, key, places, step
        self.atoms, self.follow, self.parts = atoms, follow, parts
        self.m, self.n = m, m + held
        self.stuck = _stuck(step, self.n, len(marks))
        self.undef = _undefined(step, self.n, marks)

    @cached_property
    def states(self) -> list:
        """Per exit, the state it reaches: where the demon chooses, every
        exit writes every variable."""
        return [self.frame.cells(a, [0])[0] for a in self.atoms]

    def run(self, f):
        """The pick of the policy that the post f makes the demon choose,
        run on f."""
        exits = [f[i] for i in self.states]
        undef = self.undef
        if any(x.__class__ is _Undef for x in exits):  # markers reach the exits
            undef = _undefined(self.step, self.n, exits)
        d, ints = _solve(self.step, self.m, self.n, self.stuck, undef, exits, f.den)
        return self.pick(undef, d, ints).apply(f)

    def pick(self, undef: dict, d: int, ints: dict) -> _CPick:
        """The solved loop as a flat pick over its exits."""
        frame, (after_key, after_marks), entries = self.frame, self.follow, []
        for p, at in zip(self.places, frame.classes(self.key)):
            if p is None:
                entries.append(_point(after_marks[frame.index(after_key, at)] or 0))
            elif p in undef:
                entries.append(_point(undef[p]))
            elif p in self.stuck:
                entries.append(_ABORT)
            else:
                # every exit writes the same variables, so in the order of
                # their atoms they reach states in order, as a run meets them
                out = sorted((self.atoms[~e], c) for e, c in ints[p].items() if c)
                entries.append((_option({frame.atom(0, frame.digits(e)[1], at): Fraction(
                    c, d) for e, c in out}),))
        return _CPick(frame, self.key, entries)


def _states_loop(gate: _CPick, body) -> _CLoop:
    """A loop over the states: its step runs the body, and exit i is state i."""
    frame = gate.frame

    def step(x, exits, den):
        return gate.apply(_stacked([body.run(_Vec(x, den)), _Vec(exits, den)]))

    every = tuple(range(len(frame.sizes)))
    atoms = [frame.atom(0, [d + 1 for d in at.values()], {}) for at in frame.classes(every)]
    return _CLoop(frame, every, range(frame.n), step, atoms, ((), [None]), [0] * frame.n,
                  frame.n, 0, (gate, body))


def _stuck(step, n: int, exits: int) -> set:
    """The stuck positions (see Loops) of a step over n positions."""
    stuck = set(range(n))
    while stuck:
        out = step([0 if i in stuck else 1 for i in range(n)], [1] * exits, 1)
        kept = {i for i in stuck if out[i].__class__ is not _Undef and out[i] == 0}
        if kept == stuck:
            break
        stuck = kept
    return stuck


def _undefined(step, n: int, exits: list) -> dict:
    """The undefined positions (see Loops), given the markers at the exits,
    each with its marker; markers ignore values."""
    exits = [x if x.__class__ is _Undef else 0 for x in exits]
    undef: dict = {}
    while True:
        out = step([undef.get(i, 0) for i in range(n)], exits, 1)
        grown = {i: v for i, v in enumerate(out) if v.__class__ is _Undef}
        if grown.keys() == undef.keys():
            return undef
        undef = grown


def _solve(step, m: int, n: int, stuck: set, undef: dict, exits: list, den: int) -> tuple:
    """(d, per live position its value as {~exit: int} over d), by policy
    iteration (see Loops); exits holds ints over den, _Lin values or
    markers, and position m + e holds exit e."""
    live = [i for i in range(m) if i not in undef and i not in stuck]
    fv = [x if x.__class__ is _Undef else _value(x) for x in exits]
    d, v, rows, ceiling = 1, [0] * m, None, None  # v: the policy's values, over den * d
    while True:
        # the step at v, run on _Lin values: its values, and its forms,
        # which are the improved policy
        ex = [x if x.__class__ is _Undef else _Lin(x * d, {~e: 1}) for e, x in enumerate(fv)]
        x = [undef.get(i) or (0 if i in stuck else _Lin(v[i], {i: 1})) for i in range(m)]
        out = step(x + ex[:n - m], ex, den * d)
        scale = out.den // (den * d)
        now = [_value(y) for y in out]
        if rows is not None:
            # policy iteration descends: step(v) <= v, and each policy's
            # values lie below the step that chose it; a fixpoint ends it
            if any(now[s] > v[s] * scale or (ceiling is not None and
                   v[s] * ceiling.den > ceiling[s] * den * d) for s in live):
                raise WpError(_FIXPOINT_BUG)
            if all(now[s] == v[s] * scale for s in live):
                break
            ceiling = _Vec(now, out.den)
        rows = {s: (scale, out[s].form if out[s].__class__ is _Lin else {}) for s in live}
        d, ints = absorb(rows)
        v = [0] * m
        for s in live:
            v[s] = sum(c * fv[~k] for k, c in ints[s].items())
    # the end check: the last policy's rows map its solved values to
    # themselves as forms over the exits, so for every post
    for s, (w, row) in rows.items():
        want: dict = {}
        for t, c in row.items():
            for e, y in (ints[t] if t >= 0 else {t: d}).items():
                want[e] = want.get(e, 0) + c * y
        if ({e: y for e, y in want.items() if y}
                != {e: y * w for e, y in ints[s].items() if y}):
            raise WpError(_FIXPOINT_BUG)
    return d, ints


_FIXPOINT_BUG = ("exact loop solve failed its fixpoint check; "
                 "this is a bug in the engine")


def _flat(node) -> bool:
    return isinstance(node, _CPick) and not node.branches


def _meets(opt) -> bool:
    """Whether an option meets a marker; only its last atom can."""
    return bool(opt[1]) and opt[1][-1].__class__ is _Undef


def _option(mixed: dict) -> tuple:
    """An option from {atom: weight} in insertion order."""
    return tuple(mixed.values()), tuple(mixed)


def _mix(weights, atoms, read, mixed: dict) -> bool:
    """Add to mixed the mixture, by weights, of the single-option entries
    read(a) at atoms, up to the first marker met; False if an entry has
    several options."""
    for w, p in zip(weights, atoms):
        if p.__class__ is _Undef:
            mixed[p] = w
            return True
        sub = read(p)
        if len(sub) != 1:
            return False
        for v, q in zip(*sub[0]):
            v = v if w is ONE else w if v is ONE else w * v
            mixed[q] = mixed[q] + v if q in mixed else v
        if _meets(sub[0]):
            return True
    return True


def _scaled(w, sub):
    """The options of an entry, each scaled by w."""
    if w is ONE:
        return sub
    return [(tuple(w if v is ONE else w * v for v in ws), atoms) for ws, atoms in sub]


def _entry(options) -> tuple:
    """Normal form of an entry: an option equal to an earlier one as a
    distribution is dropped, and no option follows one that meets a
    marker."""
    if len(options) > 1:
        kept, seen = [], set()
        for o in options:
            key = frozenset(zip(*o))
            if key not in seen:
                seen.add(key)
                kept.append(o)
            if _meets(o):
                break
        options = kept
    return tuple(options)


def _rebased(frame: _Frame, entry: tuple, a: int, at: dict) -> tuple:
    """An entry read at the state that atom a reaches from the class `at`,
    as an entry read at the class; atoms, and then options, that the class
    tells apart no more are merged."""
    options = []
    for ws, atoms in entry:
        atoms = tuple([b.after(a, at) if b.__class__ is _Undef else frame.then(a, b, at)
                       for b in atoms])
        if len(atoms) > 1 and len(set(atoms)) < len(atoms):
            mixed: dict = {}
            for w, b in zip(ws, atoms):
                mixed[b] = mixed[b] + w if b in mixed else w
            ws, atoms = _option(mixed)
        options.append((ws, atoms))
    return _entry(options)


def _compose(key: tuple, outer: _CPick, inner, single: bool) -> Optional[_CPick]:
    """A flat pick over the classes of key: per class, the entry of the
    flat pick `outer` there, with every atom a replaced by inner(at, a),
    the entry it reads, brought back to the class `at`.  Where `single`
    (every entry inner gives has at most one option) nothing can fail, and
    each entry is built when it is first read; otherwise every class is
    built now, and the result is None where an option would mix an entry
    that has several options."""
    frame = outer.frame
    classes = frame.classes(key)

    def build(k: int):
        at = classes[k]

        def read(a):
            return _rebased(frame, inner(at, a), a, at)

        options: list = []
        for opt in outer.entries[frame.index(outer.key, at)]:
            ws, atoms = opt
            if len(atoms) != 1:
                mixed: dict = {}
                if not _mix(ws, atoms, read, mixed):
                    return None
                options.append(_option(mixed))
            elif atoms[0].__class__ is _Undef:
                options.append(opt)
            else:
                options += _scaled(ws[0], read(atoms[0]))
            if _meets(options[-1]):
                break
        return _entry(options)

    if single:
        return _CPick(frame, key, _Lazy(build, len(classes)), single=outer.single)
    entries = []
    for k in range(len(classes)):
        entries.append(build(k))
        if entries[-1] is None:
            return None
    return _CPick(frame, key, entries)


def _union(*keys) -> tuple:
    return tuple(sorted(set().union(*keys)))


def _seq(first, second):
    if _flat(first) and _flat(second):
        frame = first.frame
        key = _union(first.key, set(second.key) - first.writes[1])
        composed = _compose(key, first, lambda at, a: second.entries[
            frame.reach(second.key, a, at)], second.single)
        if composed is not None:
            return composed
    return _CSeq(first, second)


def _choice(gate: _CPick, branches: list) -> _CPick:
    """A pick over its branches' stacked outputs, composed when it can be."""
    if all(_flat(b) for b in branches):
        frame = gate.frame

        def inner(at, a):
            branch = branches[a // frame.slots]
            return branch.entries[frame.index(branch.key, at)]

        full = _union(gate.key, *(b.key for b in branches))
        composed = _compose(full, gate, inner, all(b.single for b in branches))
        if composed is not None:
            return composed
    return _CPick(gate.frame, gate.key, gate.entries, branches)


def _loop(prog: While, frame: _Frame, after: tuple):
    """A WHILE: a summary where its step has one option per class, with the
    markers that the statements `after` it meet at the exits, else a
    _CLoop (see Loops)."""
    kind = static_kind(prog.guard, frame.space)
    if kind not in ("bool", "num"):
        raise WpError("loop condition must be boolean or numeric")
    gate = _CPick(frame, *_either(frame, *_eval_guarded(
        frame, prog.guard, "bool" if kind == "bool" else "prob")))
    body = _compile(prog.body, frame)
    # slot 0 goes round again through the body, slot 1 exits
    step = _flat(body) and _compose(_union(gate.key, body.key), gate, lambda at, a: _point(
        a) if a else body.entries[frame.index(body.key, at)], body.single)
    if not step:
        return _states_loop(gate, body)
    may, must = body.writes
    key = _union(step.key, may - must)
    if any(e != _point(frame.slots) and frame.slots in o[1] for e in step.entries for o in e):
        key = _union(key, may)  # stops mid-round: keep what rounds write
    single = step.single
    follow = _exits(after, frame) if single else ((), [None])
    key = _union(key, follow[0] if single else set(range(len(frame.sizes))) - may)
    places, m, run, atoms, marks = _positions(frame, step, key, follow)
    loop = _CLoop(frame, key, places, run, atoms, follow, marks, m, len(atoms), (step,))
    if not single:  # every exit is a state, whose post the demon reads
        return loop
    # one policy: exit values, which only choose between options, are 0
    return loop.pick(loop.undef, *_solve(run, m, loop.n, loop.stuck, loop.undef, marks, 1))


def _positions(frame: _Frame, step: _CPick, key: tuple, follow: tuple) -> tuple:
    """(places, m, run, atoms, marks): a composed step over the classes of
    key (see Loops), m positions of classes and one per exit.  Exit e
    reaches atoms[e], where what follows meets marks[e] (read off follow,
    as _exits gives it), or 0; run is the step."""
    classes = frame.classes(key)
    entries = [step.entries[frame.index(step.key, at)] for at in classes]
    places, m = [], 0
    for e in entries:
        places.append(None if e == _point(frame.slots) else m)
        m += places[-1] is not None
    w = lcm(*{x.denominator for e in entries for o in e for x in o[0]})
    found: dict = {}  # exit atom -> its index
    marks = []

    def exit_of(j, a):
        # key's values at class j, and what the last round wrote elsewhere
        ds = frame.digits(a)[1]
        e = frame.atom(0, [classes[j][v] + 1 if v in classes[j] else d
                           for v, d in enumerate(ds)], {})
        if e not in found:
            found[e] = len(found)
            marks.append(follow[1][frame.index(follow[0], classes[j])] or 0)
        return found[e]

    def part(k, x, a):
        # (c, t, a): c / w times x[t] read through atom a, or exits[~t];
        # or (None, marker, 0)
        if a.__class__ is _Undef:
            return None, a, 0
        c = x.numerator * (w // x.denominator)
        if a == frame.slots:  # exits here
            return c, ~exit_of(k, 0), 0
        j = frame.reach(key, a, classes[k])
        return c, m + exit_of(j, a) if places[j] is None else places[j], a

    plan = [(at, [[part(k, x, a) for x, a in zip(*o)] for o in entries[k]])
            for k, at in enumerate(classes) if places[k] is not None]
    plan += [({}, [[(w, ~e, 0)]]) for e in range(len(found))]

    def run(x, exits, den):
        out = []
        for at, options in plan:
            best = None
            for parts in options:
                col = 0
                for c, t, a in parts:
                    if c is None:  # a marker
                        col = col + t
                    elif t < 0:
                        col = col + c * exits[~t]
                    else:  # a marker there is read from this class
                        y = x[t]
                        col = col + (y.after(a, at) if y.__class__ is _Undef else c * y)
                best = col if best is None else _least(best, col)
            out.append(best)
        return _Vec(out, den * w)

    return places, m, run, list(found), marks


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
    # run them: whether a marker is met may then depend on every variable,
    # class i of that key is state i, and a placed marker reads alike
    # from anywhere
    vec = _Vec([0] * frame.n, 1)
    for node in reversed(after):
        vec = node.run(vec)
    return tuple(range(len(frame.sizes))), [
        x if x.__class__ is _Undef else None for x in vec]


def _first_mark(e: tuple) -> Optional[_Undef]:
    """The marker an entry meets on the post 0, or None."""
    return next((o[1][-1] for o in e if _meets(o)), None)


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
            entries.append(_point(frame.atom(0, digits, at)))
        else:
            entries.append(_point(_Undef(reason, 0, frame)))
    return key, entries


def _either(frame: _Frame, key: tuple, gate: list) -> tuple:
    """(key, entries) of a two-way choice: per class the first way (slot
    0) with weight g and the second (slot 1) with 1 - g, where g is a
    guard's bool or a probability; a side of weight 0 is dropped."""
    second, weights, entries = frame.slots, {}, []
    first, other = _point(0), _point(second)
    for g in gate:
        if isinstance(g, _Undef):
            entries.append(_point(g))
        elif g.denominator == 1:  # a bool, or the probability 0 or 1
            entries.append(first if g else other)
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
        return _CPick(frame, (), [_point(0)])
    if isinstance(prog, Abort):
        return _CPick(frame, (), [_ABORT])
    if isinstance(prog, Assign):
        return _CPick(frame, *_assign_targets(frame, prog.var, prog.expr))
    if isinstance(prog, SuchThat):
        return _CPick(frame, *_suchthat_options(frame, prog))
    # the rest read their branches' outputs, stacked
    branches = [_compile(c, frame, after) for c in children(prog)]
    if isinstance(prog, IfBool):
        key, entries = _either(frame, *_eval_guarded(frame, prog.guard, "bool"))
    elif isinstance(prog, ProbChoice):
        key, entries = _either(frame, *_eval_guarded(frame, prog.prob, "prob"))
    elif isinstance(prog, DemonChoice):
        key, entries = (), [_point(0) + _point(frame.slots)]
    elif isinstance(prog, GuardedIf):
        guards = [_eval_guarded(frame, g, "bool") for g, _ in prog.branches]
        key, entries = _union(*(k for k, _ in guards)), []
        for at in frame.classes(key):
            row = [values[frame.index(k, at)] for k, values in guards]
            undef = next((m for m in row if isinstance(m, _Undef)), None)
            enabled = tuple((_SURE, (j * frame.slots,))
                            for j, m in enumerate(row) if m is True)
            entries.append(_point(undef) if undef is not None else enabled or _ABORT)
    else:
        raise WpError(f"unknown program node {type(prog).__name__}")
    return _choice(_CPick(frame, key, entries), branches)


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
                entry = _point(_Undef(str(v), 0, frame))
                break
            if not isinstance(v, bool):
                entry = _point(_Undef("suchthat predicate is not boolean", a, frame))
                break
            if v:
                ok.append((_SURE, (a,)))
        entries.append(entry or tuple(ok) or _point(_Undef(unsatisfied, 0, frame)))
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
            options = []
            for o in root.entries[frame.index(root.key, at)]:
                if _meets(o):
                    return None
                mass: dict = {}
                for w, a in zip(*o):
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
