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
only oracle (McIver & Morgan 2005; Baier & Katoen 2008, ch. 10).  Every
loop is a _CWhile, which finds two sets by running its step, one way for
both kinds of loop below:

- undefined states: the least marker set the step maps to itself;
- stuck states, where the demon can keep the loop going forever: the
  greatest set Z with step([not Z]) = 0 on Z; their value is 0;

The other states are solved by one of two rules:

- a demon-free loop, whose composed step has one option per state, is
  summarised once at compile time: linear.absorb gives each live state
  its sub-distribution over the exits, checked against the step exactly;
- a loop with a demonic choice is solved on every run by policy
  iteration over memoryless demon choices.  Each round runs the body
  once, on _Lin values: that gives the step at the current values, which
  the descent and fixpoint checks read, and the policy that attains it.
  linear.absorb solves that policy's chain, and the loop ends when the
  step maps the solved values to themselves exactly.  Outside the stuck
  states every policy is absorbing, so that fixpoint is unique.

States whose live execution paths are undefined (division by zero, an
assignment leaving the variable's domain, a probability outside [0, 1])
are tracked with an explicit marker.  A side of weight exactly 0 is
dropped when the program is compiled, so errors on unreachable branches
are harmless, as they should be.  Surviving markers raise by default;
cfg.undefined="mask" reports them in WpResult.undefined_states instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
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
    """Pre-expectation plus the states where it is undefined.

    Every loop is solved exactly, so loop_residual is always 0; it stays
    for callers that read it.
    """

    pre: Expectation
    loop_residual: Fraction = ZERO
    undefined_states: tuple[State, ...] = ()


class _Undef:
    """Marks a state whose value is undefined, with the first reason seen:
    `what` at a state, formatted only when the reason is read.  A marker
    absorbs arithmetic, so a sum holds the first marker it meets."""

    __slots__ = ("what", "space", "index")

    def __init__(self, what: str, space: StateSpace, index: int):
        self.what = what
        self.space = space
        self.index = index

    @property
    def reason(self) -> str:
        return f"{self.what} at {self.space.state_at(self.index)}"

    def _absorb(self, other):
        return self

    __add__ = __radd__ = __mul__ = __rmul__ = _absorb

    def __repr__(self):
        return f"<undefined: {self.reason}>"


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
    policy that attains it, since _pick keeps the form of the option it
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


# --- compiled form ---------------------------------------------------------
#
# Compilation resolves every expression against the concrete state space
# once: each guard, probability, assigned expression and :suchthat
# predicate is evaluated once per value of its free variables, targets are
# found by stride arithmetic, and a marker formats its reason only when it
# is read.  Every statement but `;` and WHILE becomes one _CPick: per
# state, the _Undef marker of an evaluation error, or the demon's options,
# each a sub-distribution over positions in the vector the node reads.
# Primitive statements read the post, so a position is a successor state;
# IF, <p>, |^| and guarded IF read their branches' outputs stacked, so
# position j*n + i is branch j at state i.  Every state of every node
# stores one entry, so the common cases stay bare:
#
#   entry:  an _Undef marker, a position (the one option of going there),
#           or a tuple of options;
#   option: a position, a marker, or a pair (weights, atoms) of tuples
#           with positive Fraction weights, where an atom is a position,
#           or last a marker met there.  The weights sum to 1, or to less
#           where the rest of the mass is lost to ABORT or to a loop that
#           runs forever; ((), ()) is ABORT, worth 0.  No option follows
#           one that meets a marker.
#
# This one form is the per-state demonic set of distributions of McIver &
# Morgan, with the markers in place: composition reads and writes it, and
# a pick runs a form derived from it (see Running).
#
# The first marker met in evaluation order (options in order, positions in
# order) wins, so `x :dist [a: p, b: 1 - p]` reports the post's marker at
# a's target before b's undefined target, as `x := a <p> x := b` does, and
# so does `x := a |^| x := b`, which is what the parser makes of
# `x :in {a, b}`.  Sides of weight 0 are dropped here, so their markers
# never surface, and 1 - p is computed here, once per value of p.
#
# Summaries.  A part of the program with one option per state has a
# meaning that does not depend on the post, so it is composed here, bottom
# up.  A pick over flat branches (picks that read the post) and `a; b` with
# both flat become one flat pick whenever each option either is a single
# position, which takes the options it reads as they are (scaled by its
# weight), or reads single-option entries only, which it mixes into one.
# Any other case would enumerate the demon's choices and is left as it is.
# Options equal as distributions are merged, so the halving body's guarded
# IF, whose two branches agree where they overlap, has one option there.
# Composition keeps the evaluation order, markers included, so a composed
# pick meets the first marker the nodes it replaces would meet.  Every
# WHILE compiles to a _CWhile; when its composed step has one option per
# state, the _CWhile is solved once, here, into a flat pick over its exits
# (_CWhile.summary), and a loop with a demonic choice left is solved by
# policy iteration on every run.  A sequence is compiled from its last
# statement back, and every statement is compiled knowing the compiled
# statements that follow it, so a summarised loop finds its undefined
# states, and their reasons, with the markers that what follows it meets
# at its exits (one run of it on 0), flat or not, whether the loop is
# followed directly or sits in a branch of a choice that more statements
# follow: it meets them in the order a _CWhile does.
#
# Running.  A pick derives its run form on its first run and keeps it
# (_CPick.ints, built by _ints): every weight becomes an int over its W,
# and every marker inside an option moves to a position past the end of
# the vector the pick reads, where the pick's consts hold it.  A bare
# position, worth weight 1, reads its value times W.  A vector (_Vec)
# carries its common denominator; branch outputs are brought to the lcm
# of theirs before a pick reads them stacked.  A _CWhile runs its body on
# _Lin values through the same _pick, once per policy-iteration round,
# and its output is over the input's denominator times the lcm of its
# solved rows' denominators.

_ABORT = (((), ()),)


def _ints(entries: list, width: int) -> tuple:
    """(w, entries, consts), the run form of entries over a vector of
    `width` positions: every weight an int over w, the lcm of the weights'
    denominators, and every marker inside an option moved to a position
    past `width`, where consts holds it.  An entry that is a marker stays."""
    w = lcm(*{x.denominator for e in entries if e.__class__ is tuple
              for o in e if o.__class__ is tuple for x in o[0]})
    scaled: dict = {}  # id of a weight tuple -> its ints; tuples are shared
    consts: list = []
    slot: dict = {}  # marker -> its position

    def position(a):
        if a.__class__ is not _Undef:
            return a
        if a not in slot:
            slot[a] = width + len(consts)
            consts.append(a)
        return slot[a]

    def option(o):
        if o.__class__ is not tuple:
            return position(o)
        ints = scaled.get(id(o[0]))
        if ints is None:
            ints = scaled[id(o[0])] = tuple(x.numerator * (w // x.denominator)
                                            for x in o[0])
        return ints, tuple(map(position, o[1])) if _meets(o) else o[1]

    return w, [e if e.__class__ is not tuple else tuple(map(option, e))
               for e in entries], consts


def _pick(entries, w, vec) -> list:
    """Run a pick whose weights are ints over w: per state its marker, or
    the least over its options of the expected value of vec, over w times
    vec's denominator; the first marker met, in order, wins."""
    return [vec[s] * w if s.__class__ is int else _least(s, vec, w) for s in entries]


def _least(options, vec, w):
    if options.__class__ is _Undef:
        return options
    best = None
    for opt in options:
        if opt.__class__ is int:
            v = vec[opt] * w
        else:
            v = sum(map(mul, opt[0], map(vec.__getitem__, opt[1])))
        if v.__class__ is _Undef:
            return v
        if best is None or not best <= v:
            best = v
    return best


class _CPick:
    """A per-state demonic choice of distributions: states holds an entry
    per state, the form that composition reads and writes, and ints the
    run form derived from it."""

    def __init__(self, states, branches=()):
        self.states = states  # per state: an entry, as above
        self.branches = branches  # compiled branches; none: reads the post

    @cached_property
    def ints(self) -> tuple:
        """(w, entries, consts): the states with int weights and marker
        positions (_ints), built on the first run and kept, so the picks
        that composition replaces never build it."""
        return _ints(self.states, len(self.states) * (len(self.branches) or 1))

    def run(self, f):
        if self.branches:
            f = _stacked([branch.run(f) for branch in self.branches])
        w, entries, consts = self.ints
        return _Vec(_pick(entries, w, f + consts if consts else f), f.den * w)


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
    """A loop, solved exactly on every run, or once at compile time by
    summary() when it is demon-free; see the module notes."""

    def __init__(self, gate, body):
        # over the body's output, then the exits; a gate meets a marker
        # only as a whole entry, so it has no consts
        self.w, self.gate, _ = _ints(gate, 2 * len(gate))
        self.body = body
        self.stuck = self._stuck_states(len(gate))

    def _step(self, x: list, exits: list, den: int) -> _Vec:
        """The gate over the body's output at x and the exits, both over den."""
        out = self.body.run(_Vec(x, den))
        scale = _den(out) // den
        if scale != 1:
            exits = [e * scale for e in exits]
        return _Vec(_pick(self.gate, self.w, out + exits), _den(out) * self.w)

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

    def summary(self, step: list, exits: list) -> list:
        """Entries over the exits, for a loop whose composed step
        (entries over its states, then its exits at n + i) has one
        option per state, solved once with linear.absorb.

        The undefined states, given the markers in `exits`, and the stuck
        states, which become ABORT, are the ones run() sets aside.  The
        rest get their exit sub-distribution, checked to satisfy the step
        exactly.
        """
        n, undef, stuck = len(step), self._undefined(exits), self.stuck
        live = [i for i in range(n) if i not in undef and i not in stuck]
        rows = absorb({s: {a: w for a, w in zip(*_atoms(step[s])) if a not in stuck}
                       for s in live})
        # the fixpoint check: row s is its step applied to the rows, in ints
        # over d times the step's w
        d, solved = _common(rows)
        w, entries, _ = _ints(step, 2 * n)  # a live state meets no marker
        for s in live:
            want: dict = {}
            for a, c in zip(*_atoms(entries[s], w)):
                for k, x in ({a: d} if a >= n else solved.get(a, {})).items():
                    want[k] = want.get(k, 0) + c * x
            if ({k: x for k, x in want.items() if x}
                    != {k: x * w for k, x in solved[s].items() if x}):
                raise WpError(_FIXPOINT_BUG)
        out = []
        for i in range(n):
            if i in undef:
                out.append(undef[i])
            elif i in stuck:
                out.append(_ABORT)
            else:
                opt = _option(dict(sorted((k - n, c) for k, c in rows[i].items() if c)))
                out.append(opt if opt.__class__ is int else (opt,))
        return out

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


def _mix(weights, atoms, inner, mixed: dict) -> bool:
    """Add to mixed the mixture, by weights, of the single-option entries
    of inner at atoms, up to the first marker met; False if an entry has
    several options."""
    for w, p in zip(weights, atoms):
        sub = p if p.__class__ is _Undef else inner[p]
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


def _compose(outer: list, inner: list):
    """Entries whose positions read the entries `inner`, as entries over
    what `inner` reads; None where an option would mix an entry that has
    several options."""
    out = []
    for entry in outer:
        if entry.__class__ is int:
            out.append(inner[entry])
            continue
        if entry.__class__ is _Undef:
            out.append(entry)
            continue
        options: list = []
        for opt in entry:
            if opt.__class__ is int:
                sub = inner[opt]
                options += sub if sub.__class__ is tuple else (sub,)
            elif opt.__class__ is _Undef:
                options.append(opt)
            elif len(opt[1]) == 1:
                (w,), (p,) = opt
                options += (p,) if p.__class__ is _Undef else _scaled(w, inner[p])
            else:
                mixed: dict = {}
                if not _mix(*opt, inner, mixed):
                    return None
                options.append(_option(mixed))
            if _meets(options[-1]):
                break
        out.append(_entry(options))
    return out


def _seq(first, second):
    if _flat(first) and _flat(second):
        entries = _compose(first.states, second.states)
        if entries is not None:
            return _CPick(entries)
    return _CSeq(first, second)


def _choice(entries: list, branches: list) -> _CPick:
    """A pick over its branches' stacked outputs, composed when it can be."""
    if all(_flat(b) for b in branches):
        composed = _compose(entries, [e for b in branches for e in b.states])
        if composed is not None:
            return _CPick(composed)
    return _CPick(entries, branches)


def _loop(prog: While, space: StateSpace, after: tuple):
    """A WHILE, summarised when its composed step (entries over the loop's
    states, then its exits at n + i) has one option per state; the markers
    that the statements `after` it meet at the exits count then, as they
    would when run."""
    n = space.size
    kind = static_kind(prog.guard, space)
    if kind not in ("bool", "num"):
        raise WpError("loop condition must be boolean or numeric")
    gate = _either(_eval_guarded(space, prog.guard, "bool" if kind == "bool" else "prob"))
    body = _compile(prog.body, space)
    loop = _CWhile(gate, body)
    if _flat(body):
        step = _compose(gate, body.states + list(range(n, 2 * n)))
        if _one_option(step):
            loop = _CPick(loop.summary(step, _exits(after, n)))
    return loop


def _exits(after: tuple, n: int) -> _Vec:
    """What the compiled statements `after` a loop, nearest first, give on
    the post 0: per state the first marker they meet from there, else 0."""
    vec = _Vec([0] * n, 1)
    for node in reversed(after):
        vec = node.run(vec)
    return vec


def _one_option(step) -> bool:
    """Whether a composed step exists and has one option per state."""
    return step is not None and all(e.__class__ is not tuple or len(e) == 1
                                    for e in step)


def _atoms(entry, one=ONE) -> tuple:
    """(atoms, weights) of a step entry with one option; a bare position
    weighs `one`."""
    if entry.__class__ is int:
        return (entry,), (one,)
    opt = entry[0]
    return ((opt,), (one,)) if opt.__class__ is int else (opt[1], opt[0])


def _eval_guarded(space: StateSpace, expr, want: str):
    """Per-state evaluation of a guard (want "bool") or a probability
    (want "prob"), with errors downgraded to _Undef markers."""
    index, results = evaluate(space, expr)
    reasons = []
    for v in results:
        if isinstance(v, EvalError):
            reasons.append(str(v))
        elif want == "bool":
            reasons.append(None if isinstance(v, bool) else f"guard {expr} is not boolean")
        elif isinstance(v, Fraction) and 0 <= v <= 1:
            reasons.append(None)
        else:
            reasons.append(f"probability {expr} = {v} outside [0, 1]")
    return [results[c] if reasons[c] is None else _Undef(reasons[c], space, i)
            for i, c in enumerate(index)]


def _assign_targets(space: StateSpace, var: str, expr) -> list:
    pos = space.var_pos(var)
    index, results = evaluate(space, expr)
    digits, offsets = space.projection([pos])  # offsets[k]: var at its k-th value
    moves, reasons = [], []
    for v in results:
        k = -1
        if isinstance(v, EvalError):
            reasons.append(str(v))
        elif isinstance(v, bool):
            reasons.append(f"cannot assign a boolean to {var}")
        else:
            k = space.domains[pos].index_of(v)
            reasons.append(None if k >= 0 else f"{var} := {v} leaves the domain of {var}")
        moves.append(offsets[k] if k >= 0 else None)
    return [i - offsets[d] + moves[c] if reasons[c] is None
            else _Undef(reasons[c], space, i)
            for i, (c, d) in enumerate(zip(index, digits))]


def _either(gate: list) -> list:
    """Entries of a two-way choice: per state i, position i (the first way)
    with weight g and n + i (the second) with 1 - g, where g is a guard's
    bool or a probability; a side of weight 0 is dropped."""
    n, weights, entries = len(gate), {}, []
    for i, g in enumerate(gate):
        if isinstance(g, _Undef):
            entries.append(g)
        elif g.denominator == 1:  # a bool, or the probability 0 or 1
            entries.append(i if g else n + i)
        else:
            w = weights.get(g)
            if w is None:
                w = weights[g] = (g, ONE - g)
            entries.append(((w, (i, n + i)),))
    return entries


def _compile(prog: Program, space: StateSpace, after: tuple = ()):
    """Resolve a program against a space; see the compiled-form notes above.
    `after` holds the compiled statements that follow prog, nearest first,
    which a loop inside it reads for their markers."""
    n = space.size
    if isinstance(prog, Seq):
        # from the last statement back, so a loop sees what follows it
        parts = _chain(prog)
        node = _compile(parts.pop(), space, after)
        while parts:
            node = _seq(_compile(parts.pop(), space, (node,) + after), node)
        return node
    if isinstance(prog, While):
        return _loop(prog, space, after)
    # primitive statements: positions are successor states
    if isinstance(prog, Skip):
        return _CPick(list(range(n)))
    if isinstance(prog, Abort):
        return _CPick([_ABORT] * n)
    if isinstance(prog, Assign):
        return _CPick(_assign_targets(space, prog.var, prog.expr))
    if isinstance(prog, SuchThat):
        return _CPick(_suchthat_options(space, prog))
    if isinstance(prog, ChooseFromDist):
        weights, exprs = zip(*[(p, e) for e, p in prog.dist.items if p > 0])
        columns = [_assign_targets(space, prog.var, e) for e in exprs]
        entries, sides = [], range(len(exprs))
        for row in zip(*columns):
            mixed: dict = {}
            _mix(weights, sides, row, mixed)
            entries.append(_entry([_option(mixed)]))
        return _CPick(entries)
    # the rest read their branches' outputs, stacked
    branches = [_compile(c, space, after) for c in children(prog)]
    if isinstance(prog, IfBool):
        entries = _either(_eval_guarded(space, prog.guard, "bool"))
    elif isinstance(prog, ProbChoice):
        entries = _either(_eval_guarded(space, prog.prob, "prob"))
    elif isinstance(prog, DemonChoice):
        entries = [(i, n + i) for i in range(n)]
    elif isinstance(prog, GuardedIf):
        entries = []
        for i, row in enumerate(zip(*[_eval_guarded(space, g, "bool")
                                      for g, _ in prog.branches])):
            undef = next((m for m in row if isinstance(m, _Undef)), None)
            enabled = tuple(j * n + i for j, m in enumerate(row) if m is True)
            entries.append(undef if undef is not None else enabled or _ABORT)
    else:
        raise WpError(f"unknown program node {type(prog).__name__}")
    return _choice(entries, branches)


def _chain(prog: Program) -> list:
    """The statements of a sequence, in order."""
    if isinstance(prog, Seq):
        return _chain(prog.first) + _chain(prog.second)
    return [prog]


def _suchthat_options(space: StateSpace, prog: SuchThat):
    positions = [space.var_pos(v) for v in prog.vars]
    index, verdicts = evaluate(space, prog.pred)
    # the candidates' offsets from a state with the variables at their
    # first values; states equal but for the variables share candidates
    offsets = [0]
    for p in positions:
        offsets = [space.reindex(o, p, v) for o in offsets for v in space.domains[p].values]
    own, firsts = space.projection(sorted(set(positions)))
    unsatisfied = f"no values of {', '.join(prog.vars)} satisfy {prog.pred}"
    found: dict = {}  # base state -> _candidates there
    options = []
    for i, c in enumerate(own):
        base = i - firsts[c]
        got = found.get(base)
        if got is None:
            got = found[base] = _candidates(base, offsets, index, verdicts)
        targets, what, at = got
        if what is not None:
            options.append(_Undef(what, space, i if at is None else at))
        else:
            options.append(targets or _Undef(unsatisfied, space, i))
    return options


def _candidates(base: int, offsets: list, index: list, verdicts: list) -> tuple:
    """(the candidates that satisfy the predicate, in order, None, None),
    or ((), reason, state) at the first candidate where it is undefined;
    state None stands for the state the choice is made at."""
    ok = []
    for o in offsets:
        t = base + o
        v = verdicts[index[t]]
        if isinstance(v, EvalError):
            return (), str(v), None
        if not isinstance(v, bool):
            return (), "suchthat predicate is not boolean", t
        if v:
            ok.append(t)
    return tuple(ok), None, None


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
        values = []
        exact: dict = {}  # each distinct value becomes one Fraction
        for i, v in enumerate(vec):
            if v.__class__ is _Undef:
                undefined.append(space.state_at(i))
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
        index, _ = self.space.projection(positions)
        points: dict = {}  # combination -> the entry of going there
        seen: dict = {}  # id of an entry -> its set; entries are shared
        out = []
        for e in root.states:
            if e.__class__ is int:
                c = index[e]
                got = points.get(c)
                if got is None:
                    got = points[c] = frozenset((frozenset(((c, ONE),)),))
            elif e.__class__ is _Undef:
                return None
            else:
                got = seen.get(id(e))
                if got is None:
                    options = []
                    for o in e:
                        if _meets(o):
                            return None
                        if o.__class__ is int:
                            options.append(frozenset(((index[o], ONE),)))
                            continue
                        mass: dict = {}
                        for w, a in zip(*o):
                            c = index[a]
                            mass[c] = mass[c] + w if c in mass else w
                        options.append(frozenset(mass.items()))
                    got = seen[id(e)] = frozenset(options)
            out.append(got)
        return out


def compile_program(prog: Program, space: StateSpace) -> Compiled:
    """Resolve a program against a space once; run it with Compiled.wp."""
    return Compiled(space, _compile(prog, space))


def wp(prog: Program, post: Expectation, space: Optional[StateSpace] = None,
       cfg: Optional[WpConfig] = None) -> WpResult:
    """Pre-expectation of `post` under `prog`.

    Raises UndefinedStateError when a live path is undefined somewhere
    (unless cfg.undefined == "mask"), and WpError when a result leaves
    [0, max post] or a loop solve fails its fixpoint check, either of which
    would indicate a bug in the engine itself.
    """
    return compile_program(prog, post.space if space is None else space).wp(post, cfg)
