"""Exact pre-expectation transformer over finite state spaces.

wp(P, post) maps a post-expectation to the greatest guaranteed expected
value of `post` after running P, as a function of the initial state.  As
in McIver & Morgan (2005), a statement maps each state to a demonic set of
distributions over outcomes, and wp takes the least expected value over
that set: a coin averages, a demonic choice takes the pointwise minimum,
assertion failure and a guarded IF with no enabled branch contribute 0.
A program compiles to three node kinds: _CPick for every statement but
`;` and WHILE (see the compiled-form notes), _CSeq and _CWhile.

Loops are least fixpoints, solved exactly with the compiled body as the
only oracle (McIver & Morgan 2005; Baier & Katoen 2008, ch. 10):

- undefined states: the least marker set the step maps to itself;
- stuck states, where the demon can keep the loop going forever: the
  greatest set Z with step([not Z]) = 0 on Z; their value is 0;
- the rest by policy iteration over memoryless demon choices.  A body run
  on _Lin values gives the step at the current values and the policy that
  attains it; linear.absorb solves that policy's chain, and the loop ends
  when the step maps the solved values to themselves exactly.  Outside
  the stuck states every policy is absorbing, so that fixpoint is unique.

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
from typing import Optional, Union

from .errors import EvalError, UndefinedStateError, WpError
from .expectations import Expectation
from .exprs import eval_expr, static_kind
from .linear import absorb
from .programs import (
    Abort,
    Assert,
    Assign,
    ChooseFromDist,
    ChooseFromSet,
    DemonAssign,
    DemonChoice,
    GuardedIf,
    IfBool,
    IfProb,
    ProbAssign,
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
    """Marks a state whose value is undefined, with the first reason seen."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"<undefined: {self.reason}>"


_Val = Union[Fraction, _Undef]


class _Lin:
    """An exact value plus the linear form that produced it, over a loop's
    states (keys i >= 0) and its exits (keys ~i).  Running a loop body on
    these gives each state's value at the current point together with the
    policy that attains it, since _pick keeps the form of the option it
    picks.  Constants (always 0 in a body) carry no form."""

    __slots__ = ("value", "form")

    def __init__(self, value: Fraction, form: dict):
        self.value = value
        self.form = form

    def __add__(self, other):
        if not isinstance(other, _Lin):
            return _Lin(self.value + other, self.form)
        form = dict(self.form)
        for k, c in other.form.items():
            form[k] = form.get(k, ZERO) + c
        return _Lin(self.value + other.value, form)

    __radd__ = __add__

    def __mul__(self, c: Fraction):
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
# once, and every statement but `;` and WHILE becomes one _CPick: per
# state, the _Undef marker of an evaluation error, or the demon's options,
# each a distribution over positions in the vector the node reads.
# Primitive statements read the post, so a position is a successor state;
# IF, <p>, |^| and guarded IF read their branches' outputs stacked, so
# position j*n + i is branch j at state i.  Every state of every node
# stores one entry, so the common cases stay bare:
#
#   entry:  an _Undef marker, a position (the one option of going there),
#           or a tuple of options;
#   option: a position, or a pair (weights, positions) of tuples, the
#           weights positive and summing to 1 and shared between states;
#           ((), ()) is ABORT, worth 0.
#
# Sides of weight 0 are dropped here, so their markers never surface, and
# 1 - p is computed here, once per value of p.  `x :in a <p> b` and
# `x :in a |^| b` compile as choices between two assignments, so a marker
# the post holds at a's target still wins over b's undefined target, as
# in `x := a <p> x := b`.

_ABORT = (((), ()),)


def _pick(states, vec) -> list:
    """Run a pick: per state its marker, or the least over its options of
    the expected value of vec; the first marker met, in order, wins."""
    return [vec[s] if s.__class__ is int else _least(s, vec) for s in states]


def _least(options, vec) -> _Val:
    if isinstance(options, _Undef):
        return options
    best = None
    for opt in options:
        if opt.__class__ is int:
            v = vec[opt]
        else:
            v = ZERO
            for w, t in zip(*opt):
                x = vec[t]
                if isinstance(x, _Undef):
                    return x
                v = v + w * x
        if isinstance(v, _Undef):
            return v
        if best is None or not best <= v:
            best = v
    return best


class _CPick:
    def __init__(self, states, branches=()):
        self.states = states  # per state: an entry, as above
        self.branches = branches  # compiled branches; none: reads the post

    def run(self, f):
        if self.branches:
            vec: list = []
            for branch in self.branches:
                vec += branch.run(f)
            f = vec
        return _pick(self.states, f)


class _CSeq:
    def __init__(self, first, second):
        self.first = first
        self.second = second

    def run(self, f):
        return self.first.run(self.second.run(f))


class _CWhile:
    """A loop, solved exactly on every run; see the module notes."""

    def __init__(self, gate, body):
        self.gate = gate  # pick entries over the body's output, then the exits
        self.body = body
        self.stuck = self._stuck_states(len(gate))

    def _step(self, x, exits):
        return _pick(self.gate, self.body.run(x) + exits)

    def _stuck_states(self, n):
        """States where the demon can keep the loop going forever: the
        greatest Z with step([not Z]) = 0 on Z, exits scored 1."""
        stuck = set(range(n))
        while stuck:
            out = self._step([ZERO if i in stuck else ONE for i in range(n)],
                             [ONE] * n)
            kept = {i for i in stuck
                    if not isinstance(out[i], _Undef) and out[i] == 0}
            if kept == stuck:
                break
            stuck = kept
        return stuck

    def _undefined(self, f):
        """The states that turn undefined on the way up from 0: the least
        marker set the step maps to itself.  Markers ignore values."""
        exits = [x if isinstance(x, _Undef) else ZERO for x in f]
        undef: dict[int, _Undef] = {}
        while True:
            out = self._step([undef.get(i, ZERO) for i in range(len(f))], exits)
            grown = {i: v for i, v in enumerate(out) if isinstance(v, _Undef)}
            if grown.keys() == undef.keys():
                return undef
            undef = grown

    def run(self, f):
        n, stuck = len(f), self.stuck
        undef, rows = self._undefined(f), None
        live = [i for i in range(n) if i not in undef and i not in stuck]
        fv = [x if isinstance(x, _Undef) else _value(x) for x in f]
        exits = [x if isinstance(x, _Undef) else _Lin(x, {~i: ONE})
                 for i, x in enumerate(fv)]
        ceiling = None
        while True:
            v = [ZERO] * n
            if rows is not None:
                for s in live:
                    v[s] = sum((c * fv[~k] for k, c in rows[s].items()), ZERO)
                out = self._step([undef.get(i) or v[i] for i in range(n)], fv)
                # policy iteration descends: step(v) <= v, and each policy's
                # values lie below the step that chose it; a fixpoint ends it
                if any(out[s] > v[s] or (ceiling and v[s] > ceiling[s])
                       for s in live):
                    raise WpError("exact loop solve failed its fixpoint check; "
                                  "this is a bug in the engine")
                if all(out[s] == v[s] for s in live):
                    break
                ceiling = out
            # the same step on _Lin values: its forms are the improved policy
            x = [undef.get(i) or (ZERO if i in stuck else _Lin(v[i], {i: ONE}))
                 for i in range(n)]
            out = self._step(x, exits)
            rows = absorb({s: out[s].form if isinstance(out[s], _Lin) else {}
                           for s in live})
        result: list[_Val] = [ZERO] * n
        for i, marker in undef.items():
            result[i] = marker
        for s in live:  # the last check ran on these rows: no marker is met
            result[s] = sum((c * f[~k] for k, c in rows[s].items()), ZERO)
        return result


def _eval_guarded(space: StateSpace, expr, want: str):
    """Per-state evaluation of a guard (want "bool") or a probability
    (want "prob"), with errors downgraded to _Undef markers."""
    out = []
    for state in space.states():
        try:
            v = eval_expr(expr, state)
        except EvalError as exc:
            out.append(_Undef(f"{exc} at {state}"))
            continue
        if want == "bool":
            if isinstance(v, bool):
                out.append(v)
            else:
                out.append(_Undef(f"guard {expr} is not boolean at {state}"))
        elif isinstance(v, Fraction) and 0 <= v <= 1:
            out.append(v)
        else:
            out.append(_Undef(f"probability {expr} = {v} outside [0, 1] at {state}"))
    return out


def _assign_targets(space: StateSpace, var: str, expr) -> list:
    pos = space.var_pos(var)
    targets = []
    for i, state in enumerate(space.states()):
        try:
            v = eval_expr(expr, state)
        except EvalError as exc:
            targets.append(_Undef(f"{exc} at {state}"))
            continue
        if isinstance(v, bool):
            targets.append(_Undef(f"cannot assign a boolean to {var} at {state}"))
            continue
        t = space.reindex(i, pos, v)
        if t < 0:
            targets.append(
                _Undef(f"{var} := {v} leaves the domain of {var} at {state}")
            )
        else:
            targets.append(t)
    return targets


def _either(gate: list) -> list:
    """Entries of a two-way choice: per state i, position i (the first way)
    with weight g and n + i (the second) with 1 - g, where g is a guard's
    bool or a probability; a side of weight 0 is dropped."""
    n, weights, entries = len(gate), {}, []
    for i, g in enumerate(gate):
        if isinstance(g, _Undef):
            entries.append(g)
        elif g == 1 or g == 0:
            entries.append(i if g else n + i)
        else:
            w = weights.get(g)
            if w is None:
                w = weights[g] = (g, ONE - g)
            entries.append(((w, (i, n + i)),))
    return entries


def _first_undef(row):
    return next((x for x in row if isinstance(x, _Undef)), None)


def _compile(prog: Program, space: StateSpace):
    """Resolve a program against a space; see the compiled-form notes above."""
    n = space.size
    if isinstance(prog, Seq):
        return _CSeq(_compile(prog.first, space), _compile(prog.second, space))
    if isinstance(prog, While):
        kind = static_kind(prog.guard, space)
        if kind not in ("bool", "num"):
            raise WpError("loop condition must be boolean or numeric")
        gate = _eval_guarded(space, prog.guard, "bool" if kind == "bool" else "prob")
        return _CWhile(_either(gate), _compile(prog.body, space))
    # primitive statements: positions are successor states
    if isinstance(prog, Skip):
        return _CPick(list(range(n)))
    if isinstance(prog, Abort):
        return _CPick([_ABORT] * n)
    if isinstance(prog, Assign):
        return _CPick(_assign_targets(space, prog.var, prog.expr))
    if isinstance(prog, Assert):
        mask = _eval_guarded(space, prog.pred, "bool")
        return _CPick([m if isinstance(m, _Undef) else i if m else _ABORT
                       for i, m in enumerate(mask)])
    if isinstance(prog, SuchThat):
        return _CPick(_suchthat_options(space, prog))
    if isinstance(prog, (ChooseFromSet, ChooseFromDist)):
        # an undefined target makes the state undefined, whatever the post
        if isinstance(prog, ChooseFromSet):
            exprs, weights = prog.choices, None
        else:
            weights, exprs = zip(*[(p, e) for e, p in prog.dist.items if p > 0])
        columns = [_assign_targets(space, prog.var, e) for e in exprs]
        states = []
        for row in zip(*columns):
            undef = _first_undef(row)
            states.append(undef if undef is not None else
                          row if weights is None else ((weights, row),))
        return _CPick(states)
    # the rest read their branches' outputs, stacked
    if isinstance(prog, ProbAssign):
        prog = ProbChoice(Assign(prog.var, prog.left), prog.prob,
                          Assign(prog.var, prog.right))
    elif isinstance(prog, DemonAssign):
        prog = DemonChoice(Assign(prog.var, prog.left),
                           Assign(prog.var, prog.right))
    branches = [_compile(c, space) for c in children(prog)]
    if isinstance(prog, IfBool):
        return _CPick(_either(_eval_guarded(space, prog.guard, "bool")), branches)
    if isinstance(prog, (IfProb, ProbChoice)):
        return _CPick(_either(_eval_guarded(space, prog.prob, "prob")), branches)
    if isinstance(prog, DemonChoice):
        return _CPick([(i, n + i) for i in range(n)], branches)
    if isinstance(prog, GuardedIf):
        states = []
        for i, row in enumerate(zip(*[_eval_guarded(space, g, "bool")
                                      for g, _ in prog.branches])):
            undef = _first_undef(row)
            enabled = tuple(j * n + i for j, m in enumerate(row) if m is True)
            states.append(undef if undef is not None else enabled or _ABORT)
        return _CPick(states, branches)
    raise WpError(f"unknown program node {type(prog).__name__}")


def _suchthat_options(space: StateSpace, prog: SuchThat):
    positions = [space.var_pos(v) for v in prog.vars]
    domains = [space.domains[p].values for p in positions]
    combos = [()]
    for dom in domains:
        combos = [c + (v,) for c in combos for v in dom]
    options = []
    for i in range(space.size):
        opts = []
        undef = None
        for combo in combos:
            t = i
            for pos, v in zip(positions, combo):
                t = space.reindex(t, pos, v)
            try:
                ok = eval_expr(prog.pred, space.state_at(t))
            except EvalError as exc:
                undef = _Undef(f"{exc} at {space.state_at(i)}")
                break
            if not isinstance(ok, bool):
                undef = _Undef(f"suchthat predicate is not boolean at {space.state_at(t)}")
                break
            if ok:
                opts.append(t)
        if undef is not None:
            options.append(undef)
        elif not opts:
            options.append(_Undef(
                f"no values of {', '.join(prog.vars)} satisfy "
                f"{prog.pred} at {space.state_at(i)}"
            ))
        else:
            options.append(tuple(opts))
    return options


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
        vec = self._root.run(list(post.values))

        bound = post.max_value()
        undefined: list[State] = []
        values = []
        for i, v in enumerate(vec):
            if isinstance(v, _Undef):
                undefined.append(space.state_at(i))
                if cfg.undefined == "raise":
                    raise UndefinedStateError(
                        f"wp is undefined at {space.state_at(i)}: {v.reason}",
                        state=space.state_at(i),
                    )
                values.append(ZERO)
                continue
            if v < 0 or v > bound:
                raise WpError(
                    f"feasibility violated at {space.state_at(i)}: {v} "
                    f"outside [0, {bound}]"
                )
            values.append(v)
        return WpResult(
            pre=Expectation(space, tuple(values)),
            undefined_states=tuple(undefined),
        )


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
