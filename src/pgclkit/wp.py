"""Exact pre-expectation transformer over finite state spaces.

wp(P, post) maps a post-expectation to the greatest guaranteed expected
value of `post` after running P, as a function of the initial state:
probabilistic choice averages, demonic choice takes the pointwise minimum,
assertion failure and a guarded IF with no enabled branch contribute 0.

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
are tracked with an explicit marker.  Multiplying a marker by a weight of
exactly 0 discards it, so errors on unreachable branches are harmless, as
they should be.  Surviving markers raise by default; cfg.undefined="mask"
reports them in WpResult.undefined_states instead.
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


def _add(a: _Val, b: _Val) -> _Val:
    if isinstance(a, _Undef):
        return a
    if isinstance(b, _Undef):
        return b
    return a + b


def _scale(c: Fraction, v: _Val) -> _Val:
    if c == 0:
        return ZERO  # weight 0 kills undefinedness: the path is never taken
    if isinstance(v, _Undef):
        return v
    return c * v


def _vmin(a: _Val, b: _Val) -> _Val:
    if isinstance(a, _Undef):
        return a
    if isinstance(b, _Undef):
        return b
    return a if a <= b else b


class _Lin:
    """An exact value plus the linear form that produced it, over a loop's
    states (keys i >= 0) and its exits (keys ~i).  Running a loop body on
    these gives each state's value at the current point together with the
    policy that attains it, since _vmin keeps the form of the option it
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
# once: assignment targets become state indices, guards become masks,
# probabilities become per-state Fractions.  Evaluation errors become
# _Undef markers here and flow through the combinators above.


class _CSkip:
    def run(self, f):
        return list(f)


class _CAbort:
    def run(self, f):
        return [ZERO] * len(f)


class _CAssign:
    def __init__(self, targets):
        self.targets = targets  # per state: index, or _Undef

    def run(self, f):
        return [t if isinstance(t, _Undef) else f[t] for t in self.targets]


class _CSeq:
    def __init__(self, first, second):
        self.first = first
        self.second = second

    def run(self, f):
        return self.first.run(self.second.run(f))


def _select(mask, a, b) -> list:
    """Per state: a where mask holds, b where it fails, the marker where undefined."""
    return [m if isinstance(m, _Undef) else (x if m else y)
            for m, x, y in zip(mask, a, b)]


def _mix(probs, a, b) -> list:
    """Per state: p*a + (1-p)*b, or the marker where p is undefined."""
    return [p if isinstance(p, _Undef) else _add(_scale(p, x), _scale(ONE - p, y))
            for p, x, y in zip(probs, a, b)]


class _CIf:
    def __init__(self, mask, then, orelse):
        self.mask = mask  # per state: bool, or _Undef
        self.then = then
        self.orelse = orelse

    def run(self, f):
        return _select(self.mask, self.then.run(f), self.orelse.run(f))


class _CProb:
    def __init__(self, probs, left, right):
        self.probs = probs  # per state: Fraction in [0,1], or _Undef
        self.left = left
        self.right = right

    def run(self, f):
        return _mix(self.probs, self.left.run(f), self.right.run(f))


class _CDemon:
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def run(self, f):
        va = self.left.run(f)
        vb = self.right.run(f)
        return [_vmin(a, b) for a, b in zip(va, vb)]


class _CChooseMin:
    """Demonic choice over per-state target index lists (sets, suchthat)."""

    def __init__(self, options):
        self.options = options  # per state: list of indices, or _Undef

    def run(self, f):
        out = []
        for opts in self.options:
            if isinstance(opts, _Undef):
                out.append(opts)
                continue
            best: _Val = f[opts[0]]
            for t in opts[1:]:
                best = _vmin(best, f[t])
            out.append(best)
        return out


class _CDist:
    def __init__(self, probs, options):
        self.probs = probs  # per item: Fraction > 0
        self.options = options  # per state: list of indices, one per item, or _Undef

    def run(self, f):
        out = []
        for opts in self.options:
            if isinstance(opts, _Undef):
                out.append(opts)
                continue
            acc: _Val = ZERO
            for p, t in zip(self.probs, opts):
                acc = _add(acc, _scale(p, f[t]))
            out.append(acc)
        return out


class _CGuarded:
    def __init__(self, branches):
        self.branches = branches  # list of (mask, compiled body)

    def run(self, f):
        vecs = [(mask, body.run(f)) for mask, body in self.branches]
        out = []
        for i in range(len(f)):
            acc: Optional[_Val] = None
            undef = None
            for mask, vec in vecs:
                m = mask[i]
                if isinstance(m, _Undef):
                    undef = m
                    break
                if m:
                    acc = vec[i] if acc is None else _vmin(acc, vec[i])
            if undef is not None:
                out.append(undef)
            elif acc is None:
                out.append(ZERO)  # no branch enabled: behaves as ABORT
            else:
                out.append(acc)
        return out


class _CAssert:
    def __init__(self, mask):
        self.mask = mask

    def run(self, f):
        return _select(self.mask, f, [ZERO] * len(f))


class _CWhile:
    """A loop, solved exactly on every run; see the module notes."""

    def __init__(self, probabilistic, gate, body):
        self.gate = gate  # mask when boolean, per-state probs when probabilistic
        self.body = body
        self.combine = _mix if probabilistic else _select
        self.stuck = self._stuck_states(len(gate))

    def _step(self, x, exits):
        return self.combine(self.gate, self.body.run(x), exits)

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
        for s in live:
            acc: _Val = ZERO
            for k, c in rows[s].items():
                acc = _add(acc, _scale(c, f[~k]))
            result[s] = acc
        return result


def _eval_guarded(space: StateSpace, expr, want: str):
    """Per-state evaluation with errors downgraded to _Undef markers."""
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
        elif want == "prob":
            if isinstance(v, Fraction) and 0 <= v <= 1:
                out.append(v)
            else:
                out.append(_Undef(f"probability {expr} = {v} outside [0, 1] at {state}"))
        else:
            out.append(v)
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


def _per_state(columns: list[list]) -> list:
    """Per-item target lists (one column per item) into per-state lists of
    targets, in item order; the first _Undef in a state's row wins."""
    rows = []
    for row in zip(*columns):
        undef = next((t for t in row if isinstance(t, _Undef)), None)
        rows.append(undef if undef is not None else list(row))
    return rows


def _compile(prog: Program, space: StateSpace):
    """Resolve a program against a space; see the compiled-form notes above."""
    if isinstance(prog, Skip):
        return _CSkip()
    if isinstance(prog, Abort):
        return _CAbort()
    if isinstance(prog, Assign):
        return _CAssign(_assign_targets(space, prog.var, prog.expr))
    if isinstance(prog, Seq):
        return _CSeq(_compile(prog.first, space), _compile(prog.second, space))
    if isinstance(prog, IfBool):
        return _CIf(_eval_guarded(space, prog.guard, "bool"),
                    _compile(prog.then, space),
                    _compile(prog.orelse, space))
    if isinstance(prog, IfProb):
        return _CProb(_eval_guarded(space, prog.prob, "prob"),
                      _compile(prog.then, space),
                      _compile(prog.orelse, space))
    if isinstance(prog, ProbChoice):
        return _CProb(_eval_guarded(space, prog.prob, "prob"),
                      _compile(prog.left, space),
                      _compile(prog.right, space))
    if isinstance(prog, DemonChoice):
        return _CDemon(_compile(prog.left, space), _compile(prog.right, space))
    if isinstance(prog, ProbAssign):
        return _CProb(_eval_guarded(space, prog.prob, "prob"),
                      _CAssign(_assign_targets(space, prog.var, prog.left)),
                      _CAssign(_assign_targets(space, prog.var, prog.right)))
    if isinstance(prog, DemonAssign):
        return _CDemon(_CAssign(_assign_targets(space, prog.var, prog.left)),
                       _CAssign(_assign_targets(space, prog.var, prog.right)))
    if isinstance(prog, ChooseFromSet):
        return _CChooseMin(_per_state(
            [_assign_targets(space, prog.var, e) for e in prog.choices]
        ))
    if isinstance(prog, SuchThat):
        return _CChooseMin(_suchthat_options(space, prog))
    if isinstance(prog, ChooseFromDist):
        items = [(p, e) for e, p in prog.dist.items if p > 0]
        return _CDist([p for p, _ in items], _per_state(
            [_assign_targets(space, prog.var, e) for _, e in items]
        ))
    if isinstance(prog, GuardedIf):
        return _CGuarded([
            (_eval_guarded(space, g, "bool"), _compile(b, space))
            for g, b in prog.branches
        ])
    if isinstance(prog, Assert):
        return _CAssert(_eval_guarded(space, prog.pred, "bool"))
    if isinstance(prog, While):
        kind = static_kind(prog.guard, space)
        if kind == "bool":
            gate = _eval_guarded(space, prog.guard, "bool")
        elif kind == "num":
            gate = _eval_guarded(space, prog.guard, "prob")
        else:
            raise WpError("loop condition must be boolean or numeric")
        return _CWhile(kind == "num", gate, _compile(prog.body, space))
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
            options.append(opts)
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
