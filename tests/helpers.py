"""Shared fixtures: state spaces, program corpus, a seeded random program
generator, a classical-wp oracle and a floating-point value-iteration
oracle for loops."""

import itertools
import random
from fractions import Fraction

from pgclkit import Expectation, parse_expression, parse_program, space_of
from pgclkit.errors import EvalError
from pgclkit.exprs import Bracket, eval_expr
from pgclkit.programs import (
    Abort,
    Assign,
    DemonChoice,
    GuardedIf,
    IfBool,
    ProbChoice,
    Seq,
    Skip,
    SuchThat,
    While,
)

F = Fraction

EIGHTHS = tuple(F(k, 8) for k in range(9))
THIRDS = (F(0), F(1, 3), F(2, 3), F(1))


def coin_space():
    return space_of(("c1", ("H", "T")), ("c2", ("H", "T")))


def bit_space():
    return space_of(("x", (0, 1)))


def pqr_space(grid=EIGHTHS):
    """x plus the p, q, r variables of the bias-halving derivation."""
    return space_of(("x", (0, 1)), ("p", grid), ("q", grid), ("r", grid))


def one_state_loop(body):
    """A loop over a one-state space whose guard always holds, with `body`
    (anything with a run method) as its body, solved state by state."""
    from pgclkit.wp import _CPick, _Frame, _point, _states_loop  # engine internals

    frame = _Frame(space_of(("c", ("H",))))
    return _states_loop(_CPick(frame, (), [_point(0)]), body)


def prog(text, space, **params):
    return parse_program(text, space, {k: F(v) for k, v in params.items()})


def expr(text, space, **params):
    return parse_expression(text, space, {k: F(v) for k, v in params.items()})


# program (1): the specification being implemented throughout
BIAS_SPEC = "x :in 1 <p> 0"

# program (2): split p into q, r averaging to it, with the assertion
SPLIT_STEP = (
    "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI; "
    "{p = (q+r)/2}"
)

# program (3): split, then let a fair coin pick which half to continue with
SPLIT_THEN_COIN = (
    "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI; "
    "(x :in 1 <q> 0) <1/2> (x :in 1 <r> 0)"
)

# program (6): one loop-body iteration, feeding the halved bias back into p
HALVING_BODY = (
    "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI; "
    "p :in q <1/2> r"
)

# program (8): the loop plus the final assignment
HALVING_LOOP = f"WHILE 0 < p & p < 1 DO {HALVING_BODY} OD; x := p"

# the loop before its split is refined: the demon picks any q, r averaging
# to p, and q = r = p keeps it going forever at every interior p
FREE_SPLIT_LOOP = "WHILE 0 < p & p < 1 DO q,r :suchthat (q+r)/2 = p; p :in q <1/2> r OD"

# the split constrained to an endpoint, as the halving body makes it
ENDPOINT_SPLIT_LOOP = ("WHILE 0 < p & p < 1 DO q,r :suchthat (q+r)/2 = p & (q = 0 | r = 1); "
                       "p :in q <1/2> r OD")

# gambler's ruin over i in 0..12 where the demon picks the coin each round
DEMONIC_RUIN = ("WHILE 0 < i & i < 12 DO (i := i + 1 <1/2> i := i - 1) "
                "|^| (i := i + 1 <1/3> i := i - 1) OD")


def corpus(space_small=None):
    """Loop-free programs with spaces, for exhaustive property sweeps."""
    coins = coin_space()
    bits = bit_space()
    xy = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)))
    out = [
        (prog("SKIP", coins), coins),
        (prog("ABORT", coins), coins),
        (prog("c1 :in H <1/2> T; c2 :in H <1/2> T", coins), coins),
        (prog("c1 :in H <3/8> T; c2 :in H |^| T", coins), coins),
        (prog("c2 :in H |^| T; c1 :in H <1/4> T", coins), coins),
        (prog("IF c1 = H THEN c2 := H ELSE c2 := T", coins), coins),
        (prog("{c1 = c2}; c1 := T", coins), coins),
        (prog("x :in {0, 1}", bits), bits),
        (prog("x :in 1 <2/3> 0", bits), bits),
        (prog("x :dist [0: 1/4, 1: 3/4]", bits), bits),
        (prog("x :suchthat x = 0 | x = 1", bits), bits),
        (prog("y := 1; x :in y <1/2> 2*y", xy), xy),
        (prog("IF x <= 1 -> y := 0 [] x >= 1 -> y := 1 FI", xy), xy),
        (prog("x :dist [0: 1/2, y: 1/2]", xy), xy),
        (prog("(x := 0 |^| x := 1) <1/3> x := 2", xy), xy),
        (prog("x := 1 <x/3> x := 0", xy), xy),
    ]
    return out


def loop_corpus():
    coins = coin_space()
    geom = space_of(("c", ("H", "T")))
    pqr = pqr_space()
    return [
        (prog("c := H; WHILE c = H DO c :in H <1/2> T OD", geom), geom),
        (prog("WHILE c1 = H DO c1 :in H <1/4> T; c2 := H OD", coins), coins),
        (prog(HALVING_LOOP, pqr), pqr),
        # numeric guard: iterate with probability p, a probabilistic loop
        (prog("WHILE 1/2 DO c := T OD", geom), geom),
    ]


# --- seeded random programs ---------------------------------------------------
#
# Small programs over random_space() that mix every statement form, loops with
# boolean and numeric guards, and expressions that divide by zero, leave a
# domain or give a probability outside [0, 1] on some states, so undefined
# states and their reasons are exercised too.

RANDOM_VARS = (("x", (0, 1, 2)), ("y", (0, 1)))

_ARITH = ("0", "1", "2", "x", "y", "x + 1", "x - 1", "1 - y", "2 * y",
          "x + y", "1/x", "x/2")
_PROBS = ("1/2", "1/3", "2/3", "0", "1", "x/2", "y", "y/2", "1/x",
          "1/(x + 1)", "x")
_GUARDS = ("x = 0", "x < 2", "y = 1", "x = y", "x > y", "1/x = 1",
           "true", "false")


def random_space():
    return space_of(*RANDOM_VARS)


def random_program(rng, depth=3, loops=2):
    """Text of a random program over random_space(); `loops` bounds the
    nesting depth of WHILE."""
    def a():
        return rng.choice(_ARITH)

    def p():
        return rng.choice(_PROBS)

    def g():
        return rng.choice(_GUARDS)

    v = rng.choice("xy")
    leaves = [
        lambda: "SKIP", lambda: "ABORT", lambda: f"{v} := {a()}",
        lambda: f"{v} :in {a()} <{p()}> {a()}",
        lambda: f"{v} :in {a()} |^| {a()}",
        lambda: f"{v} :in {{{a()}, {a()}}}",
        lambda: f"{v} :dist [{a()}: 1/3, {a()}: 2/3]",
        lambda: f"{v} :dist [{a()}: 0, {a()}: 1]",
        lambda: f"{v} :suchthat {g()}", lambda: f"{{{g()}}}",
    ]
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves)()

    def sub():
        return random_program(rng, depth - 1, loops)

    forms = [
        lambda: f"{sub()}; {sub()}",
        lambda: f"({sub()}) <{p()}> ({sub()})",
        lambda: f"({sub()}) |^| ({sub()})",
        lambda: f"IF {g()} THEN ({sub()}) ELSE ({sub()})",
        lambda: f"IF {p()} THEN ({sub()}) ELSE ({sub()})",
        lambda: f"IF {g()} -> {sub()} [] {g()} -> {sub()} FI",
    ]
    if loops > 0:
        forms += [
            lambda: f"WHILE {g()} DO {random_program(rng, depth - 1, loops - 1)} OD",
            lambda: f"WHILE {rng.choice(('1/2', '1/3', 'y/2'))} DO "
                    f"{random_program(rng, depth - 1, loops - 1)} OD",
        ]
    return f"({rng.choice(forms)()})"


# --- classical (non-probabilistic) weakest precondition oracle --------------
#
# Covers the demonic, probability-free fragment only.  Predicates are plain
# frozensets of state indices; wp is computed by the textbook rules.  Kept
# independent of the engine on purpose: it exists to cross-check the 0/1
# embedding.


def classical_wp(p, space, post: frozenset) -> frozenset:
    if isinstance(p, Skip):
        return post
    if isinstance(p, Abort):
        return frozenset()
    if isinstance(p, Assign):
        out = set()
        for i in range(space.size):
            t = space.reindex(
                i, space.var_pos(p.var), eval_expr(p.expr, space.state_at(i))
            )
            if t >= 0 and t in post:
                out.add(i)
        return frozenset(out)
    if isinstance(p, Seq):
        return classical_wp(p.first, space, classical_wp(p.second, space, post))
    if isinstance(p, IfBool):
        then = classical_wp(p.then, space, post)
        orelse = classical_wp(p.orelse, space, post)
        out = set()
        for i in range(space.size):
            g = eval_expr(p.guard, space.state_at(i))
            if i in (then if g else orelse):
                out.add(i)
        return frozenset(out)
    if isinstance(p, DemonChoice):
        return classical_wp(p.left, space, post) & classical_wp(p.right, space, post)
    if isinstance(p, SuchThat):
        positions = [space.var_pos(v) for v in p.vars]
        out = set()
        for i in range(space.size):
            targets = []
            for combo in itertools.product(
                *(space.domains[q].values for q in positions)
            ):
                t = i
                for pos, v in zip(positions, combo):
                    t = space.reindex(t, pos, v)
                if eval_expr(p.pred, space.state_at(t)):
                    targets.append(t)
            # no satisfying value is a miraculous (everywhere-true) statement
            # in the classical reading; the engine treats it as an error, so
            # the oracle corpus avoids that case entirely
            if targets and all(t in post for t in targets):
                out.add(i)
        return frozenset(out)
    if isinstance(p, GuardedIf):
        out = set()
        for i in range(space.size):
            state = space.state_at(i)
            enabled = [b for g, b in p.branches if eval_expr(g, state)]
            if enabled and all(
                i in classical_wp(b, space, post) for b in enabled
            ):
                out.add(i)
        return frozenset(out)
    raise AssertionError(f"oracle does not cover {type(p).__name__}")


# --- floating-point value iteration oracle -----------------------------------
#
# wp over floats, loops by plain value iteration from 0 until a sweep moves
# nothing by more than 1e-15.  None marks an undefined state; a weight of
# exactly 0 discards it.  Independent of the engine on purpose: it exists to
# cross-check the exact loop solver on loops whose values are limits.


def value_iteration(p, space, post: list) -> list:
    n = space.size
    seen = {}  # loops re-ask the same questions; answer each once

    def once(key, compute):
        if key not in seen:
            seen[key] = compute()
        return seen[key]

    def at(expr, i):
        def compute():
            try:
                return eval_expr(expr, space.state_at(i))
            except EvalError:
                return None
        return once((id(expr), i), compute)

    def weight(expr, i):
        # a probability as a float, None where it is undefined
        def compute():
            q = at(expr, i)
            return None if q is None or not 0 <= q <= 1 else float(q)
        return once(("weight", id(expr), i), compute)

    def mix(prob, a, b):
        # q * a + (1 - q) * b; a boolean q picks a or b
        out = []
        for i in range(n):
            q = weight(prob, i)
            parts = [(w, v) for w, v in ((q, a[i]), (1 - (q or 0), b[i])) if w != 0]
            bad = q is None or any(v is None for _, v in parts)
            out.append(None if bad else sum(w * v for w, v in parts))
        return out

    def demon(a, b):
        return [None if x is None or y is None else min(x, y) for x, y in zip(a, b)]

    def assign(var, expr, f):
        def target(i):
            v = at(expr, i)
            return -1 if v is None else space.reindex(i, space.var_pos(var), v)
        out = []
        for i in range(n):
            t = once(("target", var, id(expr), i), lambda: target(i))
            out.append(None if t < 0 else f[t])
        return out

    def such_that(p, i, f):
        # the least post over the satisfying states; undefined when none
        # satisfies or the predicate fails at a candidate
        positions = [space.var_pos(v) for v in p.vars]
        vals = []
        for combo in itertools.product(*(space.domains[q].values for q in positions)):
            t = i
            for pos, v in zip(positions, combo):
                t = space.reindex(t, pos, v)
            ok = at(p.pred, t)
            if not isinstance(ok, bool):
                return None
            if ok:
                vals.append(f[t])
        return None if not vals or None in vals else min(vals)

    def run(p, f):
        if isinstance(p, Skip):
            return f
        if isinstance(p, Abort):
            return [0.0] * n
        if isinstance(p, Assign):
            return assign(p.var, p.expr, f)
        if isinstance(p, Seq):
            return run(p.first, run(p.second, f))
        if isinstance(p, IfBool):
            return mix(p.guard, run(p.then, f), run(p.orelse, f))
        if isinstance(p, ProbChoice):
            return mix(p.prob, run(p.left, f), run(p.right, f))
        if isinstance(p, DemonChoice):
            return demon(run(p.left, f), run(p.right, f))
        if isinstance(p, SuchThat):
            return [such_that(p, i, f) for i in range(n)]
        if isinstance(p, GuardedIf):
            runs = [run(b, f) for _, b in p.branches]
            out = []
            for i in range(n):
                gs = [at(g, i) for g, _ in p.branches]
                if any(not isinstance(q, bool) for q in gs):
                    out.append(None)
                    continue
                vals = [r[i] for q, r in zip(gs, runs) if q]
                out.append(None if None in vals else min(vals, default=0.0))
            return out
        if isinstance(p, While):
            x = [0.0] * n
            for _ in range(100_000):
                nxt = mix(p.guard, run(p.body, x), f)
                if all((a is None) == (b is None) and (a is None or b - a < 1e-15)
                       for a, b in zip(x, nxt)):
                    return nxt
                x = nxt
            raise AssertionError("value iteration did not settle")
        raise AssertionError(f"oracle does not cover {type(p).__name__}")

    return run(p, list(post))


def pred_states(space, text) -> frozenset:
    e = parse_expression(text, space)
    return frozenset(
        i for i in range(space.size) if eval_expr(e, space.state_at(i))
    )


def bracket_post(space, text):
    from pgclkit import from_expr

    return from_expr(space, Bracket(parse_expression(text, space)))


# --- pointwise arithmetic on expectations, for the algebraic laws -----------


def scaled(f: Expectation, c) -> Expectation:
    """c * f, for c >= 0."""
    c = Fraction(c)
    if c < 0:
        raise EvalError("scale factor must be non-negative")
    return Expectation(f.space, tuple(c * v for v in f.values),
                       label=f"{c} * {f.label}" if f.label else "")


def plus(f: Expectation, g: Expectation) -> Expectation:
    """f + g, pointwise."""
    _same_space(f, g)
    return Expectation(f.space, tuple(a + b for a, b in zip(f.values, g.values)))


def le(f: Expectation, g: Expectation) -> bool:
    """f <= g everywhere."""
    _same_space(f, g)
    return all(a <= b for a, b in zip(f.values, g.values))


def _same_space(f: Expectation, g: Expectation):
    if f.space != g.space:
        raise EvalError("expectations live on different state spaces")


# --- probes over some variables, built state by state -------------------------


def over_vars_by_state(space, names, seed=0, extra=16, programs=()):
    """ProbeFamily.over_vars as it was built before it went by index: each
    probe calls a function on every State.  With programs, the brackets of
    their predicates that are boolean at every state follow the
    indicators, as ProbeFamily.default places them when names are all the
    variables.  Returns (label, values) pairs."""
    from pgclkit.checks import PROBE_BOUND, PROBE_DENOMINATOR
    from pgclkit.programs import collect_predicates

    names = tuple(names)
    positions = [space.var_pos(n) for n in names]
    rng = random.Random(seed)
    probes, seen = [], set()
    combos = [()]
    for p in positions:
        combos = [c + (v,) for c in combos for v in space.domains[p].values]

    def add(fn, label):
        values = tuple(fn(s) for s in space.states())
        if values not in seen:
            seen.add(values)
            probes.append((label, values))

    for combo in combos:
        add(lambda s, c=combo: F(int(tuple(s.values[p] for p in positions) == c)),
            f"[{', '.join(f'{n}={v}' for n, v in zip(names, combo))}]")
    for program in programs:
        for pred in collect_predicates(program):
            try:
                held = [eval_expr(pred, s) for s in space.states()]
            except EvalError:
                continue
            if all(isinstance(h, bool) for h in held):
                add(lambda s, t=dict(zip(space.states(), held)): F(int(t[s])),
                    str(Bracket(pred)))
    for k in range(extra):
        table = {c: F(rng.randrange(0, PROBE_BOUND * PROBE_DENOMINATOR + 1),
                      PROBE_DENOMINATOR) for c in combos}
        add(lambda s, t=table: t[tuple(s.values[p] for p in positions)],
            f"random probe {k} over {', '.join(names)}")
    return probes


# --- the loop solver state by state, as a reference ---------------------------
#
# The engine's loop solver before it worked on classes: every loop with a
# demonic choice left was solved on every run over all states, finding its
# stuck and undefined states itself.  Kept unchanged as the oracle that the
# engine's loops must agree with, values, undefined states and reasons alike.

from pgclkit.errors import WpError  # noqa: E402
from pgclkit.linear import absorb  # noqa: E402
from pgclkit.wp import _FIXPOINT_BUG, _Lin, _stacked, _Undef, _value, _Vec  # noqa: E402


class CWhile:
    """A loop with a demonic choice left, solved exactly on every run; see
    the notes above.  The gate is a pick over the body's output (slot 0)
    and the exits (slot 1)."""

    def __init__(self, gate, body):
        self.gate = gate
        self.body = body
        self.stuck = self._stuck_states(gate.frame.n)

    def _step(self, x: list, exits: list, den: int) -> _Vec:
        """The gate over the body's output at x and the exits, both over den."""
        out = self.body.run(_Vec(x, den))
        return self.gate.apply(_stacked([out, _Vec(exits, den)]))

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
        n, stuck, den = len(f), self.stuck, f.den
        undef, ints, ceiling = self._undefined(f), None, None
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
            if ints is not None:
                # policy iteration descends: step(v) <= v, and each policy's
                # values lie below the step that chose it; a fixpoint ends it
                if any(step[s] > v[s] * scale or (ceiling is not None and
                       v[s] * ceiling.den > ceiling[s] * den * d) for s in live):
                    raise WpError(_FIXPOINT_BUG)
                if all(step[s] == v[s] * scale for s in live):
                    break
                ceiling = _Vec(step, out.den)
            d, ints = absorb({s: (scale, out[s].form if isinstance(out[s], _Lin) else {})
                              for s in live})
            v = [0] * n
            for s in live:
                v[s] = sum(c * fv[~k] for k, c in ints[s].items())
        result: list = [0] * n
        for i, marker in undef.items():
            result[i] = marker
        for s in live:  # the last check ran on these rows: no marker is met
            result[s] = sum(c * f[~k] for k, c in ints[s].items())
        return _Vec(result, den * d)


def reference_loops(monkeypatch, only=None):
    """From now on, the engine compiles every WHILE (or only the one `only`)
    as a CWhile; its own compiler still raises what it raises."""
    import importlib

    from pgclkit.exprs import static_kind

    engine = importlib.import_module("pgclkit.wp")  # not the function pgclkit.wp

    compile_loop = engine._loop

    def reference(prog, frame, after):
        node = compile_loop(prog, frame, after)
        if only is not None and prog is not only:
            return node
        kind = "bool" if static_kind(prog.guard, frame.space) == "bool" else "prob"
        gate = engine._CPick(frame, *engine._either(frame, *engine._eval_guarded(
            frame, prog.guard, kind)))
        return CWhile(gate, engine._compile(prog.body, frame))

    monkeypatch.setattr(engine, "_loop", reference)
