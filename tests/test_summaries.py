"""Compile-time summaries: demon-free programs compile to one flat pick,
demon-free loops are solved once, and the values agree with independent
oracles."""

import importlib
import random
from fractions import Fraction

import pytest

import helpers
from pgclkit import (
    ResolutionLimitError,
    UndefinedStateError,
    WpConfig,
    WpError,
    constant,
    min_expected,
    resolutions_by_state,
    space_of,
    wp,
)
from pgclkit.errors import EvalError
from pgclkit.expectations import Expectation
from pgclkit.programs import Seq, While, children, loop_free
from pgclkit.wp import _CPick, _CSeq, _CWhile, _flat, _Undef, _Vec, compile_program

F = Fraction

# the module, not the function pgclkit.wp that the package exports
wp_module = importlib.import_module("pgclkit.wp")

RANDOM_PROGRAMS = 300


def root(text, space, **params):
    return compile_program(helpers.prog(text, space, **params), space)._root


@pytest.mark.parametrize("text", [
    helpers.SPLIT_THEN_COIN, helpers.HALVING_LOOP, helpers.HALVING_BODY,
])
def test_demon_free_programs_compile_to_one_flat_pick(text):
    space = helpers.pqr_space()
    node = root(text, space)
    assert isinstance(node, _CPick) and not node.branches
    # keyed by p alone: one entry per value of p, not per state
    assert node.key == (space.var_pos("p"),) and len(node.entries) == 9
    # one option per class: a bare atom or a single distribution
    assert all(e.__class__ is int or len(e) == 1 for e in node.entries)


def test_split_then_coin_on_the_step_space_is_one_flat_pick():
    space = space_of(("x", (0, 1)), ("q", helpers.EIGHTHS), ("r", helpers.EIGHTHS))
    for pv in helpers.EIGHTHS:
        node = root(helpers.SPLIT_THEN_COIN, space, p=pv)
        assert isinstance(node, _CPick) and not node.branches


def test_demonic_loop_stays_a_while():
    space = space_of(("i", tuple(range(13))))
    node = root("WHILE 0 < i & i < 12 DO (i := i + 1 <1/2> i := i - 1) "
                "|^| (i := i + 1 <1/3> i := i - 1) OD", space)
    assert isinstance(node, _CWhile)


def test_a_flat_pick_holds_its_markers_inline():
    space = space_of(("x", (0, 1)))
    compiled = compile_program(helpers.prog("x :in {0, 5}; x := 1/x", space), space)
    node = compiled._root
    assert isinstance(node, _CPick) and not node.branches
    assert not hasattr(node, "consts")
    # it reads nothing, so one class; its marker is met at the state that
    # x := 0 reaches, whichever state it is read at
    assert node.key == () and len(node.entries) == 1
    marker = node.entries[0]
    assert isinstance(marker, _Undef) and marker.index is None
    assert [m.reason for m in marker.placed([0, 1])] == ["division by zero at {x=0}"] * 2
    with pytest.raises(UndefinedStateError, match=r"^wp is undefined at \{x=0\}: "
                                                  r"division by zero at \{x=0\}$"):
        compiled.wp(Expectation(space, (F(1), F(2))))  # x + 1
    # a marker inside an option stays there; the run form, built on the
    # first run, places it at each state of the class
    node = root("x :in {1, 0}; x := 1/x", space)
    (one, marker), = node.entries
    assert isinstance(marker, _Undef) and node.frame.digits(one) == (0, (2,))  # x := 1
    w, ((states, options),) = node.ints
    assert w == 1 and states == [0, 1] and options[0] == [(1, [1, 1])]
    (x, placed), = options[1]
    assert x is None and [m.reason for m in placed] == ["division by zero at {x=0}"] * 2


def _absorbed_rows(monkeypatch) -> list:
    """The number of rows of each linear.absorb call made from now on."""
    calls, solve = [], wp_module.absorb

    def counting(rows):
        calls.append(len(rows))
        return solve(rows)

    monkeypatch.setattr(wp_module, "absorb", counting)
    return calls


@pytest.mark.parametrize("denominator, interior", [(8, 7), (16, 15)])
def test_halving_loop_solves_one_row_per_interior_value_of_p(
        denominator, interior, monkeypatch):
    space = helpers.pqr_space(tuple(F(k, denominator) for k in range(denominator + 1)))
    calls = _absorbed_rows(monkeypatch)
    compiled = compile_program(helpers.prog(helpers.HALVING_LOOP, space), space)
    # the chain runs over the values of p strictly between 0 and 1, where
    # the space has 2 * (d + 1) ** 3 states
    assert calls == [interior]
    # and x = 1 with probability exactly p, the closed form
    rows = compiled.rows([space.var_pos("x")])
    pre = compiled.wp(helpers.bracket_post(space, "x = 1")).pre
    for i, state in enumerate(space.states()):
        pv = state["p"]
        assert rows[i] == {frozenset((c, w) for c, w in ((0, 1 - pv), (1, pv)) if w)}
        assert pre.values[i] == pv


def test_an_abort_path_counts_as_writing_every_variable():
    # no branch is enabled at p = 1/2: that path writes every variable, so
    # what follows, which reads q, keys the sequence on p alone
    text = "IF p < 1/2 -> q := 0 [] p > 1/2 -> q := 1 FI; x := q"
    space = helpers.pqr_space()
    compiled = compile_program(helpers.prog(text, space), space)
    node = compiled._root
    assert isinstance(node, _CPick) and node.key == (space.var_pos("p"),)
    assert node.entries[4] == wp_module._ABORT  # p = 1/2
    post = helpers.bracket_post(space, "x = 1")
    pre = compiled.wp(post).pre
    for state, outs in resolutions_by_state(helpers.prog(text, space), space).items():
        assert pre[state] == min_expected(outs, post)


def test_a_long_demonic_chain_keeps_the_denominator_of_its_values():
    # 40 demonic picks between non-dyadic coins, each reading a mixture of
    # the next one's two options, so none fuses; without the gcd each pick
    # multiplied the denominator by 15, 157 bits over the chain
    space = space_of(("c", (0, 1)))
    pick = "((c := 0 <1/3> c := 1) |^| (c := 0 <2/5> c := 1))"
    chain = root("; ".join([pick] * 40), space)
    picks, node = [], chain
    while isinstance(node, _CSeq):
        picks.append(node.first)
        node = node.second
    picks.append(node)
    assert len(picks) == 40 and all(_flat(p) and len(p.entries[0]) == 2 for p in picks)
    # the last pick takes the least mean, 1/3 or 2/5 on [c = 0], and
    # every earlier one averages a constant
    for post, den, value in (([1, 0], 3, 1), ([2, 5], 5, 19)):
        vec = chain.run(_Vec(post, 1))
        assert (vec.den, list(vec)) == (den, [value, value])


def test_policy_iteration_runs_the_body_once_per_round(monkeypatch):
    # the demonic ruin loop of the benchmark: one body run per policy solved
    # plus one for the check that ends the iteration, besides the runs that
    # find the undefined states
    space = space_of(("i", tuple(range(13))))
    compiled = compile_program(helpers.prog(
        "WHILE 0 < i & i < 12 DO (i := i + 1 <1/2> i := i - 1) "
        "|^| (i := i + 1 <1/3> i := i - 1) OD", space), space)
    loop = compiled._root
    assert isinstance(loop, _CWhile)
    runs, solves, finding = [], [], []
    body_run, undefined, solve = loop.body.run, loop._undefined, wp_module.absorb

    def run(f):
        runs.append(bool(finding))
        return body_run(f)

    def find(f):
        finding.append(True)
        try:
            return undefined(f)
        finally:
            finding.pop()

    def absorb(rows):
        solves.append(rows)
        return solve(rows)

    monkeypatch.setattr(loop.body, "run", run)
    monkeypatch.setattr(loop, "_undefined", find)
    monkeypatch.setattr(wp_module, "absorb", absorb)
    pre = compiled.wp(helpers.bracket_post(space, "i = 12")).pre
    assert pre.values[12] == 1 and len(solves) > 1 and True in runs
    assert runs.count(False) == len(solves) + 1


def test_summarised_loop_solves_once_at_compile_time(monkeypatch):
    calls = _absorbed_rows(monkeypatch)
    space = helpers.pqr_space(helpers.THIRDS)
    compiled = compile_program(helpers.prog(helpers.HALVING_LOOP, space), space)
    assert len(calls) == 1
    for text in ("x = 1", "x = 0", "p = 1/3"):
        compiled.wp(helpers.bracket_post(space, text))
    assert len(calls) == 1


def test_perturbed_solve_fails_the_fixpoint_check(monkeypatch):
    absorb = wp_module.absorb

    def perturbed(rows):
        out = absorb(rows)
        row = out[max(out)]
        key = next(iter(row))
        row[key] += F(1, 7)
        return out

    monkeypatch.setattr(wp_module, "absorb", perturbed)
    space = space_of(("c", ("H", "T")))
    with pytest.raises(WpError, match="fixpoint check"):
        compile_program(
            helpers.prog("WHILE c = H DO c :in H <1/2> T OD", space), space)


def _posts(space, rng):
    yield constant(space, 1)
    yield Expectation(space, tuple(F(rng.randrange(0, 9), 4)
                                   for _ in range(space.size)))


def _agrees_with_value_iteration(prog, space, post):
    got = wp(prog, post, space, WpConfig(undefined="mask"))
    want = helpers.value_iteration(prog, space, [float(v) for v in post.values])
    undefined = {st.index for st in got.undefined_states}
    assert undefined == {i for i, v in enumerate(want) if v is None}
    for i, v in enumerate(got.pre.values):
        if i not in undefined:
            assert abs(float(v) - want[i]) < 1e-9, i
    return got, undefined


def _agrees_with_resolutions(prog, space, post, got, undefined):
    try:
        by_state = resolutions_by_state(prog, space)
    except EvalError:
        # the enumeration stops at the first undefined evaluation
        assert undefined
        return
    assert not undefined
    for state, outs in by_state.items():
        assert got.pre[state] == min_expected(outs, post)


def test_corpora_match_the_oracles():
    rng = random.Random(11)
    for prog, space in helpers.corpus() + helpers.loop_corpus():
        for post in _posts(space, rng):
            got, undefined = _agrees_with_value_iteration(prog, space, post)
            if loop_free(prog):
                _agrees_with_resolutions(prog, space, post, got, undefined)


def test_random_programs_match_the_oracles():
    space = helpers.random_space()
    gen, rng = random.Random(20261018), random.Random(12)
    summarised = 0
    for _ in range(RANDOM_PROGRAMS):
        text = helpers.random_program(gen)
        prog = helpers.prog(text, space)
        node = compile_program(prog, space)._root
        summarised += isinstance(node, _CPick) and not node.branches
        for post in _posts(space, rng):
            try:
                got, undefined = _agrees_with_value_iteration(prog, space, post)
                if loop_free(prog):
                    _agrees_with_resolutions(prog, space, post, got, undefined)
            except AssertionError as exc:
                raise AssertionError(f"{text}: {exc}") from exc
            except ResolutionLimitError:
                pass
    # most random programs compose into one pick; the rest keep a demon
    assert summarised > RANDOM_PROGRAMS // 2


# --- a summarised loop against the same loop run as a _CWhile ------------------


def _loop_parts(prog) -> list:
    """(part, loop) for each WHILE in prog: the loop alone; a loop followed
    by the rest of its sequence; and a loop inside a branch of a choice
    (through choices and sequences, not loop bodies) that more statements
    follow, as that choice followed by the rest."""
    parts = {}

    def in_branches(p) -> list:
        if isinstance(p, While):
            return [p]
        return [w for c in children(p) for w in in_branches(c)]

    def walk(p):
        if isinstance(p, While):
            parts[p, p] = None
        elif isinstance(p, Seq):
            chain = wp_module._chain(p)
            for j in range(len(chain) - 1):
                rest = chain[-1]
                for part in reversed(chain[j + 1:-1]):
                    rest = Seq(part, rest)
                for loop in in_branches(chain[j]):
                    parts[Seq(chain[j], rest), loop] = None
        for c in children(p):
            walk(c)

    walk(prog)
    return list(parts)


def _outputs(prog, space, posts) -> list:
    """Per post, each state's value, or the reason of its marker."""
    root = compile_program(prog, space)._root
    outs = []
    for post in posts:
        vec = root.run(_Vec(post, 1))
        outs.append([v.reason if v.__class__ is _Undef else F(v, vec.den) for v in vec])
    return outs


def _loop_agrees(prog, loop, space, posts, monkeypatch) -> bool:
    """Whether prog gives the same values, undefined states and reasons with
    `loop`, a WHILE in it, summarised and with that loop left a _CWhile;
    False when the loop is not summarised."""
    if not _flat(compile_program(loop.body, space)._root):
        return False
    one_option, compile_loop, calls, own = wp_module._one_option, wp_module._loop, [], []

    def recording(step):
        calls.append(one_option(step))
        return calls[-1]

    def tracking(prog, *args):
        node = compile_loop(prog, *args)
        if prog is loop:  # its own test is the last one made compiling it
            own.append(len(calls))
        return node

    monkeypatch.setattr(wp_module, "_one_option", recording)
    monkeypatch.setattr(wp_module, "_loop", tracking)
    summarised = _outputs(prog, space, posts)
    if not calls[own[0] - 1]:
        return False

    def all_but_own(step):
        calls.append(None)
        return len(calls) != own[0] and one_option(step)

    calls.clear()
    monkeypatch.setattr(wp_module, "_one_option", all_but_own)
    assert _outputs(prog, space, posts) == summarised
    monkeypatch.setattr(wp_module, "_one_option", one_option)
    monkeypatch.setattr(wp_module, "_loop", compile_loop)
    return True


# a summarised loop followed by a part that stays unfused: the loop must
# report the marker that part meets first, as the _CWhile does, not the one
# at its lowest exit state
UNFUSED_REST = (
    "WHILE 1/3 DO y :in 0 |^| 0 OD; IF 1 / x THEN (IF false THEN y :suchthat x = 0 "
    "ELSE x :in {1, 1}) ELSE (y := x - 1 |^| x :dist [x / 2: 1/3, 2: 2/3])"
)


# a summarised loop in a branch of a choice that more statements follow:
# the loop must read their markers as the _CWhile does, not in the order of
# its exit states
BRANCH_LOOP = (
    "((WHILE 1/2 DO y := 0 OD) |^| (IF x THEN SKIP ELSE {x > y})); "
    "(IF 1/2 THEN y := 2 * y ELSE (y :suchthat x < 2; y :in {1/x, x/2}))"
)


def test_a_loop_in_a_branch_reads_the_markers_after_the_choice():
    space = helpers.random_space()
    reasons = _outputs(helpers.prog(BRANCH_LOOP, space), space, [[1] * space.size])[0]
    at = space.state(x=0, y=1).index
    assert reasons[at] == "y := 2 leaves the domain of y at {x=0, y=1}"


def test_summarised_loops_agree_with_cwhile(monkeypatch):
    rng = random.Random(13)
    programs = list(helpers.loop_corpus())
    gen, space = random.Random(20261018), helpers.random_space()
    programs += [(helpers.prog(text, space), space) for text in (UNFUSED_REST, BRANCH_LOOP)]
    programs += [(helpers.prog(helpers.random_program(gen), space), space)
                 for _ in range(RANDOM_PROGRAMS)]
    # and loops with a flat body, in a branch of a choice that more
    # statements follow
    for _ in range(RANDOM_PROGRAMS // 6):
        loop = (f"WHILE {gen.choice(('1/2', '1/3', 'x < 2', 'y = 1'))} DO "
                f"{helpers.random_program(gen, depth=1, loops=0)} OD")
        text = (f"(({loop}) {gen.choice(('|^|', '<1/2>'))} "
                f"({helpers.random_program(gen, depth=1)})); {helpers.random_program(gen)}")
        programs.append((helpers.prog(text, space), space))
    compared = in_branch = 0
    for prog, space in programs:
        posts = [[1] * space.size] + [[rng.randrange(0, 9) for _ in range(space.size)]
                                      for _ in range(2)]
        for part, loop in _loop_parts(prog):
            try:
                agrees = _loop_agrees(part, loop, space, posts, monkeypatch)
            except AssertionError as exc:
                raise AssertionError(f"{part}: {exc}") from exc
            compared += agrees
            in_branch += agrees and part is not loop and part.first is not loop
    assert compared > 100 and in_branch > 25
