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
from pgclkit.wp import _CPick, _CWhile, _flat, _Undef, _Vec, compile_program

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
    node = root(text, helpers.pqr_space())
    assert isinstance(node, _CPick) and not node.branches
    # one option per state: a bare position or a single distribution
    assert all(e.__class__ is int or len(e) == 1 for e in node.states)


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
    assert all(isinstance(e, _Undef) for e in node.states)
    assert node.states[0].reason == "division by zero at {x=0}"
    with pytest.raises(UndefinedStateError, match=r"^wp is undefined at \{x=0\}: "
                                                  r"division by zero at \{x=0\}$"):
        compiled.wp(Expectation(space, (F(1), F(2))))  # x + 1
    # a marker inside an option stays there; the run form, built on the
    # first run, moves it past the end of the post, to the consts
    node = root("x :in {1, 0}; x := 1/x", space)
    marker = node.states[0][1]
    assert isinstance(marker, _Undef) and node.states == [(1, marker)] * 2
    assert node.ints == (1, [(1, 2)] * 2, [marker])


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
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return absorb(rows)

    absorb = wp_module.absorb
    monkeypatch.setattr(wp_module, "absorb", counting)
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
    """Each WHILE in prog, alone and followed by the rest of its sequence."""
    parts = {}

    def walk(p):
        if isinstance(p, While):
            parts[p] = None
        elif isinstance(p, Seq):
            chain = wp_module._chain(p)
            for j in range(len(chain) - 1):
                if isinstance(chain[j], While):
                    rest = chain[-1]
                    for part in reversed(chain[j + 1:-1]):
                        rest = Seq(part, rest)
                    parts[Seq(chain[j], rest)] = rest
        for c in children(p):
            walk(c)

    walk(prog)
    return list(parts.items())


def _outputs(prog, space, posts) -> list:
    """Per post, each state's value, or the reason of its marker."""
    root = compile_program(prog, space)._root
    outs = []
    for post in posts:
        vec = root.run(_Vec(post, 1))
        outs.append([v.reason if v.__class__ is _Undef else F(v, vec.den) for v in vec])
    return outs


def _head_loop_agrees(prog, rest, space, posts, monkeypatch) -> bool:
    """Whether prog, a loop followed by `rest` (or None), gives the same
    values, undefined states and reasons with its loop summarised and with
    that loop left a _CWhile; False when the loop is not summarised."""
    loop = prog.first if rest is not None else prog
    if not _flat(compile_program(loop.body, space)._root):
        return False
    if rest is not None and not _flat(compile_program(rest, space)._root):
        # what follows stays unfused: the summary reads the markers it
        # meets at the exits in the order of the exit states
        return False
    one_option, calls = wp_module._one_option, []

    def recording(step):
        calls.append(one_option(step))
        return calls[-1]

    monkeypatch.setattr(wp_module, "_one_option", recording)
    summarised = _outputs(prog, space, posts)
    # the loop's own test comes last, after its body's and rest's
    if not calls[-1]:
        return False
    head = len(calls)

    def all_but_head(step):
        calls.append(None)
        return len(calls) != head and one_option(step)

    calls.clear()
    monkeypatch.setattr(wp_module, "_one_option", all_but_head)
    assert _outputs(prog, space, posts) == summarised
    monkeypatch.setattr(wp_module, "_one_option", one_option)
    return True


def test_summarised_loops_agree_with_cwhile(monkeypatch):
    rng = random.Random(13)
    programs = list(helpers.loop_corpus())
    gen, space = random.Random(20261018), helpers.random_space()
    programs += [(helpers.prog(helpers.random_program(gen), space), space)
                 for _ in range(RANDOM_PROGRAMS)]
    compared = 0
    for prog, space in programs:
        posts = [[1] * space.size] + [[rng.randrange(0, 9) for _ in range(space.size)]
                                      for _ in range(2)]
        for part, rest in _loop_parts(prog):
            try:
                compared += _head_loop_agrees(part, rest, space, posts, monkeypatch)
            except AssertionError as exc:
                raise AssertionError(f"{part}: {exc}") from exc
    assert compared > 100
