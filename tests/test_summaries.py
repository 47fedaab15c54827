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
from pgclkit.programs import loop_free
from pgclkit.wp import _CPick, _CWhile, compile_program

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
