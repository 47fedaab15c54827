"""Compile-time summaries: demon-free programs compile to one flat pick,
demon-free loops are solved once, and the values agree with independent
oracles."""

import collections
import gc
import importlib
import itertools
import random
import weakref
from fractions import Fraction

import pytest

import helpers
from pgclkit import (
    ResolutionLimitError,
    UndefinedStateError,
    WpConfig,
    WpError,
    constant,
    space_of,
    wp,
)
from pgclkit.errors import EvalError
from pgclkit.expectations import Expectation
from pgclkit.programs import Seq, While, children, loop_free
from pgclkit.wp import _CLoop, _CPick, _CSeq, _flat, _Undef, _Vec, compile_program
from resolutions import min_expected, resolutions_by_state

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
    # one option per class
    assert all(len(e) == 1 for e in node.entries)


def test_split_then_coin_on_the_step_space_is_one_flat_pick():
    space = space_of(("x", (0, 1)), ("q", helpers.EIGHTHS), ("r", helpers.EIGHTHS))
    for pv in helpers.EIGHTHS:
        node = root(helpers.SPLIT_THEN_COIN, space, p=pv)
        assert isinstance(node, _CPick) and not node.branches


def test_the_coin_builds_only_the_class_the_split_reaches(monkeypatch):
    space = space_of(("x", (0, 1)), ("q", helpers.EIGHTHS), ("r", helpers.EIGHTHS))
    seconds, seq = [], wp_module._seq

    def recording(first, second):
        seconds.append(second)
        return seq(first, second)

    monkeypatch.setattr(wp_module, "_seq", recording)
    compiled = compile_program(helpers.prog(helpers.SPLIT_THEN_COIN, space, p=F(3, 8)), space)
    coin = seconds[-1]  # the last sequence made is the split, then the coin
    assert coin.key == (space.var_pos("q"), space.var_pos("r")) and len(coin.entries) == 81
    # the split writes q = 0 and r = 3/4 on its one path, so composing
    # reads the coin at that class alone; a run reads the composed pick
    compiled.wp(helpers.bracket_post(space, "x = 1"))
    compiled.rows([space.var_pos("x")])
    assert sum(e is not None for e in coin.entries.got) == 1


def _forcing(monkeypatch):
    """From now on, every composed pick builds all its entries when made."""
    compose = wp_module._compose

    def forced(*args):
        node = compose(*args)
        if node is not None:
            list(node.entries)
        return node

    monkeypatch.setattr(wp_module, "_compose", forced)


def _everything(prog, space, posts) -> list:
    """Compiled.rows over every ordered subset of the variables, then wp
    of each post in both undefined modes, or the error's text."""
    compiled = compile_program(prog, space)
    names = range(len(space.domains))
    out = [compiled.rows(list(order)) for k in range(len(space.domains) + 1)
           for subset in itertools.combinations(names, k)
           for order in itertools.permutations(subset)]
    for post in posts:
        for cfg in (None, WpConfig(undefined="mask")):
            try:
                out.append(compiled.wp(post, cfg))
            except WpError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_building_entries_as_they_are_read_changes_no_answer(monkeypatch):
    rng, gen = random.Random(7), random.Random(20261019)
    space = helpers.random_space()
    programs = helpers.corpus() + helpers.loop_corpus() + [
        (helpers.prog(helpers.random_program(gen), space), space) for _ in range(200)]
    for prog, space in programs:
        posts = [constant(space, 1), Expectation(
            space, tuple(F(rng.randrange(0, 9), rng.choice((1, 2, 3))) for _ in range(space.size)))]
        lazy = _everything(prog, space, posts)
        with monkeypatch.context() as m:
            _forcing(m)
            assert _everything(prog, space, posts) == lazy, prog


def _picks(node):
    """Every _CPick in a compiled tree."""
    if isinstance(node, _CPick):
        yield node
        for branch in node.branches:
            yield from _picks(branch)
    elif isinstance(node, _CSeq):
        yield from _picks(node.first)
        yield from _picks(node.second)
    else:
        for part in node.parts:
            yield from _picks(part)


def test_every_entry_is_a_tuple_of_weights_and_atoms_options():
    gen = random.Random(20261020)
    space = helpers.random_space()
    programs = helpers.corpus() + helpers.loop_corpus() + [
        (helpers.prog(helpers.random_program(gen), space), space) for _ in range(200)]
    for prog, space in programs:
        for pick in _picks(compile_program(prog, space)._root):
            for entry in pick.entries:
                assert entry.__class__ is tuple and entry, (prog, entry)
                for j, option in enumerate(entry):
                    assert option.__class__ is tuple and len(option) == 2, (prog, entry)
                    weights, atoms = option
                    assert weights.__class__ is tuple and atoms.__class__ is tuple
                    assert len(weights) == len(atoms) == len(set(atoms)), (prog, entry)
                    assert all(w.__class__ is F and w > 0 for w in weights), (prog, entry)
                    assert sum(weights) <= 1, (prog, entry)
                    # a marker only last, and no option after one that meets it
                    *firsts, last = atoms or (0,)
                    assert all(a.__class__ is int for a in firsts), (prog, entry)
                    assert last.__class__ is int or (
                        last.__class__ is _Undef and j == len(entry) - 1), (prog, entry)


def test_atoms_that_a_composition_makes_equal_are_merged():
    # the first branch goes surely to x = 1; held as the atom x = 1 twice,
    # each with weight 1/2, it was taken for the second branch, which
    # reaches x = 1 with 1/2 and aborts otherwise, and that option was
    # dropped: wp of 1 read 1, not 1/2
    space = space_of(("x", (0, 1)))
    text = "(x := 1; (x := 1 <1/2> SKIP)) |^| (x := 1 <1/2> ABORT)"
    node = root(text, space)
    assert [len(e) for e in node.entries] == [2]
    post = constant(space, 1)
    assert wp(helpers.prog(text, space), post, space).pre.values == (F(1, 2), F(1, 2))


def test_a_fully_built_pick_lets_go_of_its_parts():
    space = helpers.pqr_space()
    frame = wp_module._Frame(space)
    split, coin = (wp_module._compile(helpers.prog(text, space), frame) for text in (
        "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI",
        "(x :in 1 <q> 0) <1/2> (x :in 1 <r> 0)"))
    step = wp_module._seq(split, coin)
    assert isinstance(step.entries, wp_module._Lazy) and len(step.entries) == 9
    parts = [weakref.ref(split), weakref.ref(coin)]
    del split, coin
    step.entries[0]
    gc.collect()
    assert all(part() is not None for part in parts)  # eight classes to build
    list(step.entries)
    gc.collect()
    assert all(part() is None for part in parts)


def test_demonic_loop_stays_a_while():
    space = space_of(("i", tuple(range(13))))
    node = root(helpers.DEMONIC_RUIN, space)
    assert isinstance(node, _CLoop)
    # its step composes, so it runs over the 13 classes of i, of which 11
    # go round again; the two exits are held at positions of their own
    assert node.key == (0,) and node.m == 11 and node.n == 13


def test_a_flat_pick_holds_its_markers_inline():
    space = space_of(("x", (0, 1)))
    compiled = compile_program(helpers.prog("x :in {0, 5}; x := 1/x", space), space)
    node = compiled._root
    assert isinstance(node, _CPick) and not node.branches
    assert not hasattr(node, "consts")
    # it reads nothing, so one class; its marker is met at the state that
    # x := 0 reaches, whichever state it is read at
    assert node.key == () and len(node.entries) == 1
    ((_, (marker,)),) = node.entries[0]  # one option, meeting the marker
    assert isinstance(marker, _Undef) and marker.index is None
    assert [m.reason for m in marker.placed([0, 1])] == ["division by zero at {x=0}"] * 2
    with pytest.raises(UndefinedStateError, match=r"^wp is undefined at \{x=0\}: "
                                                  r"division by zero at \{x=0\}$"):
        compiled.wp(Expectation(space, (F(1), F(2))))  # x + 1
    # a marker inside an option stays there; the run form, built on the
    # first run, places it at each state of the class
    node = root("x :in {1, 0}; x := 1/x", space)
    ((_, (one,)), (_, (marker,))), = node.entries  # two options
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
    # the demonic ruin loop of the benchmark: its stuck and undefined
    # positions are found when it is compiled, so a run evaluates the step
    # once per policy solved plus once for the check that ends the iteration
    space = space_of(("i", tuple(range(13))))
    compiled = compile_program(helpers.prog(helpers.DEMONIC_RUIN, space), space)
    loop = compiled._root
    assert isinstance(loop, _CLoop)
    steps, solves, found = [], [], []
    step, undefined, solve = loop.step, wp_module._undefined, wp_module.absorb

    def counting(*args):
        steps.append(True)
        return step(*args)

    def absorb(rows):
        solves.append(rows)
        return solve(rows)

    monkeypatch.setattr(loop, "step", counting)
    monkeypatch.setattr(wp_module, "_undefined", lambda *args: found.append(args))
    monkeypatch.setattr(wp_module, "_stuck", lambda *args: found.append(args))
    monkeypatch.setattr(wp_module, "absorb", absorb)
    pre = compiled.wp(helpers.bracket_post(space, "i = 12")).pre
    assert pre.values[12] == 1 and len(solves) > 1 and not found
    assert len(steps) == len(solves) + 1


def _free_split(denominator):
    space = helpers.pqr_space(tuple(F(k, denominator) for k in range(denominator + 1)))
    return helpers.prog(helpers.FREE_SPLIT_LOOP, space), space


@pytest.mark.parametrize("denominator", [8, 16])
def test_free_split_loop_solves_over_the_classes_of_p_and_x(denominator, monkeypatch):
    # the body reads p alone and writes p, q and r on every round, so the
    # demon's choices are solved over p and x, 2 * (d + 1) classes, where a
    # run over the states solved one row per state where the guard is
    # false: 324 rows on eighths, 1 156 on sixteenths
    prog, space = _free_split(denominator)
    compiled = compile_program(prog, space)
    calls = _absorbed_rows(monkeypatch)
    rng = random.Random(denominator)
    posts = [helpers.bracket_post(space, "x = 1"), Expectation(
        space, tuple(F(rng.randrange(1, 9), 4) for _ in range(space.size)))]
    for post in posts:
        pre = compiled.wp(post).pre
        # every interior p is stuck, since the demon can pick q = r = p;
        # at p = 0 and p = 1 the loop exits at once
        for i, state in enumerate(space.states()):
            assert pre.values[i] == (post.values[i] if state["p"] in (0, 1) else 0)
    assert calls and all(rows <= 2 * (denominator + 1) for rows in calls)


# the free split made proper, q < r: the demon still picks the split, but
# p moves every round, so the loop stops almost surely and every interior
# class of p and x is solved.  (The free split itself solves no system: all
# its interior classes are stuck, and the rest exit at once.)
PROPER_SPLIT_LOOP = ("WHILE 0 < p & p < 1 DO q,r :suchthat (q+r)/2 = p & q < r; "
                     "p :in q <1/2> r OD")


@pytest.mark.parametrize("text, space", [
    (helpers.DEMONIC_RUIN, space_of(("i", tuple(range(13))))),
    (PROPER_SPLIT_LOOP, helpers.pqr_space()),
])
def test_perturbed_solve_fails_the_fixpoint_check_on_a_demonic_loop(text, space, monkeypatch):
    compiled = compile_program(helpers.prog(text, space), space)
    absorb = wp_module.absorb
    with monkeypatch.context() as m:
        calls = _absorbed_rows(m)
        compiled.wp(constant(space, 2))
    assert calls[0] > 1  # a policy's chain has rows to perturb

    def perturbed(rows):
        d, out = absorb(rows)
        row = out[max(out)]
        row[next(iter(row))] += 1
        return d, out

    monkeypatch.setattr(wp_module, "absorb", perturbed)
    for post in (helpers.bracket_post(space, "true"), constant(space, 2)):
        with pytest.raises(WpError, match="fixpoint check"):
            compiled.wp(post)


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
        d, out = absorb(rows)
        row = out[max(out)]
        key = next(iter(row))
        row[key] += 1
        return d, out

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


# --- each loop against the same loop run by the reference solver ---------------


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


def _kind(node) -> str:
    """How the engine compiled a loop: summarised into a flat pick, or a
    _CLoop over the classes of its step or over the states."""
    return "summary" if _flat(node) else "classes" if len(node.parts) == 1 else "states"


def _loop_agrees(prog, loop, space, posts, monkeypatch) -> str:
    """Assert that prog gives the same values, undefined states and reasons
    with `loop`, a WHILE in it, compiled by the engine and compiled as the
    reference helpers.CWhile; returns how the engine compiled it."""
    kinds, compile_loop = [], wp_module._loop

    def recording(prog, *args):
        node = compile_loop(prog, *args)
        if prog is loop:
            kinds.append(_kind(node))
        return node

    with monkeypatch.context() as m:
        m.setattr(wp_module, "_loop", recording)
        engine = _outputs(prog, space, posts)
    with monkeypatch.context() as m:
        helpers.reference_loops(m, only=loop)
        assert _outputs(prog, space, posts) == engine
    return kinds[0]


# a summarised loop followed by a part that stays unfused: the loop must
# report the marker that part meets first, as the reference does, not the
# one at its lowest exit state
UNFUSED_REST = (
    "WHILE 1/3 DO y :in 0 |^| 0 OD; IF 1 / x THEN (IF false THEN y :suchthat x = 0 "
    "ELSE x :in {1, 1}) ELSE (y := x - 1 |^| x :dist [x / 2: 1/3, 2: 2/3])"
)


# a summarised loop in a branch of a choice that more statements follow:
# the loop must read their markers as the reference does, not in the order
# of its exit states
BRANCH_LOOP = (
    "((WHILE 1/2 DO y := 0 OD) |^| (IF x THEN SKIP ELSE {x > y})); "
    "(IF 1/2 THEN y := 2 * y ELSE (y :suchthat x < 2; y :in {1/x, x/2}))"
)


# a summarised loop followed by two statements in its branch of the choice
# and one after the choice: the loop reads the markers of the three
# composed into one
LOOP_THEN_SEVERAL = "(((WHILE 1/2 DO y := 0 OD); y := 1/x) |^| SKIP); y := 2 * y"


def test_a_loop_in_a_branch_reads_the_markers_after_the_choice():
    space = helpers.random_space()
    reasons = _outputs(helpers.prog(BRANCH_LOOP, space), space, [[1] * space.size])[0]
    at = space.state(x=0, y=1).index
    assert reasons[at] == "y := 2 leaves the domain of y at {x=0, y=1}"


def test_summarised_loops_agree_with_cwhile(monkeypatch):
    rng = random.Random(13)
    programs = list(helpers.loop_corpus())
    gen, space = random.Random(20261018), helpers.random_space()
    programs += [(helpers.prog(text, space), space)
                 for text in (UNFUSED_REST, BRANCH_LOOP, LOOP_THEN_SEVERAL)]
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
    kinds, in_branch = collections.Counter(), 0
    for prog, space in programs:
        posts = [[1] * space.size] + [[rng.randrange(0, 9) for _ in range(space.size)]
                                      for _ in range(2)]
        for part, loop in _loop_parts(prog):
            try:
                kind = _loop_agrees(part, loop, space, posts, monkeypatch)
            except AssertionError as exc:
                raise AssertionError(f"{part}: {exc}") from exc
            kinds[kind] += 1
            in_branch += kind == "summary" and part is not loop and part.first is not loop
    assert kinds["summary"] > 100 and in_branch > 25, (kinds, in_branch)
    assert kinds["classes"] > 10 and kinds["states"] > 30, kinds


def _results(prog, space, posts) -> list:
    """wp of each post in both undefined modes, or the error's text."""
    compiled = compile_program(prog, space)
    out = []
    for post in posts:
        for cfg in (None, WpConfig(undefined="mask")):
            try:
                out.append(compiled.wp(post, cfg))
            except WpError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_every_result_agrees_with_the_reference_solver(monkeypatch):
    # every loop of each program run by the engine, and every loop run by
    # the reference; the seeds give 18 programs with a demonic loop whose
    # step composes and 44 with a body that does not, nested loops among
    # them, so an outer loop passes its markers into an inner one
    rng, space = random.Random(14), helpers.random_space()
    programs = helpers.corpus() + helpers.loop_corpus() + [
        (helpers.prog(helpers.random_program(random.Random(seed)), space), space)
        for seed in range(400)]
    cases = [(prog, space, list(_posts(space, rng))) for prog, space in programs]
    eighths = helpers.pqr_space()
    cases.append((helpers.prog(helpers.FREE_SPLIT_LOOP, eighths), eighths, [
        helpers.bracket_post(eighths, "x = 1"), constant(eighths, 3), Expectation(
            eighths, tuple(F(rng.randrange(0, 9), 8) for _ in range(eighths.size)))]))
    engine = [_results(*case) for case in cases]
    helpers.reference_loops(monkeypatch)
    for case, got in zip(cases, engine):
        assert _results(*case) == got, case[0]
