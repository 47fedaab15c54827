import importlib
import itertools
import operator
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import helpers
from pgclkit import (
    DistError,
    EvalError,
    ProbeFamily,
    SpaceError,
    UndefinedStateError,
    VariantError,
    VariantSpec,
    WpConfig,
    check_equal,
    check_refines,
    check_variant,
    compile_program,
    dyadic_grid,
    parse_expression,
    space_of,
    wp,
)

F = Fraction

checks = importlib.import_module("pgclkit.checks")


def test_dyadic_grid_contents():
    assert dyadic_grid() == helpers.EIGHTHS
    assert dyadic_grid(2) == (F(0), F(1, 2), F(1))


@pytest.mark.parametrize("denominator, match", [
    (2.0, "grid denominator must be an int, got 2.0"),
    (True, "grid denominator must be an int, got True"),
    (0, "grid denominator must be at least 1, got 0")])
def test_a_grid_denominator_that_is_no_count_is_refused(denominator, match):
    # True would make the grid (0, 1), and 2.0 fail inside range
    with pytest.raises(DistError, match=f"^{match}$"):
        dyadic_grid(denominator)


def test_default_probes_cover_states_and_guards():
    s = helpers.coin_space()
    p = helpers.prog("IF c1 = H THEN c2 := H ELSE c2 := T", s)
    fam = ProbeFamily.default(s, (p,))
    values = {probe.values for probe in fam}
    for i in range(s.size):
        point = tuple(F(int(j == i)) for j in range(s.size))
        assert point in values
    guard = tuple(F(int(st["c1"] == "H")) for st in s.states())
    assert guard in values
    assert len(fam) > s.size + 1


def test_default_probes_skip_an_undefined_guard():
    # the guard's bracket is undefined at x = 0, so it is no probe; the
    # indicators still meet the undefined state, and under mask the check
    # gives a verdict
    s = space_of(("x", (0, 1, 2)))
    left = helpers.prog("IF 1/x = 1 THEN x := 1 ELSE x := 0", s)
    right = helpers.prog("IF x = 1 THEN x := 1 ELSE x := 0", s)
    fam = ProbeFamily.default(s, (left, right))
    with pytest.raises(UndefinedStateError,
                       match=r"wp is undefined at \{x=0\}: division by zero at \{x=0\}"):
        check_equal(left, right, fam, s)
    v = check_equal(left, right, fam, s, WpConfig(undefined="mask"))
    assert v.status == "fails"
    assert v.counterexample.state == s.state(x=0)


def test_over_vars_probes_ignore_scratch_variables():
    s = helpers.coin_space()
    fam = ProbeFamily.over_vars(s, ("c1",))
    for probe in fam:
        for st in s.states():
            twin = s.state(c1=st["c1"], c2="H" if st["c2"] == "T" else "T")
            assert probe[st] == probe[twin]


@pytest.mark.parametrize("names", [("x",), ("q", "r"), ("r", "x")])
def test_over_vars_matches_the_family_built_state_by_state(names):
    # same probes, labels, order and seeded draws, also where the names
    # are not in declaration order
    space = helpers.pqr_space(helpers.THIRDS)
    for seed, extra in ((0, 16), (7, 4)):
        fam = ProbeFamily.over_vars(space, names, seed=seed, extra=extra)
        assert fam.seed == seed
        assert ([(p.label, p.values) for p in fam]
                == helpers.over_vars_by_state(space, names, seed, extra))


@pytest.mark.parametrize("names, message", [
    (("x", "zz"), "undeclared variable 'zz'"),
    (("x", "q", "x"), "variable 'x' is named twice"),
], ids=["undeclared", "repeated"])
def test_over_vars_refuses_an_undeclared_or_repeated_name(names, message):
    with pytest.raises(SpaceError, match=f"^{message}$"):
        ProbeFamily.over_vars(helpers.pqr_space(helpers.THIRDS), names)


@pytest.mark.parametrize("build", [
    lambda space: ProbeFamily.default(space, seed=-3),
    lambda space: ProbeFamily.over_vars(space, ("x",), seed=-3),
], ids=["default", "over_vars"])
def test_a_negative_probe_seed_is_refused_when_the_family_is_built(build):
    # random.Random seeds with the absolute value: -3 would replay 3
    with pytest.raises(DistError, match="seed must be non-negative"):
        build(space_of(("x", (0, 1))))


@pytest.mark.parametrize("seed", [True, 1.0])
@pytest.mark.parametrize("factory", ["default", "over_vars"])
def test_a_probe_seed_that_is_no_int_is_refused(factory, seed):
    # random.Random seeds True and 1.0 as 1: the family would equal the
    # one of seed 1, though it prints another seed
    space = space_of(("x", (0, 1)))
    args = (space,) if factory == "default" else (space, ("x",))
    with pytest.raises(DistError, match="seed must be an int"):
        getattr(ProbeFamily, factory)(*args, seed=seed)


@pytest.mark.parametrize("extra, match", [
    (-2, "extra probes must be non-negative"),
    (True, "extra probes must be an int, got True"),
    (2.0, "extra probes must be an int, got 2.0")])
@pytest.mark.parametrize("factory", ["default", "over_vars"])
def test_a_probe_count_that_is_no_count_is_refused_when_the_family_is_built(
        factory, extra, match):
    # -2 would build no random probe and True one, and 2.0 would fail only
    # when the probes are first built
    space = space_of(("x", (0, 1)))
    args = (space,) if factory == "default" else (space, ("x",))
    with pytest.raises(DistError, match=f"^{match}$"):
        getattr(ProbeFamily, factory)(*args, extra=extra)


def test_default_is_over_vars_on_every_variable_plus_the_brackets():
    # same probes, labels, order and seeded draws as the reference built
    # state by state; a probability guard and a bracket undefined at
    # x = 0 are no probes
    s = space_of(("x", (0, 1, 2)))
    pqr = helpers.pqr_space(helpers.THIRDS)
    cases = [(p, space) for p, space in helpers.corpus() + helpers.loop_corpus()
             if space.size < 1000]
    cases += [(helpers.prog(text, pqr), pqr) for text in (
        helpers.BIAS_SPEC, helpers.SPLIT_STEP, helpers.SPLIT_THEN_COIN,
        helpers.HALVING_BODY, helpers.HALVING_LOOP)]
    cases.append((helpers.prog("IF 1/x = 1 THEN x := 1 ELSE x := 0", s), s))
    for (p, space), (seed, extra) in zip(cases, itertools.cycle(((0, 16), (7, 4)))):
        fam = ProbeFamily.default(space, (p, p), seed=seed, extra=extra)
        assert fam.observed == space.names
        assert ([(q.label, q.values) for q in fam]
                == helpers.over_vars_by_state(space, space.names, seed, extra, (p, p)))


def test_equal_is_reflexive_on_corpus():
    for p, space in helpers.corpus():
        fam = ProbeFamily.over_vars(space, space.names[:1], extra=2)
        assert check_equal(p, p, fam, space).holds


def test_split_then_coin_equals_bias_spec_per_grid_point():
    # scratch variables differ, so probes range over x only
    s = space_of(("x", (0, 1)), ("q", helpers.EIGHTHS), ("r", helpers.EIGHTHS))
    fam = ProbeFamily.over_vars(s, ("x",))
    for pv in dyadic_grid():
        left = helpers.prog(helpers.BIAS_SPEC, s, p=pv)
        right = helpers.prog(helpers.SPLIT_THEN_COIN, s, p=pv)
        v = check_equal(left, right, fam, s)
        assert v.holds
        assert v.residual == 0


def test_halving_loop_equals_bias_spec_exactly_on_dyadic_space():
    s = helpers.pqr_space()
    fam = ProbeFamily.over_vars(s, ("x",))
    left = helpers.prog(helpers.BIAS_SPEC, s)
    right = helpers.prog(helpers.HALVING_LOOP, s)
    v = check_equal(left, right, fam, s)
    assert v.status == "holds"
    assert v.residual == 0


def test_halving_loop_on_thirds_holds_exactly():
    # 1/3 never reaches an endpoint by doubling, so the fixpoint is a limit,
    # which the exact loop solve reaches all the same
    s = helpers.pqr_space(grid=helpers.THIRDS)
    fam = ProbeFamily.over_vars(s, ("x",))
    left = helpers.prog(helpers.BIAS_SPEC, s)
    right = helpers.prog(helpers.HALVING_LOOP, s)
    v = check_equal(left, right, fam, s)
    assert v.status == "holds"
    assert v.counterexample is None
    assert v.residual == 0
    r = wp(right, helpers.bracket_post(s, "x = 1"), s)
    assert all(r.pre[st] == st["p"] for st in s.states())  # 1/3 and 2/3 exactly


def test_nearly_sure_coin_loop_equals_its_exit():
    # stays at H with probability 1 - 2^-41 per round, yet ends at T surely
    s = space_of(("c", ("H", "T")))
    loop = helpers.prog("WHILE c = H DO c :in H <1 - 1/2199023255552> T OD", s)
    v = check_equal(loop, helpers.prog("c := T", s), ProbeFamily.default(s), s)
    assert v.status == "holds"
    assert v.residual == 0


def test_unequal_biases_are_refuted():
    s = helpers.bit_space()
    left = helpers.prog("x :in 1 <1/4> 0", s)
    right = helpers.prog("x :in 1 <1/2> 0", s)
    v = check_equal(left, right, ProbeFamily.default(s))
    assert v.status == "fails"
    assert v.counterexample is not None
    assert v.counterexample.lhs != v.counterexample.rhs


def test_endpoint_bias_equals_plain_assignment_behind_assert():
    grid = helpers.EIGHTHS
    s = space_of(("x", (0, 1)), ("p", grid))
    gate = "{p = 0 | p = 1}; "
    left = helpers.prog(gate + "x :in 1 <p> 0", s)
    right = helpers.prog(gate + "x := p", s)
    assert check_equal(left, right, ProbeFamily.default(s, (left, right)), s).holds


def test_constrained_split_refines_free_split():
    s = space_of(
        ("p", (0, F(1, 2), 1)), ("q", (0, F(1, 2), 1)), ("r", (0, F(1, 2), 1))
    )
    spec = helpers.prog("q,r :suchthat (q+r)/2 = p", s)
    impl = helpers.prog("q,r :suchthat (q+r)/2 = p & (q = 0 | r = 1)", s)
    fam = ProbeFamily.default(s, (spec, impl))
    assert check_refines(spec, impl, fam, s).holds
    # the converse direction fails: the free split can do strictly worse
    v = check_refines(impl, spec, fam, s)
    assert v.status == "fails"


def test_endpoint_split_loop_refines_free_split_loop():
    # the same step one layer up, around the loop: the free split's demon
    # can keep p where it is, so the free-split loop guarantees nothing
    # inside (0, 1), and the loop that splits to an endpoint refines it
    s = helpers.pqr_space()
    spec = helpers.prog(helpers.FREE_SPLIT_LOOP + "; x := p", s)
    impl = helpers.prog(helpers.ENDPOINT_SPLIT_LOOP + "; x := p", s)
    fam = ProbeFamily.over_vars(s, ("x",))
    v = check_refines(spec, impl, fam, s)
    assert v.holds and v.method == "probes"  # a demonic loop is no flat pick
    v = check_refines(impl, spec, fam, s)
    assert v.status == "fails" and v.counterexample.rhs == 0


def test_refinement_of_choice_to_branch():
    s = helpers.bit_space()
    spec = helpers.prog("x :in {0, 1}", s)
    impl = helpers.prog("x := 0", s)
    assert check_refines(spec, impl, ProbeFamily.default(s), s).holds
    v = check_refines(impl, helpers.prog("x := 1", s), ProbeFamily.default(s), s)
    assert v.status == "fails"


def test_rows_refute_a_refinement_that_the_probes_pass():
    # with f = 1 - [x = 1] the spec guarantees 1 and the implementation 0,
    # yet no indicator or probe of the family tells them apart
    s = space_of(("x", (0, 1, 2)))
    fam = ProbeFamily.over_vars(s, ("x",), extra=0)
    demon, one = helpers.prog("x := 0 |^| x := 2", s), helpers.prog("x := 1", s)
    left, right = compile_program(demon, s), compile_program(one, s)
    assert checks._by_probes(left, right, fam, s, None, operator.gt).holds
    v = check_refines(demon, one, fam, s)
    assert (v.status, v.method) == ("fails", "rows")
    cx = v.counterexample
    assert str(cx.probe) == "1 - [x=1]"
    assert cx.lhs == left.wp(cx.probe).pre[cx.state] == 1
    assert cx.rhs == right.wp(cx.probe).pre[cx.state] == 0
    assert check_refines(one, demon, fam, s).status == "fails"
    v = check_equal(demon, helpers.prog("x := 2 |^| x := 0", s), fam, s)
    assert (v.status, v.method) == ("holds", "rows")


def test_a_check_the_rows_decide_builds_no_probe(monkeypatch):
    built, build = [], checks._probes

    def recording(*args):
        built.append(args[1])
        return build(*args)

    monkeypatch.setattr(checks, "_probes", recording)
    s = helpers.pqr_space(helpers.THIRDS)
    spec, loop = helpers.prog(helpers.BIAS_SPEC, s), helpers.prog(helpers.HALVING_LOOP, s)
    for left, right, fam in ((spec, loop, ProbeFamily.over_vars(s, ("x",))),
                             (loop, loop, ProbeFamily.default(s, (loop,)))):
        v = check_equal(left, right, fam, s)
        assert (v.status, v.method) == ("holds", "rows")
    assert built == []
    # a refutation runs the probes, to report the first one that refutes
    fam = ProbeFamily.over_vars(s, ("x",))
    v = check_refines(spec, helpers.prog("x := 0", s), fam, s)
    assert (v.status, v.method) == ("fails", "rows") and built == [("x",)]
    assert len(fam) == len(fam.probes) and built == [("x",)]  # built once


def test_factory_families_compare_by_value_and_are_frozen():
    s = helpers.pqr_space(helpers.THIRDS)
    fam = ProbeFamily.over_vars(s, ("x",), seed=3)
    assert fam == ProbeFamily.over_vars(s, ("x",), seed=3)
    assert hash(fam) == hash(ProbeFamily.over_vars(s, ("x",), seed=3))
    assert fam != ProbeFamily.over_vars(s, ("x",), seed=4)
    assert fam != ProbeFamily(fam.probes, seed=3)  # no observed variables
    assert ProbeFamily.default(s) == ProbeFamily.over_vars(s, s.names)
    for family in (ProbeFamily.default(s), fam):
        for name in ("probes", "seed", "observed", "space", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(family, name, None)
    assert fam.space is s and len(fam) == len(fam.probes) > 0


def test_a_family_of_bare_probes_runs_them():
    s = helpers.bit_space()
    left, right = helpers.prog("x :in 1 <1/4> 0", s), helpers.prog("x :in 1 <1/2> 0", s)
    fam = ProbeFamily(ProbeFamily.default(s).probes)
    assert fam.observed is None
    with pytest.raises(TypeError):  # only the factories know what probes read
        ProbeFamily(fam.probes, observed=("x",))
    v = check_equal(left, right, fam, s)
    assert (v.status, v.method) == ("fails", "probes")
    assert v == check_equal(left, right, ProbeFamily.default(s), s)


_DEFINED = ("SKIP", "ABORT", "x := 0", "x := 2", "x := y", "y := 1 - y",
            "x :in {0, 2}", "y :in 0 <1/3> 1", "x :suchthat x > y")


def _defined_program(gen, depth=2) -> str:
    """A random program over helpers.random_space() that is defined
    everywhere, so that the rows can decide it."""
    if depth == 0 or gen.random() < 0.3:
        return gen.choice(_DEFINED)
    a, b = (_defined_program(gen, depth - 1) for _ in range(2))
    return gen.choice((f"{a}; {b}", f"({a}) |^| ({b})", f"({a}) <1/2> ({b})",
                       f"IF x = y THEN ({a}) ELSE ({b})"))


def _pairs():
    """Program pairs on one space: the corpora's neighbours and each
    program with itself; and over helpers.random_space(), 300 seeded
    random pairs: 75 random ones and 75 defined everywhere, and the
    demonic choice of each pair against its first."""
    programs = helpers.corpus() + helpers.loop_corpus()
    for (a, s), (b, t) in zip(programs, programs[1:]):
        yield a, a, s
        if s == t:
            yield a, b, s
    gen, space = random.Random(20261020), helpers.random_space()
    for k in range(150):
        make = helpers.random_program if k % 2 else _defined_program
        a, b = (make(gen, depth=2) for _ in range(2))
        yield helpers.prog(a, space), helpers.prog(b, space), space
        yield helpers.prog(f"({a}) |^| ({b})", space), helpers.prog(a, space), space


def test_rows_agree_with_the_probes_wherever_they_decide():
    # soundness: a probe that refutes refutes the rows too, with the same
    # counterexample, and a rows refutation the probes miss is a witness
    decided, stronger = {"holds": 0, "fails": 0}, 0
    for a, b, s in _pairs():
        left, right = compile_program(a, s), compile_program(b, s)
        # indicators alone miss a demon that avoids one outcome; a family
        # over every variable holds an indicator per state, so not on the
        # halving loop's 1458 states
        families = [ProbeFamily.over_vars(s, s.names[:1])]
        if s.size <= 64:
            families += [ProbeFamily.default(s, (a, b)),
                         ProbeFamily.over_vars(s, s.names, extra=0)]
        for fam in families:
            for check, violates in ((check_equal, operator.ne), (check_refines, operator.gt)):
                try:
                    v = check(a, b, fam, s)
                except UndefinedStateError:
                    continue  # a marker: decided by the probes, which raise
                if v.method != "rows":
                    continue
                decided[v.status] += 1
                probes = checks._by_probes(left, right, fam, s, None, violates)
                if probes.status == "fails":
                    assert v.status == "fails", (str(a), str(b))
                    assert v.counterexample == probes.counterexample
                elif v.status == "fails":
                    stronger += 1
                    cx = v.counterexample
                    assert cx.lhs == left.wp(cx.probe).pre[cx.state]
                    assert cx.rhs == right.wp(cx.probe).pre[cx.state]
                    assert violates(cx.lhs, cx.rhs)
    assert decided["holds"] > 200 and decided["fails"] > 200 and stronger > 5


def variant(space, text, bound, eps):
    return VariantSpec(parse_expression(text, space), bound, F(eps))


def test_coin_loop_variant_holds():
    s = space_of(("c", ("H", "T")))
    loop = helpers.prog("WHILE c = H DO c :in H <1/2> T OD", s)
    v = check_variant(loop, variant(s, "[c = H]", 1, "1/2"), s)
    assert v.holds


def test_halving_loop_variant_holds():
    s = helpers.pqr_space()
    loop = helpers.prog(f"WHILE 0 < p & p < 1 DO {helpers.HALVING_BODY} OD", s)
    v = check_variant(loop, variant(s, "[0 < p & p < 1]", 1, "1/2"), s)
    assert v.holds


def test_while_true_skip_variant_fails():
    s = space_of(("c", ("H", "T")))
    loop = helpers.prog("WHILE true DO SKIP OD", s)
    v = check_variant(loop, variant(s, "1", 1, "1/2"), s)
    assert v.status == "fails"
    assert "decrease" in v.detail


def test_variant_must_be_natural_and_bounded():
    s = space_of(("x", (0, 1, 2, 3)), ("p", helpers.EIGHTHS))
    loop = helpers.prog("WHILE x > 0 DO x := x - 1 OD", s)
    with pytest.raises(VariantError):
        check_variant(loop, variant(s, "p", 3, "1/2"), s)
    v = check_variant(loop, variant(s, "x", 1, "1/2"), s)
    assert v.status == "fails"
    assert "bound" in v.detail
    assert check_variant(loop, variant(s, "x", 3, "1/2"), s).holds


def test_variant_above_its_bound_is_a_verdict_where_it_is_undefined():
    s = space_of(("x", (0, 1, 2)))
    loop = helpers.prog("WHILE x > 0 DO x := x - 1 OD", s)
    for text, at, lhs, values in (("2*x - 1", 2, 3, (0, 1, 3)),
                                  ("2/x", 1, 2, (0, 2, 1))):
        v = check_variant(loop, variant(s, text, 1, "1/2"), s)
        assert v.status == "fails" and v.detail == "variant exceeds its bound"
        cx = v.counterexample
        assert (cx.state, cx.lhs, cx.rhs) == (s.state(x=at), lhs, 1)
        # the variant where it is a non-negative number, 0 elsewhere
        assert cx.probe.values == tuple(map(F, values))
        assert str(cx.probe) == str(parse_expression(text, s))


def test_variant_cut_reads_no_decrease_where_the_variant_is_undefined():
    s = space_of(("x", (0, 1, 2)))
    # 2/x is undefined at x = 0, where the body goes from x = 1: no decrease
    loop = helpers.prog("WHILE x > 0 DO x := x - 1 OD", s)
    v = check_variant(loop, variant(s, "2/x", 2, "1/2"), s)
    assert v.status == "fails" and "decrease" in v.detail
    cx = v.counterexample
    assert (str(cx.probe), cx.state, cx.lhs) == ("[2 / x < 1]", s.state(x=2), 0)
    assert cx.probe.values == (0, 0, 0)
    # 2 - 2/x is undefined at x = 0 too, but the body never goes there
    loop = helpers.prog("WHILE x = 2 DO x := 1 OD", s)
    assert check_variant(loop, variant(s, "2 - 2/x", 1, "1"), s).holds


def test_variant_errors_name_the_state():
    s = space_of(("x", (0, 1, 2)))
    loop = helpers.prog("WHILE 1/x = 1 DO x := 0 OD", s)
    with pytest.raises(EvalError) as ei:
        check_variant(loop, variant(s, "x", 2, "1/2"), s)
    assert str(ei.value) == "loop guard 1 / x = 1 is undefined at {x=0}: division by zero"
    loop = helpers.prog("WHILE x > 0 DO x := x - 1 OD", s)
    with pytest.raises(EvalError) as ei:
        check_variant(loop, variant(s, "1/(x - 1)", 2, "1/2"), s)
    assert str(ei.value) == "variant 1 / (x - 1) is undefined at {x=1}: division by zero"


def test_variant_errors_come_at_the_first_state_in_space_order():
    # the variant is undefined at {a=0, b=2}, the guard only later, at a=1
    s = space_of(("a", (0, 1)), ("b", (0, 1, 2)))
    loop = helpers.prog("WHILE 1/(a - 1) < 5 DO a := 1 OD", s)
    with pytest.raises(EvalError) as ei:
        check_variant(loop, variant(s, "2/(2 - b)", 3, "1/2"), s)
    assert str(ei.value) == "variant 2 / (2 - b) is undefined at {a=0, b=2}: division by zero"


def test_a_variant_that_is_no_natural_number_names_its_first_state():
    # -1 at {x=0, c=T} comes before the value 2, above the bound, at x=2
    s = space_of(("x", (0, 1, 2, 3)), ("c", ("H", "T")))
    loop = helpers.prog("WHILE x >= 0 DO x := x - 1 OD", s)
    with pytest.raises(VariantError) as ei:
        check_variant(loop, variant(s, "x - [c = T]", 1, "1/2"), s)
    assert str(ei.value) == ("variant x - [c = T] = Fraction(-1, 1) at {x=0, c=T} "
                             "is not a natural number")
    s = space_of(("m", (1, "H")))
    loop = helpers.prog("WHILE true DO SKIP OD", s)
    with pytest.raises(VariantError) as ei:
        check_variant(loop, variant(s, "m", 1, "1/2"), s)
    assert str(ei.value) == "variant m = 'H' at {m=H} is not a natural number"


def test_a_variant_above_its_bound_fails_at_its_first_state():
    # above the bound at {y=1, x=1}; the guard and the variant are
    # undefined only at later states, and the guard is false where y = 0
    s = space_of(("y", (0, 1)), ("x", (0, 1, 2, 3)))
    loop = helpers.prog("WHILE y = 1 & 1/(2 - x) > -5 DO y := 0 OD", s)
    v = check_variant(loop, variant(s, "6/(3 - x)", 2, "1/2"), s)
    assert v.status == "fails" and v.detail == "variant exceeds its bound"
    cx = v.counterexample
    assert (cx.state, cx.lhs, cx.rhs) == (s.state(y=1, x=1), 3, 2)
    assert cx.probe.values == tuple(map(F, (2, 3, 6, 0) * 2))
    assert str(cx.probe) == "6 / (3 - x)"


def test_an_undefined_body_names_its_reason():
    s = helpers.random_space()
    loop = helpers.prog("WHILE x < 2 DO y :dist [x + 1: 1/3, 0: 2/3] OD", s)
    with pytest.raises(UndefinedStateError) as ei:
        check_variant(loop, variant(s, "2 - x", 3, "1/3"), s)
    assert str(ei.value) == ("loop body wp is undefined at guard state {x=1, y=0}: "
                             "y := 2 leaves the domain of y at {x=1, y=0}")
    # mask mode keeps each undefined state's reason next to it
    result = wp(helpers.prog("x := 1/x", s), helpers.bracket_post(s, "true"), s,
                WpConfig(undefined="mask"))
    assert [(str(st), why) for st, why in zip(result.undefined_states,
                                              result.undefined_reasons)] == [
        ("{x=0, y=0}", "division by zero at {x=0, y=0}"),
        ("{x=0, y=1}", "division by zero at {x=0, y=1}"),
        ("{x=2, y=0}", "x := 1/2 leaves the domain of x at {x=2, y=0}"),
        ("{x=2, y=1}", "x := 1/2 leaves the domain of x at {x=2, y=1}")]


def test_variant_requires_boolean_loop():
    s = space_of(("c", ("H", "T")), ("p", (0, F(1, 2), 1)))
    with pytest.raises(VariantError):
        check_variant(helpers.prog("SKIP", s), variant(s, "1", 1, "1/2"), s)
    loop = helpers.prog("WHILE p DO SKIP OD", s)
    with pytest.raises(VariantError):
        check_variant(loop, variant(s, "1", 1, "1/2"), s)


def test_variant_spec_refuses_an_inexact_epsilon():
    e = parse_expression("c", space_of(("c", (0, 1))))
    for bad in (0.1, True):
        with pytest.raises(VariantError, match="is not exact"):
            VariantSpec(e, 1, bad)
    assert VariantSpec(e, 1, 1).epsilon == F(1)


def test_variant_spec_takes_only_an_int_bound():
    s = space_of(("x", (0, 1, 2)))
    e = parse_expression("x", s)
    for bad in (2.5, True, False, F(2)):
        with pytest.raises(VariantError, match="is not an int"):
            VariantSpec(e, bad, 1)
    assert VariantSpec(e, 2, 1).upper_bound == 2
    loop = helpers.prog("WHILE x > 0 DO x := x - 1 OD", s)
    assert check_variant(loop, VariantSpec(e, 2, 1), s).holds


def test_vacuous_guard_holds():
    s = space_of(("c", ("H", "T")))
    loop = helpers.prog("WHILE c != c DO SKIP OD", s)
    v = check_variant(loop, variant(s, "1", 1, "1/2"), s)
    assert v.holds
    assert "nowhere satisfied" in v.detail


def test_epsilon_sharpness():
    # the coin loop makes progress with probability exactly 1/2
    s = space_of(("c", ("H", "T")))
    loop = helpers.prog("WHILE c = H DO c :in H <3/8> T OD", s)
    assert check_variant(loop, variant(s, "[c = H]", 1, "5/8"), s).holds
    v = check_variant(loop, variant(s, "[c = H]", 1, "3/4"), s)
    assert v.status == "fails"


def test_checkers_compile_each_program_once(monkeypatch):
    import pgclkit.checks

    calls = []
    real = pgclkit.checks.compile_program

    def counting(prog, space):
        calls.append(prog)
        return real(prog, space)

    monkeypatch.setattr(pgclkit.checks, "compile_program", counting)
    s = helpers.coin_space()
    left = helpers.prog("c1 :in H <1/2> T", s)
    right = helpers.prog("c1 :in H |^| T", s)
    for extra in (0, 16):
        fam = ProbeFamily.default(s, (left, right), extra=extra)
        for check in (check_equal, check_refines):
            calls.clear()
            check(left, left, fam, s)
            check(right, left, fam, s)
            assert len(calls) == 4

    s = space_of(("x", (0, 1, 2, 3)))
    loop = helpers.prog("WHILE x > 0 DO x := x - 1 OD", s)
    calls.clear()
    assert check_variant(loop, variant(s, "x", 3, "1/2"), s).holds
    assert calls == [loop.body]


def test_rows_compare_each_distinct_pair_of_row_objects_once(monkeypatch):
    calls, gap = [], checks._row_gap

    def counting(*args):
        calls.append(args)
        return gap(*args)

    monkeypatch.setattr(checks, "_row_gap", counting)
    # the spec may ABORT, or reach combination 1 with mass 1/2, by the
    # class of b; the implementation surely reaches it, from the one class
    # of its empty key: a refinement, two distinct pairs over six states
    abort = frozenset({frozenset()})
    half = frozenset({frozenset({(1, F(1, 2))})})
    sure = frozenset({frozenset({(1, F(1))})})
    space = space_of(("a", (0, 1, 2)), ("b", (0, 1)))
    assert checks._by_rows(space, ((1,), [abort, half]), ((), [sure]), True) is checks._HOLDS
    assert len(calls) == 2
    # the first state of a failing pair is the first state where it fails
    calls.clear()
    space = space_of(("a", (0, 1)), ("b", (0, 1)))
    assert checks._by_rows(space, ((1,), [abort, sure]), ((1,), [sure, half]),
                           True) == (1, 1, False)
    assert len(calls) == 2


def _derivation_steps(seed: int) -> list:
    """The derivation steps the benchmark's `reasoning` workload checks,
    with its inputs, each as (name, str(verdict), method)."""
    quarters = tuple(F(k, 4) for k in range(5))
    out = []
    for pv in dyadic_grid():
        space = space_of(("x", (0, 1)), ("q", helpers.EIGHTHS), ("r", helpers.EIGHTHS))
        v = check_equal(helpers.prog(helpers.BIAS_SPEC, space, p=pv),
                        helpers.prog(helpers.SPLIT_THEN_COIN, space, p=pv),
                        ProbeFamily.over_vars(space, ("x",), seed=seed), space)
        out.append((f"split step at p = {pv}", str(v), v.method))
    for label, grid in (("quarters", quarters), ("thirds", helpers.THIRDS)):
        space = helpers.pqr_space(grid)
        v = check_equal(helpers.prog(helpers.BIAS_SPEC, space),
                        helpers.prog(helpers.HALVING_LOOP, space),
                        ProbeFamily.over_vars(space, ("x",), seed=seed), space)
        out.append((f"halving loop on {label}", str(v), v.method))
    space = space_of(("p", quarters), ("q", quarters), ("r", quarters))
    free = helpers.prog("q,r :suchthat (q+r)/2 = p", space)
    endpoint = helpers.prog("q,r :suchthat (q+r)/2 = p & (q = 0 | r = 1)", space)
    for label, spec, impl in (("free below endpoint", free, endpoint),
                              ("endpoint below free", endpoint, free)):
        v = check_refines(spec, impl, ProbeFamily.over_vars(space, ("q", "r"), seed=seed,
                                                            extra=4), space)
        out.append((label, str(v), v.method))
    coin = space_of(("c", ("H", "T")))
    for label, on, text, variant in (
            ("coin", coin, "WHILE c = H DO c :in H <1/2> T OD", "[c = H]"),
            ("halving", helpers.pqr_space(),
             f"WHILE 0 < p & p < 1 DO {helpers.HALVING_BODY} OD", "[0 < p & p < 1]"),
            ("spin", coin, "WHILE true DO SKIP OD", "1")):
        v = check_variant(helpers.prog(text, on),
                          VariantSpec(parse_expression(variant, on), 1, F(1, 2)), on)
        out.append((f"{label} variant", str(v), v.method))
    return out


@pytest.mark.parametrize("seed", [1, 7])
def test_the_benchmarked_derivation_steps_keep_their_verdicts(seed):
    # pinned as the per-state run of the compiled rows and posts gave them
    assert _derivation_steps(seed) == [
        *((f"split step at p = {pv}", "holds", "rows") for pv in dyadic_grid()),
        ("halving loop on quarters", "holds", "rows"),
        ("halving loop on thirds", "holds", "rows"),
        ("free below endpoint", "holds", "rows"),
        ("endpoint below free",
         "fails [probe [q=0, r=1/2]: at {p=1/4, q=0, r=0} lhs = 1, rhs = 0]", "rows"),
        ("coin variant", "holds", "probes"),
        ("halving variant", "holds", "probes"),
        ("spin variant", "fails (variant may fail to decrease often enough) "
         "[probe [1 < 1]: at {c=H} lhs = 0, rhs = 1/2]", "probes"),
    ]
