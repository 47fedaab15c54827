from fractions import Fraction

import importlib
import itertools
import re

import pytest

import helpers
from pgclkit import (
    EvalError,
    Expectation,
    UndefinedStateError,
    WpConfig,
    WpError,
    constant,
    from_expr,
    space_of,
    wp,
)
from pgclkit.exprs import BinOp, Lit, Var
from pgclkit.programs import Skip, SuchThat, While
from pgclkit.wp import _CLoop, _Vec, compile_program
from resolutions import min_expected, resolutions_by_state

# the module, not the function pgclkit.wp that the package exports
wp_module = importlib.import_module("pgclkit.wp")

F = Fraction


def post(space, text):
    return helpers.bracket_post(space, text)


def test_two_fair_coins_match_half_exactly():
    s = helpers.coin_space()
    p = helpers.prog("c1 :in H <1/2> T; c2 :in H <1/2> T", s)
    r = wp(p, post(s, "c1 = c2"))
    assert r.pre.values == (F(1, 2),) * 4
    assert r.loop_residual == 0


def test_biased_then_fair_still_half():
    s = helpers.coin_space()
    for pv in helpers.EIGHTHS:
        p = helpers.prog("c1 :in H <p> T; c2 :in H <1/2> T", s, p=pv)
        r = wp(p, post(s, "c1 = c2"))
        assert r.pre.values == (F(1, 2),) * 4


def test_demon_after_flip_forces_zero():
    s = helpers.coin_space()
    for pv in helpers.EIGHTHS:
        p = helpers.prog("c1 :in H <p> T; c2 :in H |^| T", s, p=pv)
        r = wp(p, post(s, "c1 = c2"))
        assert r.pre.values == (F(0),) * 4


def test_demon_before_flip_gets_min_p_1mp():
    s = helpers.coin_space()
    for pv in helpers.EIGHTHS:
        p = helpers.prog("c2 :in H |^| T; c1 :in H <p> T", s, p=pv)
        r = wp(p, post(s, "c1 = c2"))
        assert r.pre.values == (min(pv, 1 - pv),) * 4


def test_probabilistic_choice_of_assignments_table():
    # post x + 3; the x = 9 states divide out of the domain on the right
    # branch and are reported rather than silently clipped
    s = space_of(("x", (0, 1, 3, 9)), ("y", (0, 1)))
    p = helpers.prog("x := 1 - y <1/3> x := 3 * x", s)
    e = from_expr(s, helpers.expr("x + 3", s))
    r = wp(p, e, cfg=WpConfig(undefined="mask"))
    assert r.pre.values == (
        F(10, 3), F(3), F(16, 3), F(5), F(28, 3), F(9), F(0), F(0),
    )
    assert tuple(st["x"] for st in r.undefined_states) == (F(9), F(9))
    with pytest.raises(UndefinedStateError):
        wp(p, e)


def test_skip_is_identity_and_abort_is_zero():
    s = helpers.coin_space()
    e = from_expr(s, helpers.expr("[c1 = H] + 2 * [c2 = T]", s))
    assert wp(helpers.prog("SKIP", s), e).pre.values == e.values
    assert wp(helpers.prog("ABORT", s), e).pre.values == (F(0),) * 4


def test_assignment_substitutes():
    s = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)))
    p = helpers.prog("x := 1 - y + 2", s)
    e = from_expr(s, helpers.expr("x + 3", s))
    r = wp(p, e)
    for st in s.states():
        assert r.pre[st] == (1 - st["y"] + 2) + 3


def test_geometric_loop_gives_exactly_1():
    # 1023/1024 needs about 21k Kleene sweeps to settle, 1 - 2^-41 far more
    s = space_of(("c", ("H", "T")))
    for bias in ("1/2", "1023/1024", "1 - 1/2199023255552"):
        p = helpers.prog(f"c := H; WHILE c = H DO c :in H <{bias}> T OD", s)
        r = wp(p, constant(s, 1))
        assert r.loop_residual == 0
        assert r.pre.values == (F(1),) * 2


def test_while_true_skip_is_zero_exactly():
    s = space_of(("c", ("H", "T")))
    p = helpers.prog("WHILE true DO SKIP OD", s)
    r = wp(p, constant(s, 1))
    assert r.pre.values == (F(0), F(0))
    assert r.loop_residual == 0


def test_demon_that_can_stay_forever_gets_zero():
    # at c = H the demon may keep choosing c := H, so the loop need not end
    s = space_of(("c", ("H", "T")))
    p = helpers.prog("WHILE c = H DO c := H |^| c :in H <1/2> T OD", s)
    assert wp(p, constant(s, 1)).pre.values == (F(0), F(1))


def test_demonic_ruin_matches_closed_form():
    # the demon picks the 1/3 walk everywhere: (2^i - 1) / (2^12 - 1)
    n = 12
    s = space_of(("i", tuple(range(n + 1))))
    p = helpers.prog(
        f"WHILE 0 < i & i < {n} DO (i := i + 1 <1/2> i := i - 1) "
        f"|^| (i := i + 1 <1/3> i := i - 1) OD", s)
    r = wp(p, post(s, f"i = {n}"))
    assert r.pre.values == tuple(F(2**i - 1, 2**n - 1) for i in range(n + 1))


def test_nested_and_probabilistic_loops_match_value_iteration():
    s = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1, 2)))
    for text in (
        # nested, with a demon weighing a sure step against a long shot
        "WHILE x > 0 DO WHILE y < 2 DO y := y + 1 <2/3> y := 0 OD; "
        "(x := x - 1; (y := 1 <1/2> y := 0)) |^| (x := 0 <1/2> x := 3) OD",
        # probabilistic guard, demonic body, an assertion
        "WHILE 1/2 DO (x := 0 <1/4> y := 2 - y) "
        "|^| (IF x < 3 THEN x := x + 1 ELSE y := 0); {y > 0 | x > 0} OD",
        # undefined below x = 0, reached from every x < 3
        "WHILE x < 3 DO x := x + 1 <1/2> x := x - 1 OD",
    ):
        p = helpers.prog(text, s)
        for f in (post(s, "x = 0"), from_expr(s, helpers.expr("x + 2 * y", s))):
            got = wp(p, f, cfg=WpConfig(undefined="mask"))
            want = helpers.value_iteration(p, s, [float(v) for v in f.values])
            undefined = {st.index for st in got.undefined_states}
            assert undefined == {i for i, v in enumerate(want) if v is None}, text
            for i, v in enumerate(got.pre.values):
                if i not in undefined:
                    assert abs(float(v) - want[i]) < 1e-9, (text, i)


def test_probabilistic_guard_loop_exact_fixpoint():
    # guard 1/2 retries the body; [c = H] survives only by exiting at once
    s = space_of(("c", ("H", "T")))
    p = helpers.prog("WHILE 1/2 DO c := T OD", s)
    r = wp(p, post(s, "c = H"))
    assert r.pre.values == (F(1, 2), F(0))
    assert r.loop_residual == 0


def test_guarded_if_with_no_enabled_branch_gives_zero():
    s = space_of(("c", ("H", "T")))
    p = helpers.prog("IF c = H -> SKIP FI", s)
    r = wp(p, constant(s, 1))
    assert r.pre.values == (F(1), F(0))


def test_assert_filters():
    s = space_of(("c", ("H", "T")))
    r = wp(helpers.prog("{c = H}", s), constant(s, 1))
    assert r.pre.values == (F(1), F(0))


def test_out_of_domain_assignment_raises_or_masks():
    s = space_of(("x", (0, 1)))
    p = helpers.prog("x := x + 1", s)
    with pytest.raises(UndefinedStateError) as ei:
        wp(p, constant(s, 1))
    assert ei.value.state["x"] == 1
    r = wp(p, constant(s, 1), cfg=WpConfig(undefined="mask"))
    assert r.pre.values == (F(1), F(0))
    assert len(r.undefined_states) == 1


def test_unary_minus_on_a_variable():
    s = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)))
    p = helpers.prog("x := -y + 2", s)
    assert str(p) == "x := -y + 2"
    r = wp(p, from_expr(s, Var("x")))
    assert r.pre.values == tuple(F(2 - st["y"]) for st in s.states())


def test_a_suchthat_predicate_that_is_not_boolean_is_undefined():
    # the parser refuses y + 1 as a predicate; built through the API, wp
    # names it at the first state
    s = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)))
    prog = SuchThat(("x",), BinOp("+", Var("y"), Lit(F(1))))
    with pytest.raises(UndefinedStateError, match="suchthat predicate is not boolean"):
        wp(prog, constant(s, 1))


def test_probability_outside_unit_interval_is_undefined():
    s = space_of(("x", (0, 1, 2)))
    p = helpers.prog("x := 1 <x> x := 0", s)
    with pytest.raises(UndefinedStateError):
        wp(p, constant(s, 1))
    r = wp(p, constant(s, 1), cfg=WpConfig(undefined="mask"))
    assert [st["x"] for st in r.undefined_states] == [F(2)]


# How undefined states flow: a side of weight 0 drops its marker, a live
# marker survives, and the first marker met names the reason.
# (program, masked pre at x = 0, 1, undefined x values, error message)
MARKER_RULES = [
    ("x := 5 <0> x := 0", (1, 1), [], None),
    ("x :in 5 <x> 0", (1, 0), [1], "x := 5 leaves the domain of x at {x=1}"),
    ("x :dist [5: 0, 1: 1]", (2, 2), [], None),
    ("WHILE 0 DO x := x + 5 OD", (1, 2), [], None),
    ("(x := 1/x) <x> SKIP", (1, 2), [], None),
    ("IF x = 0 -> x := 1/x [] x = 1 -> SKIP FI", (0, 2), [0],
     "division by zero at {x=0}"),
    ("{x = 1/x}", (0, 2), [0], "division by zero at {x=0}"),
    ("x :in {1, 1/x}", (0, 2), [0], "division by zero at {x=0}"),
    ("(x := 1/x) <1/2> x := 5", (0, 0), [0, 1], "division by zero at {x=0}"),
    # the first marker met in evaluation order wins, whatever the form: the
    # post's marker at a's target comes before b's undefined target
    ("x :in {0, 5}; x := 1/x", (0, 0), [0, 1], "division by zero at {x=0}"),
    ("x :dist [0: 1/2, 5: 1/2]; x := 1/x", (0, 0), [0, 1],
     "division by zero at {x=0}"),
    ("x :in 0 |^| 5; x := 1/x", (0, 0), [0, 1], "division by zero at {x=0}"),
    ("x :in 0 <1/2> 5; x := 1/x", (0, 0), [0, 1], "division by zero at {x=0}"),
    ("x :in {0, 5}", (0, 0), [0, 1], "x := 5 leaves the domain of x at {x=0}"),
    # a summarised loop meets markers in the order the loop iteration
    # finds them, those after its exits included
    ("WHILE x = 0 DO x := 1 <1/2> x := 5 OD", (0, 2), [0],
     "x := 5 leaves the domain of x at {x=0}"),
    ("(WHILE 1/2 DO x := x + 1 OD); x := 5", (0, 0), [0, 1],
     "x := 5 leaves the domain of x at {x=0}"),
    ("x := true", (0, 0), [0, 1], "cannot assign a boolean to x at {x=0}"),
    ("x := (x = 0)", (0, 0), [0, 1], "cannot assign a boolean to x at {x=0}"),
]


@pytest.mark.parametrize("text, pre, undefined, reason", MARKER_RULES)
def test_marker_rules(text, pre, undefined, reason):
    s = space_of(("x", (0, 1)))
    p = helpers.prog(text, s)
    f = from_expr(s, helpers.expr("x + 1", s))
    r = wp(p, f, cfg=WpConfig(undefined="mask"))
    assert r.pre.values == tuple(F(v) for v in pre)
    assert [st["x"] for st in r.undefined_states] == [F(x) for x in undefined]
    if reason is None:
        assert wp(p, f).pre == r.pre
    else:
        with pytest.raises(UndefinedStateError) as ei:
            wp(p, f)
        state = f"{{x={undefined[0]}}}"
        assert str(ei.value) == f"wp is undefined at {state}: {reason}"


def test_unsatisfiable_suchthat_is_undefined():
    s = space_of(("x", (0, 1)))
    p = helpers.prog("x :suchthat x = 5 - 4", s)
    assert wp(p, post(s, "x = 1")).pre.values == (F(1), F(1))
    q = helpers.prog("x :suchthat x + 5 = 0", s)
    with pytest.raises(UndefinedStateError):
        wp(q, constant(s, 1))


def test_dist_with_expression_values():
    s = space_of(("x", (0, 1, 2, 3)), ("y", (0, 1)))
    p = helpers.prog("x :dist [0: 1/2, y: 1/2]", s)
    r = wp(p, post(s, "x = 0"))
    for st in s.states():
        assert r.pre[st] == (F(1) if st["y"] == 0 else F(1, 2))


def test_loop_condition_kind_is_checked_for_programs_built_directly():
    # the parser refuses `WHILE x DO ...` over a token x; a tree built
    # through the API reaches the engine's own check
    s = helpers.coin_space()
    loop = While(Var("c1"), Skip())
    with pytest.raises(WpError, match="loop condition must be boolean or numeric"):
        wp(loop, constant(s, 1))


def test_expectations_refuse_floats_and_bools():
    s = space_of(("x", (0, 1)))
    for bad in (0.1, True):
        with pytest.raises(EvalError, match="is not exact"):
            constant(s, bad)
        with pytest.raises(EvalError, match="is not exact"):
            Expectation(s, (F(1), bad))
    assert constant(s, 2).values == (F(2), F(2))
    assert Expectation(s, (0, F(1, 2))).values == (F(0), F(1, 2))


def test_space_mismatch_is_rejected():
    s = helpers.coin_space()
    other = space_of(("c1", ("H", "T")))
    with pytest.raises(WpError):
        wp(helpers.prog("SKIP", s), constant(other, 1), space=s)


def test_loop_solve_that_is_no_fixpoint_is_reported_as_engine_bug():
    class _Affine:
        # x/2 + 1/2 is no wp: the constant term escapes the linear form, so
        # the solved vector (0) is not a fixpoint of the step (1/2)
        def run(self, f):
            return _Vec([x + f.den for x in f], 2 * f.den)

    with pytest.raises(WpError, match="fixpoint check"):
        helpers.one_state_loop(_Affine()).run(_Vec([1], 1))


def test_bias_spec_hits_p_exactly():
    s = helpers.bit_space()
    for pv in helpers.EIGHTHS:
        p = helpers.prog(helpers.BIAS_SPEC, s, p=pv)
        assert wp(p, post(s, "x = 1")).pre.values == (pv, pv)


def test_split_then_coin_recovers_p():
    s = helpers.pqr_space()
    p = helpers.prog(helpers.SPLIT_THEN_COIN, s)
    r = wp(p, post(s, "x = 1"))
    for st in s.states():
        assert r.pre[st] == st["p"]
    assert r.loop_residual == 0


def test_halving_loop_recovers_p_exactly_on_dyadic_grid():
    # every dyadic bias reaches an endpoint in at most three halvings, so
    # the fixpoint chain closes exactly
    s = helpers.pqr_space()
    p = helpers.prog(helpers.HALVING_LOOP, s)
    r = wp(p, post(s, "x = 1"))
    assert r.loop_residual == 0
    for st in s.states():
        assert r.pre[st] == st["p"]


def test_split_step_assertion_never_fails():
    s = helpers.pqr_space()
    p = helpers.prog(helpers.SPLIT_STEP, s)
    r = wp(p, constant(s, 1))
    assert r.pre.values == (F(1),) * s.size


# --- the integer engine ---------------------------------------------------------
#
# The engine carries ints over a common denominator: the post's over the lcm
# of its denominators, each pick's weights over the lcm of theirs.  Posts
# with coprime denominators and picks that mix weights over 3 and over 9,
# next to bare positions, check that every value is brought to the same
# denominator before it is added or compared.

COPRIME = (F(1, 3), F(1, 7), F(5, 8), F(0), F(2, 9), F(1))


def coprime_post(space, shift=0):
    return Expectation(space, tuple(COPRIME[(i + shift) % len(COPRIME)]
                                    for i in range(space.size)))


def assert_matches_resolutions(prog, space, f):
    got = wp(prog, f, space)
    for state, outs in resolutions_by_state(prog, space).items():
        assert got.pre[state] == min_expected(outs, f), (prog, state)


def test_coprime_posts_match_resolutions_exactly():
    for p, space in helpers.corpus():
        for shift in range(3):
            assert_matches_resolutions(p, space, coprime_post(space, shift))


@pytest.mark.parametrize("text", [
    "x :dist [0: 1/3, 1: 2/9, 2: 4/9]",
    "(x := 0 <1/3> x := 1) |^| (x := 1 <2/9> x := 2)",
    # bare positions next to weighted options, in one entry and across states
    "x := 2 |^| (x := 0 <2/9> x := 1)",
    "IF x = 0 THEN x := 1 ELSE (x := 0 <1/3> (x := 2 <2/9> x := 1))",
    "(x := 1 |^| (x := 0 <1/3> x := 2)); (SKIP <2/9> x := 2 - x)",
])
def test_picks_mixing_thirds_and_ninths_match_resolutions_exactly(text):
    space = space_of(("x", (0, 1, 2)), ("y", (0, 1)))
    p = helpers.prog(text, space)
    for shift in range(len(COPRIME)):
        assert_matches_resolutions(p, space, coprime_post(space, shift))


def _policy_values(n, ups, f):
    """Exact values of the walk on 0..n that steps up with probability
    ups[i] at each 0 < i < n, absorbed at 0 and n with value f there."""
    # x_i - up x_{i+1} - (1 - up) x_{i-1} = 0 inside, x_0 = f_0, x_n = f_n
    rows = []
    for i in range(n + 1):
        row = [F(0)] * (n + 2)
        row[i] = F(1)
        if 0 < i < n:
            row[i + 1] -= ups[i - 1]
            row[i - 1] -= 1 - ups[i - 1]
        else:
            row[n + 1] = f[i]
        rows.append(row)
    for i in range(n + 1):  # Gauss-Jordan; the system is diagonally dominant
        pivot = rows[i][i]
        rows[i] = [v / pivot for v in rows[i]]
        for j in range(n + 1):
            if j != i and rows[j][i]:
                c = rows[j][i]
                rows[j] = [a - c * b for a, b in zip(rows[j], rows[i])]
    return [row[n + 1] for row in rows]


def test_demonic_ruin_on_coprime_posts_matches_every_policy_exactly():
    n = 5
    space = space_of(("i", tuple(range(n + 1))))
    p = helpers.prog(f"WHILE 0 < i & i < {n} DO (i := i + 1 <1/2> i := i - 1) "
                     f"|^| (i := i + 1 <1/3> i := i - 1) OD", space)
    assert isinstance(compile_program(p, space)._root, _CLoop)
    for shift in range(len(COPRIME)):
        f = coprime_post(space, shift)
        # the demon's best memoryless policy is best at every state at once
        want = [min(vals) for vals in zip(*(
            _policy_values(n, ups, f.values)
            for ups in itertools.product((F(1, 2), F(1, 3)), repeat=n - 1)))]
        got = wp(p, f)
        assert list(got.pre.values) == want
        floats = helpers.value_iteration(p, space, [float(v) for v in f.values])
        assert all(abs(float(a) - b) < 1e-9 for a, b in zip(want, floats))


def test_a_bad_weight_fails_the_feasibility_check(monkeypatch):
    ints = wp_module._ints

    def heavier(*args):
        # the first atom of the first option of the first class weighs 2/w more
        w, plan = ints(*args)
        states, options = plan[0]
        (x, cells), *rest = options[0]
        options[0] = [(x + 2, cells)] + rest
        return w, plan

    monkeypatch.setattr(wp_module, "_ints", heavier)
    space = space_of(("x", (0, 1)))
    p = helpers.prog("x :in 0 <1/3> 1", space)
    f = Expectation(space, (F(1, 3), F(1, 7)))
    # at x = 0: (1/3 + 2/3) * 1/3 + 2/3 * 1/7 = 3/7, above max f = 1/3
    with pytest.raises(WpError, match=r"^feasibility violated at \{x=0\}: "
                                      r"3/7 outside \[0, 1/3\]$"):
        wp(p, f)


@pytest.mark.parametrize("text, reads", [
    ("3", ()), ("2 * y + 1", (1,)), ("[x = y]", (0, 1)), ("x / 2", (0,))])
def test_a_post_keeps_the_column_it_was_built_from(text, reads):
    # the column changes how a run reads the post, never the post itself:
    # the same values from a bare tuple compare, hash and print alike, and
    # run to the same wp, on a flat root and on one that is not
    space = helpers.random_space()
    f = from_expr(space, helpers.expr(text, space))
    g = Expectation(space, f.values, f.label)
    assert (f, hash(f), repr(f)) == (g, hash(g), repr(g))
    assert f.column[0] == reads and g.column[0] == (0, 1)
    for prog in ("x :in 0 <1/3> 2; y := 1 - y", "x := x - 1 |^| y := 0",
                 "(y := 1 <1/2> y := 0); (x := 1 |^| x := 0)"):
        compiled = compile_program(helpers.prog(prog, space), space)
        for cfg in (None, WpConfig(undefined="mask")):
            try:
                want = compiled.wp(g, cfg)
            except UndefinedStateError as exc:
                with pytest.raises(UndefinedStateError, match=f"^{re.escape(str(exc))}$"):
                    compiled.wp(f, cfg)
            else:
                assert compiled.wp(f, cfg) == want
    assert constant(space, 3).column == ((), [3], 1)
