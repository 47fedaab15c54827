import random
from fractions import Fraction

import pytest

import helpers
from pgclkit import (
    DistError,
    EvalError,
    PgclSyntaxError,
    parse_expression,
    parse_program,
    parse_rational,
    parse_source,
    pretty_print,
    space_of,
)
from pgclkit.exprs import Lit, Var
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


def coin():
    return space_of(("x", ("H", "T")))


def test_prob_choice_of_assignments():
    p = parse_program("x := H <0.5> x := T", coin())
    assert isinstance(p, ProbChoice)
    assert isinstance(p.left, Assign) and isinstance(p.right, Assign)
    assert p.prob.value == F(1, 2)


def _heads_or_tails(space):
    return Assign("x", parse_expression("H", space)), Assign("x", parse_expression("T", space))


def test_prob_assign_form():
    heads, tails = _heads_or_tails(coin())
    assert parse_program("x :in H <0.5> T", coin()) == ProbChoice(heads, Lit(F(1, 2)), tails)


def test_demon_forms():
    s = coin()
    heads, tails = _heads_or_tails(s)
    assert parse_program("x := H |^| x := T", s) == DemonChoice(heads, tails)
    assert parse_program("x :in H |^| T", s) == DemonChoice(heads, tails)
    assert parse_program("x :in {H, T}", s) == DemonChoice(heads, tails)


@pytest.mark.parametrize("surface, core", [
    ("x :in 1 <1/3> 0", "x := 1 <1/3> x := 0"),
    ("x :in 1 |^| 0", "x := 1 |^| x := 0"),
    ("x :in {2}", "x := 2"),
    ("x :in {0, 1, 2}", "(x := 0 |^| x := 1) |^| x := 2"),
    ("IF 1/3 THEN x := 0 ELSE SKIP", "x := 0 <1/3> SKIP"),
    ("IF x/2 THEN x := 0 ELSE x :in {1, 2}", "x := 0 <x/2> (x := 1 |^| x := 2)"),
    ("{x < 2}", "IF x < 2 THEN SKIP ELSE ABORT"),
])
def test_parser_lowers_surface_forms_to_core_trees(surface, core):
    s = space_of(("x", (0, 1, 2)))
    lowered = parse_program(surface, s)
    assert lowered == parse_program(core, s)
    assert parse_program(str(lowered), s) == lowered


def test_str_prints_core_forms():
    s = space_of(("x", (0, 1)))
    assert str(parse_program("x :in 1 <1/3> 0", s)) == "x := 1 <1/3> x := 0"
    assert str(parse_program("{x = 1}", s)) == "IF x = 1 THEN SKIP ELSE ABORT"


def test_decimals_are_exact():
    s = coin()
    p = parse_program("x :in H <0.25> T", s)
    assert p.prob.value == F(1, 4)
    assert parse_rational("0.125") == F(1, 8)
    assert parse_rational("2/3") == F(2, 3)


def test_if_then_else_dispatches_on_condition_kind():
    s = space_of(("x", (0, 1)), ("p", (0, F(1, 2), 1)))
    b = parse_program("IF x = 0 THEN SKIP ELSE ABORT", s)
    assert isinstance(b, IfBool)
    q = parse_program("IF p THEN x := 0 ELSE x := 1", s)
    assert q == ProbChoice(Assign("x", Lit(F(0))), Var("p"), Assign("x", Lit(F(1))))


def test_guarded_if_with_multi_assign():
    s = helpers.pqr_space()
    p = parse_program(
        "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI", s
    )
    assert isinstance(p, GuardedIf)
    assert len(p.branches) == 2
    first_body = p.branches[0][1]
    assert isinstance(first_body, Seq)
    assert isinstance(first_body.first, Assign) and first_body.first.var == "q"
    assert isinstance(first_body.second, Assign) and first_body.second.var == "r"


def test_multi_assign_interference_is_rejected():
    s = space_of(("a", (0, 1)), ("b", (0, 1)))
    with pytest.raises(PgclSyntaxError) as ei:
        parse_program("a,b := 1, a", s)
    assert "simultaneous assignment" in str(ei.value)


def test_multi_assign_swap_unsupported_but_reads_of_untouched_ok():
    s = space_of(("a", (0, 1)), ("b", (0, 1)))
    p = parse_program("a,b := b, 1", s)
    assert isinstance(p, Seq)


def test_while_and_sequencing_by_newline_or_semicolon():
    s = space_of(("c", ("H", "T")))
    one = parse_program("c := H; WHILE c = H DO c :in H <1/2> T OD", s)
    two = parse_program("c := H\nWHILE c = H DO c :in H <1/2> T OD", s)
    assert one == two
    assert isinstance(one, Seq)
    assert isinstance(one.second, While)


def test_assert_statement():
    s = helpers.pqr_space()
    p = parse_program("{p = (q+r)/2}", s)
    assert p == IfBool(parse_expression("p = (q+r)/2", s), Skip(), Abort())


def test_suchthat_statement():
    s = helpers.pqr_space()
    p = parse_program("q,r :suchthat (q+r)/2 = p", s)
    assert isinstance(p, SuchThat)
    assert p.vars == ("q", "r")


def test_dist_statement_checks_total():
    s = space_of(("x", (0, 1, 2)))
    p = parse_program("x :dist [0: 1/4, 1: 1/4, 2: 1/2]", s)
    assert p == parse_program("x := 0 <1/4> (x := 1 <1/3> x := 2)", s)
    with pytest.raises(DistError, match=r"^distribution probabilities sum to 1/2, not 1$"):
        parse_program("x :dist [0: 1/4, 1: 1/4]", s)
    with pytest.raises(DistError, match=r"^negative probability in distribution$"):
        parse_program("x :dist [0: -1/4, 1: 1/4, 2: 1]", s)


def test_dist_drops_zero_items_and_a_single_item_is_an_assignment():
    s = space_of(("x", (0, 1, 2)))
    assert parse_program("x :dist [2: 0, 1: 1]", s) == Assign("x", Lit(F(1)))
    assert (parse_program("x :dist [0: 1/2, 2: 0, 1: 1/2]", s)
            == ProbChoice(Assign("x", Lit(F(0))), Lit(F(1, 2)), Assign("x", Lit(F(1)))))


def test_while_condition_kind_is_checked_at_parse_time():
    s = coin()
    with pytest.raises(PgclSyntaxError,
                       match="WHILE condition must be boolean or numeric") as ei:
        parse_program("SKIP\nWHILE x DO SKIP OD", s)
    assert (ei.value.line, ei.value.column) == (2, 1)


def test_undeclared_variable_errors_with_position():
    s = coin()
    with pytest.raises(PgclSyntaxError) as ei:
        parse_program("y := H", s)
    err = ei.value
    assert "undeclared" in str(err)
    assert err.line == 1 and err.column == 1


def test_boolean_expected_where_numeric_given():
    s = space_of(("p", (0, 1)))
    with pytest.raises(PgclSyntaxError) as ei:
        parse_program("WHILE p DO SKIP OD; {p}", s)
    assert "expected a boolean expression" in str(ei.value)


def test_error_carries_line_and_column():
    s = coin()
    with pytest.raises(PgclSyntaxError) as ei:
        parse_program("SKIP\nSKIP; x :=\n", s)
    err = ei.value
    assert err.line == 2
    assert str(err).startswith("2:")


def test_comments_and_blank_lines_ignored():
    s = coin()
    p = parse_program("# setup\n\nx := H  # choose heads\n", s)
    assert p == Assign("x", parse_expression("H", s))


def test_newline_inside_brackets_does_not_split():
    s = space_of(("x", (0, 1, 2)))
    p = parse_program("x :dist [0: 1/4,\n 1: 1/4,\n 2: 1/2]", s)
    assert p == parse_program("x :dist [0: 1/4, 1: 1/4, 2: 1/2]", s)


def test_parse_source_reads_var_headers():
    text = """
    var x in {0, 1}
    var p in {0, 1/8, 1/4, -1/2}
    x :in 1 <1/2> 0
    """
    space, prog = parse_source(text)
    assert space.names == ("x", "p")
    assert space.domain("p").values == (F(0), F(1, 8), F(1, 4), F(-1, 2))
    assert prog == ProbChoice(Assign("x", Lit(F(1))), Lit(F(1, 2)), Assign("x", Lit(F(0))))


@pytest.mark.parametrize("header, at", [
    ("var x in {0, 1/0}", (1, 16)),
    ("var x in {0, -H}", (1, 15)),
    ("var x {0}", (1, 7)),
    ("var x in {0,}", (1, 13)),
    ("var in {0}", (1, 5)),
])
def test_malformed_header_errors_with_position(header, at):
    with pytest.raises(PgclSyntaxError) as ei:
        parse_source(header + "\nSKIP\n")
    assert (ei.value.line, ei.value.column) == at


def test_header_reads_through_any_whitespace():
    space, prog = parse_source("var\tx  in\t{ - 1 / 2 ,0.5,\n H }\r\nSKIP")
    assert space.domain("x").values == (F(-1, 2), F(1, 2), "H")
    assert prog == Skip()


def test_parse_source_requires_a_header():
    with pytest.raises(PgclSyntaxError) as ei:
        parse_source("# no header\nx := 1\n")
    assert (ei.value.line, ei.value.column) == (2, 1)


def test_parse_program_accepts_only_the_header_of_its_space():
    s = space_of(("x", (0, 1)))
    assert parse_program("var x in {0, 1}\nx := 1", s) == parse_program("x := 1", s)
    with pytest.raises(PgclSyntaxError) as ei:
        parse_program("\nvar x in {0, 2}\nx := 0", s)
    assert (ei.value.line, ei.value.column) == (2, 1)


def test_literal_division_by_zero_points_at_the_divisor():
    s = space_of(("x", (0, 1)))
    for text, col in (("x := 1/0", 8), ("x := 1/0 + 1", 8), ("x := 1 / (0)", 10)):
        with pytest.raises(PgclSyntaxError, match="division by zero") as ei:
            parse_program(text, s)
        assert (ei.value.line, ei.value.column) == (1, col)


def test_params_substitute_as_literals():
    s = space_of(("x", (0, 1)))
    p = parse_program("x :in 1 <p> 0", s, {"p": F(3, 8)})
    assert p.prob.value == F(3, 8)
    with pytest.raises(PgclSyntaxError):
        parse_program("p := 1", s, {"p": F(3, 8)})


def test_a_bool_parameter_is_refused_not_read_as_one():
    s = space_of(("x", (0, 1)))
    for value in (True, False):
        with pytest.raises(EvalError, match="bool literals are not allowed"):
            parse_program("x := a", s, {"a": value})
        with pytest.raises(EvalError, match="bool literals are not allowed"):
            Lit(value)
    assert parse_program("x := a", s, {"a": 1}) == Assign("x", Lit(F(1)))


def test_skip_abort_literals():
    s = coin()
    assert parse_program("SKIP", s) == Skip()
    assert parse_program("ABORT", s) == Abort()


def test_round_trip_over_corpus():
    for p, space in helpers.corpus() + helpers.loop_corpus():
        assert parse_program(pretty_print(p), space) == p


def test_round_trip_over_random_programs():
    rng = random.Random(12)
    space = helpers.random_space()
    for _ in range(500):
        p = parse_program(helpers.random_program(rng), space)
        assert parse_program(pretty_print(p), space) == p


def test_round_trip_named_programs():
    s = helpers.pqr_space()
    for text in (
        helpers.BIAS_SPEC,
        helpers.SPLIT_STEP,
        helpers.SPLIT_THEN_COIN,
        helpers.HALVING_BODY,
        helpers.HALVING_LOOP,
    ):
        p = parse_program(text, s)
        assert parse_program(pretty_print(p), s) == p


def test_choice_chain_round_trip():
    s = space_of(("x", (0, 1, 2)))
    p = parse_program("x := 0 |^| x := 1 <1/3> x := 2", s)
    assert parse_program(pretty_print(p), s) == p
    q = parse_program("x := 0 <1/4> (x := 1 <1/3> x := 2)", s)
    assert parse_program(pretty_print(q), s) == q
    assert q != parse_program("x := 0 <1/4> x := 1 <1/3> x := 2", s)
