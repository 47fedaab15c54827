import io
import json
import subprocess
import sys

import pytest

from pgclkit.cli import main

COIN_LOOP = """\
var c in {H, T}
c := H
WHILE c = H DO c :in H <1/2> T OD
"""

SLOW_COIN_LOOP = "var c in {H, T}\nWHILE c = H DO c :in H <1023/1024> T OD\n"

DYADIC_HEADER = """\
var x in {0, 1}
var q in {0, 1/8, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1}
var r in {0, 1/8, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1}
"""

SPLIT_THEN_COIN = (
    DYADIC_HEADER
    + "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI\n"
    + "(x :in 1 <q> 0) <1/2> (x :in 1 <r> 0)\n"
)

PQR_HEADER = """\
var x in {0, 1}
var p in {0, 1/8, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1}
var q in {0, 1/8, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1}
var r in {0, 1/8, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1}
"""

HALVING_LOOP = (
    "WHILE 0 < p & p < 1 DO "
    "IF p <= 1/2 -> q,r := 0, 2*p [] p >= 1/2 -> q,r := 2*p-1, 1 FI; "
    "p :in q <1/2> r OD; x := p\n"
)


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_wp_plain_output(tmp_path, capsys):
    prog = write(tmp_path, "coin.pgcl",
                 "var c1 in {H, T}\nvar c2 in {H, T}\n"
                 "c1 :in H <1/2> T; c2 :in H <1/2> T\n")
    rc = main(["wp", "--program", prog, "--post", "[c1 = c2]"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "{c1=H, c2=H}  1/2"
    assert len(lines) == 4
    assert all(ln.endswith("1/2") for ln in lines)


def test_wp_json_output(tmp_path, capsys):
    prog = write(tmp_path, "loop.pgcl", COIN_LOOP)
    rc = main(["wp", "--program", prog, "--post", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["post"] == "1"
    assert payload["loop_residual"] == "0/1"
    assert payload["pre"]["{c=H}"] == "1/1"
    assert payload["undefined_states"] == []


def test_wp_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("var x in {0, 1}\nx := 1\n"))
    rc = main(["wp", "--program", "-", "--post", "[x = 1]"])
    assert rc == 0
    assert all(ln.endswith("1/1") for ln in capsys.readouterr().out.strip().splitlines())


def test_wp_with_params(tmp_path, capsys):
    prog = write(tmp_path, "bias.pgcl", "var x in {0, 1}\nx :in 1 <p> 0\n")
    rc = main(["wp", "--program", prog, "--post", "[x = 1]", "--param", "p=3/8"])
    assert rc == 0
    assert all(ln.endswith("3/8") for ln in capsys.readouterr().out.strip().splitlines())


def test_wp_syntax_error_exits_2(tmp_path, capsys):
    prog = write(tmp_path, "bad.pgcl", "var x in {0, 1}\nx := := 1\n")
    rc = main(["wp", "--program", prog])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_wp_loop_over_a_token_guard_exits_2(tmp_path, capsys):
    prog = write(tmp_path, "loop.pgcl", "var c in {H, T}\nWHILE c DO SKIP OD\n")
    rc = main(["wp", "--program", prog])
    assert rc == 2
    assert "2:1: WHILE condition must be boolean or numeric" in capsys.readouterr().err


def test_wp_missing_file_exits_2(capsys):
    rc = main(["wp", "--program", "/nonexistent/file.pgcl"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_wp_reads_a_header_separated_by_a_tab(tmp_path, capsys):
    prog = write(tmp_path, "tab.pgcl", "var\tx in {0, 1}\nx := 1\n")
    rc = main(["wp", "--program", prog, "--post", "[x = 1]"])
    assert rc == 0
    assert capsys.readouterr().out == "{x=0}  1/1\n{x=1}  1/1\n"


def test_wp_without_declarations_exits_2(tmp_path, capsys):
    prog = write(tmp_path, "bare.pgcl", "# no header\nx := 1\n")
    rc = main(["wp", "--program", prog])
    assert rc == 2
    assert "expected `var` declarations" in capsys.readouterr().err


def test_parse_error_names_the_file(tmp_path, capsys):
    left = write(tmp_path, "ok.pgcl", "var x in {0, 1}\nx := 1\n")
    right = write(tmp_path, "late.pgcl", "x := 1\nvar x in {0, 1}\n")
    rc = main(["check-equal", "--left", left, "--right", right])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {right}:2:1: expected end of input, found 'var'\n")


def test_parse_error_in_stdin_names_it(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("var x in {0, 1}\nx := := 1\n"))
    assert main(["wp", "--program", "-"]) == 2
    assert capsys.readouterr().err == "error: <stdin>:2:6: expected an expression, found ':='\n"


def test_header_error_names_the_file_and_keeps_its_exit_code(tmp_path, capsys):
    prog = write(tmp_path, "dup.pgcl", "var x in {0, 1}\nvar x in {0, 1}\nx := 1\n")
    rc = main(["wp", "--program", prog])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {prog}: duplicate variable names\n"


def test_expression_and_read_errors_name_no_file(tmp_path, capsys):
    prog = write(tmp_path, "ok.pgcl", "var x in {0, 1}\nx := 1\n")
    assert main(["wp", "--program", prog, "--post", "[y = 1]"]) == 2
    assert capsys.readouterr().err == "error: 1:2: undeclared variable y\n"
    missing = str(tmp_path / "missing.pgcl")
    assert main(["wp", "--program", missing]) == 2
    assert capsys.readouterr().err.startswith(f"error: 1:1: cannot read {missing}: ")


def test_check_equal_right_file_reuses_the_left_space(tmp_path, capsys):
    left = write(tmp_path, "a.pgcl", "var x in {0, 1, 2}\nx :in {1, 2}\n")
    right = write(tmp_path, "b.pgcl", "x := 2 |^| x := 1\n")
    rc = main(["check-equal", "--left", left, "--right", right])
    assert rc == 0
    assert capsys.readouterr().out.startswith("holds")


def test_check_equal_sibling_with_other_declarations_exits_2(tmp_path, capsys):
    left = write(tmp_path, "a.pgcl", "var x in {0, 1}\nx := 1\n")
    right = write(tmp_path, "b.pgcl", "var x in {0, 1, 2}\nx := 1\n")
    rc = main(["check-equal", "--left", left, "--right", right])
    assert rc == 2
    assert "different state space" in capsys.readouterr().err


def test_wp_undefined_state_raise_and_mask(tmp_path, capsys):
    prog = write(tmp_path, "inc.pgcl", "var x in {0, 1}\nx := x + 1\n")
    rc = main(["wp", "--program", prog])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = main(["wp", "--program", prog, "--undefined", "mask"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "undefined at {x=1}" in captured.err


def test_wp_post_undefined_names_the_state(tmp_path, capsys):
    prog = write(tmp_path, "p.pgcl", "var x in {0, 1}\nSKIP\n")
    rc = main(["wp", "--program", prog, "--post", "1/x"])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        "error: expectation 1 / x is undefined at {x=0}: division by zero")


def test_wp_slow_coin_loop_is_exactly_1(tmp_path, capsys):
    # Kleene iteration needed about 21k sweeps here, with denominators past
    # the 4300-digit limit on int-to-string conversion
    prog = write(tmp_path, "loop.pgcl", SLOW_COIN_LOOP)
    rc = main(["wp", "--program", prog])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["{c=H}  1/1", "{c=T}  1/1"]


def test_check_equal_json_on_slow_coin_loop(tmp_path, capsys):
    left = write(tmp_path, "loop.pgcl", SLOW_COIN_LOOP)
    right = write(tmp_path, "exit.pgcl", "var c in {H, T}\nc := T\n")
    rc = main(["check-equal", "--left", left, "--right", right, "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"status": "holds", "residual": "0/1"}


def test_check_equal_grid_holds(tmp_path, capsys):
    left = write(tmp_path, "spec.pgcl", DYADIC_HEADER + "x :in 1 <p> 0\n")
    right = write(tmp_path, "impl.pgcl", SPLIT_THEN_COIN)
    rc = main([
        "check-equal", "--left", left, "--right", right,
        "--grid", "p", "--probe-vars", "x",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p = 0/1: holds" in out
    assert "p = 5/8: holds" in out
    assert out.strip().endswith("overall: holds")


def test_check_equal_grid_json_matches_a_run_per_value(tmp_path, capsys):
    # the right file has no header; p*p agrees with p at 0 and 1 only
    left = write(tmp_path, "spec.pgcl", DYADIC_HEADER + "x :in 1 <p> 0\n")
    right = write(tmp_path, "square.pgcl", "x :in 1 <p*p> 0\n")
    argv = ["check-equal", "--left", left, "--right", right, "--probe-vars", "x", "--json"]
    rc = main(argv + ["--grid", "p", "--grid-denominator", "4"])
    grid = json.loads(capsys.readouterr().out)
    assert rc == 1 and grid["parameter"] == "p"
    values = ["0/1", "1/4", "1/2", "3/4", "1/1"]
    assert [r["value"] for r in grid["results"]] == values
    for value, record in zip(values, grid["results"]):
        rc = main(argv + ["--param", f"p={value}"])
        assert rc == (0 if value in ("0/1", "1/1") else 1)
        assert record == {"value": value, **json.loads(capsys.readouterr().out)}


@pytest.mark.parametrize("dist, printed, error", [
    # the total is 1 at p = 0 only
    ("x :dist [1: p, 0: 1 - p*p]", ["p = 0/1: holds"],
     "distribution probabilities sum to 19/16, not 1"),
    # 1 - 2*p is negative from p = 3/4 on
    ("x :dist [1: 2*p, 0: 1 - 2*p]", ["p = 0/1: holds", "p = 1/4: fails", "p = 1/2: fails"],
     "negative probability in distribution"),
])
def test_a_dist_checked_at_each_grid_value(tmp_path, capsys, dist, printed, error):
    left = write(tmp_path, "spec.pgcl", "var x in {0, 1}\nx :in 1 <p> 0\n")
    right = write(tmp_path, "dist.pgcl", dist + "\n")
    argv = ["check-equal", "--left", left, "--right", right, "--grid", "p",
            "--grid-denominator", "4", "--probe-vars", "x"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert [line.split(" [")[0] for line in out.splitlines()] == printed
    assert err == f"error: {right}: {error}\n"
    assert main(argv + ["--json"]) == 1
    assert capsys.readouterr() == ("", f"error: {right}: {error}\n")


def test_check_equal_grid_with_a_right_header_of_another_space_errors_once(tmp_path, capsys):
    left = write(tmp_path, "spec.pgcl", DYADIC_HEADER + "x :in 1 <p> 0\n")
    right = write(tmp_path, "other.pgcl", "var x in {0, 1}\nx :in 1 <p> 0\n")
    rc = main(["check-equal", "--left", left, "--right", right, "--grid", "p"])
    assert rc == 2
    assert capsys.readouterr() == ("", (
        f"error: {right}:1:1: the `var` header declares a different state space "
        "than the one given\n"))


def test_check_equal_grid_reads_stdin_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("var x in {0, 1}\nx :in 1 <p> 0\n"))
    right = write(tmp_path, "impl.pgcl", "x := 1 <p> x := 0\n")
    rc = main(["check-equal", "--left", "-", "--right", right, "--grid", "p",
               "--grid-denominator", "2"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "p = 0/1: holds", "p = 1/2: holds", "p = 1/1: holds", "overall: holds"]


@pytest.mark.parametrize("denominator", ["0", "-2"])
def test_check_equal_grid_denominator_below_1_exits_1(tmp_path, capsys,
                                                      denominator):
    left = write(tmp_path, "spec.pgcl", DYADIC_HEADER + "x :in 1 <p> 0\n")
    right = write(tmp_path, "impl.pgcl", SPLIT_THEN_COIN)
    rc = main([
        "check-equal", "--left", left, "--right", right,
        "--grid", "p", "--grid-denominator", denominator,
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: grid denominator must be at least 1")
    assert "Traceback" not in err


def test_check_equal_fails_with_counterexample_json(tmp_path, capsys):
    left = write(tmp_path, "a.pgcl", "var x in {0, 1}\nx :in 1 <1/4> 0\n")
    right = write(tmp_path, "b.pgcl", "x :in 1 <1/2> 0\n")
    rc = main(["check-equal", "--left", left, "--right", right, "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "fails"
    cx = payload["counterexample"]
    assert cx["lhs"] != cx["rhs"]


def test_check_equal_holds_on_thirds(tmp_path, capsys):
    header = (
        "var x in {0, 1}\n"
        "var p in {0, 1/3, 2/3, 1}\n"
        "var q in {0, 1/3, 2/3, 1}\n"
        "var r in {0, 1/3, 2/3, 1}\n"
    )
    left = write(tmp_path, "spec.pgcl", header + "x :in 1 <p> 0\n")
    right = write(tmp_path, "impl.pgcl", header + HALVING_LOOP)
    rc = main([
        "check-equal", "--left", left, "--right", right, "--probe-vars", "x",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "holds"


def test_check_equal_over_a_numeric_loop_guard(tmp_path, capsys):
    # the default probes bracket boolean predicates only: the guard 1/2 is
    # a probability, not a predicate
    left = write(tmp_path, "loop.pgcl", "var c in {H, T}\nWHILE 1/2 DO c := T OD\n")
    right = write(tmp_path, "once.pgcl", "var c in {H, T}\nc := T <1/2> SKIP\n")
    rc = main(["check-equal", "--left", left, "--right", right])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out.strip() == "holds"


def test_check_equal_with_an_undefined_guard_names_the_state(tmp_path, capsys):
    # the default probes skip the bracket of 1/x = 1, which is undefined at
    # x = 0, so the check reaches wp, as it does with --probe-vars x
    header = "var x in {0, 1, 2}\n"
    left = write(tmp_path, "l.pgcl", header + "IF 1/x = 1 THEN x := 1 ELSE x := 0\n")
    right = write(tmp_path, "r.pgcl", header + "IF x = 1 THEN x := 1 ELSE x := 0\n")
    want = "error: wp is undefined at {x=0}: division by zero at {x=0}"
    for extra in ([], ["--probe-vars", "x"]):
        rc = main(["check-equal", "--left", left, "--right", right] + extra)
        assert rc == 1
        assert capsys.readouterr().err.strip() == want


def test_check_refines_directions(tmp_path, capsys):
    spec = write(tmp_path, "spec.pgcl", "var x in {0, 1}\nx :in {0, 1}\n")
    impl = write(tmp_path, "impl.pgcl", "var x in {0, 1}\nx := 0\n")
    rc = main(["check-refines", "--spec", spec, "--impl", impl])
    assert rc == 0
    assert "holds" in capsys.readouterr().out
    rc = main(["check-refines", "--spec", impl, "--impl", spec])
    assert rc == 1


def test_check_variant_holds(tmp_path, capsys):
    prog = write(tmp_path, "loop.pgcl",
                 "var c in {H, T}\nWHILE c = H DO c :in H <1/2> T OD\n")
    rc = main(["check-variant", "--program", prog, "--variant", "[c = H]",
               "--bound", "1", "--epsilon", "1/2"])
    assert rc == 0
    assert "holds" in capsys.readouterr().out


def test_check_variant_fails_on_spin(tmp_path, capsys):
    prog = write(tmp_path, "spin.pgcl",
                 "var c in {H, T}\nWHILE true DO SKIP OD\n")
    rc = main(["check-variant", "--program", prog, "--variant", "1",
               "--bound", "1", "--epsilon", "1/2", "--json"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fails"


def test_check_variant_undefined_cut_is_no_decrease(tmp_path, capsys):
    # the variant is natural on the guard states, but undefined at the exit
    # state x = 0, where its cut bracket reads 0: no decrease
    prog = write(tmp_path, "loop.pgcl",
                 "var x in {0, 1, 2}\nWHILE x > 0 DO x := x - 1 OD\n")
    rc = main(["check-variant", "--program", prog, "--variant", "2/x",
               "--bound", "2", "--epsilon", "1/2"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == (
        "fails (variant may fail to decrease often enough) "
        "[probe [2 / x < 1]: at {x=2} lhs = 0, rhs = 1/2]")


def test_check_variant_above_its_bound_fails_where_it_is_undefined(tmp_path, capsys):
    # each variant exceeds the bound 1 at a guard state, and is negative or
    # undefined at the exit state x = 0, where the probe reads 0
    prog = write(tmp_path, "loop.pgcl",
                 "var x in {0, 1, 2}\nWHILE x > 0 DO x := x - 1 OD\n")
    for text, want in (("2*x - 1", "probe 2 * x - 1: at {x=2} lhs = 3, rhs = 1"),
                       ("2/x", "probe 2 / x: at {x=1} lhs = 2, rhs = 1")):
        rc = main(["check-variant", "--program", prog, "--variant", text,
                   "--bound", "1", "--epsilon", "1/2"])
        assert rc == 1
        out = capsys.readouterr().out.strip()
        assert out == f"fails (variant exceeds its bound) [{want}]"


def test_check_variant_rejects_non_loop(tmp_path, capsys):
    prog = write(tmp_path, "skip.pgcl", "var c in {H, T}\nSKIP\n")
    rc = main(["check-variant", "--program", prog, "--variant", "1",
               "--bound", "1", "--epsilon", "1/2"])
    assert rc == 2
    assert "loop" in capsys.readouterr().err


def test_sample_with_scripted_bits(capsys):
    rc = main(["sample", "--dist", "1 1 1 1 1 1", "--bits", "0,1,1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "outcome=3 flips=3 bits=011"


def test_sample_json_and_seeded(capsys):
    rc = main(["sample", "--dist", "1 2", "--seed", "9", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] in (1, 2)
    assert payload["flips"] == len(payload["bits"])
    rc = main(["sample", "--dist", "1 2", "--seed", "9", "--json"])
    assert json.loads(capsys.readouterr().out) == payload
    # a negative seed would replay its absolute value
    rc = main(["sample", "--dist", "1 2", "--seed", "-1"])
    assert rc == 1
    assert "non-negative" in capsys.readouterr().err


def test_sample_exhausted_bits_exit_1(capsys):
    rc = main(["sample", "--dist", "1 1 1 1 1 1", "--bits", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["2", "0,x", "0 1"])
def test_sample_bad_bits_exit_1(bits, capsys):
    rc = main(["sample", "--dist", "1 1", "--bits", bits])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: bits must be 0 or 1")
    assert "Traceback" not in err


def test_trials_inline_dist(capsys):
    rc = main(["trials", "--dist", "1 1", "--runs", "200", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outcome 1" in out and "outcome 2" in out
    assert "200 runs" in out


def test_one_trial_tallies_the_sampled_outcome(capsys):
    # a trials run draws from the one stream of its seed, as sample does
    for seed in ("1", "4", "11"):
        assert main(["sample", "--dist", "1 2 3", "--seed", seed, "--json"]) == 0
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert main(["trials", "--dist", "1 2 3", "--runs", "1", "--seed", seed,
                     "--json"]) == 0
        tallies = json.loads(capsys.readouterr().out)["tallies"]
        assert tallies == [int(k == outcome) for k in (1, 2, 3)]


def test_trials_file_carries_run_count(tmp_path, capsys):
    f = write(tmp_path, "trials.txt", "150\n1 2 3\n")
    rc = main(["trials", "--dist", f, "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 150
    assert payload["weights"] == [1, 2, 3]
    assert sum(payload["tallies"]) == 150


@pytest.mark.parametrize("text", [
    "150\n1 1 1 1 1 1  # a fair die\n",
    "150 # runs\n1 1 1 1 1 1\n",
])
def test_trials_file_comments_run_to_the_end_of_a_line(tmp_path, text, capsys):
    f = write(tmp_path, "trials.txt", text)
    rc = main(["trials", "--dist", f, "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 150
    assert payload["weights"] == [1] * 6
    assert sum(payload["tallies"]) == 150


def test_inline_dist_comment_runs_to_the_end_of_the_line(capsys):
    for text in ("1 2 # x", "1 2"):
        assert main(["sample", "--dist", text, "--bits", "0,1,1"]) == 0
        assert capsys.readouterr().out.strip() == "outcome=2 flips=3 bits=011"


def test_trials_without_runs_exits_2(capsys):
    rc = main(["trials", "--dist", "1 2 3"])
    assert rc == 2
    assert "run count" in capsys.readouterr().err


def test_machine_build_text(capsys):
    rc = main(["machine-build", "--dist", "1 1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outcomes 2" in out
    assert "root 0" in out
    assert "node 0 interior 1 2" in out


def test_machine_analyze_die(capsys):
    rc = main(["machine-analyze", "--dist", "1 1 1 1 1 1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "nodes=17 expected_flips=4/1"
    assert lines[1] == "outcome 1: 1/6"
    assert len(lines) == 7


def test_machine_analyze_json(capsys):
    rc = main(["machine-analyze", "--dist", "1 2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == 4
    assert payload["expected_flips"] == "2/1"
    assert payload["probabilities"] == ["1/3", "2/3"]


def test_machine_file_round_trip_through_cli(tmp_path, capsys):
    rc = main(["machine-build", "--dist", "1 3"])
    text = capsys.readouterr().out
    f = write(tmp_path, "m.machine", text)
    rc = main(["machine-analyze", "--machine", f])
    assert rc == 0
    out = capsys.readouterr().out
    assert "expected_flips=3/2" in out


def test_machine_dot(capsys):
    rc = main(["machine-dot", "--dist", "1 1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    rc = main(["machine-dot", "--dist", "1 1", "--json"])
    assert "dot" in json.loads(capsys.readouterr().out)


def test_machine_needs_a_source(capsys):
    rc = main(["machine-analyze"])
    assert rc == 2
    assert "--dist or --machine" in capsys.readouterr().err


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "pgclkit.cli", "sample", "--dist", "1 1",
         "--bits", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "outcome=2 flips=1 bits=1"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["wp"])
    assert ei.value.code == 2
