"""The benchmark's reference computations, on cases small enough to work
out by hand, and each checker against a deliberately wrong answer.

Run with: python3 -m pytest bench/tests
"""

import math
import os
import sys
from fractions import Fraction as F

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checkers  # noqa: E402
from checkers import Wrong  # noqa: E402


# --- closed forms ----------------------------------------------------------


def test_ruin_values_by_hand():
    # one step from the middle of 0..2 decides the game
    assert checkers.ruin_value(1, 2, F(1, 2)) == F(1, 2)
    assert checkers.ruin_value(1, 2, F(1, 3)) == F(1, 3)
    # fair walk: linear; biased 1/3 up: (2^i - 1) / (2^n - 1)
    assert [checkers.ruin_value(i, 4, F(1, 2)) for i in range(5)] == [F(i, 4) for i in range(5)]
    assert [checkers.ruin_value(i, 3, F(1, 3)) for i in range(4)] == [0, F(1, 7), F(3, 7), 1]


def test_demonic_ruin_takes_the_smaller_bias():
    assert checkers.demonic_ruin_value(2, 3, (F(1, 2), F(1, 3))) == F(3, 7)
    assert checkers.demonic_ruin_value(2, 3, (F(1, 3), F(1, 2))) == F(3, 7)


def test_loop_checks_flag_values_above_the_exact_one():
    exact = {"a": F(1, 2), "b": F(1)}
    checkers.check_pre_below({"a": F(1, 2), "b": F(3, 4)}, exact, "ok")
    with pytest.raises(Wrong):
        checkers.check_pre_below({"a": F(1, 2) + F(1, 2**50), "b": F(1)}, exact, "over")


def test_loop_gap_is_a_failure_only_beyond_the_residual():
    exact = {"a": F(1)}
    below = {"a": 1 - F(1, 2**40)}
    assert checkers.loop_gap_problem(below, exact, F(1, 2**40), "x") is None
    assert checkers.loop_gap_problem(below, exact, F(1, 2**42), "x") is not None


def test_verdict_check_flags_fails_on_an_equal_pair():
    checkers.check_verdict("holds", {"holds", "inconclusive"}, "equal pair")
    with pytest.raises(Wrong):
        checkers.check_verdict("fails", {"holds", "inconclusive"}, "equal pair")


# --- entropy and the interval view of sampling ------------------------------


def test_entropy_by_hand():
    assert checkers.entropy_bits((1, 1)) == pytest.approx(1.0)
    assert checkers.entropy_bits((1, 1, 1, 1)) == pytest.approx(2.0)
    assert checkers.entropy_bits((1, 3)) == pytest.approx(2 - 0.75 * math.log2(3))
    assert checkers.entropy_bits((5,)) == 0


def test_flip_moments_by_hand():
    # die: 3 flips for sure, then each further flip ends with probability 1/2
    mean, var = checkers.flip_moments((1,) * 6)
    assert mean == pytest.approx(4.0)
    assert var == pytest.approx(2.0)  # 3 + a geometric count with mean 1
    assert checkers.flip_moments((1, 1)) == pytest.approx((1.0, 0.0))
    assert checkers.flip_moments((1, 2))[0] == pytest.approx(2.0)
    assert checkers.flip_moments((3, 1))[0] == pytest.approx(1.5)
    assert checkers.flip_moments((7,)) == (0.0, 0.0)


def test_interval_outcome_replays_known_draws():
    die = (1,) * 6
    assert checkers.interval_outcome(die, (0, 1, 1)) == 3  # [3/8, 1/2) in [1/3, 1/2]
    assert checkers.interval_outcome(die, (0, 1)) is None  # 1/3 is still inside
    assert checkers.interval_outcome(die, (0, 1, 1, 0)) is None  # one bit too many
    assert checkers.interval_outcome((1, 2), (0,)) is None
    assert checkers.interval_outcome((1, 2), (1,)) == 2
    assert checkers.interval_outcome((1, 2), (0, 0)) == 1
    assert checkers.interval_outcome((4,), ()) == 1


def test_chi2_tail_by_hand():
    assert checkers.chi2_sf(0, 3) == 1.0
    for x in (0.5, 2.0, 9.0, 40.0):
        assert checkers.chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)
    assert checkers.chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-9)
    assert checkers.chi2_sf(18.307038053275146, 10) == pytest.approx(0.05, rel=1e-9)


def test_tally_check_flags_an_off_by_one_tally():
    checkers.check_tallies([100, 100], (1, 1), 200, "fair")
    with pytest.raises(Wrong):
        checkers.check_tallies([100, 101], (1, 1), 200, "off by one")
    with pytest.raises(Wrong):
        checkers.check_tallies([150, 50], (1, 1), 200, "biased")


def test_two_sample_check():
    assert checkers.chi2_two_samples([300, 600], [310, 590]) > 0.1
    assert checkers.chi2_two_samples([300, 600], [600, 300]) < 1e-9


def test_mean_flips_check():
    checkers.check_mean_flips(4000, 1000, (1,) * 6, "die", exact=4)
    with pytest.raises(Wrong):
        checkers.check_mean_flips(4500, 1000, (1,) * 6, "die", exact=4)
    with pytest.raises(Wrong):  # fewer flips than the entropy allows
        checkers.check_mean_flips(2000, 1000, (1,) * 6, "die")


# --- machines --------------------------------------------------------------

# heads goes to outcome 1, tails tries again: P(1) = 1, 2 flips on average
RETRY = {0: ("interior", 1, 0), 1: ("leaf", 1)}
# one flip picks one of two outcomes
COIN = {0: ("interior", 1, 2), 1: ("leaf", 1), 2: ("leaf", 2)}


def test_value_iteration_by_hand():
    probs, flips = checkers.value_iteration(RETRY, 0, 1)
    assert probs == pytest.approx([1.0])
    assert flips == pytest.approx(2.0, rel=1e-12)
    probs, flips = checkers.value_iteration(COIN, 0, 2)
    assert probs == pytest.approx([0.5, 0.5])
    assert flips == 1.0


def test_machine_check_accepts_the_right_analysis():
    checkers.check_machine(COIN, 0, (1, 1), (F(1, 2), F(1, 2)), F(1), "coin",
                           expect_nodes=3, expect_flips=F(1))


@pytest.mark.parametrize("probs, flips, nodes", [
    ((F(1, 3), F(2, 3)), F(1), None),      # wrong probabilities
    ((F(1, 2), F(1, 2)), F(1, 2), None),   # below the entropy bound
    ((F(1, 2), F(1, 2)), F(3, 2), None),   # disagrees with value iteration
    ((F(1, 2), F(1, 2)), F(1), 4),         # wrong node count
])
def test_machine_check_flags_wrong_analyses(probs, flips, nodes):
    with pytest.raises(Wrong):
        checkers.check_machine(COIN, 0, (1, 1), probs, flips, "coin", expect_nodes=nodes)
