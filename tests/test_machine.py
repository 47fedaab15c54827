import time
from fractions import Fraction
from importlib import resources

import pytest

from pgclkit import (
    CumulativeDist,
    Machine,
    MachineAnalysisError,
    MachineFormatError,
    MachineNode,
    WeightedDist,
    WindowInvariantError,
    analyze,
    build_machine,
    load_machine,
    machine_to_text,
    run_trials,
    to_dot,
)
from pgclkit.linear import absorb

F = Fraction


def test_one_third_machine_structure_and_values():
    # [1, 2] needs a retry loop: the heads branch of the second flip
    # re-enters the root
    m = build_machine(WeightedDist((1, 2)))
    assert m.interior_count() == 2
    assert m.leaf_count() == 2
    root = m.node(m.root)
    assert root.kind == "interior"
    assert m.node(root.tails).kind == "leaf"
    second = m.node(root.heads)
    assert second.kind == "interior"
    assert m.root in (second.heads, second.tails)
    a = analyze(m)
    assert a.outcome_prob == (F(1, 3), F(2, 3))
    assert a.expected_flips == F(2)


def test_one_quarter_machine_values():
    a = analyze(build_machine(WeightedDist((1, 3))))
    assert a.outcome_prob == (F(1, 4), F(3, 4))
    assert a.expected_flips == F(3, 2)


def test_fair_coin_machine_is_minimal():
    m = build_machine(WeightedDist((1, 1)))
    assert m.size == 3
    a = analyze(m)
    assert a.outcome_prob == (F(1, 2), F(1, 2))
    assert a.expected_flips == F(1)


def test_die_machine_reproduces_published_shape():
    m = build_machine(WeightedDist((1, 1, 1, 1, 1, 1)))
    assert m.size == 17
    assert m.interior_count() == 11
    assert m.leaf_count() == 6
    a = analyze(m)
    assert a.outcome_prob == (F(1, 6),) * 6
    assert a.expected_flips == F(4)
    assert a.node_count == 17


DIE_MACHINE_TEXT = """\
outcomes 6
root 0
node 0 interior 1 2 0 | 1 2 3 4 5 | 5
node 1 interior 3 4 0 | 2 4 | 2
node 2 interior 5 6 3 | 2 4 | 5
node 3 interior 7 8 0 | 4 | 1
node 4 interior 9 10 1 | 2 | 2
node 5 interior 11 12 3 | 4 | 4
node 6 interior 13 14 4 | 2 | 5
node 7 leaf 1
node 8 interior 3 15 0 | 2 | 1
node 9 interior 15 4 1 | 4 | 2
node 10 leaf 3
node 11 leaf 4
node 12 interior 5 16 3 | 2 | 4
node 13 interior 16 6 4 | 4 | 5
node 14 leaf 6
node 15 leaf 2
node 16 leaf 5
"""


def test_die_machine_text_pins_numbering_and_labels():
    # ids in discovery order, leaves shared per outcome, window labels
    assert machine_to_text(build_machine(WeightedDist((1,) * 6))) == DIE_MACHINE_TEXT


def test_die_machine_has_back_edges():
    m = build_machine(WeightedDist((1, 1, 1, 1, 1, 1)))
    interior_ids = {n.id for n in m.nodes if n.kind == "interior"}
    back = [
        n for n in m.nodes
        if n.kind == "interior"
        and ((n.heads in interior_ids and n.heads <= n.id)
             or (n.tails in interior_ids and n.tails <= n.id))
    ]
    assert back, "expected at least one cycle in the die machine"


def test_interior_labels_describe_the_window():
    m = build_machine(WeightedDist((2, 1, 3, 4)))
    root = m.node(m.root)
    assert root.label == "0 | 2 3 6 | 3"
    heads = m.node(root.heads)
    assert heads.label == "0 | 4 6 | 2"


def test_exactness_over_weight_corpus():
    # the last two build 300 and 982 nodes
    corpus = (
        (1,), (1, 1), (1, 2), (1, 3), (2, 1, 3, 4),
        (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1), (5, 1, 1, 1),
        (106, 436, 54), (50, 98, 54, 6, 34, 66, 63, 52),
    )
    t0 = time.monotonic()
    for ws in corpus:
        d = WeightedDist(ws)
        a = analyze(build_machine(d))
        for i, w in enumerate(ws, start=1):
            assert a.probability(i) == F(w, d.total)
        assert a.expected_flips <= 2 * len(ws) - 2
    assert time.monotonic() - t0 < 5.0


def test_single_outcome_machine_is_one_leaf():
    m = build_machine(WeightedDist((9,)))
    assert m.size == 1
    a = analyze(m)
    assert a.outcome_prob == (F(1),)
    assert a.expected_flips == 0


def test_build_budget_is_enforced():
    with pytest.raises(MachineFormatError):
        build_machine(WeightedDist((1, 1, 1, 1, 1, 1)), max_nodes=5)


def test_machine_reads_the_successor_table_draws_left_partly_derived():
    for weights in ((54, 25, 64), (2, 1, 3, 4), (1, 1, 1, 1, 1, 1)):
        fresh = machine_to_text(build_machine(WeightedDist(weights)))
        d = WeightedDist(weights)
        run_trials(d, 3, 1)
        reached = len(d._successor_table())
        m = build_machine(d)
        assert reached < m.interior_count() == len(d._successor_table())
        assert machine_to_text(m) == fresh
        # built again, from the full table
        assert machine_to_text(build_machine(d)) == fresh


def test_machine_configurations_are_checked_when_derived(monkeypatch):
    real = CumulativeDist.check_invariant

    def check(c):
        if c.key() == (0, (4,), 1):  # the die after heads, heads
            raise WindowInvariantError("planted")
        real(c)

    monkeypatch.setattr(CumulativeDist, "check_invariant", check)
    with pytest.raises(WindowInvariantError, match="planted"):
        build_machine(WeightedDist((1,) * 6))


def test_bundled_optimal_die_machine():
    text = (
        resources.files("pgclkit").joinpath("data/knuth_yao_die.machine")
        .read_text()
    )
    m = load_machine(text)
    assert m.size == 13
    a = analyze(m)
    assert a.outcome_prob == (F(1, 6),) * 6
    assert a.expected_flips == F(11, 3)


def test_text_round_trip():
    m = build_machine(WeightedDist((2, 1, 3, 4)))
    again = load_machine(machine_to_text(m))
    assert again == m


def test_load_machine_validation_errors():
    with pytest.raises(MachineFormatError) as ei:
        load_machine("node 0 leaf 1\noutcomes 1\n")
    assert "root" in str(ei.value)
    with pytest.raises(MachineFormatError):
        load_machine("node 0 leaf 1\nroot 0\n")
    with pytest.raises(MachineFormatError) as ei:
        load_machine("node 0 interior 1 2\nroot 0\noutcomes 1\n")
    assert "missing node" in str(ei.value)
    with pytest.raises(MachineFormatError):
        load_machine("node 0 leaf 4\nroot 0\noutcomes 2\n")
    with pytest.raises(MachineFormatError) as ei:
        load_machine("frobnicate\nroot 0\noutcomes 1\n")
    assert str(ei.value).startswith("line 1")
    with pytest.raises(MachineFormatError):
        load_machine("node 0 leaf 1\nnode 0 leaf 1\nroot 0\noutcomes 1\n")


def test_unreachable_nodes_are_pruned_with_warning():
    text = (
        "outcomes 2\nroot 0\n"
        "node 0 interior 1 2\n"
        "node 1 leaf 1\n"
        "node 2 leaf 2\n"
        "node 9 leaf 2\n"
    )
    with pytest.warns(UserWarning, match="unreachable"):
        m = load_machine(text)
    assert m.size == 3
    assert all(n.id != 9 for n in m.nodes)


def test_comments_and_blanks_in_machine_files():
    text = "# a coin\noutcomes 2\n\nroot 0\nnode 0 interior 1 2  # flip\nnode 1 leaf 1\nnode 2 leaf 2\n"
    m = load_machine(text)
    assert m.size == 3
    assert analyze(m).expected_flips == 1


def test_negative_node_ids_analyze_exactly():
    # interior ids -1 and -2 must not be mistaken for leaves of outcomes 1, 2
    text = "root -1\noutcomes 2\nnode -1 interior 1 2\nnode 1 leaf 1\nnode 2 leaf 2\n"
    a = analyze(load_machine(text))
    assert a.outcome_prob == (F(1, 2), F(1, 2))
    assert a.expected_flips == 1
    text = ("root -2\noutcomes 2\nnode -2 interior -1 2\n"
            "node -1 interior 1 -2\nnode 1 leaf 1\nnode 2 leaf 2\n")
    a = analyze(load_machine(text))
    assert a.outcome_prob == (F(1, 3), F(2, 3))
    assert a.expected_flips == 2


def test_dot_output_shape():
    m = build_machine(WeightedDist((1, 1)))
    dot = to_dot(m)
    assert dot.startswith("digraph")
    assert dot.count("shape=box") == 1
    assert dot.count("shape=circle") == 2
    assert dot.count('[label="H"]') == 1
    assert dot.count('[label="T"]') == 1
    assert to_dot(m) == dot


def test_nonterminating_machine_is_rejected():
    spin = Machine(
        (MachineNode(0, "interior", heads=0, tails=0), ), root=0, outcomes=1
    )
    with pytest.raises(MachineAnalysisError) as ei:
        analyze(spin)
    assert "singular" in str(ei.value)


def test_partially_absorbing_machine_is_rejected():
    m = Machine(
        (
            MachineNode(0, "interior", heads=1, tails=2),
            MachineNode(1, "leaf", outcome=1),
            MachineNode(2, "interior", heads=2, tails=2),
        ),
        root=0, outcomes=1,
    )
    with pytest.raises(MachineAnalysisError):
        analyze(m)


def test_absorb_small_system():
    # a walk on 1, 2 absorbed at "lo" or "hi", plus a unit cost per step:
    # x1 = 1 + x2/2 + lo/2, x2 = 1 + x1/3 + 2 hi/3
    rows = {
        1: (2, {2: 1, "lo": 1, "cost": 2}),
        2: (3, {1: 1, "hi": 2, "cost": 3}),
    }
    assert absorb(rows) == (5, {
        1: {"lo": 3, "hi": 2, "cost": 9},
        2: {"lo": 1, "hi": 4, "cost": 8},
    })
    assert rows[1] == (2, {2: 1, "lo": 1, "cost": 2})  # input kept
    # 1 and 2 feed each other forever: never absorbed
    with pytest.raises(ZeroDivisionError, match="singular"):
        absorb({1: (1, {2: 1}), 2: (2, {1: 1, 2: 1})})
