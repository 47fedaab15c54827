import itertools
from fractions import Fraction

import pytest

from pgclkit import SpaceError, State, StateSpace, VarDomain, space_of

F = Fraction


def test_domain_normalizes_and_sizes():
    d = VarDomain("x", (0, 1, F(1, 2)))
    assert d.size == 3
    assert d.values == (F(0), F(1), F(1, 2))
    assert d.index_of(F(1, 2)) == 2
    assert d.index_of(F(7)) == -1


def test_domain_rejects_empty_and_duplicates():
    with pytest.raises(SpaceError):
        VarDomain("x", ())
    with pytest.raises(SpaceError):
        VarDomain("x", (1, F(1)))
    with pytest.raises(SpaceError):
        VarDomain("x", ("H", "H"))


def test_domain_rejects_floats_and_bools():
    with pytest.raises(SpaceError):
        VarDomain("x", (0.5,))
    with pytest.raises(SpaceError):
        VarDomain("x", (True,))


def test_space_enumeration_is_row_major_last_var_fastest():
    s = space_of(("a", (0, 1)), ("b", ("H", "T")))
    assert s.size == 4
    got = [tuple(s.state_at(i).values) for i in range(4)]
    assert got == [
        (F(0), "H"),
        (F(0), "T"),
        (F(1), "H"),
        (F(1), "T"),
    ]


def test_space_index_of_inverts_state_at():
    s = space_of(("a", (0, 1, 2)), ("b", ("H", "T")), ("c", (5, 7)))
    for i in range(s.size):
        assert s.index_of(s.state_at(i).values) == i


def test_space_rejects_duplicate_names():
    with pytest.raises(SpaceError):
        StateSpace((VarDomain("x", (0,)), VarDomain("x", (1,))))


def test_reindex_moves_one_coordinate():
    s = space_of(("a", (0, 1)), ("b", ("H", "T")))
    i = s.state(a=0, b="T").index
    j = s.reindex(i, s.var_pos("a"), F(1))
    assert s.state_at(j)["a"] == 1
    assert s.state_at(j)["b"] == "T"


def test_reindex_out_of_domain_is_negative():
    s = space_of(("a", (0, 1)))
    assert s.reindex(0, 0, F(9)) == -1
    assert s.reindex(0, 0, "H") == -1


def test_state_lookup_and_str():
    s = space_of(("c1", ("H", "T")), ("c2", ("H", "T")))
    st = s.state(c1="H", c2="T")
    assert st["c1"] == "H"
    assert str(st) == "{c1=H, c2=T}"
    with pytest.raises(SpaceError):
        st["nope"]


def test_state_constructor_checks_membership():
    s = space_of(("a", (0, 1)))
    with pytest.raises(SpaceError):
        s.state(a=3)
    with pytest.raises(SpaceError):
        s.state(b=0)


def test_tokens_collects_token_values():
    s = space_of(("a", (0, 1)), ("b", ("H", "T")))
    assert s.tokens() == frozenset({"H", "T"})


def test_states_iterator_matches_state_at():
    s = space_of(("a", (0, 1)), ("b", (0, 1)))
    assert [st.index for st in s.states()] == list(range(s.size))


@pytest.mark.parametrize("names", [(), ("b",), ("c", "a"), ("a", "c", "a")])
def test_projection_indexes_the_combinations_of_values(names):
    s = space_of(("a", (0, 1, 2)), ("b", ("H", "T")), ("c", (5, 7)))
    combos = list(itertools.product(*(s.domain(n).values for n in names)))
    index, firsts = s.projection([s.var_pos(n) for n in names])
    states = list(s.states())
    assert [combos[c] for c in index] == [tuple(st[n] for n in names) for st in states]
    for c, combo in enumerate(combos):
        having = [st.index for st in states if tuple(st[n] for n in names) == combo]
        assert firsts[c] == (having[0] if having else -1)
