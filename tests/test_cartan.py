import copy
import pickle
import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

from crystalpoly import (
    CartanData, IndexSequence, Weight, cartan_from_matrix, get_builtin, weight,
)
from crystalpoly.cartan import an_cartan, exact_int, rank2_cartan

import sequence_oracle
from root_oracle import truncation_check, weyl_length


A3_WORD = IndexSequence((1, 2, 3, 2, 1, 2), 3)  # ..212321 read right to left
RANK2 = IndexSequence((1, 2), 2)


def test_cartan_validation():
    a2 = cartan_from_matrix([[2, -1], [-1, 2]])
    assert a2.rank == 2 and a2.a(1, 2) == -1
    affine = cartan_from_matrix([[2, -2], [-2, 2]])
    assert affine.a(2, 1) == -2
    g2 = cartan_from_matrix([[2, -1], [-3, 2]])
    assert (-g2.a(1, 2), -g2.a(2, 1)) == (1, 3)


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -1]],  # not square
        [[1, -1], [-1, 2]],  # bad diagonal
        [[2, 1], [-1, 2]],  # positive off-diagonal
        [[2, 0], [-1, 2]],  # asymmetric zero pattern
    ],
)
def test_cartan_rejects(matrix):
    with pytest.raises(ValueError):
        cartan_from_matrix(matrix)


def test_weight_dominance():
    assert weight(1, 0).dominant
    assert not weight(1, -1).dominant
    assert weight(2).pairing(1) == 2


@pytest.mark.parametrize("pairings", [5, None, 1.5], ids=["int", "null", "float"])
def test_weight_refuses_a_non_iterable(pairings):
    with pytest.raises(ValueError, match=f"^a weight is a list of integers, got {pairings!r}$"):
        Weight(pairings)


def test_weight_value_contract():
    w = weight(2, 0, -1)
    assert not hasattr(w, "__dict__")
    assert w == (2, 0, -1) and w == tuple(w) and hash(w) == hash(tuple(w))
    assert (w.rank, w.pairing(3), w.dominant) == (3, -1, False)
    for copied in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert type(copied) is Weight and copied == w and hash(copied) == hash(w)
    assert weight(2.0) == (2,) and type(weight(2.0)[0]) is int
    for bad in ((1.5,), ("2",), (True, 0)):
        with pytest.raises(ValueError, match="expected an integer"):
            Weight(bad)
    with pytest.raises(ValueError, match="expected an integer"):
        weight(1.5)


def test_sequence_requires_all_indices():
    with pytest.raises(ValueError):
        IndexSequence((1, 1), 2)
    with pytest.raises(ValueError):
        IndexSequence((1, 3), 2)


def test_next_occurrence_examples():
    assert A3_WORD.next_occurrence(2) == 4
    assert A3_WORD.next_occurrence(1) == 5
    assert RANK2.next_occurrence(1) == 3


def test_prev_occurrence_examples():
    assert A3_WORD.prev_occurrence(5) == 1
    assert A3_WORD.prev_occurrence(4) == 2
    assert A3_WORD.prev_occurrence(1) == 0
    assert A3_WORD.prev_occurrence(2) == 0
    assert A3_WORD.prev_occurrence(3) == 0


def test_first_occurrence_examples():
    assert RANK2.first_occurrence(1) == 1
    assert RANK2.first_occurrence(2) == 2
    assert A3_WORD.first_occurrence(3) == 3


def test_from_string_leftmost_is_first():
    seq = IndexSequence.from_string("1 2 3 2 1 2", 3)
    assert seq.period == (1, 2, 3, 2, 1, 2)
    assert IndexSequence.from_string("1,2", 2).period == (1, 2)


@pytest.mark.parametrize("text, token", [
    ("1 \u0663 2", "\u0663"), ("1_0 2", "1_0"), ("+1 2", "+1"), ("1.0 2", "1.0"),
    ("1 \uff12", "\uff12"),
])
def test_from_string_reads_ascii_decimal_tokens_only(text, token):
    message = f"expected an ASCII decimal integer, got {token!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IndexSequence.from_string(text, 2)


@st.composite
def sequences(draw):
    rank = draw(st.integers(1, 4))
    extra = draw(st.lists(st.integers(1, rank), max_size=6))
    base = list(range(1, rank + 1))
    period = draw(st.permutations(base + extra))
    return IndexSequence(tuple(period), rank)


@given(sequences(), st.data())
def test_occurrences_match_scan_oracle(seq, data):
    top = 5 * len(seq)
    k = data.draw(st.integers(1, top))
    assert seq.next_occurrence(k) == sequence_oracle.next_occurrence(seq, k)
    assert seq.prev_occurrence(k) == sequence_oracle.prev_occurrence(seq, k)
    after = data.draw(st.integers(0, top))
    for i in range(1, seq.rank + 1):
        assert seq.next_position_of(i, after) == sequence_oracle.next_position_of(seq, i, after)
    bad = data.draw(st.integers(-top, 0))
    for lookup in (seq.index_at, seq.next_occurrence, seq.prev_occurrence):
        with pytest.raises(ValueError):
            lookup(bad)
    with pytest.raises(ValueError):
        seq.next_position_of(1, bad - 1)


@given(sequences(), st.data())
def test_last_occurrence_table_matches_positions_of(seq, data):
    m = len(seq)
    p = data.draw(st.integers(0, 5 * m))
    for i in range(1, seq.rank + 1):
        back = seq._last_of[i - 1][p % m]
        assert 0 <= back < m
        below = seq.positions_of(i, p)
        if below:
            assert p - back == below[-1]
        else:  # the last i of the period before position 1
            assert p - back == seq.positions_of(i, m)[-1] - m


@given(sequences(), st.integers(1, 40))
def test_occurrence_roundtrips(seq, k):
    kp = seq.next_occurrence(k)
    assert seq.prev_occurrence(kp) == k
    km = seq.prev_occurrence(k)
    if km > 0:
        assert seq.next_occurrence(km) == k
    assert kp - k <= len(seq)


def test_offset_tables_stay_out_of_equality():
    assert IndexSequence((1, 2, 1), 2) == IndexSequence((1, 2, 1), 2)
    assert hash(IndexSequence((1, 2, 1), 2)) == hash(IndexSequence((1, 2, 1), 2))
    assert repr(RANK2) == "IndexSequence(period=(1, 2), rank=2)"


@given(sequences())
def test_first_occurrence_is_minimal(seq):
    for i in range(1, seq.rank + 1):
        k = seq.first_occurrence(i)
        assert seq.index_at(k) == i
        assert seq.prev_occurrence(k) == 0
        assert all(seq.index_at(l) != i for l in range(1, k))


def test_shared_builders():
    assert rank2_cartan(1, 3).matrix == ((2, -1), (-3, 2))
    assert an_cartan(3).matrix == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert an_cartan(1).matrix == ((2,),)


@pytest.mark.parametrize(
    "obj",
    [
        [1],
        {"matrix": 5},
        {"matrix": [[None]]},
        {"matrix": [[2]], "labels": 5},
        {"matrix": [[2, -1.7], [-1, 2]]},  # int() would truncate this to A2
        {"matrix": [[2, 1e400], [-1, 2]]},  # JSON reads 1e400 as inf; int(inf) overflows
        {"matrix": [[2, float("nan")], [-1, 2]]},
        {"matrix": [[2, "-1"], [-1, 2]]},
        {"matrix": [[2, -1], [-1, 2]], "labels": "ab"},  # str() of each character
        {"matrix": [[2, -1], [-1, 2]], "labels": {"x": 1, "y": 2}},  # str() of each key
        {"matrix": [[2, -1], [-1, 2]], "labels": ["a", 2]},
        {"matrix": [[2]], "rank": True},  # true == 1 would pass as the declared rank
        {"rank": 2},
    ],
)
def test_malformed_json_is_cartan_error(obj):
    with pytest.raises(ValueError):
        CartanData.from_json_dict(obj)


@pytest.mark.parametrize("value", [
    1.5, 2.9, -0.5, 1e400, float("nan"), "2", None, True, False,
    # values int() itself refuses: its own messages must not leak out
    pytest.param("x", id="str-x"), pytest.param("1.5", id="str-1.5"),
    pytest.param("", id="empty-str"), pytest.param([1], id="list"), pytest.param({}, id="dict"),
])
def test_exact_int_refuses_what_int_would_change(value):
    with pytest.raises(ValueError, match=r"^expected an integer, got "):
        exact_int(value)


def test_exact_int_keeps_integral_values():
    assert [exact_int(v) for v in (3, -2, 4.0, 0.0)] == [3, -2, 4, 0]


# (builtin, longest length N, number of reduced words of w0)
REDUCED_WORD_COUNTS = [("a1", 1, 1), ("a2", 3, 2), ("a3", 6, 16), ("b2", 4, 2), ("c2", 4, 2),
                       ("g2", 6, 2)]


@pytest.mark.parametrize("name, longest, count", REDUCED_WORD_COUNTS)
def test_is_reduced_matches_the_root_oracle(name, longest, count):
    """Every word up to one letter past N: reduced exactly when its product
    negates as many positive roots as it has letters; none past N is."""
    cartan = get_builtin(name).cartan
    reduced = {}
    for k in range(longest + 2):
        for word in product(cartan.indices, repeat=k):
            got = cartan.is_reduced(word)
            assert got == (weyl_length(cartan, word) == k), word
            if got:
                reduced.setdefault(k, []).append(word)
    assert len(reduced[longest]) == count and longest + 1 not in reduced
    for word in reduced[longest]:  # the support fact verify's cut rests on
        assert truncation_check(cartan, word, 5).ok, word


def test_is_reduced_outside_finite_type():
    """Affine A1 has no longest element: a word is reduced exactly when no
    letter repeats the one before it."""
    cartan = get_builtin("a1tilde").cartan
    for k in range(9):
        for word in product((1, 2), repeat=k):
            assert cartan.is_reduced(word) == all(a != b for a, b in zip(word, word[1:]))


@pytest.mark.parametrize("word", [(1, 3), (0,), (-1, 1)])
def test_is_reduced_refuses_a_letter_outside_the_datum(word):
    with pytest.raises(ValueError, match=r"^word entries must lie in 1\.\.2$"):
        get_builtin("a2").cartan.is_reduced(word)
