import pytest
from hypothesis import given, strategies as st

from crystalpoly import CartanData, CartanError, IndexSequence, cartan_from_matrix, weight
from crystalpoly.cartan import an_cartan, rank2_cartan


A3_WORD = IndexSequence((1, 2, 3, 2, 1, 2), 3)  # ..212321 read right to left
RANK2 = IndexSequence((1, 2), 2)


def naive_next(seq, k):
    """Scan oracle: first position above k carrying the same index."""
    l = k + 1
    while seq.index_at(l) != seq.index_at(k):
        l += 1
    return l


def naive_prev(seq, k):
    for l in range(k - 1, 0, -1):
        if seq.index_at(l) == seq.index_at(k):
            return l
    return 0


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
    with pytest.raises(CartanError):
        cartan_from_matrix(matrix)


def test_weight_dominance():
    assert weight(1, 0).dominant
    assert not weight(1, -1).dominant
    assert weight(2).pairing(1) == 2


def test_sequence_requires_all_indices():
    with pytest.raises(CartanError):
        IndexSequence((1, 1), 2)
    with pytest.raises(CartanError):
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


@st.composite
def sequences(draw):
    rank = draw(st.integers(1, 4))
    extra = draw(st.lists(st.integers(1, rank), max_size=6))
    base = list(range(1, rank + 1))
    period = draw(st.permutations(base + extra))
    return IndexSequence(tuple(period), rank)


@given(sequences(), st.integers(1, 40))
def test_occurrences_match_scan_oracle(seq, k):
    assert seq.next_occurrence(k) == naive_next(seq, k)
    assert seq.prev_occurrence(k) == naive_prev(seq, k)


@given(sequences(), st.integers(1, 40))
def test_occurrence_roundtrips(seq, k):
    kp = seq.next_occurrence(k)
    assert seq.prev_occurrence(kp) == k
    km = seq.prev_occurrence(k)
    if km > 0:
        assert seq.next_occurrence(km) == k
    assert kp - k <= len(seq)


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
    "obj", [[1], {"matrix": 5}, {"matrix": [[None]]}, {"matrix": [[2]], "labels": 5}]
)
def test_malformed_json_is_cartan_error(obj):
    with pytest.raises(CartanError):
        CartanData.from_json_dict(obj)
