from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from crystalpoly import (
    NEG_INF,
    Letter,
    TensorWord,
    cartan_from_matrix,
    weight,
)

import axiom_oracle
import tensor_oracle
from fuzz_oracle import check_strict_morphism
from tensor_oracle import connected_component

SL2 = cartan_from_matrix([[2]])
A2 = cartan_from_matrix([[2, -1], [-1, 2]])


def word(cartan, *letters, lam=None):
    return TensorWord(cartan, [Letter(i, x) for i, x in letters], lam)


def rightassoc_eps_phi(w, i):
    """Independent oracle: fold the two-factor rules right to left."""
    data = []
    for m in range(len(w)):
        data.append(tensor_oracle.factor_data(w, m, i))
    eps, phi, wtp = data[-1]
    for le, lp, lw in reversed(data[:-1]):
        eps = max(le, eps - lw)
        phi = max(phi, lp + wtp)
        wtp = lw + wtp
    return eps, phi, wtp


def test_neg_inf_arithmetic():
    assert NEG_INF + 5 == NEG_INF
    assert 5 + NEG_INF == NEG_INF
    assert NEG_INF - 3 == NEG_INF
    assert max(NEG_INF, 7) == 7
    assert NEG_INF < -(10**9)
    assert not NEG_INF < NEG_INF
    assert NEG_INF <= NEG_INF


def test_two_letter_fold_sl2():
    w = word(SL2, (1, -1), (1, 0))
    assert w.eps_phi_wt(1) == (2, 0, -2)


def test_single_letters():
    assert word(A2, (1, 0)).eps_phi_wt(1) == (0, 0, 0)
    assert word(A2, (1, 3)).epsilon(2) == NEG_INF
    r = TensorWord(SL2, [], weight(2))
    assert r.eps_phi_wt(1) == (-2, 0, 2)


def test_lowering_kills_past_unit():
    # a free-mode string tensored with a weight-2 unit dies on the third step
    w = word(SL2, (1, 0), (1, 0), (1, 0), lam=weight(2))
    first = w.f(1)
    second = first.f(1)
    assert second is not None
    assert second.f(1) is None


def test_lowering_picks_rightmost_on_ties():
    w = word(A2, (1, 0), (2, 0), (1, 0))
    assert w.f(1) == word(A2, (1, 0), (2, 0), (1, -1))
    assert w.f(1).e(1) == w


def test_raising_elementary():
    assert word(A2, (1, 0)).e(1) == word(A2, (1, 1))
    assert word(A2, (1, 0)).e(2) is None
    assert word(SL2, (1, 0), lam=weight(0)).f(1) is None
    # the zero-letter string: a bare unit letter is killed by every operator
    top = TensorWord(SL2, [], weight(2))
    assert top.e(1) is None and top.f(1) is None


def test_connected_component_sl2_unit():
    seed = word(SL2, (1, 0), (1, 0), (1, 0), lam=weight(2))
    graph = connected_component(seed, 5)
    assert len(graph) == 3
    assert all(i == 1 for _, i, _ in graph.edges)


def test_connected_component_free_chain():
    seed = word(SL2, *[(1, 0)] * 6)
    graph = connected_component(seed, 5)
    assert len(graph) == 6
    assert len(graph.edges) == 5


def test_connected_component_depth_zero():
    seed = word(A2, (1, 0), (2, 0))
    graph = connected_component(seed, 0)
    assert len(graph) == 1 and not graph.edges


def test_graph_exports_roundtrip():
    seed = word(A2, (1, 0), (2, 0), lam=weight(1, 0))
    graph = connected_component(seed, 2)
    data = graph.to_json_dict()
    assert data["root"] == 0
    rebuilt = [TensorWord.from_json_obj(A2, obj) for obj in data["nodes"]]
    assert rebuilt == list(graph.nodes)
    dot = graph.to_dot()
    assert dot.startswith("digraph") and 'label="1"' in dot


@pytest.mark.parametrize(
    "obj", [[[1, 2.9]], [[1.5, 0]], [[1, 0], ["r", [1, 0.5]]], [[1, 1e400]]])
def test_json_letters_must_be_integers(obj):
    with pytest.raises(ValueError, match="expected an integer"):
        TensorWord.from_json_obj(A2, obj)


@pytest.mark.parametrize(
    "obj", [[["r", [1, 0]], [1, 2]], [[1, 2], ["r", [1, 0]], ["r", [0, 5]]]],
    ids=["unit-first", "second-unit"])
def test_json_unit_letter_only_last(obj):
    with pytest.raises(ValueError, match="must be the last entry"):
        TensorWord.from_json_obj(A2, obj)


@pytest.mark.parametrize("letter", [Letter(1, 0.5), Letter(2, True), Letter(True, 0), Letter(1.0, 0)],
                         ids=["fractional-value", "bool-value", "bool-index", "float-index"])
def test_constructor_letters_must_be_integers(letter):
    with pytest.raises(ValueError, match="must be integers"):
        TensorWord(A2, [Letter(1, 0), letter])


def test_identity_is_strict():
    sample = [word(A2, (1, a), (2, b)) for a in (-1, 0, 2) for b in (-2, 1)]
    assert check_strict_morphism(lambda b: b, sample, A2.indices) == []


def test_letter_swap_is_not_strict():
    # swapping the two factors is not a morphism when the indices interact
    def swap(b):
        if b is None:
            return None
        x, y = b.letters
        return TensorWord(A2, [Letter(y.index, y.value), Letter(x.index, x.value)])

    sample = [word(A2, (1, a), (2, b)) for a in range(-2, 3) for b in range(-2, 3)]
    assert check_strict_morphism(swap, sample, A2.indices)


@st.composite
def tensor_words(draw):
    c1 = draw(st.sampled_from([0, 1, 2, 3]))
    c2 = draw(st.sampled_from([0, 1])) if c1 else 0
    if c1 and not c2:
        c2 = 1
    cartan = cartan_from_matrix([[2, -c1], [-c2, 2]])
    n = draw(st.integers(1, 5))
    letters = [
        (draw(st.integers(1, 2)), draw(st.integers(-4, 4))) for _ in range(n)
    ]
    lam = draw(st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))))
    return word(cartan, *letters, lam=None if lam is None else weight(*lam))


@settings(max_examples=150, deadline=None)
@given(tensor_words())
def test_axioms_on_random_words(w):
    # the accessors the oracle checker reads, with the word as their first argument
    words = SimpleNamespace(
        cartan=w.cartan, epsilon=TensorWord.epsilon, phi=TensorWord.phi,
        weight_pairings=TensorWord.weight_pairings, f=TensorWord.f, e=TensorWord.e,
    )
    assert axiom_oracle.check_crystal_axioms(words, [w]) == []


@settings(max_examples=150, deadline=None)
@given(tensor_words())
def test_left_and_right_association_agree(w):
    for i in w.cartan.indices:
        assert w.eps_phi_wt(i) == rightassoc_eps_phi(w, i)


def pairwise_action(w, i, lowering):
    """Independent oracle: literal recursion on (prefix) x (last factor)."""
    delta = -1 if lowering else +1
    if len(w) == 1:
        return w._apply(i, 0, delta)
    if w.unit is not None:
        prefix = TensorWord(w.cartan, w.letters, None)
        last_eps = -w.unit.pairing(i)
    else:
        prefix = TensorWord(w.cartan, w.letters[:-1], None)
        last = w.letters[-1]
        last_eps = -last.value if last.index == i else NEG_INF
    goes_right = prefix.phi(i) <= last_eps if lowering else prefix.phi(i) < last_eps
    if goes_right:
        return w._apply(i, len(w) - 1, delta)
    sub = pairwise_action(prefix, i, lowering)
    if sub is None:
        return None
    tail = (w.letters[-1],) if w.unit is None else ()
    return TensorWord(w.cartan, tuple(sub.letters) + tail, w.unit)


@settings(max_examples=120, deadline=None)
@given(tensor_words())
def test_actions_match_pairwise_recursion(w):
    for i in w.cartan.indices:
        assert w.f(i) == pairwise_action(w, i, lowering=True)
        assert w.e(i) == pairwise_action(w, i, lowering=False)


@settings(max_examples=100, deadline=None)
@given(tensor_words())
def test_phi_is_eps_plus_pairing(w):
    for i in w.cartan.indices:
        eps, phi, wtp = w.eps_phi_wt(i)
        if eps != NEG_INF:
            assert phi == eps + wtp
        else:
            assert phi == NEG_INF


def test_depth_layers_count_lowering_steps():
    seed = word(A2, (1, 0), (2, 0), (1, 0), lam=weight(1, 1))
    graph = connected_component(seed, 4)
    base = seed.weight_pairings()
    for node, depth in zip(graph.nodes, graph.depths):
        drop = sum(base) - sum(node.weight_pairings())
        # each lowering step lowers the total pairing sum by a column sum
        assert depth <= 4
        assert (drop == 0) == (depth == 0)


PROFILES = [(0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]  # a2, b2/c2, g2 pairings


@st.composite
def oracle_words(draw):
    """Rank 1-3 words of 0-7 letters, often with no letter of some index."""
    rank = draw(st.integers(1, 3))
    matrix = [[2 if a == b else 0 for b in range(rank)] for a in range(rank)]
    for a in range(rank):
        for b in range(a + 1, rank):
            c1, c2 = draw(st.sampled_from(PROFILES))
            matrix[a][b], matrix[b][a] = -c1, -c2
    cartan = cartan_from_matrix(matrix)
    absent = draw(st.one_of(st.none(), st.integers(1, rank)))
    present = [k for k in cartan.indices if k != absent]
    n = draw(st.integers(0, 7)) if present else 0
    letters = [(draw(st.sampled_from(present)), draw(st.integers(-6, 6))) for _ in range(n)]
    lam = draw(st.one_of(st.none(), st.lists(st.integers(-3, 4), min_size=rank, max_size=rank)))
    return word(cartan, *letters, lam=None if lam is None else weight(*lam))


@settings(max_examples=300, deadline=None)
@given(w=oracle_words(), data=st.data())
def test_fold_matches_per_factor_oracle(w, data):
    # calls in a shuffled order on one word: a kept fold must answer each
    # (operation, index) exactly as a fresh per-factor fold does
    ops = ("eps_phi_wt", "f", "e", "epsilon", "phi")
    calls = [(op, i) for op in ops for i in w.cartan.indices] + [("weight_pairings", None)]
    for op, i in data.draw(st.permutations(calls)):
        if i is None:
            pairings = tuple(tensor_oracle.eps_phi_wt(w, j)[2] for j in w.cartan.indices)
            assert w.weight_pairings() == pairings
            continue
        eps, phi, wtp = tensor_oracle.eps_phi_wt(w, i)
        expected = {
            "eps_phi_wt": (eps, phi, wtp),
            "f": tensor_oracle.f(w, i),
            "e": tensor_oracle.e(w, i),
            "epsilon": eps,
            "phi": phi,
        }[op]
        assert getattr(w, op)(i) == expected
    for i in w.cartan.indices:
        if w.unit is None and all(l.index != i for l in w.letters):
            assert w.epsilon(i) == NEG_INF and w.phi(i) == NEG_INF


# -- the index and value tuples at their edges --------------------------------

def assert_tuples_match_letters(w):
    assert type(w.indices) is tuple and type(w.values) is tuple
    assert len(w.indices) == len(w.values) == len(w) - (w.unit is not None)
    assert type(w.letters) is tuple and all(type(l) is Letter for l in w.letters)
    assert w.letters == tuple(map(Letter, w.indices, w.values))


def test_empty_word():
    w = TensorWord(A2, [])
    assert w.indices == w.values == w.letters == () and len(w) == 0
    assert w.label() == "()" and w.to_json_obj() == [] and repr(w) == "TensorWord(())"
    assert w == TensorWord(A2, iter(())) and hash(w) == hash(TensorWord(A2, ()))
    assert w != TensorWord(A2, [], weight(0, 0))
    for i in A2.indices:
        assert w.eps_phi_wt(i) == (NEG_INF, NEG_INF, 0) == tensor_oracle.eps_phi_wt(w, i)
        assert w.f(i) is None and w.e(i) is None
    assert w.weight_pairings() == (0, 0)
    assert TensorWord.from_json_obj(A2, w.to_json_obj()) == w
    assert_tuples_match_letters(w)


def test_unit_only_word():
    w = TensorWord(A2, [], weight(2, 1))
    assert w.indices == w.values == w.letters == () and len(w) == 1
    assert w.label() == "r2,1" and w.to_json_obj() == [["r", [2, 1]]]
    assert w == TensorWord(A2, (), weight(2, 1))
    assert hash(w) == hash(TensorWord(A2, (), weight(2, 1)))
    assert w != TensorWord(A2, [], weight(1, 2)) and w != TensorWord(A2, [])
    assert w.eps_phi_wt(1) == (-2, 0, 2) and w.eps_phi_wt(2) == (-1, 0, 1)
    for i in A2.indices:
        assert w.eps_phi_wt(i) == tensor_oracle.eps_phi_wt(w, i)
        assert w.f(i) is None and w.e(i) is None  # the operators kill the unit letter
    assert TensorWord.from_json_obj(A2, w.to_json_obj()) == w
    assert_tuples_match_letters(w)


@pytest.mark.parametrize("lam", [(0, 0), (1, 0), (0, 2), (3, 1)])
def test_trailing_unit_letter(lam):
    w = word(A2, (1, 0), (2, -1), (1, 1), lam=weight(*lam))
    assert w.label() == "(0)1 (-1)2 (1)1 r" + ",".join(map(str, lam))
    assert w != word(A2, (1, 0), (2, -1), (1, 1))
    seen = []
    for i in A2.indices:
        for op in ("f", "e"):
            out = getattr(w, op)(i)
            assert out == getattr(tensor_oracle, op)(w, i)
            if out is not None:
                # one value changes; the indices and the unit are the parent's
                assert out.indices == w.indices and out.unit == w.unit
                assert sum(a != b for a, b in zip(out.values, w.values)) == 1
                assert_tuples_match_letters(out)
                seen.append(out)
    assert seen  # at least one operator acts on a letter here
    assert_tuples_match_letters(w)


@settings(max_examples=150, deadline=None)
@given(oracle_words())
def test_letters_are_built_from_the_tuples(w):
    assert_tuples_match_letters(w)
    assert w == TensorWord(w.cartan, w.letters, w.unit)
    assert hash(w) == hash(TensorWord(w.cartan, w.letters, w.unit))
    for i in w.cartan.indices:
        for out in (w.f(i), w.e(i)):
            if out is not None:
                assert_tuples_match_letters(out)
                assert out == TensorWord.from_json_obj(w.cartan, out.to_json_obj())
