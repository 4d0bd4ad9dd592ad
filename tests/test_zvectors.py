import copy
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from crystalpoly import (
    BraidContext,
    IndexSequence,
    SequenceCrystal,
    ZVector,
    check_crystal_axioms,
    get_builtin,
    transport,
    weight,
)
from crystalpoly.zvectors import dict_coords, json_positions
from tensor_oracle import bfs_graph, from_tensor_word, to_tensor_word

SL2 = get_builtin("a1")
A2 = get_builtin("a2")
A1T = get_builtin("a1tilde")
A3 = get_builtin("a3")
IOTA0 = IndexSequence((1, 2, 3, 2, 1, 2), 3)


def vec(crystal, **coords):
    return ZVector.from_dict(
        {int(k[1:]): v for k, v in coords.items()}, crystal.lam
    )


def naive_sigma(crystal, x, k):
    """Direct-sum oracle over an explicit window."""
    top = max([k] + list(x.support)) + 1
    ik = crystal.seq.index_at(k)
    return x.get(k) + sum(
        crystal.cartan.a(ik, crystal.seq.index_at(j)) * x.get(j)
        for j in range(k + 1, top + 1)
    )


def test_sigma_examples():
    c = SequenceCrystal(SL2.cartan, SL2.iota)
    x = vec(c, x1=1)
    assert c.sigma(x, 1) == 1
    assert c.sigma(x, 2) == 0
    assert all(c.sigma(c.zero(), k) == 0 for k in range(1, 6))
    c3 = SequenceCrystal(A3.cartan, IOTA0)
    y = vec(c3, x1=1)
    assert c3.sigma(y, 1) == 1
    assert c3.sigma(y, 5) == 0


def test_sigma0_examples():
    c = SequenceCrystal(SL2.cartan, SL2.iota, weight(2))
    assert c.sigma_0(c.zero(), 1) == -2
    assert c.sigma_0(vec(c, x1=1), 1) == 0
    czero = SequenceCrystal(A2.cartan, A2.iota, weight(0, 0))
    assert czero.sigma_0(czero.zero(), 1) == 0
    free = SequenceCrystal(SL2.cartan, SL2.iota)
    with pytest.raises(ValueError):
        free.sigma_0(free.zero(), 1)


def test_m_set_examples():
    free = SequenceCrystal(A2.cartan, A2.iota)
    ms = free.m_set(free.zero(), 2)
    assert ms == (0, 2, None)
    sl2 = SequenceCrystal(SL2.cartan, SL2.iota)
    assert sl2.m_set(vec(sl2, x1=1), 1) == (1, 1, 1)
    aff = SequenceCrystal(A1T.cartan, A1T.iota)
    ms = aff.m_set(vec(aff, x1=2, x2=1), 1)
    assert ms.sigma == 0 and ms.max_pos is None and ms.min_pos == 1


def test_lowering_chain_with_weight():
    c = SequenceCrystal(SL2.cartan, SL2.iota, weight(2))
    x = c.zero()
    for expected in (1, 2):
        x = c.f(x, 1)
        assert x.get(1) == expected
    assert c.f(x, 1) is None


def test_lowering_never_stops_in_free_mode():
    c = SequenceCrystal(SL2.cartan, SL2.iota)
    x = c.zero()
    for _ in range(3):
        x = c.f(x, 1)
    assert x.get(1) == 3


def test_zero_weight_is_a_point():
    c = SequenceCrystal(A2.cartan, A2.iota, weight(0, 0))
    assert c.f(c.zero(), 1) is None and c.f(c.zero(), 2) is None


def test_raising_examples():
    c = SequenceCrystal(SL2.cartan, SL2.iota, weight(2))
    assert c.e(c.zero(), 1) is None
    free = SequenceCrystal(A2.cartan, A2.iota)
    assert free.e(free.zero(), 1) is None
    assert c.e(vec(c, x1=2), 1) == vec(c, x1=1)


def test_wt_eps_phi():
    def wt_eps_phi(crystal, x):
        indices = crystal.cartan.indices
        return (crystal.weight_pairings(x), tuple(crystal.epsilon(x, i) for i in indices),
                tuple(crystal.phi(x, i) for i in indices))

    c = SequenceCrystal(A2.cartan, A2.iota, weight(1, 2))
    wt, eps, phi = wt_eps_phi(c, c.zero())
    assert wt == (1, 2) and eps == (0, 0) and phi == (1, 2)
    free = SequenceCrystal(SL2.cartan, SL2.iota)
    wt, eps, phi = wt_eps_phi(free, vec(free, x1=3))
    assert wt == (-6,) and eps == (3,) and phi == (-3,)
    czero = SequenceCrystal(SL2.cartan, SL2.iota, weight(0))
    assert wt_eps_phi(czero, czero.zero()) == ((0,), (0,), (0,))


def test_bfs_counts():
    for m in range(4):
        c = SequenceCrystal(SL2.cartan, SL2.iota, weight(m))
        assert len(c.bfs(m + 3)) == m + 1
    c = SequenceCrystal(A2.cartan, A2.iota, weight(1, 0))
    graph = c.bfs(5)
    assert {n.label() for n in graph.nodes} == {"0", "x1=1", "x1=1,x2=1"}
    assert len(SequenceCrystal(A2.cartan, A2.iota).bfs(0)) == 1


# (builtin, iota or None for its own, two weights); free mode is run for each too
BFS_PARITY = [
    ("a2", None, ((1, 0), (1, 1))),
    ("b2", None, ((1, 0), (1, 1))),
    ("c2", None, ((0, 1), (1, 1))),
    ("g2", None, ((1, 0), (0, 1))),
    ("a1tilde", None, ((1, 1), (2, 0))),
    ("a3", None, ((0, 1, 0), (1, 1, 0))),
    ("a3", (1, 2, 3, 2, 1, 2), ((0, 1, 0), (1, 0, 1))),
    ("a4", None, ((1, 0, 0, 1), (0, 1, 1, 0))),
]


def _parity_crystals():
    for name, iota, lams in BFS_PARITY:
        builtin = get_builtin(name)
        cartan, seq, tag = builtin.cartan, builtin.iota, name
        if iota:
            seq = IndexSequence(iota, cartan.rank)
            tag += "-" + "".join(map(str, iota))
        yield pytest.param(SequenceCrystal(cartan, seq), id=f"{tag}-free")
        for c in lams:
            yield pytest.param(SequenceCrystal(cartan, seq, weight(*c)),
                               id=f"{tag}-{''.join(map(str, c))}")


@pytest.mark.parametrize("crystal", _parity_crystals())
def test_bfs_matches_the_generic_closure(crystal):
    def oracle(depth):
        return bfs_graph(crystal.zero(), crystal.cartan.indices, crystal.f, depth)

    for depth in range(7):
        got, want = crystal.bfs(depth), oracle(depth)
        assert got.nodes == want.nodes
        assert (got.edges, got.depths, got.root) == (want.edges, want.depths, want.root)
    for closure in (crystal.bfs, oracle):
        with pytest.raises(ValueError, match=r"^depth must be >= 0$"):
            closure(-1)


@pytest.mark.parametrize("crystal", _parity_crystals())
def test_closure_keys_are_the_bfs_coords_in_order(crystal):
    for depth in range(7):
        closure = crystal.closure(depth)
        assert list(closure) == [n.coords for n in crystal.bfs(depth).nodes]
        assert list(closure.values()) == list(range(len(closure)))
    with pytest.raises(ValueError, match=r"^depth must be >= 0$"):
        crystal.closure(-1)


def test_bfs_nodes_stay_nonnegative_with_bounded_support():
    crystal = SequenceCrystal(A2.cartan, A2.iota)
    for node in crystal.bfs(6).nodes:
        assert all(v >= 0 for _, v in node.coords)
        assert node.max_pos <= 3


def test_repeated_index_position_stays_zero():
    seq = IndexSequence((1, 1, 2), 2)
    crystal = SequenceCrystal(A2.cartan, seq)
    for node in crystal.bfs(5).nodes:
        assert node.get(2) == 0


def test_each_step_shifts_weight_by_one_column():
    crystal = SequenceCrystal(A3.cartan, A3.iota, weight(1, 1, 1))
    graph = crystal.bfs(4)
    for s, i, d in graph.edges:
        before = crystal.weight_pairings(graph.nodes[s])
        after = crystal.weight_pairings(graph.nodes[d])
        for j in A3.cartan.indices:
            assert after[j - 1] == before[j - 1] - A3.cartan.a(j, i)


@pytest.mark.parametrize("lam", [None, (1, 1), (2, 0)])
def test_axiom_suite_on_bfs_nodes(lam):
    lam_w = None if lam is None else weight(*lam)
    crystal = SequenceCrystal(A2.cartan, A2.iota, lam_w)
    graph = crystal.bfs(5)
    assert check_crystal_axioms(crystal, graph) == []


def test_epsilon_counts_raising_orbit_in_weight_mode():
    crystal = SequenceCrystal(A2.cartan, A2.iota, weight(1, 2))
    for node in crystal.bfs(6).nodes:
        for i in (1, 2):
            steps, cur = 0, crystal.e(node, i)
            while cur is not None:
                steps += 1
                cur = crystal.e(cur, i)
            assert crystal.epsilon(node, i) == steps


def test_edges_are_two_sided():
    crystal = SequenceCrystal(A1T.cartan, A1T.iota, weight(1, 1))
    graph = crystal.bfs(4)
    for s, i, d in graph.edges:
        assert crystal.f(graph.nodes[s], i) == graph.nodes[d]
        assert crystal.e(graph.nodes[d], i) == graph.nodes[s]


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(st.integers(1, 6), st.integers(0, 4), max_size=4),
    st.integers(1, 8),
)
def test_sigma_matches_naive_oracle(coords, k):
    crystal = SequenceCrystal(A3.cartan, A3.iota)
    x = ZVector.from_dict(coords, crystal.lam)
    assert crystal.sigma(x, k) == naive_sigma(crystal, x, k)


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(st.integers(1, 5), st.integers(0, 3), max_size=3))
def test_lower_then_raise_roundtrip(coords):
    for lam in (None, weight(1, 1)):
        crystal = SequenceCrystal(A1T.cartan, A1T.iota, lam)
        x = ZVector.from_dict(coords, crystal.lam)
        for i in (1, 2):
            y = crystal.f(x, i)
            if y is not None:
                assert crystal.e(y, i) == x


def test_tensor_bridge_intertwines():
    """Truncation to a finite word matches the sequence structure:
    lowering everywhere, raising wherever the sequence side is nonzero."""
    for lam in (None, weight(1, 1)):
        crystal = SequenceCrystal(A2.cartan, A2.iota, lam)
        for node in crystal.bfs(4).nodes:
            w = to_tensor_word(crystal, node, 6)
            assert from_tensor_word(crystal, w) == node
            for i in (1, 2):
                zf = crystal.f(node, i)
                tf = w.f(i)
                if zf is None:
                    assert tf is None
                else:
                    assert tf == to_tensor_word(crystal, zf, 6)
                ze = crystal.e(node, i)
                if ze is not None:
                    assert w.e(i) == to_tensor_word(crystal, ze, 6)


def test_json_roundtrip():
    crystal = SequenceCrystal(A2.cartan, A2.iota, weight(1, 0))
    x = vec(crystal, x1=2, x3=1)
    assert ZVector.from_json_obj(x.to_json_obj()) == x
    free = SequenceCrystal(A2.cartan, A2.iota)
    y = vec(free, x2=5)
    assert ZVector.from_json_obj(y.to_json_obj()) == y
    assert y.to_json_obj()["mode"] == "binf"


@pytest.mark.parametrize(
    "obj",
    [
        {"coords": {"1": 1.5}},
        {"coords": {"2": 1e400}},
        {"coords": {"1": 1}, "mode": {"lambda": [1, 0.5]}},
    ],
)
def test_json_values_must_be_integers(obj):
    with pytest.raises(ValueError, match="expected an integer"):
        ZVector.from_json_obj(obj)


@pytest.mark.parametrize("key", ["1_0", " 3", "3 ", "\u0663", "\u00b2", "+2", "1.0", "0x1", "", 1])
def test_json_keys_must_be_ascii_decimal_positions(key):
    with pytest.raises(ValueError, match=r"^a coordinate key must be an ASCII decimal position"):
        ZVector.from_json_obj({"coords": {key: 1}})


@pytest.mark.parametrize("coords, pos", [({"1": 1, "01": 2}, 1), ({"3": 0, "003": 1}, 3)])
def test_json_refuses_a_repeated_position(coords, pos):
    with pytest.raises(ValueError, match=rf"^position {pos} is given twice$"):
        ZVector.from_json_obj({"coords": coords})


@pytest.mark.parametrize("coords", [[1, 2], None, 3])
def test_json_coords_must_be_an_object(coords):
    with pytest.raises(ValueError, match="^coords must map positions to values$"):
        ZVector.from_json_obj({"coords": coords})


def test_json_needs_coords():
    with pytest.raises(ValueError, match="^coords must map positions to values$"):
        ZVector.from_json_obj({"mode": "binf"})


@pytest.mark.parametrize("mode", ["free", None, 5, ["binf"], {"lam": [1]},
                                  {"lambda": [1], "x": 1}],
                         ids=["text", "null", "int", "list", "lam", "extra-key"])
def test_json_mode_is_binf_or_lambda(mode):
    message = f'a mode is "binf" or {{"lambda": [...]}}, got {mode!r}'
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ZVector.from_json_obj({"coords": {"1": 1}, "mode": mode})


@pytest.mark.parametrize("coords", [{0: 5, 2: 1}, {-3: 1}, {0: 0, 1: 2}])
def test_positions_below_one_are_refused(coords):
    with pytest.raises(ValueError, match="1-based"):
        ZVector.from_dict(coords)
    obj = {"coords": {str(k): v for k, v in coords.items()}, "mode": "binf"}
    with pytest.raises(ValueError, match="1-based"):
        ZVector.from_json_obj(obj)
    # the key reader both JSON readers share passes them through: the
    # refusal is `dict_coords`' alone
    assert json_positions(obj["coords"]) == coords
    with pytest.raises(ValueError, match="^positions are 1-based$"):
        dict_coords(coords)


@pytest.mark.parametrize("coords, bad", [
    ({1.5: 2}, "1.5"), ({True: 1}, "True"), ({2: 0.5}, "0.5"), ({"1": 1}, "'1'"),
])
def test_from_dict_reads_positions_and_values_as_exact_ints(coords, bad):
    with pytest.raises(ValueError, match=rf"^expected an integer, got {bad}$"):
        ZVector.from_dict(coords)
    coords = ZVector.from_dict({2.0: 3, 1: 1.0}).coords
    assert coords == ((1, 1), (2, 3)) and all(type(v) is int for pair in coords for v in pair)


@pytest.mark.parametrize("lam", [None, weight(1, 0)])
def test_crystal_refuses_a_vector_below_position_one(lam):
    crystal = SequenceCrystal(A2.cartan, A2.iota, lam)
    x = ZVector(((0, 5), (2, 1)), crystal.lam)  # built around from_dict's check
    for op in (crystal.f, crystal.e, crystal.epsilon, crystal.phi, crystal.m_set):
        with pytest.raises(ValueError, match="1-based"):
            op(x, 1)
    with pytest.raises(ValueError, match="1-based"):
        transport(BraidContext.from_cartan(A2.cartan, 1, 2), A2.iota, x, (1, 2, 3))


def test_vector_value_contract():
    lam = weight(1, 0)
    x = ZVector(((1, 2), (4, -1)), lam)
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.coords = ()
    assert hash(x) == hash((((1, 2), (4, -1)), lam))
    twin = ZVector(((1, 2), (4, -1)), weight(1, 0))  # equal weight, another object
    assert x == twin and hash(x) == hash(twin) and not x != twin
    assert x != ZVector(((1, 2), (4, -1))) and x != ZVector(((1, 2),), lam)
    assert x != x.coords and ZVector(()) != ()
    assert x == (((1, 2), (4, -1)), lam)
    assert repr(x) == "ZVector(x1=2,x4=-1)"
    for copied in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(copied) is ZVector and copied == x and hash(copied) == hash(x)
        assert repr(copied) == "ZVector(x1=2,x4=-1)" and copied.lam == lam


def test_bfs_enumerates_small_representation():
    # one concrete dimension count per classical family member
    crystal = SequenceCrystal(A3.cartan, A3.iota, weight(0, 1, 0))
    assert len(crystal.bfs(8)) == 6

    b2 = get_builtin("b2")
    crystal = SequenceCrystal(b2.cartan, b2.iota, weight(1, 0))
    assert len(crystal.bfs(8)) == 5

    c2 = get_builtin("c2")
    crystal = SequenceCrystal(c2.cartan, c2.iota, weight(1, 0))
    assert len(crystal.bfs(8)) == 4

    g2 = get_builtin("g2")
    crystal = SequenceCrystal(g2.cartan, g2.iota, weight(1, 0))
    assert len(crystal.bfs(10)) == 14
