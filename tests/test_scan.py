"""The one-pass sigma scan of SequenceCrystal against the per-position oracle,
with the table-driven weight, the spliced bump, the kept last scan, and the
images `f` and `e` give on the nodes of a BFS."""

import pytest
from hypothesis import given, settings, strategies as st

from crystalpoly import IndexSequence, SequenceCrystal, ZVector, get_builtin, weight

import scan_oracle

A3 = get_builtin("a3")
A4 = get_builtin("a4")
A1T = get_builtin("a1tilde")
G2 = get_builtin("g2")  # <h_2, alpha_1> = -3
CASES = {
    "a3-iota0": (A3.cartan, IndexSequence((1, 2, 3, 2, 1, 2), 3)),
    "a1tilde": (A1T.cartan, A1T.iota),
    "g2": (G2.cartan, G2.iota),
}


@st.composite
def crystal_and_vector(draw, case, top=12, values=st.integers(-3, 4), max_size=8):
    cartan, seq = case
    lam = None
    if draw(st.booleans()):
        lam = weight(*draw(st.lists(st.integers(0, 3), min_size=cartan.rank,
                                    max_size=cartan.rank)))
    crystal = SequenceCrystal(cartan, seq, lam)
    coords = draw(st.dictionaries(st.integers(1, top), values, max_size=max_size))
    return crystal, ZVector.from_dict(coords, crystal.lam)


def _assert_matches_oracle(crystal, x):
    for i in crystal.cartan.indices:
        assert crystal.m_set(x, i) == scan_oracle.m_set(crystal, x, i)
        if crystal.lam is not None:
            assert crystal.sigma_0(x, i) == scan_oracle.sigma_0(crystal, x, i)
        assert crystal.f(x, i) == scan_oracle.f(crystal, x, i)
        assert crystal.e(x, i) == scan_oracle.e(crystal, x, i)
        assert crystal.epsilon(x, i) == scan_oracle.epsilon(crystal, x, i)
        assert crystal.phi(x, i) == scan_oracle.phi(crystal, x, i)
    assert crystal.weight_pairings(x) == scan_oracle.weight_pairings(crystal, x)


def test_g2_case_has_pairing_minus_three():
    assert G2.cartan.a(2, 1) == -3


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scan_statistics_match_per_position_oracle(name, data):
    _assert_matches_oracle(*data.draw(crystal_and_vector(CASES[name])))


B2 = get_builtin("b2")
# a period of 2 wraps the step table's r - 1 at every even position, and g2
# brings the pairing -3
SPARSE = {
    "a3-iota0": CASES["a3-iota0"],
    "a4": (A4.cartan, A4.iota),
    "a1tilde": CASES["a1tilde"],
    "b2": (B2.cartan, B2.iota),
    "g2": CASES["g2"],
}


@pytest.mark.parametrize("name", sorted(SPARSE))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sparse_vectors_match_per_position_oracle(name, data):
    """At most five nonzero coordinates up to position 60: runs of zero
    coordinates span several periods, so the scan reads both ends of a run
    from the step table."""
    _assert_matches_oracle(*data.draw(crystal_and_vector(
        SPARSE[name], top=60, values=st.integers(-4, 4), max_size=5)))


@pytest.mark.parametrize("mode", ["free", "weight"])
@pytest.mark.parametrize("name", sorted({**CASES, **SPARSE}))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_weight_pairings_match_per_coordinate_oracle(name, mode, data):
    """The weight summed from the crystal's negated slot columns, against the
    pairing of each coordinate with its index summed on its own."""
    cartan, seq = {**CASES, **SPARSE}[name]
    lam = None
    if mode == "weight":
        lam = weight(*data.draw(st.lists(st.integers(0, 3), min_size=cartan.rank,
                                         max_size=cartan.rank)))
    crystal = SequenceCrystal(cartan, seq, lam)
    coords = data.draw(st.dictionaries(st.integers(1, 40), st.integers(-5, 5), max_size=10))
    x = ZVector.from_dict(coords, lam)
    assert crystal.weight_pairings(x) == scan_oracle.weight_pairings(crystal, x)


@settings(max_examples=300, deadline=None)
@given(
    coords=st.dictionaries(st.integers(1, 12), st.integers(-3, 4), max_size=8),
    k=st.integers(1, 14),
    delta=st.integers(-4, 4),
)
def test_bumped_matches_dict_oracle(coords, k, delta):
    x = ZVector.from_dict(coords)
    assert x.bumped(k, delta) == scan_oracle.bumped(x, k, delta)


def test_bumped_drops_inserts_and_goes_negative():
    x = ZVector.from_dict({2: 1, 5: -2})
    assert x.bumped(2, -1).coords == ((5, -2),)  # a coordinate bumped to 0 drops
    assert x.bumped(5, 2).coords == ((2, 1),)
    assert x.bumped(3, 1).coords == ((2, 1), (3, 1), (5, -2))  # inserted in order
    assert x.bumped(1, -3).coords == ((1, -3), (2, 1), (5, -2))
    assert x.bumped(7, 4).coords == ((2, 1), (5, -2), (7, 4))
    assert x.bumped(5, -1).coords == ((2, 1), (5, -3))
    assert x.bumped(4, 0) == x and ZVector(()).bumped(1, -1).coords == ((1, -1),)


def _check_calls(calls):
    """Each (crystal, operator, vector, index) call, in order, against the oracle."""
    for crystal, name, x, i in calls:
        assert getattr(crystal, name)(x, i) == getattr(scan_oracle, name)(crystal, x, i), (
            name, x, i)


def test_kept_scan_is_never_stale():
    cartan, seq = CASES["a3-iota0"]
    free = SequenceCrystal(cartan, seq)
    weighted = SequenceCrystal(cartan, seq, weight(1, 0, 2))
    coords = {1: 1, 2: 2, 3: -1, 5: 1, 7: 2}
    x = ZVector.from_dict(coords)
    y = ZVector.from_dict({2: 1, 4: 3})
    twin = ZVector.from_dict(coords)  # equal to x, another object
    xw = ZVector.from_dict(coords, weighted.lam)
    # the data tells the calls apart, so a scan kept for the wrong call shows
    assert scan_oracle.epsilon(free, x, 1) != scan_oracle.epsilon(free, y, 1)
    assert scan_oracle.epsilon(free, x, 1) != scan_oracle.epsilon(free, x, 2)
    assert scan_oracle.phi(free, x, 1) != scan_oracle.phi(weighted, xw, 1)
    _check_calls([
        (free, "epsilon", x, 1), (free, "f", y, 1), (free, "epsilon", x, 1),
        (free, "epsilon", x, 2), (free, "phi", x, 1), (free, "e", x, 2),
        (free, "f", twin, 1), (free, "phi", x, 1), (free, "e", twin, 2),
        (free, "epsilon", x, 1), (weighted, "phi", xw, 1), (free, "phi", x, 1),
        (weighted, "f", xw, 2), (free, "f", x, 2), (weighted, "epsilon", xw, 1),
        (free, "m_set", x, 3), (free, "m_set", x, 1), (weighted, "sigma_0", xw, 3),
    ])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_interleaved_calls_match_oracle(data):
    cartan, seq = CASES["a3-iota0"]
    crystals = (SequenceCrystal(cartan, seq), SequenceCrystal(cartan, seq, weight(1, 1, 0)))
    pool = [
        ZVector.from_dict(d, c.lam)
        for d in data.draw(st.lists(
            st.dictionaries(st.integers(1, 9), st.integers(-2, 3), max_size=5),
            min_size=1, max_size=3))
        for c in crystals
        for _ in range(2)  # equal but distinct objects
    ]
    calls = []
    for _ in range(data.draw(st.integers(1, 30))):
        x = data.draw(st.sampled_from(pool))
        crystal = crystals[x.lam != crystals[0].lam]
        name = data.draw(st.sampled_from(("f", "e", "epsilon", "phi", "m_set")))
        calls.append((crystal, name, x, data.draw(st.integers(1, 3))))
    _check_calls(calls)


# builtin crystals whose lowering and raising images are checked against the
# oracle after a BFS; (builtin, weight or None for free mode, depth)
CANONICAL = [
    ("a3", None, 4), ("a3", (0, 1, 1), 5), ("a1tilde", None, 5),
    ("g2", (1, 1), 5), ("a4", None, 3),
]


def _images(crystal, nodes):
    """Every (operator, node, index, image) of the operators on the nodes,
    each image checked against the oracle."""
    out = []
    for x in nodes:
        for i in crystal.cartan.indices:
            for name in ("f", "e"):
                y = getattr(crystal, name)(x, i)
                assert y == getattr(scan_oracle, name)(crystal, x, i), (name, x, i)
                out.append((name, x, i, y))
    return out


@pytest.mark.parametrize("name, lam, depth", CANONICAL)
def test_images_of_bfs_nodes_are_the_nodes(name, lam, depth):
    builtin = get_builtin(name)
    lam = None if lam is None else weight(*lam)
    crystal = SequenceCrystal(builtin.cartan, builtin.iota, lam)
    deep = crystal.bfs(depth).nodes
    images = _images(crystal, deep)
    assert any(y is not None and y not in deep for *_, y in images)  # some leave the graph
    # a second, shallower closure and a crystal that never ran bfs give the same images
    crystal.bfs(depth - 2)
    assert _images(crystal, deep) == images
    assert _images(SequenceCrystal(builtin.cartan, builtin.iota, lam), deep) == images


@pytest.mark.parametrize("name, lam", [("a3", (1, 1, 0)), ("g2", (0, 1))])
def test_free_and_weighted_crystals_keep_their_own_nodes(name, lam):
    builtin = get_builtin(name)
    free = SequenceCrystal(builtin.cartan, builtin.iota)
    weighted = SequenceCrystal(builtin.cartan, builtin.iota, weight(*lam))
    graphs = {c: c.bfs(4).nodes for c in (free, weighted)}
    for crystal in (free, weighted):
        images = _images(crystal, graphs[crystal])
        assert all(y is None or y.lam == crystal.lam for *_, y in images)
