"""The BFS against counts it does not share code with: Weyl dimensions and Kostant's K."""

from collections import Counter

import pytest

from crystalpoly import SequenceCrystal, get_builtin, weight

from root_oracle import kostant, positive_roots, symmetrizer, weyl_dimension


def closed_bfs(crystal):
    """The BFS run until a layer adds no node."""
    depth = 1
    while True:
        graph = crystal.bfs(depth)
        if max(graph.depths) < depth:
            return graph
        depth *= 2


def index_sums(seq, node):
    """beta with beta_i the sum of the coordinates at positions carrying index i."""
    beta = [0] * seq.rank
    for pos, val in node.coords:
        beta[seq.index_at(pos) - 1] += val
    return tuple(beta)


@pytest.mark.parametrize(
    "name, roots, d",
    [
        ("a2", 3, (1, 1)),
        ("a3", 6, (1, 1, 1)),
        ("a5", 15, (1,) * 5),
        ("b2", 4, (2, 1)),
        ("c2", 4, (1, 2)),
        ("g2", 6, (3, 1)),
    ],
)
def test_oracle_roots_and_symmetrizer(name, roots, d):
    cartan = get_builtin(name).cartan
    found = positive_roots(cartan)
    assert len(found) == len(set(found)) == roots
    assert symmetrizer(cartan) == d
    a = cartan.matrix
    n = cartan.rank
    assert all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(n) for j in range(n))


def test_oracle_refuses_affine_data():
    with pytest.raises(ValueError, match="not of finite type"):
        positive_roots(get_builtin("a1tilde").cartan)


# dim V(lambda) by (builtin, lambda): rho, a5's adjoint, the fundamental weights
DIMENSIONS = {
    ("a2", (1, 1)): 8,
    ("a3", (1, 1, 1)): 64,
    ("a4", (1, 1, 1, 1)): 1024,
    ("b2", (1, 1)): 16,
    ("c2", (1, 1)): 16,
    ("g2", (1, 1)): 64,
    ("a5", (1, 0, 0, 0, 1)): 35,
    ("a3", (1, 0, 0)): 4,
    ("a3", (0, 1, 0)): 6,
    ("a3", (0, 0, 1)): 4,
    ("b2", (1, 0)): 5,  # alpha_1 is the long simple root
    ("b2", (0, 1)): 4,
}


@pytest.mark.parametrize(
    "name, lam, dim", [(*key, dim) for key, dim in DIMENSIONS.items()],
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_highest_weight_bfs_has_the_weyl_dimension(name, lam, dim):
    b = get_builtin(name)
    assert weyl_dimension(b.cartan, lam) == dim
    graph = closed_bfs(SequenceCrystal(b.cartan, b.iota, weight(*lam)))
    assert len(graph) == dim


MAX_HEIGHT = 6
PER_DEPTH = {"a2": [1, 2, 4, 6, 9, 12, 16], "g2": [1, 2, 4, 7, 12, 19, 29]}


@pytest.mark.parametrize("name", ["a2", "a3", "b2", "c2", "g2"])
def test_free_bfs_counts_are_kostant_partitions(name):
    b = get_builtin(name)
    graph = SequenceCrystal(b.cartan, b.iota).bfs(MAX_HEIGHT)
    found = Counter(index_sums(b.iota, node) for node in graph.nodes)
    expected = kostant(b.cartan, MAX_HEIGHT)
    assert {beta: found[beta] for beta in expected} == expected
    assert set(found) <= set(expected)
    if name in PER_DEPTH:
        per_depth = [0] * (MAX_HEIGHT + 1)
        for beta, k in expected.items():
            per_depth[sum(beta)] += k
        assert per_depth == PER_DEPTH[name]
        assert Counter(graph.depths) == dict(enumerate(PER_DEPTH[name]))
