"""The axiom checker on crystals with planted faults, against the oracle.

Each fault is a SequenceCrystal subclass that changes what one scan or one
weight returns for some coords, as a function of the coords only, so the
BFS, the accessors and the checker all read it.  The checker, on a graph
the crystal's BFS built, must report the same violations in the same
order as `axiom_oracle` on that graph's nodes through the accessors.
"""

import ast
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from crystalpoly import (
    NEG_INF,
    SequenceCrystal,
    TensorWord,
    cartan_from_matrix,
    check_crystal_axioms,
    get_builtin,
    weight,
)
from crystalpoly.cli import main
from crystalpoly.crystals import CrystalGraph

import axiom_oracle
from tensor_oracle import connected_component

A3 = get_builtin("a3")
SRC = Path(__file__).resolve().parent.parent / "src" / "crystalpoly"


def _total(coords):
    return sum(val for _, val in coords)


class Planted(SequenceCrystal):
    """A SequenceCrystal whose scans pass through `scan_fault(coords, i, scan)`
    and whose weights through `weight_fault(coords, pairings)`."""

    def __init__(self, builtin, lam, scan_fault=None, weight_fault=None):
        super().__init__(builtin.cartan, builtin.iota, lam)
        self.scan_fault, self.weight_fault = scan_fault, weight_fault

    def _scan_coords(self, coords, i):
        scan = super()._scan_coords(coords, i)
        return scan if self.scan_fault is None else self.scan_fault(coords, i, scan)

    def _weight_coords(self, coords, table):
        w = super()._weight_coords(coords, table)
        return w if self.weight_fault is None else self.weight_fault(coords, w)


def _shifted_phi(coords, i, scan):
    """sigma_0 one too low, so phi = eps - sigma_0 one too high."""
    best, lo, hi, sigma_0 = scan
    return best, lo, hi, sigma_0 - (i == 1 and _total(coords) % 3 == 1)


def _wrong_weight(coords, w):
    return (w[0] + 1,) + w[1:] if _total(coords) == 2 else w


def _f_bumps_wrong_position(coords, i, scan):
    """f acts one position above the support when the total is odd."""
    best, lo, hi, sigma_0 = scan
    if _total(coords) % 2:
        lo = (coords[-1][0] if coords else 0) + 1
    return best, lo, hi, sigma_0


def _e_returns_none(coords, i, scan):
    """A max of 0 at index 2 on the total-2 vectors, so e does not act there."""
    return (0, *scan[1:]) if i == 2 and _total(coords) == 2 else scan


def _infinite_epsilon(coords, i, scan):
    """At total 1, a max of -inf at index 3, so free eps and phi are -inf, and
    a sigma_0 of +inf at index 2, so free phi is -inf beside a finite eps."""
    best, lo, hi, sigma_0 = scan
    if _total(coords) == 1 and i in (2, 3):
        best, sigma_0 = (NEG_INF, sigma_0) if i == 3 else (best, -NEG_INF)
    return best, lo, hi, sigma_0


def _e_acts_at_lo(coords, i, scan):
    """e acts at the lowest attaining position, where f acts, when the total is even."""
    best, lo, hi, sigma_0 = scan
    return best, lo, hi if _total(coords) % 2 else lo, sigma_0


# fault -> (scan or weight fault, violation kinds it shows on free a3 at depth 4)
FAULTS = {
    "shifted-phi": ("scan", _shifted_phi, {"phi=eps+wt"}),
    "wrong-weight": ("weight", _wrong_weight, {"phi=eps+wt", "wt-shift-f", "wt-shift-e"}),
    "f-wrong-position": ("scan", _f_bumps_wrong_position,
                         {"wt-shift-f", "ef-adjoint", "fe-adjoint"}),
    "e-returns-none": ("scan", _e_returns_none, {"ef-adjoint"}),
    "infinite-epsilon": ("scan", _infinite_epsilon,
                         {"eps-phi-finiteness", "neginf-kills", "ef-adjoint"}),
    "e-at-lo": ("scan", _e_acts_at_lo, {"ef-adjoint", "fe-adjoint"}),
}
MODES = {"free": None, "rho": weight(1, 1, 1)}


def planted(name, lam):
    level, fault, _ = FAULTS[name]
    return Planted(A3, lam, **{f"{level}_fault": fault})


def assert_parity(crystal, depth):
    """The checker on the crystal's BFS to `depth`, which must equal the oracle's report."""
    graph = crystal.bfs(depth)
    got = check_crystal_axioms(crystal, graph)
    assert got == axiom_oracle.check_crystal_axioms(crystal, graph.nodes)
    return got


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_planted_fault_matches_oracle(name, mode):
    crystal = planted(name, MODES[mode])
    for depth in range(5):  # at depth 0 every image lies outside the nodes
        assert_parity(crystal, depth)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_planted_fault_is_found(name):
    found = assert_parity(planted(name, None), 4)
    assert {v["kind"] for v in found} == FAULTS[name][2]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_clean_crystal_has_no_violations(mode):
    assert assert_parity(SequenceCrystal(A3.cartan, A3.iota, MODES[mode]), 4) == []


@pytest.mark.parametrize("name, depth", [
    ("a2", 6), ("b2", 6), ("c2", 6), ("g2", 6), ("a1tilde", 6), ("a3", 4), ("a4", 4),
])
@pytest.mark.parametrize("mode", ["free", "weight"])
def test_clean_graphs_match_oracle(name, depth, mode):
    builtin = get_builtin(name)
    lam = None if mode == "free" else weight(*[1] * builtin.cartan.rank)
    assert assert_parity(SequenceCrystal(builtin.cartan, builtin.iota, lam), depth) == []


def test_e_images_off_the_f_edges_fall_back_to_the_lookup():
    """The checker reads an e image off the f-edge into (b, i) when f acted
    where e acts on b.  Under e-at-lo two e images on free a3 at depth 4 are
    other nodes, whose f does not lead back: the checker must bump, weigh
    and scan them afresh, as it does a last-layer f image, and report them
    as the oracle does."""
    crystal = planted("e-at-lo", None)
    graph = crystal.bfs(4)
    found = assert_parity(crystal, 4)
    keys = {b.coords for b in graph.nodes}
    stray = [
        (b.label(), i) for b in graph.nodes for i in crystal.cartan.indices
        if (eb := crystal.e(b, i)) is not None and eb.coords in keys and crystal.f(eb, i) != b
    ]
    assert stray == [("x1=1,x2=2,x4=1", 1), ("x2=1,x3=2,x5=1", 2)]
    assert len(found) == 22
    assert all(any(v["element"].label() == label and v["index"] == i
                   and v["kind"] == "fe-adjoint" for v in found) for label, i in stray)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_checker_leaves_the_graph_unchanged(mode):
    """The checker adds nothing to the scans and f-targets the graph keeps:
    one graph checks alike before and after another BFS on its crystal."""
    crystal = planted("e-at-lo", MODES[mode])
    graph = crystal.bfs(4)
    _, scans, targets = graph.built_by
    kept = (list(scans), list(targets))
    first = check_crystal_axioms(crystal, graph)
    assert first and (scans, targets) == kept
    crystal.bfs(5)
    assert check_crystal_axioms(crystal, graph) == first
    assert (scans, targets) == kept


def test_checker_refuses_a_graph_its_crystal_did_not_build():
    crystal = SequenceCrystal(A3.cartan, A3.iota)
    earlier = crystal.bfs(3)
    latest = crystal.bfs(2)
    other = SequenceCrystal(A3.cartan, A3.iota).bfs(2)
    copies = [CrystalGraph(list(g.nodes), g.edges, g.depths) for g in (earlier, latest)]
    for graph in (other, *copies):
        with pytest.raises(ValueError, match="not built by this crystal's bfs"):
            check_crystal_axioms(crystal, graph)
    assert check_crystal_axioms(crystal, earlier) == check_crystal_axioms(crystal, latest) == []


A2 = cartan_from_matrix([[2, -1], [-1, 2]])


@pytest.mark.parametrize("lam", [None, (1, 1)])
def test_tensor_words_match_oracle(lam):
    """The oracle, the one checker of tensor words, on a word component."""
    unit = None if lam is None else weight(*lam)
    seed = TensorWord(A2, (1, 2, 1, 2), (0, 0, 0, 0), unit)
    nodes = list(connected_component(seed, 4).nodes)
    words = SimpleNamespace(
        cartan=A2, epsilon=TensorWord.epsilon, phi=TensorWord.phi,
        weight_pairings=TensorWord.weight_pairings, f=TensorWord.f, e=TensorWord.e,
    )
    for elements in (nodes, nodes[::-1], nodes[::3] + nodes):
        assert axiom_oracle.check_crystal_axioms(words, elements) == []
    # a fault: phi one too high on the words one step below the seed
    low = [w for w in nodes if sum(w.values) == -1]
    words.phi = lambda w, i: TensorWord.phi(w, i) + (sum(w.values) == -1)
    found = axiom_oracle.check_crystal_axioms(words, nodes)
    assert found == [
        {"kind": "phi=eps+wt", "element": w, "index": i,
         "detail": f"phi={w.phi(i) + 1} eps={w.epsilon(i)} wtp={w.weight_pairings()[i - 1]}"}
        for w in nodes if w in low for i in A2.indices if w.epsilon(i) != NEG_INF
    ]
    assert low and found


def test_graph_exits_1_on_a_faulty_crystal(capsys, monkeypatch):
    """sigma_0 one too low on every scan, so phi is one too high."""
    scan = SequenceCrystal._scan_coords

    def shifted(self, coords, i):
        best, lo, hi, sigma_0 = scan(self, coords, i)
        return best, lo, hi, sigma_0 - 1

    monkeypatch.setattr(SequenceCrystal, "_scan_coords", shifted)
    code = main(["graph", "--builtin", "a2", "--binf", "--depth", "2"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == (
        "internal inconsistency: {'kind': 'phi=eps+wt', 'element': ZVector(0), "
        "'index': 1, 'detail': 'phi=1 eps=0 wtp=0'}\n"
    )


def _last_layer_weight(depth):
    return lambda coords, w: (w[0] + 1,) + w[1:] if _total(coords) == depth + 1 else w


def _e_stops_at(total):
    """A max of 0 at index 2 on the vectors of this total, so e does not act there."""
    def scan_fault(coords, i, scan):
        return (0, *scan[1:]) if i == 2 and _total(coords) == total else scan
    return scan_fault


def _last_layer_e(depth):
    return _e_stops_at(depth + 1)


def _phi_shifted_at(total):
    """sigma_0 one too low at index 1 on the vectors of this total."""
    def scan_fault(coords, i, scan):
        return (*scan[:3], scan[3] - 1) if i == 1 and _total(coords) == total else scan
    return scan_fault


# case -> (builtin, weight, depth, the BFS node count)
GRAPH_SCALE = {
    "a4-rho-8": ("a4", weight(1, 1, 1, 1), 8, 351),
    "a3-free-6": ("a3", None, 6, 217),
}
# (case, fault) -> (violation count, first violation's kind, element label, index),
# recorded with an earlier checker; the e fault gives the children a max of 0
# at index 2, so e does not act on them there
LAST_LAYER = {
    ("a4-rho-8", "weight_pairings"): (238, "wt-shift-f", "x1=1,x2=2,x3=3,x5=1,x6=1", 2),
    ("a4-rho-8", "e"): (60, "ef-adjoint", "x1=1,x2=2,x3=3,x5=1,x6=1", 2),
    ("a3-free-6", "weight_pairings"): (291, "wt-shift-f", "x1=6", 1),
    ("a3-free-6", "e"): (97, "ef-adjoint", "x1=6", 2),
}


@pytest.mark.parametrize("case, accessor", sorted(LAST_LAYER))
def test_last_layer_fault_at_graph_scale(case, accessor):
    """A fault on the children of the last BFS layer only, which lie outside
    the nodes: only the checks of images that are not nodes can see it."""
    name, lam, depth, size = GRAPH_SCALE[case]
    fault = {"weight_pairings": ("weight", _last_layer_weight),
             "e": ("scan", _last_layer_e)}[accessor]
    crystal = Planted(get_builtin(name), lam, **{f"{fault[0]}_fault": fault[1](depth)})
    found = assert_parity(crystal, depth)
    nodes = crystal.bfs(depth).nodes  # the BFS never scans the last layer
    assert len(nodes) == size and max(_total(b.coords) for b in nodes) == depth
    count, kind, label, index = LAST_LAYER[case, accessor]
    assert len(found) == count
    assert (found[0]["kind"], found[0]["element"].label(), found[0]["index"]) == (kind, label, index)
    assert {v["kind"] for v in found} == {kind}
    assert all(_total(v["element"].coords) == depth for v in found)


# (case, fault) -> (BFS node count, violation count, first violation's kind,
# element label, index, all kinds), recorded with an earlier checker that
# scanned every node again; at rho the faults change which f act, so the graph
# differs from the clean one
MID_LAYER = {
    ("a4-rho-8", "e"): (349, 52, "ef-adjoint", "x1=1,x2=2,x3=2,x5=1", 2,
                        {"ef-adjoint", "fe-adjoint"}),
    ("a4-rho-8", "phi"): (381, 112, "phi=eps+wt", "x1=1,x2=2,x3=2,x5=1,x6=1", 1,
                          {"phi=eps+wt", "ef-adjoint"}),
    ("a3-free-6", "e"): (217, 33, "ef-adjoint", "x1=4", 2, {"ef-adjoint"}),
    ("a3-free-6", "phi"): (217, 58, "phi=eps+wt", "x1=5", 1, {"phi=eps+wt"}),
}


@pytest.mark.parametrize("case, fault", sorted(MID_LAYER))
def test_mid_layer_fault_at_graph_scale(case, fault):
    """A scan fault on the layer below the last only, whose nodes the BFS
    expands: the checker reads their scans from the BFS, and must report
    what a fresh scan of every node reported."""
    name, lam, depth, _ = GRAPH_SCALE[case]
    scan_fault = {"e": _e_stops_at, "phi": _phi_shifted_at}[fault](depth - 1)
    crystal = Planted(get_builtin(name), lam, scan_fault=scan_fault)
    found = assert_parity(crystal, depth)
    graph = crystal.bfs(depth)
    faulted = [d for b, d in zip(graph.nodes, graph.depths) if _total(b.coords) == depth - 1]
    assert faulted and max(faulted) < depth  # the BFS expanded every faulted node
    size, count, kind, label, index, kinds = MID_LAYER[case, fault]
    assert (len(graph.nodes), len(found)) == (size, count)
    assert (found[0]["kind"], found[0]["element"].label(), found[0]["index"]) == (kind, label, index)
    assert {v["kind"] for v in found} == kinds


class Counted(SequenceCrystal):
    """A SequenceCrystal that counts its scans and its weights."""

    def __init__(self, builtin, lam):
        super().__init__(builtin.cartan, builtin.iota, lam)
        self.scans = self.weights = 0

    def _scan_coords(self, coords, i):
        self.scans += 1
        return super()._scan_coords(coords, i)

    def _weight_coords(self, coords, table):
        self.weights += 1
        return super()._weight_coords(coords, table)


@pytest.mark.parametrize("name, lam, depth, weighed", [
    ("a3", None, 4, 120), ("a4", weight(1, 1, 1, 1), 8, 457),
], ids=["a3-free-4", "a4-rho-8"])
def test_bfs_and_checker_scan_each_node_once(name, lam, depth, weighed):
    """The BFS scans each node it expands once per index and the checker
    reads those scans: together they scan every node once per index, plus
    each image that is not a node once per (node, index) that reaches it.
    They weigh every node once, and each distinct image that is not a node
    once."""
    crystal = Counted(get_builtin(name), lam)
    graph = crystal.bfs(depth)
    rank = crystal.cartan.rank
    assert crystal.scans == rank * sum(d < depth for d in graph.depths)  # the last layer: never
    assert crystal.weights == 0
    assert check_crystal_axioms(crystal, graph) == []
    scans, weights = crystal.scans, crystal.weights
    keys = {b.coords for b in graph.nodes}
    outside = [
        image.coords for b in graph.nodes for i in crystal.cartan.indices
        for image in (crystal.f(b, i), crystal.e(b, i))
        if image is not None and image.coords not in keys
    ]
    assert len(set(outside)) < len(outside)
    assert (scans, weights) == (
        len(graph.nodes) * rank + len(outside), len(graph.nodes) + len(set(outside)))
    assert weights == weighed


@pytest.mark.parametrize("name, depth", [("a3", 5), ("a4", 6), ("g2", 8), ("a1tilde", 8)])
@pytest.mark.parametrize("mode", ["free", "rho"])
def test_last_layer_f_images_are_never_nodes(name, depth, mode):
    """What lets the checker skip the lookup of a last-layer f image: the
    BFS records an f-target wherever f acts on a node it expands, every
    node's depth is its coordinate total, and so no f image of a last-layer
    node is a node of the graph."""
    builtin = get_builtin(name)
    lam = None if mode == "free" else weight(*[1] * builtin.cartan.rank)
    crystal = SequenceCrystal(builtin.cartan, builtin.iota, lam)
    graph = crystal.bfs(depth)
    _, _, targets = graph.built_by
    keys = {b.coords for b in graph.nodes}
    indices = crystal.cartan.indices
    assert list(graph.depths) == [_total(b.coords) for b in graph.nodes]
    expanded = [b for b, d in zip(graph.nodes, graph.depths) if d < depth]
    assert len(targets) == len(indices) * len(expanded)
    for (b, i), target in zip([(b, i) for b in expanded for i in indices], targets):
        fb = crystal.f(b, i)
        assert (target is None) == (fb is None)
        assert fb is None or graph.nodes[target] == fb
    last = [crystal.f(b, i) for b, d in zip(graph.nodes, graph.depths) if d == depth
            for i in indices]
    images = [fb.coords for fb in last if fb is not None]
    assert images and not any(c in keys for c in images)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_graph_stays_checkable(mode):
    """Deeper, shallower, then deeper again on one crystal, planted and
    clean; each graph holds its own scans and f-targets, so after the last
    BFS all of them check in reverse order, and no BFS, check or weight
    changes its crystal."""
    faulty = planted("f-wrong-position", MODES[mode])
    crystals = (faulty, SequenceCrystal(A3.cartan, A3.iota, MODES[mode]))
    before = [dict(vars(c)) for c in crystals]
    built = [(c, c.bfs(depth)) for depth in (6, 2, 4) for c in crystals]
    assert [vars(c) for c in crystals] == before
    for crystal, graph in reversed(built):
        got = check_crystal_axioms(crystal, graph)
        assert got == axiom_oracle.check_crystal_axioms(crystal, graph.nodes)
        assert bool(got) == (crystal is faulty)
        crystal.weight_pairings(graph.nodes[-1])
    assert [vars(c) for c in crystals] == before


@pytest.mark.parametrize("level, fault, first", [
    ("_scan_coords", _e_returns_none,
     "{'kind': 'ef-adjoint', 'element': ZVector(x1=1), 'index': 2, 'detail': ''}"),
    ("_weight_coords", _last_layer_weight(2),
     "{'kind': 'wt-shift-f', 'element': ZVector(x1=2), 'index': 1, 'detail': ''}"),
], ids=["e", "weight_pairings"])
def test_graph_exits_1_on_a_faulty_operator_or_weight(capsys, monkeypatch, level, fault, first):
    """A fault planted in the scans (e does not act on the total-2 vectors at
    index 2) or in the coords-level weights under `weight_pairings` (off on
    the total-3 images)."""
    honest = getattr(SequenceCrystal, level)
    if level == "_scan_coords":
        def faulty(self, coords, i):
            return fault(coords, i, honest(self, coords, i))
    else:
        def faulty(self, coords, table):
            return fault(coords, honest(self, coords, table))
    monkeypatch.setattr(SequenceCrystal, level, faulty)
    code = main(["graph", "--builtin", "a2", "--binf", "--depth", "2"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == f"internal inconsistency: {first}\n"


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependencies beyond the standard library."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "crystalpoly", (path.name, name)
