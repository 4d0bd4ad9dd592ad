"""The axiom checker on crystals with planted faults, against the oracle.

Each fault wraps a SequenceCrystal and changes one accessor on some
elements, as a function of the element only.  The checker must report the
same violations as `axiom_oracle`, in the same order, whatever the order of
the elements: breadth-first, reversed, with repeats, or one element at a
time, when every image lies outside the elements.
"""

import ast
import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from crystalpoly import (
    NEG_INF,
    Letter,
    SequenceCrystal,
    TensorWord,
    cartan_from_matrix,
    check_crystal_axioms,
    get_builtin,
    weight,
)
from crystalpoly.cli import main

import axiom_oracle
from tensor_oracle import connected_component

A3 = get_builtin("a3")
SRC = Path(__file__).resolve().parent.parent / "src" / "crystalpoly"


def _shifted_phi(c):
    return lambda x, i: c.phi(x, i) + 1 if i == 1 and x.total % 3 == 1 else c.phi(x, i)


def _wrong_weight(c):
    def weight_pairings(x):
        w = c.weight_pairings(x)
        return (w[0] + 1,) + w[1:] if x.total == 2 else w
    return weight_pairings


def _f_bumps_wrong_position(c):
    def f(x, i):
        y = c.f(x, i)
        return x.bumped(x.max_pos + 1, +1) if y is not None and x.total % 2 else y
    return f


def _e_returns_none(c):
    return lambda x, i: None if i == 2 and x.total == 2 else c.e(x, i)


def _infinite_epsilon(c):
    return lambda x, i: NEG_INF if i == 3 and x.total == 1 else c.epsilon(x, i)


# accessor replaced -> (fault, violation kinds it shows on a3 at depth 4)
FAULTS = {
    "shifted-phi": ("phi", _shifted_phi, {"phi=eps+wt"}),
    "wrong-weight": ("weight_pairings", _wrong_weight,
                     {"phi=eps+wt", "wt-shift-f", "wt-shift-e"}),
    "f-wrong-position": ("f", _f_bumps_wrong_position,
                         {"wt-shift-f", "ef-adjoint", "fe-adjoint"}),
    "e-returns-none": ("e", _e_returns_none, {"ef-adjoint"}),
    "infinite-epsilon": ("epsilon", _infinite_epsilon,
                         {"eps-phi-finiteness", "neginf-kills"}),
}
MODES = {"free": None, "rho": weight(1, 1, 1)}


def planted(name, lam):
    """The a3 crystal with one planted fault, and its BFS nodes to depth 4."""
    base = SequenceCrystal(A3.cartan, A3.iota, lam)
    accessor, fault, _ = FAULTS[name]
    crystal = SimpleNamespace(
        cartan=base.cartan, epsilon=base.epsilon, phi=base.phi,
        weight_pairings=base.weight_pairings, f=base.f, e=base.e,
    )
    setattr(crystal, accessor, fault(base))
    return crystal, list(base.bfs(4).nodes)


def orders(nodes):
    """The element lists every checker run is compared on; some repeats are
    equal copies, not the same object."""
    return {
        "bfs": nodes,
        "reversed": nodes[::-1],
        "repeats": nodes[::3] + nodes + [copy.copy(b) for b in nodes[1::2]],
    }


def assert_parity(crystal, elements):
    got = check_crystal_axioms(crystal, elements)
    assert got == axiom_oracle.check_crystal_axioms(crystal, elements)
    return got


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_planted_fault_matches_oracle(name, mode):
    crystal, nodes = planted(name, MODES[mode])
    for elements in orders(nodes).values():
        assert_parity(crystal, elements)
    for b in nodes:  # alone, every image of b lies outside the elements
        assert_parity(crystal, [b])


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_planted_fault_is_found(name):
    crystal, nodes = planted(name, None)
    found = assert_parity(crystal, nodes)
    assert {v["kind"] for v in found} == FAULTS[name][2]


def test_repeated_elements_are_reported_per_occurrence():
    crystal, nodes = planted("shifted-phi", None)
    once = check_crystal_axioms(crystal, nodes)
    twice = check_crystal_axioms(crystal, nodes + nodes)
    assert once and twice == once + once


@pytest.mark.parametrize("mode", sorted(MODES))
def test_clean_crystal_has_no_violations(mode):
    crystal = SequenceCrystal(A3.cartan, A3.iota, MODES[mode])
    nodes = list(crystal.bfs(4).nodes)
    for elements in orders(nodes).values():
        assert assert_parity(crystal, elements) == []


A2 = cartan_from_matrix([[2, -1], [-1, 2]])


@pytest.mark.parametrize("lam", [None, (1, 1)])
def test_tensor_words_match_oracle(lam):
    unit = None if lam is None else weight(*lam)
    seed = TensorWord(A2, [Letter(i, 0) for i in (1, 2, 1, 2)], unit)
    nodes = list(connected_component(seed, 4).nodes)
    words = SimpleNamespace(
        cartan=A2, epsilon=TensorWord.epsilon, phi=TensorWord.phi,
        weight_pairings=TensorWord.weight_pairings, f=TensorWord.f, e=TensorWord.e,
    )
    for elements in orders(nodes).values():
        assert assert_parity(words, elements) == []
    # a fault: phi one too high on the words one step below the seed
    words.phi = lambda w, i: TensorWord.phi(w, i) + (sum(l.value for l in w.letters) == -1)
    for elements in orders(nodes).values():
        assert assert_parity(words, elements)
    for b in nodes:
        assert_parity(words, [b])


def test_graph_exits_1_on_a_faulty_crystal(capsys, monkeypatch):
    phi = SequenceCrystal.phi
    monkeypatch.setattr(SequenceCrystal, "phi", lambda self, x, i: phi(self, x, i) + 1)
    code = main(["graph", "--builtin", "a2", "--binf", "--depth", "2"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == (
        "internal inconsistency: {'kind': 'phi=eps+wt', 'element': ZVector(0), "
        "'index': 1, 'detail': 'phi=1 eps=0 wtp=0'}\n"
    )


def test_elements_are_read_once():
    """A generator of the elements gives what their list gives."""
    base = SequenceCrystal(A3.cartan, A3.iota)
    crystal = SimpleNamespace(
        cartan=base.cartan, epsilon=base.epsilon, phi=lambda x, i: base.phi(x, i) + 1,
        weight_pairings=base.weight_pairings, f=base.f, e=base.e,
    )
    nodes = list(base.bfs(3).nodes)
    listed = check_crystal_axioms(crystal, nodes)
    assert len(listed) == 87
    assert check_crystal_axioms(crystal, (b for b in nodes)) == listed
    assert axiom_oracle.check_crystal_axioms(crystal, iter(nodes)) == listed


def _last_layer_weight(c, depth):
    def weight_pairings(x):
        w = c.weight_pairings(x)
        return (w[0] + 1,) + w[1:] if x.total == depth + 1 else w
    return weight_pairings


def _last_layer_e(c, depth):
    return lambda x, i: None if i == 2 and x.total == depth + 1 else c.e(x, i)


# case -> (builtin, weight, depth, the BFS node count)
GRAPH_SCALE = {
    "a4-rho-8": ("a4", weight(1, 1, 1, 1), 8, 351),
    "a3-free-6": ("a3", None, 6, 217),
}
# (case, accessor) -> (violation count, first violation's kind, element label, index),
# recorded before the checker read weight shifts from a table
LAST_LAYER = {
    ("a4-rho-8", "weight_pairings"): (238, "wt-shift-f", "x1=1,x2=2,x3=3,x5=1,x6=1", 2),
    ("a4-rho-8", "e"): (60, "ef-adjoint", "x1=1,x2=2,x3=3,x5=1,x6=1", 2),
    ("a3-free-6", "weight_pairings"): (291, "wt-shift-f", "x1=6", 1),
    ("a3-free-6", "e"): (97, "ef-adjoint", "x1=6", 2),
}


@pytest.mark.parametrize("case, accessor", sorted(LAST_LAYER))
def test_last_layer_fault_at_graph_scale(case, accessor):
    """A fault on the children of the last BFS layer only, which lie outside
    the nodes: only the checks of images outside the elements can see it."""
    name, lam, depth, size = GRAPH_SCALE[case]
    builtin = get_builtin(name)
    base = SequenceCrystal(builtin.cartan, builtin.iota, lam)
    nodes = base.bfs(depth).nodes
    assert len(nodes) == size and max(b.total for b in nodes) == depth
    fault = {"weight_pairings": _last_layer_weight, "e": _last_layer_e}[accessor]
    crystal = SimpleNamespace(
        cartan=base.cartan, epsilon=base.epsilon, phi=base.phi,
        weight_pairings=base.weight_pairings, f=base.f, e=base.e,
    )
    setattr(crystal, accessor, fault(base, depth))
    found = assert_parity(crystal, nodes)
    count, kind, label, index = LAST_LAYER[case, accessor]
    assert len(found) == count
    assert (found[0]["kind"], found[0]["element"].label(), found[0]["index"]) == (kind, label, index)
    assert {v["kind"] for v in found} == {kind}
    assert all(v["element"].total == depth for v in found)


def _e_dies_at_total_2(e):
    return lambda self, x, i: None if i == 2 and x.total == 2 else e(self, x, i)


def _weight_off_past_depth_2(weight_pairings):
    def faulty(self, x):
        w = weight_pairings(self, x)
        return (w[0] + 1,) + w[1:] if x.total == 3 else w
    return faulty


@pytest.mark.parametrize("accessor, fault, first", [
    ("e", _e_dies_at_total_2,
     "{'kind': 'ef-adjoint', 'element': ZVector(x1=1), 'index': 2, 'detail': ''}"),
    ("weight_pairings", _weight_off_past_depth_2,
     "{'kind': 'wt-shift-f', 'element': ZVector(x1=2), 'index': 1, 'detail': ''}"),
], ids=["e", "weight_pairings"])
def test_graph_exits_1_on_a_faulty_operator_or_weight(capsys, monkeypatch, accessor, fault,
                                                      first):
    monkeypatch.setattr(SequenceCrystal, accessor, fault(getattr(SequenceCrystal, accessor)))
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
