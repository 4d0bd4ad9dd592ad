"""Elementary crystals, tensor words, crystal graphs, and axiom checkers.

A tensor word is a finite ordered product of integer-labelled letters
(x)_i, optionally terminated by a one-element unit letter carrying a
highest weight.  The raising/lowering operators, the string statistics
epsilon/phi, and weights are computed by folding the two-factor tensor
rules left to right; the absorbing element 0 is represented by None.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import add, sub

from .cartan import CartanData, Weight, exact_int


NEG_INF = float("-inf")  # eps and phi of a word with no letter of the index


@dataclass(frozen=True)
class Letter:
    """The element (value)_index of the elementary crystal for one index."""

    index: int
    value: int


@dataclass(frozen=True)
class UnitLetter:
    """The single element of the one-point crystal attached to a weight."""

    weight: Weight


class TensorWord:
    """A finite tensor product of letters, leftmost factor first, kept as
    two int tuples; the `Letter` tuple `letters` is built on demand."""

    __slots__ = ("cartan", "indices", "values", "unit", "_hash", "_folds")

    def __init__(self, cartan: CartanData, letters, unit: UnitLetter | None = None):
        letters = tuple(letters)
        self.indices = tuple(letter.index for letter in letters)
        self.values = tuple(letter.value for letter in letters)
        # plain ints only: a float or a bool would pass the range check and
        # then flow through the folds as a non-integer letter
        if not all(type(v) is int for v in self.indices + self.values):
            raise ValueError("letter indices and values must be integers")
        for index in self.indices:
            if not 1 <= index <= cartan.rank:
                raise ValueError("letter index out of range")
        if unit is not None and unit.weight.rank != cartan.rank:
            raise ValueError("unit weight rank mismatch")
        self.cartan = cartan
        self.unit = unit
        self._hash = None
        self._folds = {}  # index -> _fold result; a word never changes, so none goes stale

    @classmethod
    def _checked(cls, cartan: CartanData, indices, values, unit: UnitLetter | None = None):
        """A word from index and value tuples whose indices are known to be in range.

        For words derived from a checked word: `_apply` shares the indices
        of the word it changes, and a braid map's output pattern has the
        indices of the input pattern it matched.  Nothing is re-checked.
        """
        word = cls.__new__(cls)
        word.cartan = cartan
        word.indices = indices
        word.values = values
        word.unit = unit
        word._hash = None
        word._folds = {}
        return word

    @property
    def letters(self) -> tuple:
        return tuple(map(Letter, self.indices, self.values))

    def __eq__(self, other):
        return (isinstance(other, TensorWord) and self.values == other.values
                and self.indices == other.indices and self.unit == other.unit)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.indices, self.values, self.unit))
        return self._hash

    def __len__(self):
        return len(self.values) + (1 if self.unit is not None else 0)

    def __repr__(self):
        return f"TensorWord({self.label()})"

    def label(self) -> str:
        parts = [f"({v}){i}" for i, v in zip(self.indices, self.values)]
        if self.unit is not None:
            parts.append("r" + ",".join(str(c) for c in self.unit.weight.coeffs))
        return " ".join(parts) if parts else "()"

    def _fold(self, i: int):
        """(eps, phi, <h_i, wt>, f target, e target) in one left-to-right pass.

        The statistics and both operator targets share the phi of the
        factors before each factor m: f acts on the last m whose eps is >=
        it, e on the last m whose eps is > it (factor 0 by default).  A
        letter of another index has eps = phi = -inf and only moves the
        weight; a target on it makes `_apply` return 0, as does the default
        target when no factor has index i.  None is -inf inside the loop and
        NEG_INF is returned.
        """
        kept = self._folds.get(i)
        if kept is not None:
            return kept
        row = self.cartan.matrix[i - 1]
        eps = phi = None
        wtp = f_target = e_target = 0
        for m, (index, value) in enumerate(zip(self.indices, self.values)):
            lw = value * row[index - 1]
            if index == i:
                le = -value
                if phi is None:
                    f_target = e_target = m
                    phi = value
                else:
                    if phi <= le:
                        f_target = m
                        if phi < le:
                            e_target = m
                    phi += lw
                    if value > phi:
                        phi = value
                le -= wtp
                if eps is None or le > eps:
                    eps = le
            elif phi is not None:
                phi += lw
            wtp += lw
        if self.unit is not None:
            lam = self.unit.weight.coeffs[i - 1]
            m = len(self.values)
            if phi is None or phi <= -lam:
                f_target = m
                if phi is None or phi < -lam:
                    e_target = m
            phi = 0 if phi is None else max(phi + lam, 0)
            le = -lam - wtp
            if eps is None or le > eps:
                eps = le
            wtp += lam
        if eps is None:
            eps = phi = NEG_INF
        kept = self._folds[i] = (eps, phi, wtp, f_target, e_target)
        return kept

    def eps_phi_wt(self, i: int):
        """String statistics and the i-pairing of the weight."""
        return self._fold(i)[:3]

    def epsilon(self, i: int):
        return self._fold(i)[0]

    def phi(self, i: int):
        return self._fold(i)[1]

    def weight_pairings(self) -> tuple[int, ...]:
        """<h_j, wt> for every index j."""
        return tuple(self._fold(j)[2] for j in self.cartan.indices)

    def _apply(self, i: int, target: int, delta: int):
        values = self.values
        if target == len(values) or self.indices[target] != i:
            return None  # operators kill the unit letter and letters of other indices
        values = values[:target] + (values[target] + delta,) + values[target + 1 :]
        return TensorWord._checked(self.cartan, self.indices, values, self.unit)

    def f(self, i: int):
        """Lowering operator; None is the absorbing element."""
        return self._apply(i, self._fold(i)[3], -1)

    def e(self, i: int):
        """Raising operator; None is the absorbing element."""
        return self._apply(i, self._fold(i)[4], +1)

    def to_json_obj(self):
        out = [[i, v] for i, v in zip(self.indices, self.values)]
        if self.unit is not None:
            out.append(["r", list(self.unit.weight.coeffs)])
        return out

    @classmethod
    def from_json_obj(cls, cartan: CartanData, obj) -> "TensorWord":
        letters = []
        unit = None
        for entry in obj:
            if entry[0] == "r":
                unit = UnitLetter(Weight(tuple(map(exact_int, entry[1]))))
            else:
                letters.append(Letter(exact_int(entry[0]), exact_int(entry[1])))
        return cls(cartan, letters, unit)


class CrystalGraph:
    """Nodes plus i-labelled lowering edges reachable from a root."""

    def __init__(self, nodes, edges, depths, root: int = 0):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)  # (src_idx, i, dst_idx)
        self.depths = tuple(depths)
        self.root = root

    def __len__(self):
        return len(self.nodes)

    def node_set(self) -> set:
        return set(self.nodes)

    def to_json_dict(self) -> dict:
        return {
            "nodes": [n.to_json_obj() for n in self.nodes],
            "edges": [[s, i, d] for (s, i, d) in self.edges],
            "root": self.root,
        }

    def to_dot(self) -> str:
        lines = ["digraph crystal {"]
        for k, node in enumerate(self.nodes):
            lines.append(f'  n{k} [label="{node.label()}"];')
        for s, i, d in self.edges:
            lines.append(f'  n{s} -> n{d} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)


def bfs_graph(seed, indices, lower, depth: int) -> CrystalGraph:
    """Close `seed` under the lowering maps, up to `depth` applications."""
    if seed is None:
        raise ValueError("seed must be a crystal element, not the absorbing 0")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nodes = [seed]
    index = {seed: 0}
    depths = [0]
    edges = []
    queue = deque([0])
    while queue:
        src = queue.popleft()
        if depths[src] >= depth:
            continue
        for i in indices:
            child = lower(nodes[src], i)
            if child is None:
                continue
            dst = index.get(child)
            if dst is None:
                dst = len(nodes)
                index[child] = dst
                nodes.append(child)
                depths.append(depths[src] + 1)
                queue.append(dst)
            edges.append((src, i, dst))
    return CrystalGraph(nodes, edges, depths)


def check_strict_morphism(map_fn, sample, indices) -> list[dict]:
    """Violations of strictness for `map_fn` on the sampled elements.

    Strictness means: 0 maps to 0, the statistics eps/phi and the weight
    are preserved, and the map commutes with every raising and lowering
    operator.  An empty list is a pass.
    """
    violations = []
    if map_fn(None) is not None:
        violations.append({"kind": "zero", "detail": "map(0) != 0"})
    for b in sample:
        image = map_fn(b)
        if image is None:
            continue
        if b.weight_pairings() != image.weight_pairings():
            violations.append({"kind": "wt", "element": b, "image": image})
        for i in indices:
            be, bp, _ = b.eps_phi_wt(i)
            ie, ip, _ = image.eps_phi_wt(i)
            if be != ie:
                violations.append({"kind": "eps", "index": i, "element": b})
            if bp != ip:
                violations.append({"kind": "phi", "index": i, "element": b})
            for name in ("e", "f"):
                if map_fn(getattr(b, name)(i)) != getattr(image, name)(i):
                    violations.append({"kind": f"{name}-commute", "index": i, "element": b})
    return violations


def check_crystal_axioms(crystal, elements) -> list[dict]:
    """Check the defining crystal axioms on the given elements.

    `crystal` carries its Cartan datum as `crystal.cartan` and the
    accessors epsilon(b, i), phi(b, i), weight_pairings(b) -> pairing
    tuple, f(b, i) and e(b, i), with None playing the role of 0: a
    SequenceCrystal as it is, tensor words through a small adapter.

    `elements` is a sequence (it is read twice) of hashable elements, to
    which the accessors give equal answers whenever they are equal; an
    element may repeat, and each occurrence is reported.
    A first pass evaluates the accessors once per distinct element and
    index, and checks each image outside the elements on the spot.  The
    second pass reports in element order, then index order, and checks an
    image that is one of the elements against that element's row: its
    weight, and whether its e (or f) leads back.
    """
    cartan = crystal.cartan
    eps, phi, weight = crystal.epsilon, crystal.phi, crystal.weight_pairings
    f, e = crystal.f, crystal.e
    indices = cartan.indices
    # column i - 1 holds <h_j, alpha_i> for every j: the weight shift of an i-arrow
    columns = tuple(zip(*cartan.matrix))

    # every distinct element at the position of its first occurrence, with its weight
    position = dict.fromkeys(elements)
    for k, b in enumerate(position):
        position[b] = k
    shared = {}  # one tuple per distinct weight
    weights = [shared.setdefault(w, w) for w in map(weight, position)]

    def slot(image, b, wb, i, shift, back, kinds):
        """The position of an image among the elements or, for an image
        outside them, the kinds of its weight and back checks that fail."""
        if image is None:
            return None
        k = position.get(image)
        if k is not None:
            return k
        wrong_weight, no_way_back = kinds
        failed = ()
        if weight(image) != tuple(map(shift, wb, columns[i - 1])):
            failed += (wrong_weight,)
        if back(image, i) != b:
            failed += (no_way_back,)
        return failed

    # pass 1: the row of element k holds, for each index i in turn, (eps, phi,
    # f slot, e slot); one flat list, so the e slot sits at width * k + 4 * i - 1
    width = 4 * len(indices)
    rows = []
    for b, wb in zip(position, weights):
        for i in indices:
            ev, pv, fb, eb = eps(b, i), phi(b, i), f(b, i), e(b, i)
            rows += (ev, pv, slot(fb, b, wb, i, sub, e, ("wt-shift-f", "ef-adjoint")),
                     slot(eb, b, wb, i, add, f, ("wt-shift-e", "fe-adjoint")))

    violations = []

    def bad(kind, b, i, detail=""):
        violations.append({"kind": kind, "element": b, "index": i, "detail": detail})

    # pass 2
    for b in elements:
        k = position[b]
        wb = weights[k]
        stats = iter(rows[width * k : width * (k + 1)])
        for i, ev, pv, fk, ek in zip(indices, stats, stats, stats, stats):
            if (ev == NEG_INF) != (pv == NEG_INF):
                bad("eps-phi-finiteness", b, i)
            elif ev != NEG_INF and pv != ev + wb[i - 1]:
                bad("phi=eps+wt", b, i, f"phi={pv} eps={ev} wtp={wb[i - 1]}")
            if ev == NEG_INF and (fk is not None or ek is not None):
                bad("neginf-kills", b, i)
            if isinstance(fk, int):
                if weights[fk] != tuple(map(sub, wb, columns[i - 1])):
                    bad("wt-shift-f", b, i)
                if rows[width * fk + 4 * i - 1] != k:
                    bad("ef-adjoint", b, i)
            elif fk:
                for kind in fk:
                    bad(kind, b, i)
            if isinstance(ek, int):
                if weights[ek] != tuple(map(add, wb, columns[i - 1])):
                    bad("wt-shift-e", b, i)
                if rows[width * ek + 4 * i - 2] != k:
                    bad("fe-adjoint", b, i)
            elif ek:
                for kind in ek:
                    bad(kind, b, i)
    return violations
