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

from .cartan import CartanData, Weight


class _NegInf:
    """Formal minus infinity: absorbing under +/-, below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        return self

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("-inf")

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


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
    """A finite tensor product of letters, leftmost factor first."""

    __slots__ = ("cartan", "letters", "unit", "_hash")

    def __init__(self, cartan: CartanData, letters, unit: UnitLetter | None = None):
        self.cartan = cartan
        self.letters = tuple(letters)
        self.unit = unit
        for letter in self.letters:
            if not 1 <= letter.index <= cartan.rank:
                raise ValueError("letter index out of range")
        if unit is not None and unit.weight.rank != cartan.rank:
            raise ValueError("unit weight rank mismatch")
        self._hash = hash((self.letters, self.unit))

    def __eq__(self, other):
        return (
            isinstance(other, TensorWord)
            and self.letters == other.letters
            and self.unit == other.unit
        )

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.letters) + (1 if self.unit is not None else 0)

    def __repr__(self):
        return f"TensorWord({self.label()})"

    def label(self) -> str:
        parts = [f"({l.value}){l.index}" for l in self.letters]
        if self.unit is not None:
            parts.append("r" + ",".join(str(c) for c in self.unit.weight.coeffs))
        return " ".join(parts) if parts else "()"

    def _factor_data(self, m: int, i: int):
        """(eps_i, phi_i, <h_i, wt>) of the m-th factor (0-based)."""
        if m < len(self.letters):
            letter = self.letters[m]
            wtp = letter.value * self.cartan.a(i, letter.index)
            if letter.index == i:
                return -letter.value, letter.value, wtp
            return NEG_INF, NEG_INF, wtp
        lam = self.unit.weight.pairing(i)
        return -lam, 0, lam

    def eps_phi_wt(self, i: int):
        """String statistics and the i-pairing of the weight, in one fold."""
        eps = NEG_INF
        phi = NEG_INF
        wtp = 0
        for m in range(len(self)):
            le, lp, lw = self._factor_data(m, i)
            cand = le - wtp
            if eps < cand:
                eps = cand
            cand = phi + lw
            phi = lp if lp >= cand else cand
            wtp += lw
        return eps, phi, wtp

    def epsilon(self, i: int):
        return self.eps_phi_wt(i)[0]

    def phi(self, i: int):
        return self.eps_phi_wt(i)[1]

    def weight_pairings(self) -> tuple[int, ...]:
        """<h_j, wt> for every index j."""
        out = []
        for j in self.cartan.indices:
            total = sum(l.value * self.cartan.a(j, l.index) for l in self.letters)
            if self.unit is not None:
                total += self.unit.weight.pairing(j)
            out.append(total)
        return tuple(out)

    def _action_target(self, i: int, lowering: bool) -> int:
        """Factor the operator acts on, by scanning prefix phi against eps."""
        n = len(self)
        # prefix_phi[m] = phi_i of the first m factors
        prefix_phi = [NEG_INF] * (n + 1)
        phi = NEG_INF
        for m in range(n):
            le, lp, lw = self._factor_data(m, i)
            cand = phi + lw
            phi = lp if lp >= cand else cand
            prefix_phi[m + 1] = phi
        for m in range(n - 1, 0, -1):
            eps_m = self._factor_data(m, i)[0]
            if lowering:
                if prefix_phi[m] <= eps_m:
                    return m
            else:
                if prefix_phi[m] < eps_m:
                    return m
        return 0

    def _apply(self, i: int, target: int, delta: int):
        if target == len(self.letters):
            return None  # operators kill the unit letter
        letter = self.letters[target]
        if letter.index != i:
            return None
        new = Letter(i, letter.value + delta)
        letters = self.letters[:target] + (new,) + self.letters[target + 1 :]
        return TensorWord(self.cartan, letters, self.unit)

    def f(self, i: int):
        """Lowering operator; None is the absorbing element."""
        if len(self) == 0:
            return None
        return self._apply(i, self._action_target(i, lowering=True), -1)

    def e(self, i: int):
        """Raising operator; None is the absorbing element."""
        if len(self) == 0:
            return None
        return self._apply(i, self._action_target(i, lowering=False), +1)

    def to_json_obj(self):
        out = [[l.index, l.value] for l in self.letters]
        if self.unit is not None:
            out.append(["r", list(self.unit.weight.coeffs)])
        return out

    @classmethod
    def from_json_obj(cls, cartan: CartanData, obj) -> "TensorWord":
        letters = []
        unit = None
        for entry in obj:
            if entry[0] == "r":
                unit = UnitLetter(Weight(tuple(int(c) for c in entry[1])))
            else:
                letters.append(Letter(int(entry[0]), int(entry[1])))
        return cls(cartan, letters, unit)


class CrystalGraph:
    """Nodes plus i-labelled lowering edges reachable from a root."""

    def __init__(self, nodes, edges, depths, root: int = 0):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)  # (src_idx, i, dst_idx)
        self.depths = tuple(depths)
        self.root = root
        self._index = {node: k for k, node in enumerate(self.nodes)}

    def __len__(self):
        return len(self.nodes)

    def index_of(self, node) -> int:
        return self._index[node]

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


def connected_component(seed: TensorWord, depth: int) -> CrystalGraph:
    """All lowering descendants of a tensor word, with labelled edges."""
    return bfs_graph(seed, seed.cartan.indices, lambda w, i: w.f(i), depth)


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
            for name, op in (("e", lambda w, i=i: w.e(i)), ("f", lambda w, i=i: w.f(i))):
                lhs = map_fn(op(b))
                rhs = op(image)
                if lhs != rhs:
                    violations.append({"kind": f"{name}-commute", "index": i, "element": b})
    return violations


def check_crystal_axioms(cartan, elements, indices, *, eps, phi, weight, f, e) -> list[dict]:
    """Check the defining crystal axioms on the given elements.

    The accessors abstract over the concrete realization so the same
    checker drives both tensor words and coordinate vectors: eps(b, i),
    phi(b, i), weight(b) -> pairing tuple, f(b, i), e(b, i) with None
    playing the role of 0.
    """
    violations = []

    def bad(kind, b, i, detail=""):
        violations.append({"kind": kind, "element": b, "index": i, "detail": detail})

    for b in elements:
        wb = weight(b)
        for i in indices:
            ev = eps(b, i)
            pv = phi(b, i)
            if (ev is NEG_INF) != (pv is NEG_INF):
                bad("eps-phi-finiteness", b, i)
            elif ev is not NEG_INF and pv != ev + wb[i - 1]:
                bad("phi=eps+wt", b, i, f"phi={pv} eps={ev} wtp={wb[i - 1]}")
            fb = f(b, i)
            eb = e(b, i)
            if ev is NEG_INF and (fb is not None or eb is not None):
                bad("neginf-kills", b, i)
            if fb is not None:
                wf = weight(fb)
                for j in indices:
                    if wf[j - 1] != wb[j - 1] - cartan.a(j, i):
                        bad("wt-shift-f", b, i)
                        break
                if e(fb, i) != b:
                    bad("ef-adjoint", b, i)
            if eb is not None:
                we = weight(eb)
                for j in indices:
                    if we[j - 1] != wb[j - 1] + cartan.a(j, i):
                        bad("wt-shift-e", b, i)
                        break
                if f(eb, i) != b:
                    bad("fe-adjoint", b, i)
    return violations
