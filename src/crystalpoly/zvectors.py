"""Crystal structure on finitely supported integer sequences.

An element is a sparse vector (.., x_2, x_1); the operator for index i
acts on the position selected by the sigma statistics attached to a
periodic index sequence.  Two structures live on the same vectors: the
highest-weight one (a weight gates the actions through sigma_0) and the
free one (no gate on lowering, raising needs a positive sigma).  The
breadth-first closure of the zero vector is the ground-truth oracle the
inequality systems are checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, count, repeat
from operator import add, itemgetter, sub
from typing import NamedTuple

from .cartan import CartanData, IndexSequence, Weight, decimal_int, exact_int
from .crystals import NEG_INF, CrystalGraph

Coords = tuple[tuple[int, int], ...]  # sorted (position, value), values nonzero; vectors from 1

MAX_NODES = 200_000  # BFS nodes before `bfs` gives up: a closure can grow without end


def _bumped(coords: Coords, k: int, delta: int) -> Coords:
    """coords with x_k += delta, spliced in place; a coordinate that reaches 0 drops."""
    n = bisect_left(coords, (k,))  # (k,) sorts before every (k, value)
    if n < len(coords) and coords[n][0] == k:
        val = coords[n][1] + delta
        return coords[:n] + (((k, val),) if val else ()) + coords[n + 1 :]
    if not delta:
        return coords
    return coords[:n] + ((k, delta),) + coords[n:]


class ZVector(tuple):
    """Finitely supported integer vector plus the highest weight of its crystal.

    A vector is the tuple (coords, lam), lam None in free mode: it equals,
    hashes and unpacks as that plain tuple.
    """

    __slots__ = ()

    coords = property(itemgetter(0), doc="Sorted (position >= 1, value) pairs, no zero value.")
    lam = property(itemgetter(1), doc="The highest weight, None in free mode.")

    def __new__(cls, coords: Coords, lam: Weight | None = None):
        return tuple.__new__(cls, (coords, lam))

    def __getnewargs__(self):
        return tuple(self)  # pickle and copy rebuild through the two-argument __new__

    def get(self, k: int) -> int:
        for pos, val in self.coords:
            if pos == k:
                return val
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.coords)

    @property
    def max_pos(self) -> int:
        return self.coords[-1][0] if self.coords else 0

    @property
    def total(self) -> int:
        return sum(val for _, val in self.coords)

    def bumped(self, k: int, delta: int) -> "ZVector":
        """x_k += delta, splicing the sorted coords; a coordinate that reaches 0 drops."""
        coords = _bumped(self.coords, k, delta)
        return self if coords is self.coords else ZVector(coords, self.lam)

    def label(self) -> str:
        return Labels()(self.coords)

    def __repr__(self):
        return f"ZVector({self.label()})"

    def to_json_obj(self) -> dict:
        mode = "binf" if self.lam is None else {"lambda": list(self.lam)}
        return {"coords": {str(pos): val for pos, val in self.coords}, "mode": mode}

    @classmethod
    def from_json_obj(cls, obj) -> "ZVector":
        mode = obj.get("mode", "binf")
        lam = None if mode == "binf" else Weight(mode["lambda"])
        coords = obj["coords"]
        if not isinstance(coords, dict):
            raise TypeError("coords must map positions to values")
        return cls.from_dict(json_positions(coords), lam)

    @classmethod
    def from_dict(cls, d: dict[int, int], lam: Weight | None = None) -> "ZVector":
        """The vector of {position: value}, read by `dict_coords`."""
        return cls(dict_coords(d), lam)


def dict_coords(d: dict) -> Coords:
    """The coords of {position: value}, each an int or a number equal to one
    (`exact_int`): zero values drop, and a position below 1 raises
    ValueError.  Vectors and forms read their positions this one way."""
    items = sorted((exact_int(k), exact_int(v)) for k, v in d.items())
    if items and items[0][0] < 1:
        raise ValueError("positions are 1-based")
    return tuple(kv for kv in items if kv[1])


def json_positions(obj: dict) -> dict:
    """{position: value} of a JSON object keyed by positions, as `to_json_obj`
    writes them; a key that is not ASCII decimal (`decimal_int`), is below 1,
    or names a position another key named ("1" and "01"), raises ValueError."""
    out = {}
    for k, v in obj.items():
        pos = decimal_int(k, "a coordinate key must be an ASCII decimal position")
        if pos < 1:
            raise ValueError("positions are 1-based")
        if pos in out:
            raise ValueError(f"position {pos} is given twice")
        out[pos] = v
    return out


class Labels(dict):
    """`ZVector.label()` of coords, as labels(coords): "0", or the terms
    x<pos>=<val> joined by commas, each distinct term formatted once."""

    __slots__ = ()

    def __missing__(self, term: tuple[int, int]) -> str:
        text = self[term] = "x%d=%d" % term
        return text

    def __call__(self, coords: Coords) -> str:
        return ",".join(map(self.__getitem__, coords)) or "0"


class MSet(NamedTuple):
    sigma: int
    min_pos: int
    max_pos: int | None  # None flags an infinite tail of attaining positions


class SequenceCrystal:
    """Operators, statistics, and BFS for one (cartan, sequence, weight)."""

    def __init__(self, cartan: CartanData, seq: IndexSequence, lam: Weight | None = None):
        if seq.rank != cartan.rank:
            raise ValueError("sequence rank must match the Cartan datum")
        if lam is not None and lam.rank != cartan.rank:
            raise ValueError("weight rank must match the Cartan datum")
        self.cartan = cartan
        self.seq = seq
        self.lam = lam
        # per index i: its step table and lambda_i.  Entry r of the table is
        # read at every position p with p % m == r: the offset from p to the
        # first position of index i above p, whether p carries index i,
        # <h_i, alpha_{i_p}>, and the offset from p - 1 back to the last
        # position of index i up to p - 1
        period, m = seq.period, len(seq.period)
        lams = (0,) * cartan.rank if lam is None else lam
        self._per_index = tuple(
            (tuple((next_of[r], period[r - 1] == i, row[period[r - 1] - 1], last_of[r - 1])
                   for r in range(m)), lam_i)
            for i, row, next_of, last_of, lam_i
            in zip(cartan.indices, cartan.matrix, seq._next_of, seq._last_of, lams))

    def zero(self) -> ZVector:
        return ZVector((), self.lam)

    def sigma(self, x: ZVector, k: int) -> int:
        """x_k plus the pairing-weighted tail sum over positions above k."""
        ik = self.seq.index_at(k)
        total = x.get(k)
        for pos, val in x.coords:
            if pos > k:
                total += self.cartan.a(ik, self.seq.index_at(pos)) * val
        return total

    def _scan(self, x: ZVector, i: int) -> tuple[int, int, int | None, int]:
        """`_scan_coords` of a checked vector."""
        if x.lam is not self.lam and x.lam != self.lam:
            raise ValueError("vector weight does not match this crystal")
        if x.coords and x.coords[0][0] < 1:
            raise ValueError("positions are 1-based")
        return self._scan_coords(x.coords, i)

    def _scan_coords(self, coords: Coords, i: int) -> tuple[int, int, int | None, int]:
        """(sigma, min_pos, max_pos) of m_set(x, i) and sigma_0, one pass over the support.

        sigma(x, k) is x_k plus the running pairing-weighted sum over the
        positions above k; over all positions that sum is sigma_0 + lambda_i,
        lambda_i read as 0 in free mode, so <h_i, wt x> = -sigma_0 in both.
        In a run of zero coordinates every position of index i has sigma
        equal to that sum, so only the lowest and the highest one count.
        Beyond the support every sigma is 0, so the max is >= 0;
        max_pos=None flags the infinite attaining set of a max of 0.
        """
        steps, lam_i = self._per_index[i - 1]
        m = len(steps)
        tail = best = upper = 0  # upper: the coordinate visited last, 0 above the top
        lo = hi = None
        for pos, v in reversed(coords):
            ahead, carries, a, behind = steps[pos % m]
            first = pos + ahead
            if first < upper:  # the zero run strictly between pos and upper
                if tail > best:
                    best, lo, hi = tail, first, upper - 1 - back  # the last i below upper
                elif tail == best:
                    lo = first
            if carries:
                s = v + tail
                if s > best:
                    best, lo, hi = s, pos, pos
                elif s == best:
                    lo = pos
            tail += a * v
            upper, back = pos, behind
        first = steps[0][0]
        if first < upper:  # the zero run below the lowest coordinate
            if tail > best:
                best, lo, hi = tail, first, upper - 1 - back
            elif tail == best:
                lo = first
        if lo is None:  # no position up to the top attains the max 0
            top = coords[-1][0] if coords else 0
            lo = top + steps[top % m][0]
        return best, lo, hi, tail - lam_i

    def _gate(self, best: int, sigma_0: int) -> tuple[int, bool, bool]:
        """(epsilon, whether f acts, whether e acts) from a scan's max and sigma_0;
        phi is epsilon - sigma_0.  Free: f always acts, e when best > 0.  With
        a weight: f when best > sigma_0, e when best > 0 and best >= sigma_0."""
        if self.lam is None:
            return best, True, best > 0
        if best >= sigma_0:
            return best, best > sigma_0, best > 0
        return sigma_0, False, False

    def sigma_0(self, x: ZVector, i: int) -> int:
        """Affine companion of sigma carrying the highest-weight data."""
        if self.lam is None:
            raise ValueError("sigma_0 is only defined in highest-weight mode")
        return self._scan(x, i)[3]

    def m_set(self, x: ZVector, i: int) -> MSet:
        """Max of sigma over positions of index i, with arg-min and arg-max."""
        return MSet(*self._scan(x, i)[:3])

    def f(self, x: ZVector, i: int) -> ZVector | None:
        """Lowering: add 1 at the first position attaining the sigma max."""
        best, lo, _, sigma_0 = self._scan(x, i)
        return x.bumped(lo, +1) if self._gate(best, sigma_0)[1] else None

    def e(self, x: ZVector, i: int) -> ZVector | None:
        """Raising: subtract 1 at the last position attaining the sigma max."""
        best, _, hi, sigma_0 = self._scan(x, i)
        return x.bumped(hi, -1) if self._gate(best, sigma_0)[2] else None

    def weight_pairings(self, x: ZVector) -> tuple[int, ...]:
        """<h_j, wt(x)> for every j, with wt = lambda minus the step roots."""
        return self._weight_coords(x.coords, self._slot_pairings())

    def _slot_pairings(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per period slot k, the nonzero <h_j, alpha_{i_k}> with their 0-based j."""
        return tuple(
            tuple((j, row[ik - 1]) for j, row in enumerate(self.cartan.matrix) if row[ik - 1])
            for ik in self.seq.period)

    def _weight_coords(self, coords: Coords, table) -> tuple[int, ...]:
        """`weight_pairings` of bare coords, from the `_slot_pairings` table."""
        out = list(self.lam) if self.lam is not None else [0] * self.cartan.rank
        m = len(table)
        for pos, val in coords:
            for j, a in table[(pos - 1) % m]:
                out[j] -= a * val
        return tuple(out)

    def epsilon(self, x: ZVector, i: int) -> int:
        best, _, _, sigma_0 = self._scan(x, i)
        return self._gate(best, sigma_0)[0]

    def phi(self, x: ZVector, i: int) -> int:
        best, _, _, sigma_0 = self._scan(x, i)
        return self._gate(best, sigma_0)[0] - sigma_0

    def closure(self, depth: int) -> dict[Coords, int]:
        """The coords of every lowering descendant of the zero vector, to the
        given depth, each mapped to its place in BFS order.

        The lowering loop of `bfs`, with the same gate, step, order and
        MAX_NODES ValueError, keeping no scan, edge or vector: its keys are
        `[n.coords for n in bfs(depth).nodes]`.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        scan = self._scan_coords
        gated = self.lam is not None
        indices = self.cartan.indices
        cap = MAX_NODES
        keys: list[Coords] = [()]
        index = {(): 0}
        # a node's depth is its coordinate total; the queue holds the layers
        # in order, so layer d ends where layer d + 1 starts
        layer_end, child_depth = 1, 1
        for src, coords in enumerate(keys):  # the loop reaches the keys it appends
            if src == layer_end:
                layer_end, child_depth = len(keys), child_depth + 1
            if child_depth > depth:
                break
            for i in indices:
                best, lo, _, sigma_0 = scan(coords, i)
                if gated and best <= sigma_0:
                    continue
                child = _bumped(coords, lo, +1)
                if child not in index:
                    if len(keys) == cap:
                        raise ValueError(
                            f"the BFS passed the cap of {cap} nodes at depth {child_depth}")
                    index[child] = len(keys)
                    keys.append(child)
        return index

    def bfs(self, depth: int) -> CrystalGraph:
        """All lowering descendants of the zero vector, to the given depth.

        The closure runs on coords tuples, lowered by `_scan_coords` and
        `_bumped` as `f` does; a node's index is its place in the FIFO queue,
        and one ZVector per node is made for the graph.  For the axiom
        checker the graph's `built_by` holds this crystal and each expanded
        node's scans (flat, as kept tuples would make the garbage collector
        walk them) and f-targets in (node, index) order; the last layer is
        never scanned.  The crystal keeps none of it.  A closure that passes
        MAX_NODES nodes raises ValueError.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        scan = self._scan_coords
        gated = self.lam is not None
        indices = self.cartan.indices
        cap = MAX_NODES
        keys: list[Coords] = [()]
        index = {(): 0}
        depths = [0]
        edges = []
        scans, targets = [], []
        for src, coords in enumerate(keys):  # the loop reaches the keys it appends
            child_depth = depths[src] + 1
            if child_depth > depth:  # depths never fall along the queue
                break
            for i in indices:
                found = scan(coords, i)
                scans += found
                best, lo, _, sigma_0 = found
                if gated and best <= sigma_0:
                    targets.append(None)
                    continue
                child = _bumped(coords, lo, +1)
                dst = index.get(child)
                if dst is None:
                    if len(keys) == cap:
                        raise ValueError(
                            f"the BFS passed the cap of {cap} nodes at depth {child_depth}")
                    dst = index[child] = len(keys)
                    keys.append(child)
                    depths.append(child_depth)
                targets.append(dst)
                edges.append((src, i, dst))
        graph = CrystalGraph([ZVector(c, self.lam) for c in keys], edges, depths)
        graph.built_by = (self, scans, targets)
        return graph


def check_crystal_axioms(crystal: SequenceCrystal, graph: CrystalGraph) -> list[dict]:
    """The crystal axioms on every node of `graph`, which the crystal's `bfs` built.

    A graph that this crystal's `bfs` did not build raises ValueError.
    One pass over (node, index) reports in node order, then index order.
    Each node's scan comes from the graph's `built_by`, or from a fresh
    scan for the last layer, which the BFS never expands; `_gate` reads
    eps, phi and which operators act from a scan, as the accessors do.
    e(f b) = b exactly when e acts on f b at the position f acted on, and
    f(e b) = b likewise, so an f image that is a node is checked against
    that node's scan.  An e image is first read off the BFS's f-edges: the
    source of the edge into (b, i) is e b when f acted on it where e acts
    on b, and then f leads back and the weight shift is the edge's own.
    An f image with no f-edge belongs to a last-layer node: f adds 1 to one
    coordinate, so a node's depth is its coordinate total and that image
    is one deeper than every node.  Such an f image, and any e image not
    read off an f-edge (a clean graph has none), is the `_bumped` coords,
    scanned on the spot and weighed once however often it is reached; a
    node's kept scan and weight equal fresh ones, so no image is looked up.
    A weight one i-arrow away is built only to be compared.
    """
    built_by = graph.built_by
    if built_by is None or built_by[0] is not crystal:
        raise ValueError("the graph was not built by this crystal's bfs")
    _, kept_scans, f_targets = built_by
    nodes = graph.nodes
    scan, gate, weight = crystal._scan_coords, crystal._gate, crystal._weight_coords
    table = crystal._slot_pairings()  # built once per check; the crystal keeps no copy
    indices = crystal.cartan.indices
    rank = len(indices)
    # column i - 1 holds <h_j, alpha_i> for every j: the weight shift of an i-arrow
    columns = tuple(zip(*crystal.cartan.matrix))
    weights = [weight(b.coords, table) for b in nodes]
    # slot rank * k + i - 1 is (node k, index i); its scan is scans[4 * slot : 4 * slot + 4]
    expanded = len(f_targets) // rank
    scans = kept_scans + [v for b in nodes[expanded:] for i in indices for v in scan(b.coords, i)]
    into = [None] * (rank * len(nodes))  # per slot, the slot of the f-edge into it
    for src, dst in enumerate(f_targets):
        if dst is not None:
            into[rank * dst + src % rank] = src
    # per slot, whether its wt-shift-f check on a node failed; the e arrow
    # back along an edge reads it, and an edge's target comes later in BFS
    # order, as its total is one more than its source's
    f_wrong = [False] * len(into)
    outside = {}  # the weight of each image, by coords
    violations = []

    def weigh(image):
        if (w := outside.get(image)) is None:
            w = outside[image] = weight(image, table)
        return w

    def bad(kind, b, i, detail=""):
        violations.append({"kind": kind, "element": b, "index": i, "detail": detail})

    quads = zip(*[iter(scans)] * 4)
    slots = zip(count(), chain(f_targets, repeat(None)), into)
    for b, wb in zip(nodes, weights):
        coords = b.coords
        for i, (best, lo, hi, sigma_0), (slot, fk, src) in zip(indices, quads, slots):
            ev, f_acts, e_acts = gate(best, sigma_0)
            pv = ev - sigma_0
            # an honest eps is >= 0, so the finiteness checks run only when
            # eps < 0 or phi = eps + wt fails, which each of those checks implies
            if ev < 0 or pv != ev + wb[i - 1]:
                if (ev == NEG_INF) != (pv == NEG_INF):
                    bad("eps-phi-finiteness", b, i)
                elif ev != NEG_INF and pv != ev + wb[i - 1]:
                    bad("phi=eps+wt", b, i, f"phi={pv} eps={ev} wtp={wb[i - 1]}")
                if ev == NEG_INF and (f_acts or e_acts):
                    bad("neginf-kills", b, i)
            if f_acts:
                down = tuple(map(sub, wb, columns[i - 1]))
                if fk is not None:
                    u = 4 * (rank * fk + i - 1)
                    wrong = weights[fk] != down
                    astray = not gate(scans[u], scans[u + 3])[2] or scans[u + 2] != lo
                    f_wrong[slot] = wrong
                else:  # b is in the last layer, and its image one deeper than every node
                    wrong = weigh(image := _bumped(coords, lo, +1)) != down
                    best, _, back, s0 = scan(image, i)
                    astray = not gate(best, s0)[2] or back != lo
                if wrong:
                    bad("wt-shift-f", b, i)
                if astray:
                    bad("ef-adjoint", b, i)
            if e_acts:
                if src is not None and scans[4 * src + 1] == hi:
                    wrong, astray = f_wrong[src], False
                else:
                    up = tuple(map(add, wb, columns[i - 1]))
                    wrong = weigh(image := _bumped(coords, hi, -1)) != up
                    best, back, _, s0 = scan(image, i)
                    astray = not gate(best, s0)[1] or back != hi
                if wrong:
                    bad("wt-shift-e", b, i)
                if astray:
                    bad("fe-adjoint", b, i)
    return violations
