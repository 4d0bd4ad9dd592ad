"""Elementary crystals, tensor words and crystal graphs.

A tensor word is a finite ordered product of integer-labelled letters
(x)_i, optionally terminated by the unit letter r_lambda of the
one-element crystal of a highest weight, stored as that `Weight`.  The
raising/lowering operators, the string statistics epsilon/phi, and
weights are computed by folding the two-factor tensor rules left to
right, in `fold` on plain index and value tuples, which the braid fuzz
also calls; the absorbing element 0 is represented by None.
"""

from __future__ import annotations

from .cartan import CartanData, Weight, exact_int


NEG_INF = float("-inf")  # eps and phi of a word with no letter of the index


def fold(row, indices, values, unit, i: int):
    """(eps, phi, <h_i, wt>, f target, e target) in one left-to-right pass.

    `row` is index i's Cartan row.  The statistics and both operator
    targets share the phi of the factors before each factor m: f acts on
    the last m whose eps is >= it, e on the last m whose eps is > it
    (factor 0 by default).  A letter of another index has eps = phi = -inf
    and only moves the weight; `TensorWord._apply` gives None for a target
    on it, as for the default target when no factor has index i.  None is -inf
    inside the loop and NEG_INF is returned.
    """
    eps = phi = None
    wtp = f_target = e_target = m = 0
    for index, value in zip(indices, values):
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
        m += 1
    if unit is not None:  # the unit letter is factor m = len(values)
        lam = unit[i - 1]
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
    return eps, phi, wtp, f_target, e_target


class TensorWord:
    """A finite tensor product of letters, leftmost factor first, kept as
    two int tuples: letter m is (values[m])_{indices[m]}."""

    __slots__ = ("cartan", "indices", "values", "unit")

    def __init__(self, cartan: CartanData, indices, values, unit: Weight | None = None):
        self.indices = tuple(indices)
        self.values = tuple(values)
        if len(self.indices) != len(self.values):
            raise ValueError("a word needs one value per letter index")
        # plain ints only: a float or a bool would pass the range check and
        # then flow through the folds as a non-integer letter
        if not all(type(v) is int for v in self.indices + self.values):
            raise ValueError("letter indices and values must be integers")
        for index in self.indices:
            if not 1 <= index <= cartan.rank:
                raise ValueError("letter index out of range")
        if unit is not None and unit.rank != cartan.rank:
            raise ValueError("unit weight rank mismatch")
        self.cartan = cartan
        self.unit = unit

    def __eq__(self, other):
        return (isinstance(other, TensorWord) and self.values == other.values
                and self.indices == other.indices and self.unit == other.unit)

    def __hash__(self):
        return hash((self.indices, self.values, self.unit))

    def __len__(self):
        return len(self.values) + (1 if self.unit is not None else 0)

    def __repr__(self):
        return f"TensorWord({self.label()})"

    def label(self) -> str:
        parts = [f"({v}){i}" for i, v in zip(self.indices, self.values)]
        if self.unit is not None:
            parts.append("r" + ",".join(map(str, self.unit)))
        return " ".join(parts) if parts else "()"

    def _fold(self, i: int):
        """`fold` of this word for index i."""
        return fold(self.cartan.matrix[i - 1], self.indices, self.values, self.unit, i)

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
        """This word with `delta` added to the value at `target`, or None when
        the target is the unit letter or a letter of another index: the
        operators kill those."""
        if target == len(self.values) or self.indices[target] != i:
            return None
        values = list(self.values)
        values[target] += delta
        return TensorWord(self.cartan, self.indices, values, self.unit)

    def f(self, i: int):
        """Lowering operator; None is the absorbing element."""
        return self._apply(i, self._fold(i)[3], -1)

    def e(self, i: int):
        """Raising operator; None is the absorbing element."""
        return self._apply(i, self._fold(i)[4], +1)

    def to_json_obj(self):
        out = [[i, v] for i, v in zip(self.indices, self.values)]
        if self.unit is not None:
            out.append(["r", list(self.unit)])
        return out

    @classmethod
    def from_json_obj(cls, cartan: CartanData, obj) -> "TensorWord":
        """The word of `to_json_obj`'s list: [index, value] letters, then at
        most one ["r", pairings] unit letter, which must come last."""
        if not isinstance(obj, list):
            raise ValueError(f"a tensor word is a list of letters, got {obj!r}")
        indices, values = [], []
        unit = None
        for entry in obj:
            if unit is not None:
                raise ValueError('a unit letter ["r", ...] must be the last entry')
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ValueError(f'a letter is [index, value] or ["r", pairings], got {entry!r}')
            if entry[0] == "r":
                unit = Weight(entry[1])
            else:
                indices.append(exact_int(entry[0]))
                values.append(exact_int(entry[1]))
        return cls(cartan, indices, values, unit)


class CrystalGraph:
    """Nodes plus i-labelled lowering edges reachable from a root."""

    root = 0  # the index of the root node: a graph lists its root first
    # (crystal, flat scans, f-targets), set only by the `SequenceCrystal.bfs`
    # that built the graph, for its axiom checker
    built_by = None

    def __init__(self, nodes, edges, depths):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)  # (src_idx, i, dst_idx)
        self.depths = tuple(depths)

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

    def to_dot(self, labels=None) -> str:
        """Graphviz text; `labels` lists the node labels in node order, each
        node's `label()` by default."""
        if labels is None:
            labels = [node.label() for node in self.nodes]
        lines = ["digraph crystal {"]
        lines += ['  n%d [label="%s"];' % node for node in enumerate(labels)]
        lines += ['  n%d -> n%d [label="%d"];' % (s, d, i) for s, i, d in self.edges]
        lines.append("}")
        return "\n".join(lines)

