"""Cartan data, integral weights, and periodic index sequences.

Everything downstream consumes only the integer pairings <h_i, alpha_j>,
so a generalized Cartan matrix plus a weight in pairing coordinates is
the complete description of the underlying algebra.  Indices are 1-based
throughout the public interface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class CartanError(ValueError):
    pass


@dataclass(frozen=True)
class CartanData:
    """A generalized Cartan matrix over the index set {1, .., rank}."""

    rank: int
    matrix: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise CartanError("rank must be a positive integer")
        if len(self.matrix) != self.rank:
            raise CartanError("matrix must have one row per index")
        for row in self.matrix:
            if len(row) != self.rank:
                raise CartanError("matrix must be square")
            if any(not isinstance(v, int) for v in row):
                raise CartanError("matrix entries must be integers")
        for i in range(self.rank):
            if self.matrix[i][i] != 2:
                raise CartanError("diagonal entries must equal 2")
            for j in range(self.rank):
                if i != j and self.matrix[i][j] > 0:
                    raise CartanError("off-diagonal entries must be <= 0")
                if (self.matrix[i][j] == 0) != (self.matrix[j][i] == 0):
                    raise CartanError("zero pattern must be symmetric")
        if self.labels is not None and len(self.labels) != self.rank:
            raise CartanError("labels must have one entry per index")

    def a(self, i: int, j: int) -> int:
        """Pairing <h_i, alpha_j>, 1-based."""
        return self.matrix[i - 1][j - 1]

    @property
    def indices(self) -> range:
        return range(1, self.rank + 1)

    def to_json_dict(self) -> dict:
        out = {"rank": self.rank, "matrix": [list(r) for r in self.matrix]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CartanData":
        if not isinstance(obj, dict):
            raise CartanError("Cartan JSON must be an object")
        matrix = obj["matrix"]
        labels = obj.get("labels")
        datum = cartan_from_matrix(matrix, labels=labels)
        if "rank" in obj and obj["rank"] != datum.rank:
            raise CartanError("declared rank does not match matrix size")
        return datum


def cartan_from_matrix(matrix, labels=None) -> CartanData:
    """Validate an integer matrix and wrap it as CartanData."""
    try:
        rows = tuple(tuple(int(v) for v in row) for row in matrix)
        lab = tuple(str(x) for x in labels) if labels is not None else None
    except TypeError as exc:
        raise CartanError("matrix must be a list of integer rows and labels a list") from exc
    return CartanData(rank=len(rows), matrix=rows, labels=lab)


def rank2_cartan(c1: int, c2: int) -> CartanData:
    """Two-index Cartan datum with pairings -c1 and -c2 off the diagonal."""
    return cartan_from_matrix([[2, -c1], [-c2, 2]])


def an_cartan(n: int) -> CartanData:
    """The simply laced chain A_n: pairing -1 between neighbouring indices."""
    return cartan_from_matrix(
        [[2 if a == b else (-1 if abs(a - b) == 1 else 0) for b in range(n)] for a in range(n)]
    )


def load_cartan(path) -> CartanData:
    with open(path) as fh:
        return CartanData.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class Weight:
    """Integral weight stored in pairing coordinates (<h_1,.>, .., <h_n,.>)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(v, int) for v in self.coeffs):
            raise CartanError("weight coordinates must be integers")

    def pairing(self, i: int) -> int:
        return self.coeffs[i - 1]

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @property
    def dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)


def weight(*coeffs: int) -> Weight:
    return Weight(tuple(int(c) for c in coeffs))


@dataclass(frozen=True)
class IndexSequence:
    """Infinite index sequence i_1, i_2, ... obtained by repeating a period.

    The period lists i_1 .. i_m in natural order and must mention every
    index of the algebra, so each index recurs infinitely often and every
    position has a next occurrence of its own index.
    """

    period: tuple[int, ...]
    rank: int

    def __post_init__(self):
        if not self.period:
            raise CartanError("period must be nonempty")
        if any(i < 1 or i > self.rank for i in self.period):
            raise CartanError("period entries must lie in 1..rank")
        missing = set(range(1, self.rank + 1)) - set(self.period)
        if missing:
            raise CartanError(f"period must mention every index, missing {sorted(missing)}")

    def __len__(self) -> int:
        return len(self.period)

    def index_at(self, k: int) -> int:
        """The index i_k, for any position k >= 1."""
        if k < 1:
            raise CartanError("positions are 1-based")
        return self.period[(k - 1) % len(self.period)]

    def next_occurrence(self, k: int) -> int:
        """Smallest position l > k with i_l = i_k."""
        target = self.index_at(k)
        for l in range(k + 1, k + len(self.period) + 1):
            if self.index_at(l) == target:
                return l
        raise AssertionError("periodicity guarantees a next occurrence")

    def prev_occurrence(self, k: int) -> int:
        """Largest position l < k with i_l = i_k, or 0 when there is none."""
        target = self.index_at(k)
        # the previous occurrence, if any, lies within one period of k
        for l in range(k - 1, max(0, k - len(self.period) - 1), -1):
            if self.index_at(l) == target:
                return l
        return 0

    def first_occurrence(self, i: int) -> int:
        """The unique position k with i_k = i and no earlier occurrence."""
        for k in range(1, len(self.period) + 1):
            if self.period[k - 1] == i:
                return k
        raise CartanError(f"index {i} does not occur")

    def next_position_of(self, i: int, after: int) -> int:
        """First position strictly beyond `after` carrying index i."""
        for l in range(after + 1, after + len(self.period) + 1):
            if self.index_at(l) == i:
                return l
        raise AssertionError("periodicity guarantees an occurrence")

    def positions_of(self, i: int, stop: int) -> list[int]:
        """All positions k <= stop with i_k = i."""
        return [k for k in range(1, stop + 1) if self.index_at(k) == i]

    @classmethod
    def from_string(cls, text: str, rank: int) -> "IndexSequence":
        """Parse space or comma separated indices, leftmost token = i_1."""
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise CartanError("empty index sequence")
        return cls(tuple(int(t) for t in tokens), rank)
