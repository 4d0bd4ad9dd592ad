"""Cartan data, integral weights, and periodic index sequences.

Everything downstream consumes only the integer pairings <h_i, alpha_j>,
so a generalized Cartan matrix plus a weight in pairing coordinates is
the complete description of the underlying algebra.  Indices are 1-based
throughout the public interface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CartanData:
    """A generalized Cartan matrix over the index set {1, .., rank}."""

    rank: int
    matrix: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")
        if len(self.matrix) != self.rank:
            raise ValueError("matrix must have one row per index")
        for row in self.matrix:
            if len(row) != self.rank:
                raise ValueError("matrix must be square")
            if any(not isinstance(v, int) for v in row):
                raise ValueError("matrix entries must be integers")
        for i in range(self.rank):
            if self.matrix[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(self.rank):
                if i != j and self.matrix[i][j] > 0:
                    raise ValueError("off-diagonal entries must be <= 0")
                if (self.matrix[i][j] == 0) != (self.matrix[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")
        if self.labels is not None and len(self.labels) != self.rank:
            raise ValueError("labels must have one entry per index")

    def a(self, i: int, j: int) -> int:
        """Pairing <h_i, alpha_j>, 1-based."""
        return self.matrix[i - 1][j - 1]

    @property
    def indices(self) -> range:
        return range(1, self.rank + 1)

    def is_reduced(self, word) -> bool:
        """Whether s_{i_1} .. s_{i_k} is a reduced expression of its Weyl group element.

        It is exactly when s_{i_1} .. s_{i_{k-1}}(alpha_{i_k}) is a positive
        root for every k.  The product w so far is kept as its columns
        w(alpha_j) in simple-root coordinates; a root has all coordinates of
        one sign, so its first nonzero one tells.  Appending s_i changes
        each column to w(alpha_j) - <h_i, alpha_j> w(alpha_i).
        """
        n = self.rank
        columns = [[int(r == j) for r in range(n)] for j in range(n)]
        for i in word:
            if not 1 <= i <= n:
                raise ValueError(f"word entries must lie in 1..{n}")
            image = columns[i - 1]
            if next(c for c in image if c) < 0:
                return False
            for j, a in enumerate(self.matrix[i - 1]):
                if a:
                    columns[j] = [c - a * v for c, v in zip(columns[j], image)]
        return True

    def to_json_dict(self) -> dict:
        out = {"rank": self.rank, "matrix": [list(r) for r in self.matrix]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CartanData":
        """The datum of `to_json_dict`'s object; "matrix" is required."""
        if not isinstance(obj, dict):
            raise ValueError("Cartan JSON must be an object")
        if "matrix" not in obj:
            raise ValueError('Cartan JSON needs a "matrix" key')
        datum = cartan_from_matrix(obj["matrix"], labels=obj.get("labels"))
        if "rank" in obj and exact_int(obj["rank"]) != datum.rank:
            raise ValueError("declared rank does not match matrix size")
        return datum


def exact_int(value) -> int:
    """`value` as an int, refusing a bool, one that int() would change (1.5,
    "2", inf) and one it refuses ("x", nan, None, [1])."""
    if isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"expected an integer, got {value!r}")


_DECIMAL = re.compile(r"-?[0-9]+")


def decimal_int(text, what: str = "expected an ASCII decimal integer") -> int:
    """`text` as an int when it is ASCII digits after an optional minus, the one
    form of integer text read from outside the program: CLI tokens, JSON keys
    and decimal-string values.  Anything else ("+1", "1_0", " 3", "\u0663",
    "1.0", or a value that is not a str) raises ValueError "<what>, got <text>"."""
    if type(text) is str and _DECIMAL.fullmatch(text):
        return int(text)
    raise ValueError(f"{what}, got {text!r}")


def decimal_ints(text: str) -> tuple[int, ...]:
    """The `decimal_int`s of `text`'s tokens, split at commas and whitespace:
    a `--lambda`, `--iota` or `--window` list."""
    return tuple(map(decimal_int, text.replace(",", " ").split()))


def cartan_from_matrix(matrix, labels=None) -> CartanData:
    """Validate an integer matrix and wrap it as CartanData."""
    if labels is not None and not (
            isinstance(labels, (list, tuple)) and all(isinstance(x, str) for x in labels)):
        raise ValueError("labels must be a list of strings")
    try:
        rows = tuple(tuple(exact_int(v) for v in row) for row in matrix)
    except TypeError as exc:
        raise ValueError("matrix must be a list of integer rows") from exc
    except ValueError as exc:
        raise ValueError("matrix entries must be integers") from exc
    lab = None if labels is None else tuple(labels)
    return CartanData(rank=len(rows), matrix=rows, labels=lab)


def rank2_cartan(c1: int, c2: int) -> CartanData:
    """Two-index Cartan datum with pairings -c1 and -c2 off the diagonal."""
    return cartan_from_matrix([[2, -c1], [-c2, 2]])


def an_cartan(n: int) -> CartanData:
    """The simply laced chain A_n: pairing -1 between neighbouring indices."""
    return cartan_from_matrix(
        [[2 if a == b else (-1 if abs(a - b) == 1 else 0) for b in range(n)] for a in range(n)]
    )


class Weight(tuple):
    """Integral weight as the tuple of its pairings (<h_1,.>, .., <h_n,.>);
    it equals and hashes as that plain tuple, each entry through `exact_int`."""

    __slots__ = ()

    def __new__(cls, pairings):
        if not hasattr(pairings, "__iter__"):
            raise ValueError(f"a weight is a list of integers, got {pairings!r}")
        return tuple.__new__(cls, map(exact_int, pairings))

    def pairing(self, i: int) -> int:
        return self[i - 1]

    @property
    def rank(self) -> int:
        return len(self)

    @property
    def dominant(self) -> bool:
        return all(c >= 0 for c in self)


def weight(*pairings: int) -> Weight:
    return Weight(pairings)


@dataclass(frozen=True)
class IndexSequence:
    """Infinite index sequence i_1, i_2, ... obtained by repeating a period.

    The period lists i_1 .. i_m in natural order and must mention every
    index of the algebra, so each index recurs infinitely often and every
    position has a next occurrence of its own index.
    """

    period: tuple[int, ...]
    rank: int
    # offset tables by period slot, built once; they follow from the period,
    # so equality, hashing and repr leave them out
    _next_of: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    _last_of: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(i < 1 or i > self.rank for i in self.period):
            raise ValueError("period entries must lie in 1..rank")
        missing = set(range(1, self.rank + 1)) - set(self.period)
        if missing:
            raise ValueError(f"period must mention every index, missing {sorted(missing)}")
        m = len(self.period)
        # _next_of[i - 1][r]: distance from a position p with p % m == r to
        # the first position beyond p carrying index i (1..m)
        # _last_of[i - 1][r]: distance from a position p with p % m == r
        # back to the last position up to p carrying index i (0..m-1)
        next_of, last_of = [], []
        for i in range(1, self.rank + 1):
            offsets = [0] * m
            ahead = self.period.index(i) + m  # slot of the next i, unwrapped
            for r in range(m - 1, -1, -1):
                if self.period[r] == i:
                    ahead = r
                offsets[r] = ahead - r + 1
            next_of.append(tuple(offsets))
            behind = -1 - self.period[::-1].index(i)  # slot of the last i, one period back
            for s in range(m):  # position p at slot s has p % m == (s + 1) % m
                if self.period[s] == i:
                    behind = s
                offsets[(s + 1) % m] = s - behind
            last_of.append(tuple(offsets))
        object.__setattr__(self, "_next_of", tuple(next_of))
        object.__setattr__(self, "_last_of", tuple(last_of))

    def __len__(self) -> int:
        return len(self.period)

    def index_at(self, k: int) -> int:
        """The index i_k, for any position k >= 1."""
        if k < 1:
            raise ValueError("positions are 1-based")
        return self.period[(k - 1) % len(self.period)]

    def next_occurrence(self, k: int) -> int:
        """Smallest position l > k with i_l = i_k."""
        if k < 1:
            raise ValueError("positions are 1-based")
        m = len(self.period)
        return k + self._next_of[self.period[(k - 1) % m] - 1][k % m]

    def prev_occurrence(self, k: int) -> int:
        """Largest position l < k with i_l = i_k, or 0 when there is none."""
        if k < 1:
            raise ValueError("positions are 1-based")
        s = (k - 1) % len(self.period)
        l = k - 1 - self._last_of[self.period[s] - 1][s]
        return l if l > 0 else 0

    def first_occurrence(self, i: int) -> int:
        """The unique position k with i_k = i and no earlier occurrence."""
        if i not in self.period:
            raise ValueError(f"index {i} does not occur")
        return self.period.index(i) + 1

    def next_position_of(self, i: int, after: int) -> int:
        """First position strictly beyond `after` carrying index i."""
        if after < 0:
            raise ValueError("positions are 1-based")
        if not 1 <= i <= self.rank:
            raise ValueError(f"index {i} does not occur")
        return after + self._next_of[i - 1][after % len(self.period)]

    def positions_of(self, i: int, stop: int) -> list[int]:
        """All positions k <= stop with i_k = i."""
        return [k for k in range(1, stop + 1) if self.index_at(k) == i]

    @classmethod
    def from_string(cls, text: str, rank: int) -> "IndexSequence":
        """Parse space or comma separated indices, leftmost token = i_1."""
        period = decimal_ints(text)
        if not period:
            raise ValueError("empty index sequence")
        return cls(period, rank)
