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
from dataclasses import dataclass
from typing import NamedTuple

from .cartan import CartanData, IndexSequence, Weight
from .crystals import CrystalGraph, Letter, TensorWord, UnitLetter, bfs_graph

BINF = "binf"


@dataclass(frozen=True)
class ZVector:
    """Finitely supported integer vector plus the structure it lives in."""

    coords: tuple[tuple[int, int], ...]  # sorted (position, value), values nonzero
    mode: object = BINF  # BINF or a Weight

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

    def as_dict(self) -> dict[int, int]:
        return dict(self.coords)

    def bumped(self, k: int, delta: int) -> "ZVector":
        """x_k += delta, splicing the sorted coords; a coordinate that reaches 0 drops."""
        coords = self.coords
        n = bisect_left(coords, (k,))  # (k,) sorts before every (k, value)
        if n < len(coords) and coords[n][0] == k:
            val = coords[n][1] + delta
            return ZVector(coords[:n] + (((k, val),) if val else ()) + coords[n + 1 :], self.mode)
        if not delta:
            return self
        return ZVector(coords[:n] + ((k, delta),) + coords[n:], self.mode)

    def label(self) -> str:
        if not self.coords:
            return "0"
        return ",".join(f"x{pos}={val}" for pos, val in self.coords)

    def __repr__(self):
        return f"ZVector({self.label()})"

    def to_json_obj(self) -> dict:
        mode = BINF if self.mode == BINF else {"lambda": list(self.mode.coeffs)}
        return {"coords": {str(pos): val for pos, val in self.coords}, "mode": mode}

    @classmethod
    def from_json_obj(cls, obj) -> "ZVector":
        mode = obj.get("mode", BINF)
        if mode != BINF:
            mode = Weight(tuple(int(c) for c in mode["lambda"]))
        return cls.from_dict({int(k): int(v) for k, v in obj["coords"].items()}, mode)

    @classmethod
    def from_dict(cls, d: dict[int, int], mode=BINF) -> "ZVector":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v)), mode)


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
        # one pairing column (<h_1, alpha_{i_k}>, .., <h_r, alpha_{i_k}>) per period slot
        self._columns = tuple(
            tuple(cartan.a(j, ik) for j in cartan.indices) for ik in seq.period
        )
        self._last_scan = None  # (vector, i, result) of the latest _scan

    @property
    def mode(self):
        return BINF if self.lam is None else self.lam

    def zero(self) -> ZVector:
        return ZVector((), self.mode)

    def _check(self, x: ZVector):
        if x.mode != self.mode:
            raise ValueError("vector mode does not match this crystal")

    def sigma(self, x: ZVector, k: int) -> int:
        """x_k plus the pairing-weighted tail sum over positions above k."""
        ik = self.seq.index_at(k)
        total = x.get(k)
        for pos, val in x.coords:
            if pos > k:
                total += self.cartan.a(ik, self.seq.index_at(pos)) * val
        return total

    def _scan(self, x: ZVector, i: int) -> tuple[MSet, int]:
        """m_set(x, i) and sigma_0 from one pass over the positions top .. 1.

        sigma(x, k) is x_k plus the running pairing-weighted sum over the
        positions above k; over all positions that sum is sigma_0 + lambda_i,
        lambda_i read as 0 in free mode, so <h_i, wt x> = -sigma_0 in both.
        Beyond the support every sigma is 0, so the max is >= 0; max_pos=None
        flags the infinite attaining set of a max of 0.

        The latest result is kept with its vector, so the operators and
        statistics asked about the same (x, i) in a row share one pass; the
        kept reference also stops the vector's identity from being reused.
        """
        last = self._last_scan
        if last is not None and last[0] is x and last[1] == i:
            return last[2]
        self._check(x)
        period = self.seq.period
        row = self.cartan.matrix[i - 1]
        values = x.as_dict()
        top = x.max_pos
        tail = 0
        best = 0
        lo = hi = None
        for k in range(top, 0, -1):
            ik = period[(k - 1) % len(period)]
            v = values.get(k, 0)
            if ik == i:
                s = v + tail
                if s > best:
                    best, lo, hi = s, k, k
                elif s == best:
                    lo = k
            tail += row[ik - 1] * v
        if lo is None:  # no position up to top attains the max 0
            lo = self.seq.next_position_of(i, top)
        sigma_0 = tail - (self.lam.pairing(i) if self.lam is not None else 0)
        result = MSet(best, lo, hi), sigma_0
        self._last_scan = (x, i, result)
        return result

    def sigma_0(self, x: ZVector, i: int) -> int:
        """Affine companion of sigma carrying the highest-weight data."""
        if self.lam is None:
            raise ValueError("sigma_0 is only defined in highest-weight mode")
        return self._scan(x, i)[1]

    def m_set(self, x: ZVector, i: int) -> MSet:
        """Max of sigma over positions of index i, with arg-min and arg-max."""
        return self._scan(x, i)[0]

    def f(self, x: ZVector, i: int) -> ZVector | None:
        """Lowering: add 1 at the first position attaining the sigma max."""
        ms, sigma_0 = self._scan(x, i)
        if self.lam is not None and not ms.sigma > sigma_0:
            return None
        return x.bumped(ms.min_pos, +1)

    def e(self, x: ZVector, i: int) -> ZVector | None:
        """Raising: subtract 1 at the last position attaining the sigma max."""
        ms, sigma_0 = self._scan(x, i)
        if ms.sigma <= 0:
            return None
        if self.lam is not None and not ms.sigma >= sigma_0:
            return None
        return x.bumped(ms.max_pos, -1)

    def weight_pairings(self, x: ZVector) -> tuple[int, ...]:
        """<h_j, wt(x)> for every j, with wt = lambda minus the step roots."""
        out = list(self.lam.coeffs) if self.lam is not None else [0] * self.cartan.rank
        columns = self._columns
        for pos, val in x.coords:
            for j, a in enumerate(columns[(pos - 1) % len(columns)]):
                out[j] -= a * val
        return tuple(out)

    def epsilon(self, x: ZVector, i: int) -> int:
        ms, sigma_0 = self._scan(x, i)
        return ms.sigma if self.lam is None else max(ms.sigma, sigma_0)

    def phi(self, x: ZVector, i: int) -> int:
        ms, sigma_0 = self._scan(x, i)
        return (ms.sigma if self.lam is None else max(ms.sigma, sigma_0)) - sigma_0

    def wt_eps_phi(self, x: ZVector):
        wt = self.weight_pairings(x)
        eps = tuple(self.epsilon(x, i) for i in self.cartan.indices)
        return wt, eps, tuple(w + e for w, e in zip(wt, eps))

    def bfs(self, depth: int) -> CrystalGraph:
        """All lowering descendants of the zero vector, to the given depth."""
        return bfs_graph(self.zero(), self.cartan.indices, self.f, depth)

    def to_tensor_word(self, x: ZVector, length: int) -> TensorWord:
        """Truncate to a finite tensor word; coordinate x_k becomes (-x_k)_{i_k}."""
        self._check(x)
        if x.max_pos > length:
            raise ValueError("truncation length does not cover the support")
        letters = [
            Letter(self.seq.index_at(k), -x.get(k)) for k in range(length, 0, -1)
        ]
        unit = None if self.lam is None else UnitLetter(self.lam)
        return TensorWord(self.cartan, letters, unit)

    def from_tensor_word(self, word: TensorWord) -> ZVector:
        """Inverse of to_tensor_word for words shaped like this sequence."""
        n = len(word.letters)
        coords = {}
        for offset, letter in enumerate(word.letters):
            pos = n - offset
            if letter.index != self.seq.index_at(pos):
                raise ValueError("letter indices do not follow the sequence")
            if letter.value:
                coords[pos] = -letter.value
        return ZVector.from_dict(coords, self.mode)
