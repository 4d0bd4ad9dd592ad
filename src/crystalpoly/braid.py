"""Piecewise-linear isomorphisms between mirrored two-index tensor products.

For two indices i, j with negated pairings c1 = -<h_i, alpha_j> and
c2 = -<h_j, alpha_i>, products c1*c2 in {0, 1, 2, 3} admit an explicit
crystal isomorphism from an alternating tensor power starting with i to
the mirrored one starting with j.  The degree-3 map has two equivalent
formula families; the branch-free max/min family is the primary one and
the nested-clamp family is kept as a cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cartan import IndexSequence, rank2_cartan
from .crystals import TensorWord, bump, fold
from .zvectors import ZVector

ALLOWED_PAIRS = {(0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)}
_SHAPE_LEN = {0: 2, 1: 3, 2: 4, 3: 6}
SAMPLE_LO, SAMPLE_HI = -10, 10  # the fuzz draws every letter value from this range


def _pos(x):
    return x if x > 0 else 0


@dataclass(frozen=True)
class BraidContext:
    """Index pair and its negated pairings; degree = c1*c2 picks the map."""

    i: int
    j: int
    c1: int
    c2: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("indices must be distinct")
        if (self.c1, self.c2) not in ALLOWED_PAIRS:
            raise ValueError(f"unsupported pairing profile ({self.c1}, {self.c2})")

    @property
    def degree(self) -> int:
        return self.c1 * self.c2

    def swapped(self) -> "BraidContext":
        return BraidContext(self.j, self.i, self.c2, self.c1)

    def input_pattern(self) -> tuple[int, ...]:
        return ((self.i, self.j) * 3)[: _SHAPE_LEN[self.degree]]

    def output_pattern(self) -> tuple[int, ...]:
        return ((self.j, self.i) * 3)[: _SHAPE_LEN[self.degree]]

    @classmethod
    def from_cartan(cls, cartan, i: int, j: int) -> "BraidContext":
        return cls(i, j, -cartan.a(i, j), -cartan.a(j, i))


def map_values(c1: int, c2: int, vals: tuple[int, ...]) -> tuple[int, ...]:
    """The braid map on raw letter values, leftmost factor first."""
    degree = c1 * c2
    if len(vals) != _SHAPE_LEN[degree]:
        raise ValueError("value tuple does not match the map's shape")
    if degree == 0:
        x, y = vals
        return (y, x)
    if degree == 1:
        x, y, z = vals
        t = _pos(-x + y - z)
        return (z + t, x + z, y - z - t)
    if degree == 2:
        x, y, z, w = vals
        p = _pos(x - c1 * y + z)
        tx = _pos(-c2 * x + y - w + c2 * p)
        ty = _pos(-x + z - c1 * w + p)
        return (w + tx, x + c1 * w + ty, y - tx, z - c1 * w - ty)
    x, y, z, u, v, w = vals
    X = max(-c2 * x + y, -2 * y + c2 * z, -c2 * z + 2 * u, -u + c2 * v, w)
    Y = max(-x + z, x - 2 * c1 * y + 3 * z, x - 3 * z + 2 * c1 * u, x - c1 * u + 3 * v, x + c1 * w)
    V = min(c2 * x + w, 3 * y - c2 * z + w, 2 * c2 * z - 3 * u + w, 3 * u - 2 * c2 * v + w, u - w)
    W = min(x, c1 * y - z, 2 * z - c1 * u, c1 * u - 2 * v, v - c1 * w)
    Z = y + u + w - X - V
    U = x + z + v - Y - W
    return (X, Y, Z, U, V, W)


def map_values_nested(c1: int, c2: int, vals: tuple[int, ...]) -> tuple[int, ...]:
    """Degree-3 cross-check family written with nested clamps."""
    if c1 * c2 != 3 or len(vals) != 6:
        raise ValueError("the nested family is the degree-3 cross-check")
    x, y, z, u, v, w = vals
    A = -x + c1 * y - z
    B = -y + c2 * z - u
    C = -z + c1 * u - v
    D = -u + c2 * v - w
    X = w + _pos(D + _pos(c2 * C + _pos(2 * B + c2 * _pos(A))))
    Y = x + c1 * w + _pos(c1 * D + _pos(3 * C + _pos(2 * c1 * B + 2 * _pos(A))))
    V = u - w - _pos(2 * D + _pos(2 * c2 * C + _pos(3 * B + c2 * _pos(A))))
    W = v - c1 * w - _pos(c1 * D + _pos(2 * C + _pos(c1 * B + _pos(A))))
    Z = y + u + w - X - V
    U = x + z + v - Y - W
    return (X, Y, Z, U, V, W)


def _map_window(ctx: BraidContext, pattern, values, family) -> tuple[int, ...]:
    """`family`'s image of a window's letter values, leftmost first, once
    the window's indices, read the same way, match the map's input pattern."""
    expect = ctx.input_pattern()
    if pattern != expect:
        raise ValueError(f"word pattern {pattern} does not match {expect}")
    return family(ctx.c1, ctx.c2, values)


def _map_word(ctx: BraidContext, word: TensorWord, family) -> TensorWord:
    """Rebuild `word` in the mirrored shape from `family`'s output values.

    The output letters carry the indices of the input pattern the word has
    just matched, so the derived word skips the index check.
    """
    if word.unit is not None:
        raise ValueError("braid maps act on pure letter words")
    values = _map_window(ctx, word.indices, word.values, family)
    return TensorWord._checked(word.cartan, ctx.output_pattern(), values)


def phi(ctx: BraidContext, word: TensorWord) -> TensorWord:
    """Map a word shaped (i, j, i, ..) to the mirrored shape (j, i, j, ..)."""
    return _map_word(ctx, word, map_values)


def phi_inverse(ctx: BraidContext, word: TensorWord) -> TensorWord:
    """Inverse map: the same family with the two indices exchanged."""
    return phi(ctx.swapped(), word)


def phi3_alt(ctx: BraidContext, word: TensorWord) -> TensorWord:
    """Degree-3 map through the nested-clamp family; agrees with phi."""
    if ctx.degree != 3:
        raise ValueError("the alternative family exists only in degree 3")
    return _map_word(ctx, word, map_values_nested)


def _window(ctx: BraidContext, positions, n: int | None = None) -> tuple[int, ...]:
    """The window as ints: the map's length, contiguous, ascending, from 1 up to n."""
    positions = tuple(int(p) for p in positions)
    expect = _SHAPE_LEN[ctx.degree]
    if len(positions) != expect:
        raise ValueError(f"window must cover {expect} positions")
    if list(positions) != list(range(positions[0], positions[0] + expect)):
        raise ValueError("window positions must be contiguous and ascending")
    if positions[0] < 1 or n is not None and positions[-1] > n:
        raise ValueError("window must lie inside the word")
    return positions


def apply_at(ctx: BraidContext, word: TensorWord, positions) -> TensorWord:
    """Apply the braid map to a contiguous window of tensor positions.

    Positions count letters from the right starting at 1 (a trailing unit
    letter is not a position).  The window must be contiguous, ascending,
    and its letters, read left to right, must match the map's pattern.
    """
    indices, values = word.indices, word.values
    n = len(values)
    positions = _window(ctx, positions, n)
    # letters are stored leftmost first; position p is letter n - p
    lo, hi = n - positions[-1], n - positions[0] + 1
    image = _map_window(ctx, indices[lo:hi], values[lo:hi], map_values)
    return TensorWord._checked(word.cartan, indices[:lo] + ctx.output_pattern() + indices[hi:],
                               values[:lo] + image + values[hi:], word.unit)


def transport(ctx: BraidContext, seq: IndexSequence, x: ZVector, positions) -> ZVector:
    """Carry a vector on `seq` across a braid window; weight and other coordinates stay."""
    # x_p is the tensor letter (-x_p) of index i_p at position p: read the window top down
    top_down = _window(ctx, positions)[::-1]
    if x.lam is not None and x.lam.rank != seq.rank:
        raise ValueError("weight rank must match the Cartan datum")
    pattern = tuple(map(seq.index_at, top_down))
    out = _map_window(ctx, pattern, tuple(-x.get(p) for p in top_down), map_values)
    coords = dict(x.coords)
    coords.update(zip(top_down, (-v for v in out)))
    return ZVector.from_dict(coords, x.lam)


def run_property_suite(c1: int, c2: int, n: int, seed: int) -> dict:
    """Seeded fuzz of the isomorphism contract for one pairing profile.

    Each sample is checked on its value tuple through the `fold` and `bump`
    of every tensor word, as `check_strict_morphism` checks words: the
    weight, then per index eps, phi and commutation with e and f; then the
    exact involution, and in degree 3 the two formula families agreeing.
    At most 25 violations are kept.
    """
    ctx = BraidContext(1, 2, c1, c2)
    row1, row2 = rank2_cartan(c1, c2).matrix
    randint = random.Random(seed).randint
    src, dst = ctx.input_pattern(), ctx.output_pattern()
    violations: list[dict] = []
    for _ in range(n):
        vals = tuple([randint(SAMPLE_LO, SAMPLE_HI) for _ in src])
        image = map_values(c1, c2, vals)
        b1, m1 = fold(row1, src, vals, None, 1), fold(row1, dst, image, None, 1)
        b2, m2 = fold(row2, src, vals, None, 2), fold(row2, dst, image, None, 2)
        found = [("wt", None)] if b1[2] != m1[2] or b2[2] != m2[2] else []
        for i, b, m in ((1, b1, m1), (2, b2, m2)):
            if b[0] != m[0]:
                found.append(("eps", i))
            if b[1] != m[1]:
                found.append(("phi", i))
            for kind, at, delta in (("e-commute", 4, +1), ("f-commute", 3, -1)):
                moved = bump(src, vals, i, b[at], delta)
                if moved is not None:
                    moved = map_values(c1, c2, moved)
                if moved != bump(dst, image, i, m[at], delta):
                    found.append((kind, i))
        if map_values(c2, c1, image) != vals:
            found.append(("involution", None))
        if ctx.degree == 3 and map_values_nested(c1, c2, vals) != image:
            found.append(("alt-form", None))
        for kind, index in found[: 25 - len(violations)]:
            violations.append({"kind": kind, "index": index, "values": vals})
    return {"c1": c1, "c2": c2, "n": n, "seed": seed, "violations": violations,
            "ok": not violations}
