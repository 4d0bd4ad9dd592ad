"""Piecewise-linear isomorphisms between mirrored two-index tensor products.

For two indices i, j with negated pairings c1 = -<h_i, alpha_j> and
c2 = -<h_j, alpha_i>, products c1*c2 in {0, 1, 2, 3} admit an explicit
crystal isomorphism from an alternating tensor power starting with i to
the mirrored one starting with j; its inverse is the same map for the
swapped pair.  The maps act on letter values (`map_values`); `phi` and
`apply_at` carry a `TensorWord`'s index and value tuples across a window,
and `transport` a vector's coordinates.  The degree-3 map has two
equivalent formula families; the max/min family, written as running
comparisons, is the primary one and the nested-clamp family is kept as the
fuzz's cross-check.  `run_property_suite` is the package's check that the
maps are strict crystal morphisms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cartan import IndexSequence, exact_int, rank2_cartan
from .crystals import TensorWord, fold
from .zvectors import ZVector

# letters of each supported (c1, c2): 2, 3, 4, 6 for degree 0, 1, 2, 3
_SHAPE_LEN = {(0, 0): 2, (1, 1): 3, (1, 2): 4, (2, 1): 4, (1, 3): 6, (3, 1): 6}
SAMPLE_LO, SAMPLE_HI = -10, 10  # the fuzz draws every letter value from this range


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
        if (self.c1, self.c2) not in _SHAPE_LEN:
            raise ValueError(f"unsupported pairing profile ({self.c1}, {self.c2})")

    @property
    def degree(self) -> int:
        return self.c1 * self.c2

    def swapped(self) -> "BraidContext":
        return BraidContext(self.j, self.i, self.c2, self.c1)

    def input_pattern(self) -> tuple[int, ...]:
        return ((self.i, self.j) * 3)[: _SHAPE_LEN[self.c1, self.c2]]

    def output_pattern(self) -> tuple[int, ...]:
        return ((self.j, self.i) * 3)[: _SHAPE_LEN[self.c1, self.c2]]

    @classmethod
    def from_cartan(cls, cartan, i: int, j: int) -> "BraidContext":
        return cls(i, j, -cartan.a(i, j), -cartan.a(j, i))


def map_values(c1: int, c2: int, vals: tuple[int, ...]) -> tuple[int, ...]:
    """The braid map on raw letter values, leftmost factor first.

    The pair's length picks the degree's formula: 6, 4, 3, 2 letters for
    degree 3, 2, 1, 0.
    """
    try:
        length = _SHAPE_LEN[c1, c2]
    except KeyError:
        raise ValueError(f"unsupported pairing profile ({c1}, {c2})") from None
    if len(vals) != length:
        raise ValueError("value tuple does not match the map's shape")
    if length == 6:
        x, y, z, u, v, w = vals
        c2x, c2z, c2v = c2 * x, c2 * z, c2 * v
        c1y, c1u, c1w = c1 * y, c1 * u, c1 * w
        # X, Y are the max and V, W the min of five pieces each, compared in turn
        X = y - c2x
        t = c2z - 2 * y
        if t > X:
            X = t
        t = 2 * u - c2z
        if t > X:
            X = t
        t = c2v - u
        if t > X:
            X = t
        if w > X:
            X = w
        Y = z - x
        t = x - 2 * c1y + 3 * z
        if t > Y:
            Y = t
        t = x - 3 * z + 2 * c1u
        if t > Y:
            Y = t
        t = x - c1u + 3 * v
        if t > Y:
            Y = t
        t = x + c1w
        if t > Y:
            Y = t
        V = c2x + w
        t = 3 * y - c2z + w
        if t < V:
            V = t
        t = 2 * c2z - 3 * u + w
        if t < V:
            V = t
        t = 3 * u - 2 * c2v + w
        if t < V:
            V = t
        t = u - w
        if t < V:
            V = t
        W = x
        t = c1y - z
        if t < W:
            W = t
        t = 2 * z - c1u
        if t < W:
            W = t
        t = c1u - 2 * v
        if t < W:
            W = t
        t = v - c1w
        if t < W:
            W = t
        return (X, Y, y + u + w - X - V, x + z + v - Y - W, V, W)
    if length == 4:
        x, y, z, w = vals
        c1w = c1 * w
        p = x - c1 * y + z
        if p < 0:
            p = 0
        tx = c2 * (p - x) + y - w
        if tx < 0:
            tx = 0
        ty = z - x - c1w + p
        if ty < 0:
            ty = 0
        return (w + tx, x + c1w + ty, y - tx, z - c1w - ty)
    if length == 3:
        x, y, z = vals
        t = y - x - z
        if t < 0:
            t = 0
        return (z + t, x + z, y - z - t)
    x, y = vals
    return (y, x)


def map_values_nested(c1: int, c2: int, vals: tuple[int, ...]) -> tuple[int, ...]:
    """Degree-3 cross-check family written with nested clamps."""
    if (c1, c2) not in ((1, 3), (3, 1)) or len(vals) != 6:
        raise ValueError("the nested family is the degree-3 cross-check")
    x, y, z, u, v, w = vals
    A = -x + c1 * y - z
    B = -y + c2 * z - u
    C = -z + c1 * u - v
    D = -u + c2 * v - w
    # every clamp max(t, 0) written inline, innermost first; A's is shared
    if A < 0:
        A = 0
    t = 2 * B + c2 * A
    t = c2 * C + (t if t > 0 else 0)
    t = D + (t if t > 0 else 0)
    X = w + (t if t > 0 else 0)
    t = 2 * c1 * B + 2 * A
    t = 3 * C + (t if t > 0 else 0)
    t = c1 * D + (t if t > 0 else 0)
    Y = x + c1 * w + (t if t > 0 else 0)
    t = 3 * B + c2 * A
    t = 2 * c2 * C + (t if t > 0 else 0)
    t = 2 * D + (t if t > 0 else 0)
    V = u - w - (t if t > 0 else 0)
    t = c1 * B + A
    t = 2 * C + (t if t > 0 else 0)
    t = c1 * D + (t if t > 0 else 0)
    W = v - c1 * w - (t if t > 0 else 0)
    Z = y + u + w - X - V
    U = x + z + v - Y - W
    return (X, Y, Z, U, V, W)


def _map_window(ctx: BraidContext, pattern, values) -> tuple[int, ...]:
    """`map_values`'s image of a window's letter values, leftmost first, once
    the window's indices, read the same way, match the map's input pattern."""
    expect = ctx.input_pattern()
    if pattern != expect:
        raise ValueError(f"word pattern {pattern} does not match {expect}")
    return map_values(ctx.c1, ctx.c2, values)


def phi(ctx: BraidContext, word: TensorWord) -> TensorWord:
    """Map a word shaped (i, j, i, ..) to the mirrored shape (j, i, j, ..).

    The inverse is `phi(ctx.swapped(), word)`.
    """
    if word.unit is not None:
        raise ValueError("braid maps act on pure letter words")
    values = _map_window(ctx, word.indices, word.values)
    return TensorWord(word.cartan, ctx.output_pattern(), values)


def _window(ctx: BraidContext, positions, n: int | None = None) -> tuple[int, ...]:
    """The window as exact ints: the map's length, contiguous, ascending, from 1 up to n."""
    positions = tuple(map(exact_int, positions))
    expect = _SHAPE_LEN[ctx.c1, ctx.c2]
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
    image = _map_window(ctx, indices[lo:hi], values[lo:hi])
    return TensorWord(word.cartan, indices[:lo] + ctx.output_pattern() + indices[hi:],
                      values[:lo] + image + values[hi:], word.unit)


def transport(ctx: BraidContext, seq: IndexSequence, x: ZVector, positions) -> ZVector:
    """Carry a vector on `seq` across a braid window; weight and other coordinates stay."""
    # x_p is the tensor letter (-x_p) of index i_p at position p: read the window top down
    top_down = _window(ctx, positions)[::-1]
    if x.lam is not None and x.lam.rank != seq.rank:
        raise ValueError("weight rank must match the Cartan datum")
    pattern = tuple(map(seq.index_at, top_down))
    out = _map_window(ctx, pattern, tuple(-x.get(p) for p in top_down))
    coords = dict(x.coords)
    coords.update(zip(top_down, (-v for v in out)))
    return ZVector.from_dict(coords, x.lam)


def run_property_suite(c1: int, c2: int, n: int, seed: int) -> dict:
    """Seeded fuzz of the isomorphism contract for one pairing profile.

    Each sample is checked on its value tuple through the `fold` of its
    tensor word and of the image's: the weight, then per index eps, phi and
    commutation with e and f, each a +1 or -1 at the target `fold` gives;
    then the exact involution, and in degree 3 the two formula families
    agreeing.  `tests/fuzz_oracle.py` makes the same checks on `TensorWord`s.
    At most 25 violations are kept.  Letters are drawn as
    `random.Random(seed).randint(SAMPLE_LO, SAMPLE_HI)` draws them, by
    rejection on `getrandbits`, so the samples are that stream's values.
    """
    ctx = BraidContext(1, 2, c1, c2)
    row1, row2 = rank2_cartan(c1, c2).matrix
    src, dst = ctx.input_pattern(), ctx.output_pattern()
    # the module globals, read once per call so that a patched map is the one used
    maps, nested = map_values, (map_values_nested if ctx.degree == 3 else None)
    getrandbits = random.Random(seed).getrandbits
    width = SAMPLE_HI - SAMPLE_LO + 1
    bits = width.bit_length()
    violations: list[dict] = []
    for _ in range(n):
        draws = []
        for _ in src:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            draws.append(SAMPLE_LO + r)
        vals = tuple(draws)
        image = maps(c1, c2, vals)
        out = list(image)
        b1, m1 = fold(row1, src, vals, None, 1), fold(row1, dst, image, None, 1)
        b2, m2 = fold(row2, src, vals, None, 2), fold(row2, dst, image, None, 2)
        found = [("wt", None)] if b1[2] != m1[2] or b2[2] != m2[2] else []
        for i, (be, bp, _, bft, bet), (me, mp, _, mft, met) in ((1, b1, m1), (2, b2, m2)):
            if be != me:
                found.append(("eps", i))
            if bp != mp:
                found.append(("phi", i))
            # e, then f, added in place to the sample's and the image's lists.
            # Both patterns hold both indices, so `fold` puts each target on a
            # letter of index i, and with no unit letter no target is the
            # unit: neither operator kills a sample or an image here
            draws[bet] += 1
            moved = maps(c1, c2, tuple(draws))
            draws[bet] -= 1
            out[met] += 1
            if moved != tuple(out):
                found.append(("e-commute", i))
            out[met] -= 1
            draws[bft] -= 1
            moved = maps(c1, c2, tuple(draws))
            draws[bft] += 1
            out[mft] -= 1
            if moved != tuple(out):
                found.append(("f-commute", i))
            out[mft] += 1
        if maps(c2, c1, image) != vals:
            found.append(("involution", None))
        if nested is not None and nested(c1, c2, vals) != image:
            found.append(("alt-form", None))
        if found:
            for kind, index in found[: 25 - len(violations)]:
                violations.append({"kind": kind, "index": index, "values": vals})
    return {"c1": c1, "c2": c2, "n": n, "seed": seed, "violations": violations,
            "ok": not violations}
