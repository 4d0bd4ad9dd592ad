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

from .cartan import rank2_cartan
from .crystals import Letter, TensorWord

ALLOWED_PAIRS = {(0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)}
_SHAPE_LEN = {0: 2, 1: 3, 2: 4, 3: 6}


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
        n = _SHAPE_LEN[self.degree]
        return tuple(self.i if m % 2 == 0 else self.j for m in range(n))

    def output_pattern(self) -> tuple[int, ...]:
        n = _SHAPE_LEN[self.degree]
        return tuple(self.j if m % 2 == 0 else self.i for m in range(n))

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


def _map_word(ctx: BraidContext, word: TensorWord, family) -> TensorWord:
    """Rebuild `word` in the mirrored shape from `family`'s output values."""
    if word.unit is not None:
        raise ValueError("braid maps act on pure letter words")
    pattern = tuple(l.index for l in word.letters)
    if pattern != ctx.input_pattern():
        raise ValueError(f"word pattern {pattern} does not match {ctx.input_pattern()}")
    out = family(ctx.c1, ctx.c2, tuple(l.value for l in word.letters))
    letters = [Letter(idx, val) for idx, val in zip(ctx.output_pattern(), out)]
    return TensorWord(word.cartan, letters)


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


def apply_at(ctx: BraidContext, word: TensorWord, positions) -> TensorWord:
    """Apply the braid map to a contiguous window of tensor positions.

    Positions count letters from the right starting at 1 (a trailing unit
    letter is not a position).  The window must be contiguous, ascending,
    and its letters, read left to right, must match the map's pattern.
    """
    positions = tuple(int(p) for p in positions)
    n = len(word.letters)
    expect = _SHAPE_LEN[ctx.degree]
    if len(positions) != expect:
        raise ValueError(f"window must cover {expect} positions")
    if list(positions) != list(range(positions[0], positions[0] + expect)):
        raise ValueError("window positions must be contiguous and ascending")
    if positions[0] < 1 or positions[-1] > n:
        raise ValueError("window must lie inside the word")
    # letters are stored leftmost first; position p is letter n - p
    idxs = [n - p for p in reversed(positions)]
    pattern = tuple(word.letters[m].index for m in idxs)
    if pattern != ctx.input_pattern():
        raise ValueError(f"window letters {pattern} do not match {ctx.input_pattern()}")
    vals = tuple(word.letters[m].value for m in idxs)
    out = map_values(ctx.c1, ctx.c2, vals)
    letters = list(word.letters)
    for m, idx, val in zip(idxs, ctx.output_pattern(), out):
        letters[m] = Letter(idx, val)
    return TensorWord(word.cartan, letters, word.unit)


def run_property_suite(c1: int, c2: int, n: int, seed: int, lo: int = -10, hi: int = 10) -> dict:
    """Seeded fuzz of the isomorphism contract for one pairing profile.

    Checks, per sample: weights and both string statistics preserved,
    commutation with every raising/lowering operator (0 matching 0),
    exact involution, and in degree 3 the two formula families agreeing.
    """
    ctx = BraidContext(1, 2, c1, c2)
    cartan = rank2_cartan(c1, c2)
    rng = random.Random(seed)
    length = _SHAPE_LEN[ctx.degree]
    pattern = ctx.input_pattern()
    violations: list[dict] = []
    checked = 0

    def record(kind, vals, detail=""):
        if len(violations) < 25:
            violations.append({"kind": kind, "values": vals, "detail": detail})

    for _ in range(n):
        vals = tuple(rng.randint(lo, hi) for _ in range(length))
        word = TensorWord(cartan, [Letter(idx, v) for idx, v in zip(pattern, vals)])
        image = phi(ctx, word)
        checked += 1
        if word.weight_pairings() != image.weight_pairings():
            record("wt", vals)
        for idx in (1, 2):
            we, wp, _ = word.eps_phi_wt(idx)
            ie, ip, _ = image.eps_phi_wt(idx)
            if we != ie or wp != ip:
                record("eps-phi", vals, f"index {idx}")
            for name in ("e", "f"):
                moved = getattr(word, name)(idx)
                lhs = None if moved is None else phi(ctx, moved)
                rhs = getattr(image, name)(idx)
                if lhs != rhs:
                    record(f"{name}-commute", vals, f"index {idx}")
        if phi_inverse(ctx, image) != word:
            record("involution", vals)
        if ctx.degree == 3 and phi3_alt(ctx, word) != image:
            record("alt-form", vals)
    return {
        "c1": c1,
        "c2": c2,
        "n": checked,
        "seed": seed,
        "violations": violations,
        "ok": not violations,
    }
