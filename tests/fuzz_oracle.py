"""The braid fuzz on tensor words: the test oracle for `run_property_suite`.

Each sample is a checked `TensorWord`; its image comes from `phi`, and
`check_strict_morphism` runs on it through a map that answers the sample
with that image and any other word with `phi`.  Then `phi` of the
swapped context must give the sample back, and in degree 3 `phi_nested`
must agree with `phi`.  This is how the package's suite checked every
sample before it moved to value tuples, so the two reports must be equal
sample for sample.  The braid maps are read from `crystalpoly.braid` at
call time, so a map patched into that module reaches both.

`check_strict_morphism` is the word-level statement of the contract, for
any map on `TensorWord`s.  `map_values` is the reference for
`crystalpoly.braid.map_values`: the formulas as first written, one `_pos`
clamp at a time, dispatched on the degree c1*c2; call it only with a
supported (c1, c2).
"""

import random

from crystalpoly import braid
from crystalpoly.cartan import rank2_cartan
from crystalpoly.crystals import Letter, TensorWord

SHAPE_LEN = {0: 2, 1: 3, 2: 4, 3: 6}


def _pos(x):
    return x if x > 0 else 0


def map_values(c1, c2, vals):
    degree = c1 * c2
    if len(vals) != SHAPE_LEN[degree]:
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


def phi_nested(ctx, word):
    """`phi` through the degree-3 nested-clamp family, read from `braid` at call time."""
    values = braid.map_values_nested(ctx.c1, ctx.c2, word.values)
    return TensorWord(word.cartan, map(Letter, ctx.output_pattern(), values))


def run_property_suite(c1, c2, n, seed):
    ctx = braid.BraidContext(1, 2, c1, c2)
    cartan = rank2_cartan(c1, c2)
    rng = random.Random(seed)
    length = len(ctx.input_pattern())
    pattern = ctx.input_pattern()
    violations = []

    def strict_map(w):
        # `word` and `image` are the loop's current sample and its image
        if w is None:
            return None
        return image if w is word else braid.phi(ctx, w)

    for _ in range(n):
        vals = tuple(rng.randint(braid.SAMPLE_LO, braid.SAMPLE_HI) for _ in range(length))
        word = TensorWord(cartan, map(Letter, pattern, vals))
        image = braid.phi(ctx, word)
        found = check_strict_morphism(strict_map, (word,), (1, 2))
        if braid.phi(ctx.swapped(), image) != word:
            found.append({"kind": "involution"})
        if ctx.degree == 3 and phi_nested(ctx, word) != image:
            found.append({"kind": "alt-form"})
        for v in found[: 25 - len(violations)]:
            violations.append({"kind": v["kind"], "index": v.get("index"), "values": vals})
    return {"c1": c1, "c2": c2, "n": n, "seed": seed, "violations": violations,
            "ok": not violations}
