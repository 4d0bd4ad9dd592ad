"""The braid fuzz on tensor words: the test oracle for `run_property_suite`.

Each sample is a checked `TensorWord`; its image comes from `phi`, and
`check_strict_morphism` runs on it through a map that answers the sample
with that image and any other word with `phi`.  Then `phi_inverse` must
give the sample back, and in degree 3 `phi3_alt` must agree with `phi`.
This is how the package's suite checked every sample before it moved to
value tuples, so the two reports must be equal sample for sample.  The
braid maps are read from `crystalpoly.braid` at call time, so a map
patched into that module reaches both.
"""

import random

from crystalpoly import braid
from crystalpoly.cartan import rank2_cartan
from crystalpoly.crystals import TensorWord, check_strict_morphism


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
        word = TensorWord._checked(cartan, pattern, vals)
        image = braid.phi(ctx, word)
        found = check_strict_morphism(strict_map, (word,), (1, 2))
        if braid.phi_inverse(ctx, image) != word:
            found.append({"kind": "involution"})
        if ctx.degree == 3 and braid.phi3_alt(ctx, word) != image:
            found.append({"kind": "alt-form"})
        for v in found[: 25 - len(violations)]:
            violations.append({"kind": v["kind"], "index": v.get("index"), "values": vals})
    return {"c1": c1, "c2": c2, "n": n, "seed": seed, "violations": violations,
            "ok": not violations}
