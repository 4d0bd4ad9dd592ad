import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from crystalpoly import (
    BraidContext,
    IndexSequence,
    SequenceCrystal,
    TensorWord,
    Weight,
    ZVector,
    apply_at,
    get_builtin,
    map_values,
    map_values_nested,
    phi,
    rank2_cartan,
    run_property_suite,
    transport,
    weight,
)
from crystalpoly.braid import SAMPLE_HI, SAMPLE_LO
from crystalpoly.crystals import fold

import fuzz_oracle
import tensor_oracle
from fuzz_oracle import check_strict_morphism

PAIRS = [(0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]


def make_word(c1, c2, vals):
    ctx = BraidContext(1, 2, c1, c2)
    cartan = rank2_cartan(c1, c2)
    return ctx, TensorWord(cartan, ctx.input_pattern(), vals)


def test_context_validation():
    with pytest.raises(ValueError):
        BraidContext(1, 1, 1, 1)
    with pytest.raises(ValueError):
        BraidContext(1, 2, 2, 2)
    with pytest.raises(ValueError):
        BraidContext(1, 2, 0, 2)
    ctx = BraidContext.from_cartan(rank2_cartan(1, 3), 1, 2)
    assert (ctx.c1, ctx.c2, ctx.degree) == (1, 3, 3)
    assert ctx.swapped().input_pattern()[0] == 2


def test_degree0_swap():
    ctx, w = make_word(0, 0, (-2, 3))
    out = phi(ctx, w)
    assert (out.indices, out.values) == ((2, 1), (3, -2))
    assert phi(ctx.swapped(), out) == w


def test_degree1_example():
    assert map_values(1, 1, (0, 0, -1)) == (0, -1, 0)
    ctx, w = make_word(1, 1, (0, 0, 0))
    lowered = w.f(1)
    assert phi(ctx, lowered) == phi(ctx, w).f(1)


def test_degree2_example_and_inverse():
    assert map_values(2, 1, (-1, 0, 0, 0)) == (1, 0, -1, -1)
    assert map_values(1, 2, (1, 0, -1, -1)) == (-1, 0, 0, 0)
    ctx, w = make_word(2, 1, (-1, 0, 0, 0))
    assert phi(ctx.swapped(), phi(ctx, w)) == w


def test_degree3_example_and_families_agree():
    assert map_values(3, 1, (0, 0, 0, 0, 0, -1)) == (0, 0, 0, 0, -1, 0)
    assert map_values_nested(3, 1, (0, 0, 0, 0, 0, -1)) == (0, 0, 0, 0, -1, 0)
    assert map_values(1, 3, (0,) * 6) == (0,) * 6

    rng = random.Random(7)
    for c1, c2 in ((1, 3), (3, 1)):
        for _ in range(2500):
            vals = tuple(rng.randint(-8, 8) for _ in range(6))
            assert map_values(c1, c2, vals) == map_values_nested(c1, c2, vals)


def test_shape_mismatch_rejected():
    ctx = BraidContext(1, 2, 1, 1)
    cartan = rank2_cartan(1, 1)
    bad = TensorWord(cartan, (2, 1, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        phi(ctx, bad)
    short = TensorWord(cartan, (1, 2), (0, 0))
    with pytest.raises(ValueError):
        phi(ctx, short)
    with pytest.raises(ValueError, match="pure letter"):
        phi(ctx, TensorWord(cartan, (1, 2, 1), (0, 0, 0), weight(1, 0)))


def test_involution_fuzz():
    rng = random.Random(11)
    for c1, c2 in PAIRS:
        ctx = BraidContext(1, 2, c1, c2)
        n = len(ctx.input_pattern())
        for _ in range(1000):
            vals = tuple(rng.randint(-10, 10) for _ in range(n))
            assert map_values(c2, c1, map_values(c1, c2, vals)) == vals


# the fuzz's samples lie in SAMPLE_LO..SAMPLE_HI, and a bump moves a letter one step past them
EDGE_VALUES = (-11, -10, -1, 0, 1, 10, 11)


@pytest.mark.parametrize("pair", PAIRS, ids=[f"{c1}-{c2}" for c1, c2 in PAIRS])
def test_map_values_matches_the_reference_formulas(pair):
    length = len(BraidContext(1, 2, *pair).input_pattern())
    rng = random.Random(str(pair))
    grid = list(itertools.product(EDGE_VALUES, repeat=length))
    grid += [tuple(rng.randint(-11, 11) for _ in range(length)) for _ in range(5000)]
    for vals in grid:
        assert map_values(*pair, vals) == fuzz_oracle.map_values(*pair, vals), vals


@pytest.mark.parametrize("i", (1, 2))
@pytest.mark.parametrize("side", ("input", "output"))
@pytest.mark.parametrize("pair", PAIRS, ids=[f"{c1}-{c2}" for c1, c2 in PAIRS])
def test_fold_targets_a_letter_of_its_index(pair, side, i):
    """On an alternating pattern `fold` puts the f and e targets of index i on
    letters of index i, so no e or f in `run_property_suite` kills a sample
    or an image; a `fold` that let one through would fail here first."""
    ctx = BraidContext(1, 2, *pair)
    pattern = getattr(ctx, f"{side}_pattern")()
    row = rank2_cartan(*pair).matrix[i - 1]
    rng = random.Random(f"{pair} {side} {i}")
    grid = list(itertools.product(EDGE_VALUES, repeat=len(pattern)))
    grid += [tuple(rng.randint(-11, 11) for _ in pattern) for _ in range(5000)]
    for vals in grid:
        f_target, e_target = fold(row, pattern, vals, None, i)[3:]
        assert pattern[f_target] == pattern[e_target] == i, vals


@pytest.mark.parametrize(
    "family, c1, c2, vals",
    [
        (map_values, 2, 2, (0, 0, 0, 0)),
        (map_values, 1, -3, (0,) * 6),
        (map_values, 0, 5, (1, 2)),
        (map_values, -1, -1, (0, 0, 0)),
        (map_values_nested, -1, -3, (1, 2, 3, 4, 5, 6)),
        (map_values_nested, 1, 1, (0,) * 6),
    ],
    ids=["2-2", "1--3", "0-5", "-1--1", "nested--1--3", "nested-1-1"],
)
def test_maps_refuse_an_unsupported_pair(family, c1, c2, vals):
    with pytest.raises(ValueError, match="unsupported pairing profile|degree-3 cross-check"):
        family(c1, c2, vals)


def test_conservation_identities():
    rng = random.Random(13)
    for _ in range(400):
        x, y, z = (rng.randint(-9, 9) for _ in range(3))
        X, Y, Z = map_values(1, 1, (x, y, z))
        assert X + Z == y and Y == x + z
    for c1, c2 in ((1, 2), (2, 1)):
        for _ in range(400):
            x, y, z, w = (rng.randint(-9, 9) for _ in range(4))
            X, Y, Z, W = map_values(c1, c2, (x, y, z, w))
            assert X + Z == y + w and Y + W == x + z
    for c1, c2 in ((1, 3), (3, 1)):
        for _ in range(400):
            vals = tuple(rng.randint(-9, 9) for _ in range(6))
            X, Y, Z, U, V, W = map_values(c1, c2, vals)
            x, y, z, u, v, w = vals
            assert X + Z + V == y + u + w and Y + U + W == x + z + v


def test_braid_map_is_strict_morphism():
    rng = random.Random(17)
    for c1, c2 in PAIRS:
        ctx = BraidContext(1, 2, c1, c2)
        cartan = rank2_cartan(c1, c2)
        pattern = ctx.input_pattern()

        def mapped(b, ctx=ctx):
            return None if b is None else phi(ctx, b)

        sample = [
            TensorWord(cartan, pattern, [rng.randint(-6, 6) for _ in pattern])
            for _ in range(150)
        ]
        assert check_strict_morphism(mapped, sample, (1, 2)) == []


def test_property_suite_clean_and_detects_seed():
    report = run_property_suite(2, 1, 500, seed=99)
    assert report["ok"] and report["seed"] == 99 and report["n"] == 500


@pytest.mark.parametrize(
    "c1, c2, expected",
    [(1, 1, {"wt", "involution"}), (1, 3, {"alt-form"})],
    ids=["degree-1", "degree-3"],
)
def test_property_suite_detects_broken_map(monkeypatch, c1, c2, expected):
    # shifting every image value breaks the weight and the involution; in
    # degree 3 the unpatched nested family also stops agreeing with phi
    monkeypatch.setattr(
        "crystalpoly.braid.map_values",
        lambda c1, c2, vals: tuple(v + 1 for v in map_values(c1, c2, vals)),
    )
    report = run_property_suite(c1, c2, 40, seed=3)
    kinds = {v["kind"] for v in report["violations"]}
    assert not report["ok"] and report["n"] == 40
    assert len(report["violations"]) == 25
    assert expected <= kinds


# map_values faults patched into crystalpoly.braid, as (image, sample) -> image
PERTURBED = {
    "exact": None,
    "shift": lambda out, vals: tuple(v + 1 for v in out),
    "reverse": lambda out, vals: out[::-1],
    # the last coordinate one too high on samples opening with two 10s
    "one-coordinate": lambda out, vals: out[:-1] + (out[-1] + (vals[0] == vals[1] == 10),),
}
KINDS = {"wt", "eps", "phi", "e-commute", "f-commute", "involution", "alt-form"}


def perturb(monkeypatch, name):
    fault = PERTURBED[name]
    if fault is not None:
        monkeypatch.setattr("crystalpoly.braid.map_values",
                            lambda c1, c2, vals: fault(map_values(c1, c2, vals), vals))


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("pair", PAIRS, ids=[f"{c1}-{c2}" for c1, c2 in PAIRS])
@pytest.mark.parametrize("perturbation", sorted(PERTURBED))
def test_property_suite_matches_word_oracle(monkeypatch, perturbation, pair, seed):
    # the value-tuple suite against the tensor-word suite it replaced
    perturb(monkeypatch, perturbation)
    report = run_property_suite(*pair, 300, seed)
    assert report == fuzz_oracle.run_property_suite(*pair, 300, seed)


def test_oracle_grid_shows_every_kind_and_the_cap(monkeypatch):
    """The grid above reaches every violation kind, reports cut at 25 and
    reports under the cap; the exact maps pass everywhere."""
    sizes, kinds = set(), set()
    for name, pair, seed in itertools.product(sorted(PERTURBED), PAIRS, range(1, 6)):
        with monkeypatch.context() as patch:
            perturb(patch, name)
            report = run_property_suite(*pair, 300, seed)
        assert report["ok"] == (name == "exact")
        sizes.add(len(report["violations"]))
        kinds |= {v["kind"] for v in report["violations"]}
    assert kinds == KINDS
    assert {0, 25} <= sizes and sizes & set(range(1, 25))


_S1, _S2, _S3 = (-3, 8, 7, -6, 1, 9), (5, 10, 8, -8, 9, -10), (5, -2, 7, -3, -4, 5)


@pytest.mark.parametrize(
    "pair, first, samples",
    [
        ((0, 0), [("wt", None), ("eps", 1), ("phi", 1)], [_S1[:2], _S1[2:4], _S1[4:]]),
        ((1, 1), [("wt", None), ("eps", 2), ("phi", 2)], [_S1[:3], _S1[3:], _S2[:3]]),
        ((1, 2), [("wt", None), ("phi", 1), ("eps", 2)], [_S1[:4], _S1[4:] + _S2[:2], _S2[2:]]),
        ((2, 1), [("wt", None), ("eps", 1), ("phi", 1)], [_S1[:4], _S1[4:] + _S2[:2], _S2[2:]]),
        ((1, 3), [("wt", None), ("phi", 1), ("eps", 2)], [_S1, _S2, _S3]),
        ((3, 1), [("wt", None), ("eps", 1), ("eps", 2)], [_S1, _S2, _S3]),
    ],
    ids=[f"{c1}-{c2}" for c1, c2 in PAIRS],
)
def test_property_suite_sample_stream_is_pinned(monkeypatch, pair, first, samples):
    # with every image shifted each sample fails; the violations' values are
    # the drawn samples, so a change to the draw order shows up here
    monkeypatch.setattr(
        "crystalpoly.braid.map_values",
        lambda c1, c2, vals: tuple(v + 1 for v in map_values(c1, c2, vals)),
    )
    violations = run_property_suite(*pair, 40, seed=3)["violations"]
    assert [(v["kind"], v["index"]) for v in violations[:3]] == first
    assert [v["values"] for v in violations[:3]] == [samples[0]] * 3
    assert list(dict.fromkeys(v["values"] for v in violations))[:3] == samples


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("pair", PAIRS, ids=[f"{c1}-{c2}" for c1, c2 in PAIRS])
def test_property_suite_draws_the_randint_stream(monkeypatch, pair, seed):
    # the samples are read off the suite's fold of each sample for index 1
    samples = []

    def recording_fold(row, indices, values, unit, i):
        if i == 1 and indices[0] == 1:
            samples.append(values)
        return fold(row, indices, values, unit, i)

    monkeypatch.setattr("crystalpoly.braid.fold", recording_fold)
    run_property_suite(*pair, 300, seed)
    rng = random.Random(seed)
    length = len(BraidContext(1, 2, *pair).input_pattern())
    expected = [tuple(rng.randint(SAMPLE_LO, SAMPLE_HI) for _ in range(length))
                for _ in range(300)]
    assert samples == expected


def test_apply_at_swap_window():
    cartan = rank2_cartan(0, 0)
    ctx = BraidContext(1, 2, 0, 0)
    w = TensorWord(cartan, (2, 1, 2, 1), (5, -1, 4, 9))
    # positions count from the right: window (2, 3) is the middle pair
    out = apply_at(ctx, w, (2, 3))
    assert (out.indices, out.values) == ((2, 2, 1, 1), (5, 4, -1, 9))


def test_apply_at_roundtrip_and_unit_preserved():
    a3 = __import__("crystalpoly").get_builtin("a3")
    ctx = BraidContext.from_cartan(a3.cartan, 1, 2)
    lam = weight(1, 0, 1)
    w = TensorWord(a3.cartan, (1, 2, 1, 3, 2, 1), (0, -1, 0, -2, 0, -1), lam)
    out = apply_at(ctx, w, (4, 5, 6))
    assert out.unit == w.unit
    assert out.indices == (2, 1, 2, 3, 2, 1)
    back = apply_at(ctx.swapped(), out, (4, 5, 6))
    assert back == w


def test_apply_at_validates_window():
    cartan = rank2_cartan(1, 1)
    ctx = BraidContext(1, 2, 1, 1)
    w = TensorWord(cartan, (1, 2, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        apply_at(ctx, w, (1, 3, 2))
    with pytest.raises(ValueError):
        apply_at(ctx, w, (2, 3, 4))
    with pytest.raises(ValueError):
        apply_at(ctx, w, (1, 2))


# -- vectors across a window ------------------------------------------------

A3 = get_builtin("a3").cartan
A3_IOTA1 = IndexSequence((1, 2, 3, 1, 2, 1), 3)
A3_IOTA0 = IndexSequence((1, 2, 3, 2, 1, 2), 3)


def transport_grid():
    """(ctx, cartan, seq, vector, window) over breadth-first graphs.

    The a3 openings 1 2 3 1 2 1 and 1 2 3 2 1 2 through 4,5,6, both ways,
    free and every lambda in {0,1}^3, at depth 6; the five finite rank-2
    data on both periods, free and lambda=(1,1), through the windows 1..L
    and L+1..2L, at depth 7.  The context is the one the window reads.
    """
    ctx = BraidContext.from_cartan(A3, 1, 2)
    for lam in (None, *map(Weight, itertools.product((0, 1), repeat=3))):
        for c, seq in ((ctx, A3_IOTA1), (ctx.swapped(), A3_IOTA0)):
            for x in SequenceCrystal(A3, seq, lam).bfs(6).nodes:
                yield c, A3, seq, x, (4, 5, 6)
    for name in ("a1xa1", "a2", "b2", "c2", "g2"):
        cartan = get_builtin(name).cartan
        length = len(BraidContext.from_cartan(cartan, 1, 2).input_pattern())
        for period in ((1, 2), (2, 1)):
            seq = IndexSequence(period, 2)
            for lam in (None, weight(1, 1)):
                nodes = SequenceCrystal(cartan, seq, lam).bfs(7).nodes
                for lo in (1, length + 1):
                    window = tuple(range(lo, lo + length))
                    top = window[-1]
                    c = BraidContext.from_cartan(
                        cartan, seq.index_at(top), seq.index_at(top - 1))
                    for x in nodes:
                        yield c, cartan, seq, x, window


def test_transport_matches_the_tensor_route():
    pairs = 0
    for ctx, cartan, seq, x, window in transport_grid():
        assert transport(ctx, seq, x, window) == tensor_oracle.tensor_transport(
            ctx, cartan, seq, x, window), (ctx, seq, x, window)
        pairs += 1
    assert pairs == 2604


def test_transport_round_trip_keeps_the_weight():
    ctx = BraidContext.from_cartan(A3, 1, 2)
    x = ZVector.from_dict({1: 1, 4: 2, 6: 1, 9: 3}, weight(1, 0, 1))
    y = transport(ctx, A3_IOTA1, x, (4, 5, 6))
    assert y.lam == x.lam and y.get(1) == 1 and y.get(9) == 3
    assert transport(ctx.swapped(), A3_IOTA0, y, (4, 5, 6)) == x


@pytest.mark.parametrize(
    "window, message",
    [
        ((4, 5), "window must cover 3 positions"),
        ((4, 6, 5), "window positions must be contiguous and ascending"),
        ((0, 1, 2), "window must lie inside the word"),
        ((1, 2, 3), r"word pattern \(3, 2, 1\) does not match \(1, 2, 1\)"),
        # int() would read each of these as a window that maps
        ((4.5, 5.5, 6.5), "expected an integer"),
        (("4", "5", "6"), "expected an integer"),
        ((2, 3, True), "expected an integer"),
    ],
)
def test_transport_refuses_a_window(window, message):
    ctx = BraidContext.from_cartan(A3, 1, 2)
    with pytest.raises(ValueError, match=message):
        transport(ctx, A3_IOTA1, ZVector.from_dict({4: 1}), window)
    if "pattern" not in message:  # the same check guards the tensor route
        word = TensorWord(A3, (1, 2, 1, 3), (0, 0, 0, 0))
        with pytest.raises(ValueError, match=message):
            apply_at(ctx, word, window)


def test_transport_refuses_a_weight_of_another_rank():
    ctx = BraidContext.from_cartan(A3, 1, 2)
    x = ZVector.from_dict({4: 1}, weight(1, 0))
    with pytest.raises(ValueError, match="weight rank must match the Cartan datum"):
        transport(ctx, A3_IOTA1, x, (4, 5, 6))


# -- words built by the fast paths ------------------------------------------

def rebuilt(word):
    """The same word through the public, checking constructor."""
    return TensorWord(word.cartan, list(word.indices), list(word.values), word.unit)


def assert_like_public(word):
    ref = rebuilt(word)
    assert type(word.indices) is tuple and type(word.values) is tuple
    assert word == ref and ref == word and hash(word) == hash(ref)
    for i in (1, 2):
        assert word._fold(i) == ref._fold(i)
        assert word.eps_phi_wt(i) == tensor_oracle.eps_phi_wt(ref, i)
        assert word.f(i) == tensor_oracle.f(ref, i) and word.e(i) == tensor_oracle.e(ref, i)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PAIRS), st.data())
def test_fast_word_paths_match_public_constructor(pair, data):
    c1, c2 = pair
    length = len(BraidContext(1, 2, c1, c2).input_pattern())
    vals = data.draw(st.lists(st.integers(-6, 6), min_size=length, max_size=length))
    lam = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    ctx, w = make_word(c1, c2, vals)
    image = phi(ctx, w)
    derived = [image, phi(ctx.swapped(), image)]
    if ctx.degree == 3:
        derived.append(fuzz_oracle.phi_nested(ctx, w))
    with_unit = TensorWord(w.cartan, w.indices, w.values, weight(*lam))
    for word in (w, image, with_unit):
        for i in (1, 2):
            derived += [word.f(i), word.e(i)]
    for word in derived:
        if word is not None:
            assert_like_public(word)
    assert derived[1] == w


def test_public_constructor_checks_letter_indices():
    cartan = rank2_cartan(1, 1)
    for index in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            TensorWord(cartan, (1, index), (0, 0))


def test_context_patterns_are_built_once():
    ctx = BraidContext(1, 2, 1, 3)
    assert vars(ctx) == {"i": 1, "j": 2, "c1": 1, "c2": 3}
    assert ctx.input_pattern() == (1, 2, 1, 2, 1, 2)
    assert ctx.output_pattern() == (2, 1, 2, 1, 2, 1)
    mirror = ctx.swapped()
    assert mirror.swapped() == ctx
    assert mirror == BraidContext(2, 1, 3, 1) and hash(mirror) == hash(BraidContext(2, 1, 3, 1))
    assert repr(ctx) == "BraidContext(i=1, j=2, c1=1, c2=3)"
    assert ctx == BraidContext(1, 2, 1, 3) and dataclasses.replace(ctx, c1=3, c2=1).degree == 3


def random_braid_word(rng, cartan, contexts):
    """Letters of random indices with some braid patterns spliced in."""
    indices = []
    while len(indices) < 9:
        if rng.random() < 0.5:
            indices += rng.choice(contexts).input_pattern()
        else:
            indices.append(rng.randint(1, cartan.rank))
    indices = indices[: rng.randint(2, 9)]
    values = [rng.randint(-5, 5) for _ in indices]
    lam = rng.choice([None, tuple(rng.randint(0, 2) for _ in cartan.indices)])
    return TensorWord(cartan, indices, values, None if lam is None else Weight(lam))


@pytest.mark.parametrize("datum", ["a3", *(f"rank2-{c1}-{c2}" for c1, c2 in PAIRS)])
def test_apply_at_every_window_matches_public_splice(datum):
    if datum == "a3":
        cartan = A3
    else:
        cartan = rank2_cartan(*map(int, datum.split("-")[1:]))
    contexts = [
        BraidContext.from_cartan(cartan, i, j)
        for i, j in itertools.permutations(cartan.indices, 2)
    ]
    rng = random.Random(datum)
    applied = refused = 0
    for _ in range(60):
        w = random_braid_word(rng, cartan, contexts)
        n = len(w.values)
        for ctx in contexts:
            length = len(ctx.input_pattern())
            for start in range(1, n - length + 2):
                window = tuple(range(start, start + length))
                lo, hi = n - window[-1], n - window[0] + 1
                sub = TensorWord(cartan, w.indices[lo:hi], w.values[lo:hi])
                if sub.indices != ctx.input_pattern():
                    with pytest.raises(ValueError, match="does not match"):
                        apply_at(ctx, w, window)
                    refused += 1
                    continue
                image = phi(ctx, sub)
                expected = TensorWord(cartan, w.indices[:lo] + image.indices + w.indices[hi:],
                                      w.values[:lo] + image.values + w.values[hi:], w.unit)
                out = apply_at(ctx, w, window)
                assert out == expected and hash(out) == hash(expected)
                assert out.indices == expected.indices and out.values == expected.values
                assert out.unit is w.unit
                if cartan.rank == 2:
                    assert_like_public(out)
                assert apply_at(ctx.swapped(), out, window) == w
                applied += 1
    assert applied > 30 and refused > 30


@pytest.mark.parametrize("pair", PAIRS)
def test_derived_words_survive_json(pair):
    rng = random.Random(str(pair))
    ctx = BraidContext(1, 2, *pair)
    length = len(ctx.input_pattern())
    for _ in range(40):
        _, w = make_word(*pair, [rng.randint(-6, 6) for _ in range(length)])
        image = phi(ctx, w)
        derived = [image, phi(ctx.swapped(), image)]
        derived += [getattr(word, op)(i) for word in (w, image) for op in "fe" for i in (1, 2)]
        for word in derived:
            if word is None:
                continue
            obj = word.to_json_obj()
            assert obj == [[i, v] for i, v in zip(word.indices, word.values)]
            back = TensorWord.from_json_obj(word.cartan, obj)
            assert back == word and hash(back) == hash(word) and back.label() == word.label()
            assert back.indices == word.indices and back.values == word.values
