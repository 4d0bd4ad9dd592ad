"""Acceptance suite: one test per exit criterion, exact equality throughout.

Each test prints a single [PASS] line (visible with pytest -s) including
its wall time, and asserts the stated time budget.
"""

import itertools
import time
from contextlib import contextmanager

from crystalpoly import (
    DescentSystem,
    FormSet,
    IndexSequence,
    LinearForm,
    SequenceCrystal,
    Weight,
    a_sequence,
    an_system,
    BraidContext,
    check_crystal_axioms,
    get_builtin,
    l_max,
    rank2_system,
    run_property_suite,
    transport,
    truncation_check,
    weight,
)

RANK2_FINITE = ("a1xa1", "a2", "b2", "c2", "g2")
IOTA1 = IndexSequence((1, 2, 3, 1, 2, 1), 3)  # opens with a reduced longest word
IOTA0 = IndexSequence((1, 2, 3, 2, 1, 2), 3)


@contextmanager
def criterion(number, description, limit):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def coords(nodes):
    return {n.coords for n in nodes}


def profile(name):
    b = get_builtin(name)
    return b, -b.cartan.a(1, 2), -b.cartan.a(2, 1)


def dominant_grid(rank, top):
    return [Weight(c) for c in itertools.product(range(top + 1), repeat=rank)]


def test_criterion_1_sl2_chains():
    with criterion(1, "sl2 weight chains and the free chain", 1.0):
        b = get_builtin("a1")
        for m in range(6):
            crystal = SequenceCrystal(b.cartan, b.iota, weight(m))
            graph = crystal.bfs(m + 2)
            assert len(graph) == m + 1
            assert len(graph.edges) == m
            assert all(i == 1 for _, i, _ in graph.edges)
            # a single chain: each node has at most one outgoing edge
            sources = [s for s, _, _ in graph.edges]
            assert len(sources) == len(set(sources))
        free = SequenceCrystal(b.cartan, b.iota)
        assert len(free.bfs(10)) == 11


def test_criterion_2_rank2_coefficient_table():
    with criterion(2, "rank-2 coefficient table and cutoffs", 1.0):
        for c1, c2 in itertools.product(range(5), repeat=2):
            p = c1 * c2
            assert a_sequence(c1, c2, 2) == c1
            assert a_sequence(c1, c2, 3) == p - 1
            assert a_sequence(c1, c2, 4) == c1 * (p - 2)
            assert a_sequence(c1, c2, 5) == (p - 1) * (p - 2) - 1
            assert a_sequence(c1, c2, 6) == c1 * (p - 1) * (p - 3)
            assert a_sequence(c1, c2, 7) == p * (p - 2) * (p - 3) - 1
            if p >= 4:
                assert l_max(c1, c2) is None
        assert [l_max(0, 0), l_max(1, 1), l_max(1, 2), l_max(1, 3)] == [2, 3, 4, 6]
        assert l_max(2, 1) == 4 and l_max(3, 1) == 6


def test_criterion_3_rank2_oracle_equivalence():
    with criterion(3, "closed-form rank-2 systems equal the BFS oracle", 30.0):
        for name in RANK2_FINITE:
            b, c1, c2 = profile(name)
            for lam in dominant_grid(2, 2):
                crystal = SequenceCrystal(b.cartan, b.iota, lam)
                bfs = crystal.bfs(8).node_set()
                system = rank2_system(c1, c2, lam)
                assert all(n.max_pos <= system.window for n in bfs), (name, lam)
                assert coords(system.enumerate_points(8)) == coords(bfs), (name, lam)
        b, c1, c2 = profile("a1tilde")
        lam = weight(1, 1)
        crystal = SequenceCrystal(b.cartan, b.iota, lam)
        bfs = crystal.bfs(5).node_set()
        system = rank2_system(2, 2, lam, window=6)
        assert all(n.max_pos <= 6 for n in bfs)
        assert coords(system.enumerate_points(5)) == coords(bfs)


def test_criterion_4_an_oracle_equivalence():
    with criterion(4, "triangle systems for a2/a3 equal the BFS oracle", 60.0):
        for n in (2, 3):
            b = get_builtin(f"a{n}")
            for lam in dominant_grid(n, 1):
                crystal = SequenceCrystal(b.cartan, b.iota, lam)
                bfs = crystal.bfs(6).node_set()
                system = an_system(n, lam)
                assert all(x.max_pos <= system.window for x in bfs)
                assert coords(system.enumerate_points(6)) == coords(bfs), (n, lam)


def test_criterion_5_generated_systems_match():
    with criterion(5, "generated systems saturate and match the closed forms", 60.0):
        b2 = get_builtin("a2")
        for lam in dominant_grid(2, 2):
            fs = DescentSystem(b2.cartan, b2.iota, lam).generate(3)
            assert fs.saturated, lam
            crystal = SequenceCrystal(b2.cartan, b2.iota, lam)
            assert coords(fs.enumerate_points(8)) == coords(crystal.bfs(8).node_set())
        b3 = get_builtin("a3")
        for lam in dominant_grid(3, 1):
            fs = DescentSystem(b3.cartan, b3.iota, lam).generate(6)
            assert fs.saturated, lam
            crystal = SequenceCrystal(b3.cartan, b3.iota, lam)
            assert coords(fs.enumerate_points(6)) == coords(crystal.bfs(6).node_set())


def test_criterion_6_counterexample_regression():
    with criterion(6, "the non-positive, non-ample sequence is reproduced", 1.0):
        a3 = get_builtin("a3")
        free = DescentSystem(a3.cartan, IOTA0)
        f = LinearForm.x(1)
        for k in (1, 2, 5):
            f = free.s(f, k)
        bad_form = LinearForm.make(0, {1: 1, 2: -1, 3: 1, 4: -1})
        assert f == bad_form

        lam = weight(0, 1, 0)
        hat = DescentSystem(a3.cartan, IOTA0, lam)
        g = LinearForm.x(1)
        for k in (1, 2, 5, 2):
            g = hat.s(g, k)
        assert g == LinearForm.make(-1, {3: 1, 4: -1})

        free_set = free.generate(6)
        assert free_set.saturated and bad_form in free_set
        ok, witnesses = free_set.positivity_report()
        assert not ok and (bad_form, 2) in witnesses

        lam_set = hat.generate(6)
        assert lam_set.saturated and g in lam_set
        ample, bad_consts = lam_set.ampleness_report()
        assert not ample and g in bad_consts


def test_criterion_7_braid_property_suite():
    with criterion(7, "braid maps: 10^4 seeded checks per pairing profile", 60.0):
        for c1, c2 in ((0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
            report = run_property_suite(c1, c2, 10_000, seed=41_000 + 10 * c1 + c2)
            assert report["ok"], report["violations"][:3]
            assert report["n"] == 10_000


GOLDEN_FREE_1 = [
    LinearForm.x(1),
    LinearForm.make(0, {2: 1, 4: -1}),
    LinearForm.x(4),
    LinearForm.make(0, {3: 1, 5: -1}),
    LinearForm.make(0, {5: 1, 6: -1}),
    LinearForm.x(6),
]

GOLDEN_FREE_0 = [
    LinearForm.x(1),
    LinearForm.x(4),
    LinearForm.make(0, {3: 1, 4: -1, 6: -1}),
    LinearForm.make(0, {2: 1, 4: 1, 5: -1}),
    LinearForm.make(0, {5: 1, 6: -1}),
    LinearForm.x(6),
    LinearForm.make(0, {2: 1, 6: -1}),
]


def golden_weighted_1(m):
    return GOLDEN_FREE_1 + [
        LinearForm.make(m[0], {1: -1}),
        LinearForm.make(m[1], {1: 1, 2: -1}),
        LinearForm.make(m[1], {4: -1}),
        LinearForm.make(m[2], {2: 1, 3: -1}),
        LinearForm.make(m[2], {4: 1, 5: -1}),
        LinearForm.make(m[2], {6: -1}),
    ]


def golden_weighted_0(m):
    return GOLDEN_FREE_0 + [
        LinearForm.make(m[0], {1: -1}),
        LinearForm.make(m[2], {4: -1}),
        LinearForm.make(m[1], {1: 1, 2: -1}),
        LinearForm.make(m[1], {4: 1, 5: -1}),
        LinearForm.make(m[1], {6: -1}),
        LinearForm.make(m[2], {2: 1, 3: -1}),
    ]


def transport_all(ctx, seq, nodes):
    return {transport(ctx, seq, node, (4, 5, 6)) for node in nodes}


def test_criterion_8_golden_transport():
    with criterion(8, "golden six-coordinate image systems and their braid transport", 120.0):
        a3 = get_builtin("a3").cartan
        ctx = BraidContext.from_cartan(a3, 1, 2)

        free1 = SequenceCrystal(a3, IOTA1)
        free0 = SequenceCrystal(a3, IOTA0)
        bfs1 = free1.bfs(6).node_set()
        bfs0 = free0.bfs(6).node_set()
        set1 = FormSet(forms=tuple(GOLDEN_FREE_1), window=6).enumerate_points(6)
        set0 = FormSet(forms=tuple(GOLDEN_FREE_0), window=6).enumerate_points(6)
        assert coords(set1) == coords(bfs1)
        assert coords(set0) == coords(bfs0)
        forward = transport_all(ctx, IOTA1, bfs1)
        assert coords(forward) == coords(bfs0)
        assert len(forward) == len(bfs1)
        backward = transport_all(ctx.swapped(), IOTA0, bfs0)
        assert coords(backward) == coords(bfs1)

        for m in itertools.product((0, 1), repeat=3):
            lam = Weight(m)
            c1 = SequenceCrystal(a3, IOTA1, lam)
            c0 = SequenceCrystal(a3, IOTA0, lam)
            b1 = c1.bfs(6).node_set()
            b0 = c0.bfs(6).node_set()
            g1 = FormSet(forms=tuple(golden_weighted_1(m)), window=6, lam=lam)
            g0 = FormSet(forms=tuple(golden_weighted_0(m)), window=6, lam=lam)
            assert coords(g1.enumerate_points(6)) == coords(b1), m
            assert coords(g0.enumerate_points(6)) == coords(b0), m
            fwd = transport_all(ctx, IOTA1, b1)
            assert coords(fwd) == coords(b0) and len(fwd) == len(b1), m


def test_criterion_9_truncation_predicates():
    with criterion(9, "longest-word support bounds and repeat vanishing", 120.0):
        cases = (
            ("a2", (1, 2, 1)),
            ("b2", (1, 2, 1, 2)),
            ("g2", (1, 2, 1, 2, 1, 2)),
            ("a3", (1, 2, 3, 1, 2, 1)),
        )
        for name, word in cases:
            b = get_builtin(name)
            assert len(word) == b.longest_len
            report = truncation_check(b.cartan, word, 6)
            assert report.ok, (name, report.violations[:3])


def _axiom_clean(crystal, graph):
    return check_crystal_axioms(crystal, graph.nodes)


def every_acceptance_graph():
    """Rebuild the (crystal, depth) pairs the earlier criteria enumerate."""
    b1 = get_builtin("a1")
    for m in range(6):
        yield SequenceCrystal(b1.cartan, b1.iota, weight(m)), m + 2
    yield SequenceCrystal(b1.cartan, b1.iota), 10
    for name in RANK2_FINITE:
        b, _, _ = profile(name)
        for lam in dominant_grid(2, 2):
            yield SequenceCrystal(b.cartan, b.iota, lam), 8
    b, _, _ = profile("a1tilde")
    yield SequenceCrystal(b.cartan, b.iota, weight(1, 1)), 5
    for n in (2, 3):
        b = get_builtin(f"a{n}")
        for lam in dominant_grid(n, 1):
            yield SequenceCrystal(b.cartan, b.iota, lam), 6
    a3 = get_builtin("a3").cartan
    yield SequenceCrystal(a3, IOTA1), 6
    yield SequenceCrystal(a3, IOTA0), 6
    for m in itertools.product((0, 1), repeat=3):
        yield SequenceCrystal(a3, IOTA1, Weight(m)), 6
        yield SequenceCrystal(a3, IOTA0, Weight(m)), 6
    for name, word in (("a2", (1, 2, 1)), ("b2", (1, 2, 1, 2)),
                       ("g2", (1, 2, 1, 2, 1, 2)), ("a3", (1, 2, 3, 1, 2, 1))):
        b = get_builtin(name)
        yield SequenceCrystal(b.cartan, IndexSequence(word, b.cartan.rank)), 6


def test_criterion_10_axioms_on_every_graph():
    with criterion(10, "crystal axioms hold on every oracle graph", 300.0):
        nodes_seen = 0
        for crystal, depth in every_acceptance_graph():
            graph = crystal.bfs(depth)
            nodes_seen += len(graph)
            violations = _axiom_clean(crystal, graph)
            assert violations == [], violations[:3]
            for s, i, d in graph.edges:
                assert crystal.e(graph.nodes[d], i) == graph.nodes[s]
        assert nodes_seen > 1500  # the criteria graphs hold ~2000 distinct nodes

        # tensor associativity: left and right bracketings agree on samples
        import random

        from crystalpoly import Letter, TensorWord, rank2_cartan
        from tensor_oracle import factor_data

        rng = random.Random(77)
        for c1, c2 in ((1, 1), (2, 1), (3, 1)):
            cartan = rank2_cartan(c1, c2)
            for _ in range(300):
                letters = [
                    Letter(rng.randint(1, 2), rng.randint(-5, 5))
                    for _ in range(rng.randint(2, 5))
                ]
                w = TensorWord(cartan, letters)
                for i in (1, 2):
                    le, lp, lw = w.eps_phi_wt(i)
                    data = [factor_data(w, m, i) for m in range(len(w))]
                    re_, rp, rw = data[-1]
                    for fe, fp, fw in reversed(data[:-1]):
                        re_ = max(fe, re_ - fw)
                        rp = max(rp, fp + rw)
                        rw = fw + rw
                    assert (le, lp, lw) == (re_, rp, rw)
