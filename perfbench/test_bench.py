"""Tests for the benchmark harness.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
from collections import Counter
from itertools import islice

import pytest

import cases
import worker
from tracing import LAYER_METRICS, Tracer

CLI = worker.import_cli()
EXPECTED = worker.load_expected()


def first_blocks(workload, seed, n=3):
    return list(islice(cases.blocks(workload, seed), n))


def test_same_seed_same_cases():
    for workload in cases.STRATA:
        assert first_blocks(workload, 7) == first_blocks(workload, 7)
        assert first_blocks(workload, 7) != first_blocks(workload, 8)


def test_every_block_has_the_same_mix_of_strata():
    def mix(block):
        found = Counter()
        for argv in block:
            masked = tuple(json.loads(cases.key(argv)))
            found[next(i for i, s in enumerate(cases.STRATA[w]) if masked in s.options)] += 1
        return found

    for w in cases.STRATA:
        want = Counter({i: s.count for i, s in enumerate(cases.STRATA[w])})
        assert all(mix(b) == want for seed in (1, 2) for b in first_blocks(w, seed))


def test_a_stratum_deals_its_whole_grid_before_repeating():
    # the rank-2 stratum deals 3 of its 37 cases per block
    rank2 = [tuple(argv) for b in first_blocks("verify", 3, 12) for argv in b
             if argv[-2:] == ["--method", "rank2"] or "--window" in argv]
    assert len(rank2) == 36 and len(set(rank2)) == 36


def test_every_drawable_case_has_an_expected_answer():
    for workload in cases.STRATA:
        for argv in cases.grid(workload):
            assert cases.key(argv) in EXPECTED, argv


def test_percentile_on_a_hand_made_list():
    values = [7, 1, 10, 3, 5, 2, 9, 4, 8, 6]
    assert worker.percentile(values, 0.0) == 1
    assert worker.percentile(values, 1.0) == 10
    assert worker.percentile(values, 0.5) == pytest.approx(5.5)
    assert worker.percentile(values, 0.9) == pytest.approx(9.1)
    assert worker.percentile([4.0], 0.9) == 4.0


def test_a4_sanity_anchor():
    argv = ["verify", "--builtin", "a4", "--lambda", "1,1,1,1", "--depth", "8"]
    assert EXPECTED[cases.key(argv)] == {"exit": 0, "verdict": "equal: 351 elements (depth 8)"}


def test_known_mismatch_passes_only_with_its_recorded_output():
    argv = ["verify", "--builtin", "a3", "--iota", cases.IOTA, "--lambda", "0,1,0", "--depth", "6"]
    code, stdout, _, error = worker.run_case(CLI, argv)
    assert code == 4 and stdout.startswith("MISMATCH")
    assert worker.check(argv, code, stdout, error, EXPECTED)[0]
    assert not worker.check(argv, 0, stdout, error, EXPECTED)[0]


def test_wrong_expected_count_is_reported_as_a_failure():
    doctored = dict(EXPECTED)
    argv = ["braid", "--fuzz", "--c1", "1", "--c2", "2", "--n", str(cases.BRAID_N),
            "--seed", cases.SEED_SLOT, "--jobs", "1"]
    doctored[cases.key(argv)] = dict(EXPECTED[cases.key(argv)], n=cases.BRAID_N + 1)
    with worker.SpeedSampler() as sampler:
        results, _ = worker.run_blocks(CLI, first_blocks("braid-fuzz", 5, 1), doctored, sampler)
    failed = [r for r in results if not r["ok"]]
    assert [r["argv"][3:6:2] for r in failed] == [["1", "2"]]
    assert failed[0]["got"]["n"] == cases.BRAID_N
    assert worker.end_to_end(results)["pass_ratio"]["value"] == pytest.approx(5 / 6)


def test_a_raising_command_is_a_failure(monkeypatch):
    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(CLI, "main", boom)
    argv = ["graph", "--builtin", "a3", "--binf", "--depth", "2"]
    code, stdout, _, error = worker.run_case(CLI, argv)
    assert code is None and "RuntimeError: boom" in error
    assert not worker.check(argv, code, stdout, error, EXPECTED)[0]


def test_tracer_reports_every_layer_metric_and_restores_the_code():
    from crystalpoly.zvectors import SequenceCrystal

    original = SequenceCrystal.f
    tracer = Tracer()
    tracer.install()
    try:
        worker.run_case(CLI, ["graph", "--builtin", "a3", "--binf", "--depth", "3"])
    finally:
        tracer.uninstall()
    assert SequenceCrystal.f is original
    metrics = tracer.layer_metrics(0.0)
    assert list(metrics) == [name for name, _, _ in LAYER_METRICS]
    assert metrics["zvectors.bfs.calls"]["value"] == 1
    assert metrics["crystals.axioms.elements"]["value"] == metrics["zvectors.bfs.nodes"]["value"]
    assert [s["name"] for s in tracer.span_records()] == ["cli", "zvectors.bfs", "crystals.axioms"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(worker.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(cases.STRATA)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    e2e = worker.end_to_end([{"ms": 1.0, "ok": True}])
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e) | {"setup_s"}
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in spec["end_to_end"] if m["name"] in e2e)
