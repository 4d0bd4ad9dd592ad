import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crystalpoly

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, line",
    [
        ("a3_transport_demo.py", "transport is a bijection onto the other image: True"),
        ("rank2_tables.py", " 1  3 |     6 | [0, 1, 1, 2, 1, 1, 0, -1]"),
    ],
)
def test_script_runs(script, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_every_export_resolves_once():
    exported = crystalpoly.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(crystalpoly, name)] == []


def test_paired_bench_dry_run_alternates_the_first_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paired_bench.py"), str(tmp_path / "a"),
         str(tmp_path / "b"), "--workload", "closure", "--seeds", "1-4,9", "--dry-run"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "seed 1: A then B", "seed 2: B then A", "seed 3: A then B",
        "seed 4: B then A", "seed 9: A then B",
    ]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _paired_bench():
    return _script("paired_bench")


def test_paired_bench_json_keeps_pairs_medians_spread_and_runs(tmp_path, monkeypatch, capsys):
    bench = _paired_bench()
    trees = {"A": tmp_path / "a", "B": tmp_path / "b"}
    for tree in trees.values():
        tree.mkdir()

    def run_once(tree, workload, seed, seconds, trace=0):
        side = "A" if tree == trees["A"].resolve() else "B"
        p50 = 10.0 * seed if side == "A" else 9.0 * seed
        return {"correct": True, "attempted": 100 + seed, "failed": seed % 2,
                "metrics": {"case_ms_p50": {"value": p50, "unit": "ms"},
                            "peak_rss_mb": {"value": 40.4 + seed, "unit": "MB"}}}

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"closure": {"kept": True}}))
    argv = [str(trees["A"]), str(trees["B"]), "--workload", "verify", "--seeds", "1-4",
            "--seconds", "5", "--json", str(out)]
    assert bench.main(argv) == 0
    printed = capsys.readouterr().out
    assert ("seed 1 A: attempted 101 failed 1 correct True peak_rss_mb 41.4"
            " (419.74 KB per attempted case)") in printed.splitlines()
    assert "case_ms_p50    median 25 -> 22.5 (-10.0%)" in printed
    data = json.loads(out.read_text())
    assert data["closure"] == {"kept": True}
    verify = data["verify"]
    assert (verify["seeds"], verify["seconds"]) == ([1, 2, 3, 4], 5)
    assert [(r["seed"], r["tree"], r["attempted"], r["failed"]) for r in verify["runs"]] == [
        (1, "A", 101, 1), (1, "B", 101, 1), (2, "B", 102, 0), (2, "A", 102, 0),
        (3, "A", 103, 1), (3, "B", 103, 1), (4, "B", 104, 0), (4, "A", 104, 0),
    ]
    p50 = verify["metrics"]["case_ms_p50"]
    assert p50["unit"] == "ms"
    assert p50["A"] == [10.0, 20.0, 30.0, 40.0] and p50["B"] == [9.0, 18.0, 27.0, 36.0]
    assert (p50["median_A"], p50["median_B"], p50["change"]) == (25.0, 22.5, "-10.0%")
    assert p50["per_pair"] == ["-10.0%"] * 4
    assert p50["spread_A"] == bench.spread([10.0, 20.0, 30.0, 40.0]) == 25.0



def test_paired_bench_json_keeps_both_trees_traced_counts(tmp_path, monkeypatch, capsys):
    bench = _paired_bench()
    trees = {"A": tmp_path / "a", "B": tmp_path / "b"}
    for tree in trees.values():
        tree.mkdir()
    calls = []

    def run_once(tree, workload, seed, seconds, trace=0):
        side = "A" if tree == trees["A"].resolve() else "B"
        calls.append((side, seed, trace))
        if not trace:
            return {"correct": True, "attempted": 10, "failed": 0,
                    "metrics": {"cases_per_s": {"value": 100.0 + seed, "unit": "1/s"},
                                "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}
        phi_calls = 216000 if side == "A" else 0
        metrics = {"braid.phi.calls": {"value": phi_calls, "unit": "count"},
                   "braid.map.calls": {"value": 1000, "unit": "count"},
                   "braid.suite.self_s": {"value": 1.5 if side == "A" else 0.5, "unit": "s"},
                   "cli.self_s": {"value": 0.1, "unit": "s"}}
        if side == "B":
            metrics["extra.calls"] = {"value": 3, "unit": "count"}
        return {"correct": side == "A", "attempted": 4, "failed": int(side == "B"),
                "metrics": metrics}

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = [str(trees["A"]), str(trees["B"]), "--workload", "braid-fuzz", "--seeds", "2-3",
            "--seconds", "5", "--json", str(out)]
    assert bench.main(argv) == 1  # the traced run of B answered wrong
    lines = capsys.readouterr().out.splitlines()
    assert calls == [("A", 2, 0), ("B", 2, 0), ("B", 3, 0), ("A", 3, 0), ("A", 1, 1), ("B", 1, 1)]
    traced = json.loads(out.read_text())["braid-fuzz"]["traced"]
    assert traced == {
        "seed": 1,
        "A": {"braid.phi.calls": 216000, "braid.map.calls": 1000},
        "B": {"braid.phi.calls": 0, "braid.map.calls": 1000, "extra.calls": 3},
        "differ": ["braid.phi.calls", "extra.calls"],
        "correct": {"A": True, "B": False},
    }
    at = lines.index("traced seed 1: 2 of 2 count readings differ")
    assert lines[at + 1 : at + 3] == ["  braid.phi.calls 216000 -> 0", "  extra.calls None -> 3"]
    assert lines[-1] == "wrong answers in 1 runs: seed 1 B traced"
    calls.clear()  # without --json no traced run is made
    assert bench.main(argv[:-2]) == 0 and all(trace == 0 for _, _, trace in calls)

def test_paired_bench_exits_1_after_its_report_when_a_run_is_wrong(tmp_path, monkeypatch, capsys):
    bench = _paired_bench()
    trees = {"A": tmp_path / "a", "B": tmp_path / "b"}
    for tree in trees.values():
        tree.mkdir()

    def run_once(tree, workload, seed, seconds, trace=0):
        wrong = tree == trees["B"].resolve() and seed == 2
        return {"correct": not wrong, "attempted": 10, "failed": int(wrong),
                "metrics": {"cases_per_s": {"value": 100.0 + seed, "unit": "1/s"},
                            "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = [str(trees["A"]), str(trees["B"]), "--workload", "verify", "--seeds", "1-3",
            "--seconds", "5", "--json", str(out)]
    assert bench.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("seed 2 B: attempted 10 failed 1 correct False peak_rss_mb 40.0"
            " (4096.00 KB per attempted case)") in lines
    assert any(line.startswith("cases_per_s    median 102 -> 102") for line in lines)
    assert lines[-1] == "wrong answers in 1 runs: seed 2 B"
    runs = json.loads(out.read_text())["verify"]["runs"]
    assert [r["correct"] for r in runs] == [True, True, False, True, True, True]


def test_paired_bench_gives_each_bounded_metric_a_win_count_and_a_verdict(
        tmp_path, monkeypatch, capsys):
    bench = _paired_bench()
    trees = {"A": tmp_path / "a", "B": tmp_path / "b"}
    for tree in trees.values():
        tree.mkdir()
    bounds = [("cases_per_s", "higher", 0.15), ("case_ms_p50", "lower", 0.2),
              ("case_ms_p90", "lower", 0.25), ("peak_rss_mb", "lower", 0.1),
              ("pass_ratio", "higher", 0.005)]
    (trees["A"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "unit": "", "better": better, "bound": bound}
        for name, better, bound in bounds]}))
    values = {  # metric: (A by seed, B by seed)
        "cases_per_s": ([100, 101, 102, 103], [110, 111, 112, 113]),
        "case_ms_p50": ([10, 10, 10, 10], [13, 13, 13, 13]),  # 30% worse, bound 20%
        "case_ms_p90": ([10, 20, 30, 40], [9, 45, 29, 39]),  # A spread 100% of its median
        "peak_rss_mb": ([10, 20, 30, 40], [1, 2, 3, 4]),  # as wide, but every B run better
        "pass_ratio": ([1, 1, 1, 1], [1, 1, 1, 1]),  # ties count for neither tree
        "other": ([1, 2, 3, 4], [9, 9, 9, 9]),  # not in BENCHMARK.json
    }

    def run_once(tree, workload, seed, seconds, trace=0):
        side = 0 if tree == trees["A"].resolve() else 1
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {name: {"value": float(v[side][seed - 1]), "unit": ""}
                            for name, v in values.items()}}

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = [str(trees["A"]), str(trees["B"]), "--workload", "verify", "--seeds", "1-4",
            "--seconds", "5", "--json", str(out)]
    assert bench.main(argv) == 0
    verdicts = [line.strip() for line in capsys.readouterr().out.splitlines() if "B won" in line]
    expected = [(4, "within bound"), (0, "worse than bound"), (3, "unresolved"),
                (4, "within bound"), (0, "within bound")]
    assert verdicts == [f"B won {wins} of 4 pairs; {says} ({better} is better, bound {bound:g})"
                        for (name, better, bound), (wins, says) in zip(bounds, expected)]
    metrics = json.loads(out.read_text())["verify"]["metrics"]
    for (name, better, bound), (wins, says) in zip(bounds, expected):
        assert {k: metrics[name][k] for k in ("better", "bound", "wins_B", "verdict")} == {
            "better": better, "bound": bound, "wins_B": wins, "verdict": says}
    assert "verdict" not in metrics["other"]


def test_paired_bench_shows_a_gain_only_past_9_of_10_wins_and_the_spread(
        tmp_path, monkeypatch, capsys):
    bench = _paired_bench()
    trees = {"A": tmp_path / "a", "B": tmp_path / "b"}
    for tree in trees.values():
        tree.mkdir()
    bounds = [("cases_per_s", "higher", 0.15), ("case_ms_p50", "lower", 0.2),
              ("case_ms_p90", "lower", 0.25), ("peak_rss_mb", "lower", 0.1),
              ("pass_ratio", "higher", 0.005)]
    (trees["A"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "unit": "", "better": better, "bound": bound}
        for name, better, bound in bounds]}))
    tens = [10 * n for n in range(1, 11)]  # quartile spread 57.5
    values = {  # metric: (A by seed, B by seed)
        "cases_per_s": ([100 + n for n in range(10)], [120 + n for n in range(10)]),  # 10 of 10
        "case_ms_p50": (tens, [v - 1 for v in tens]),  # 10 of 10, but inside A's spread
        "case_ms_p90": ([10] * 10, [5] * 9 + [11]),  # 9 of 10, spread 0
        "peak_rss_mb": ([10] * 10, [5] * 8 + [11] * 2),  # 8 of 10
        "pass_ratio": ([1] * 10, [1] * 10),  # ties count for neither tree
    }
    expected = ["gain shown", "gain not shown", "gain shown", "gain not shown", "gain not shown"]

    def run_once(tree, workload, seed, seconds, trace=0):
        side = 0 if tree == trees["A"].resolve() else 1
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {name: {"value": float(v[side][seed - 1]), "unit": ""}
                            for name, v in values.items()}}

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = [str(trees["A"]), str(trees["B"]), "--workload", "closure", "--seeds", "1-10",
            "--seconds", "5", "--json", str(out)]
    assert bench.main(argv) == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert [line for line in lines if line.startswith("gain ")] == expected
    metrics = json.loads(out.read_text())["closure"]["metrics"]
    assert [metrics[name]["gain"] for name, _, _ in bounds] == expected
    assert [metrics[name]["wins_B"] for name, _, _ in bounds] == [10, 10, 9, 8, 0]


def test_traffic_lists_what_the_verify_grid_never_enters():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "traffic.py"), "--workload", "verify"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    listed = [line.split() for line in proc.stdout.splitlines()]
    assert all(re.fullmatch(r"crystalpoly(\.\w+)?:\d+", where) for where, _ in listed)
    names = {name for _, name in listed}
    assert "an_system" in names
    assert "lattice_coords" not in names


STUB_GRID = [
    ("graph", "--builtin", "a2", "--binf", "--depth", "2"),
    ("inequalities", "--builtin", "b2", "--method", "generate", "--lambda", "1,0"),
    ("braid", "--fuzz", "--c1", "1", "--c2", "1", "--n", "5", "--seed", "<seed>", "--jobs", "1"),
]


def test_grid_digest_repeats_and_sees_a_changed_output(monkeypatch, capsys):
    digest = _script("grid_digest")
    monkeypatch.setattr(digest.cases, "grid", lambda workload: STUB_GRID)

    def run():
        assert digest.main(["--workload", "closure", "--per-case"]) == 0
        return capsys.readouterr().out.splitlines()

    first = run()
    assert len(first) == 4
    assert first[2].endswith(" braid --fuzz --c1 1 --c2 1 --n 5 --seed 1 --jobs 1")
    assert re.fullmatch(r"closure [0-9a-f]{64} \(3 argv\)", first[3])
    assert run() == first
    honest = digest.cli_main

    def patched(argv):
        code = honest(argv)
        if argv[0] == "graph":
            print()
        return code

    monkeypatch.setattr(digest, "cli_main", patched)
    changed = run()
    assert changed[1:3] == first[1:3]
    assert changed[0] != first[0] and changed[3] != first[3]


def test_grid_digest_digests_extra_command_lines(monkeypatch, capsys):
    """Each `--argv` command runs after the grids and prints the digest its
    argv would have as a grid case; the grids' digests do not change."""
    digest = _script("grid_digest")
    monkeypatch.setattr(digest.cases, "grid", lambda workload: STUB_GRID[:1])
    commands = ["graph --builtin a2 --binf --depth 2 --format dot",
                "graph --builtin a2 --binf --depth 2 --format json",
                "graph --builtin nosuch --binf --depth 2"]

    def run(*argv):
        assert digest.main(["--workload", "closure", *argv]) == 0
        return capsys.readouterr().out.splitlines()

    grid_only = run()
    lines = run(*[a for command in commands for a in ("--argv", command)])
    assert lines[0] == grid_only[0] and len(lines) == 1 + len(commands)
    for line, command in zip(lines[1:], commands):
        assert line == f"{digest.case_digest(command.split())} {command}"
    assert len({line.split()[0] for line in lines[1:]}) == len(commands)
