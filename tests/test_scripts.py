import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_traffic_lists_what_the_verify_grid_never_enters():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "traffic.py"), "--workload", "verify"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    listed = [line.split() for line in proc.stdout.splitlines()]
    assert all(re.fullmatch(r"crystalpoly(\.\w+)?:\d+", where) for where, _ in listed)
    names = {name for _, name in listed}
    assert "truncation_check" in names
    assert "lattice_coords" not in names
