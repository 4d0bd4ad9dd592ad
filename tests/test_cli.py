import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crystalpoly import get_builtin, weight
from crystalpoly.cli import console, main
from crystalpoly.forms import MAX_FORMS, DescentSystem
from crystalpoly.zvectors import SequenceCrystal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_dot(capsys):
    code, out, _ = run(
        capsys, "graph", "--builtin", "a2", "--iota", "1 2", "--lambda", "1,0",
        "--depth", "3", "--format", "dot",
    )
    assert code == 0
    assert out.count("[label=") >= 3 and 'label="1"' in out
    assert out.count("->") == 2


def test_graph_json_counts_layers(capsys):
    code, out, _ = run(
        capsys, "graph", "--builtin", "a1tilde", "--binf", "--depth", "2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 7  # 1 + 2 + 4, counted by hand
    assert data["root"] == 0


def test_graph_depth_zero(capsys):
    code, out, _ = run(
        capsys, "graph", "--builtin", "g2", "--lambda", "0,0", "--depth", "0",
        "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 1


def test_graph_config_errors(capsys):
    code, _, err = run(capsys, "graph", "--builtin", "nosuch", "--binf", "--depth", "1")
    assert code == 2 and "unknown builtin" in err
    code, _, err = run(
        capsys, "graph", "--builtin", "a2", "--lambda", "1,-1", "--depth", "1"
    )
    assert code == 2 and "dominant" in err
    code, _, err = run(capsys, "graph", "--builtin", "a2", "--depth", "1")
    assert code == 2


def test_inequalities_generate_not_ample(capsys):
    code, out, _ = run(
        capsys, "inequalities", "--builtin", "a3", "--iota", "1 2 3 2 1 2",
        "--lambda", "0,1,0", "--method", "generate",
    )
    assert code == 0
    assert "not ample" in out
    assert "-1 + x3 - x4 >= 0" in out


def test_inequalities_rank2_window(capsys):
    code, out, _ = run(
        capsys, "inequalities", "--builtin", "a1tilde", "--lambda", "1,1",
        "--method", "rank2", "--window", "5",
    )
    assert code == 0
    assert "1 + 5*x4 - 4*x5 >= 0" in out
    assert "x6" not in out


def test_inequalities_zero_weight_ample(capsys):
    code, out, _ = run(
        capsys, "inequalities", "--builtin", "a2", "--lambda", "0,0",
        "--method", "generate",
    )
    assert code == 0
    assert "report: ample" in out
    payload_code, payload, _ = run(
        capsys, "inequalities", "--builtin", "a2", "--lambda", "0,0",
        "--method", "generate", "--format", "json",
    )
    data = json.loads(payload)
    assert payload_code == 0
    assert all(f["const"] == "0" for f in data["forms"])


def test_inequalities_unsaturated_exit(capsys):
    code, out, _ = run(
        capsys, "inequalities", "--builtin", "a1tilde", "--lambda", "1,1",
        "--method", "generate", "--support-bound", "6", "--max-rounds", "1",
    )
    assert code == 3
    assert "WARNING" in out


def test_inequalities_form_cap(tmp_path, capsys):
    # wild Cartan data: the form set about doubles every round
    src = tmp_path / "wild.json"
    src.write_text(json.dumps({"matrix": [[2, -1, -1], [-4, 2, -1], [-2, -2, 2]]}))
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "inequalities", "--cartan-file", str(src), "--iota", "3 1 2 1", "--binf",
        "--support-bound", "8",
    )
    assert code == 3 and time.perf_counter() - start < 5
    warning, counts = out.splitlines()[:2]
    match = re.fullmatch(
        rf"WARNING: generation passed the cap of {MAX_FORMS} forms in round (\d+) "
        r"with (\d+) forms; the listing below is partial",
        warning,
    )
    assert match and match[1] == "10" and int(match[2]) > MAX_FORMS
    assert counts == f"forms: {match[2]}  window: 11  saturated: False"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("inequalities", "--builtin", "a2", "--lambda", "1,0", "--max-rounds", "-1"),
         "--max-rounds must be >= 1"),
        (("inequalities", "--builtin", "a2", "--lambda", "1,0", "--max-rounds", "0"),
         "--max-rounds must be >= 1"),
        (("inequalities", "--builtin", "a2", "--lambda", "1,0", "--method", "rank2",
          "--window", "0"), "--window must be >= 1"),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3", "--method", "rank2",
          "--window", "-5"), "--window must be >= 1"),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3", "--max-rounds", "0"),
         "--max-rounds must be >= 1"),
    ],
)
def test_bad_round_cap_or_window_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"config error: {message}"


def test_verify_equal_cases(capsys):
    code, out, _ = run(
        capsys, "verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3"
    )
    assert code == 0 and "equal: 3 elements" in out
    code, out, _ = run(
        capsys, "verify", "--builtin", "a1tilde", "--lambda", "1,1", "--depth", "4"
    )
    assert code == 0 and "equal" in out
    code, out, _ = run(
        capsys, "verify", "--builtin", "g2", "--lambda", "0,0", "--depth", "0"
    )
    assert code == 0 and "equal: 1 elements" in out


def test_verify_mismatch_exit(capsys):
    # an undersized rank2 window misses elements, which must be reported
    code, out, _ = run(
        capsys, "verify", "--builtin", "a1tilde", "--lambda", "1,1", "--depth", "4",
        "--method", "rank2", "--window", "2",
    )
    assert code == 4


@pytest.mark.parametrize(
    "argv, line",
    [
        (("a4", "--lambda", "1,1,1,1", "--depth", "10"), "equal: 567 elements (depth 10)"),
        (("a4", "--lambda", "1,1,1,1", "--depth", "12"), "equal: 769 elements (depth 12)"),
        # an explicit bound well past the one the BFS needs
        (("a5", "--lambda", "1,1,1,1,1", "--depth", "8", "--support-bound", "24"),
         "equal: 1279 elements (depth 8)"),
        # the default bound 15 gives window 20 and the BFS reaches x21: raised to 16
        (("a5", "--lambda", "1,1,1,1,1", "--depth", "8"), "equal: 1279 elements (depth 8)"),
        (("a5", "--lambda", "1,0,0,0,1", "--depth", "10"), "equal: 35 elements (depth 10)"),
        (("a3", "--lambda", "1,0,1", "--depth", "6", "--method", "an"),
         "equal: 15 elements (depth 6)"),
    ],
)
def test_verify_deep_oracle_cases(capsys, argv, line):
    code, out, _ = run(capsys, "verify", "--builtin", *argv)
    assert code == 0 and out.strip() == line


def test_verify_window_raise_is_minimal_and_default_only(capsys):
    a5 = get_builtin("a5")
    descent = DescentSystem(a5.cartan, a5.iota, weight(1, 0, 0, 0, 1))
    assert a5.longest_len == 15
    assert descent.window_for(15) == 20 and descent.window_for(16) == 21
    # an explicit bound is kept, so the BFS node x21 still escapes its window
    code, out, _ = run(capsys, "verify", "--builtin", "a5", "--lambda", "1,0,0,0,1",
                       "--depth", "10", "--support-bound", "15")
    assert code == 4
    assert out.startswith("BFS leaves the window: ") and out.strip().endswith(" beyond 20")


def test_braid_fuzz(capsys):
    code, out, _ = run(
        capsys, "braid", "--fuzz", "--c1", "1", "--c2", "2", "--n", "400",
        "--seed", "5",
    )
    assert code == 0
    assert "violations=0" in out and "seed=5" in out


def test_braid_fuzz_jobs(capsys):
    code, out, _ = run(
        capsys, "braid", "--fuzz", "--c1", "1", "--c2", "1", "--n", "300",
        "--jobs", "2",
    )
    assert code == 0 and "n=300" in out


def test_braid_fuzz_jobs_caps_processes(capsys, monkeypatch):
    # a pool forks all of its max_workers at the first submit, so a huge
    # --jobs must not reach it; this stand-in records the pool and runs inline
    import concurrent.futures
    import os

    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.payloads = None
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            self.payloads = list(payloads)
            return map(fn, self.payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    code, out, _ = run(
        capsys, "braid", "--fuzz", "--c1", "1", "--c2", "1", "--n", "2",
        "--jobs", "5000", "--seed", "9",
    )
    assert code == 0 and "n=2 seed=9 violations=0" in out
    [pool] = pools
    assert pool.max_workers == min(2, os.cpu_count() or 1)
    assert pool.payloads == [(1, 1, 1, 9), (1, 1, 1, 10)]
    # a single chunk runs in this process
    code, out, _ = run(
        capsys, "braid", "--fuzz", "--c1", "1", "--c2", "1", "--n", "1", "--jobs", "4",
    )
    assert code == 0 and "n=1 " in out and len(pools) == 1


@pytest.mark.parametrize("extra, named", [
    (["--builtin", "a3"], "--builtin"),
    (["--cartan-file", "absent.json"], "--cartan-file"),
    (["--iota", "1 2 1"], "--iota"),
    (["--map-set", "missing.json", "--window", "1,2,3"], "--map-set, --window"),
    (["--window", "1,2,3"], "--window"),
], ids=["builtin", "cartan-file", "iota", "map-set-window", "window"])
def test_braid_fuzz_refuses_options_it_would_ignore(capsys, extra, named):
    code, out, err = run(capsys, "braid", "--fuzz", "--c1", "1", "--c2", "2", "--n", "5", *extra)
    assert code == 2 and out == ""
    assert err == f"config error: --fuzz does not take {named}\n"


def test_braid_fuzz_takes_an_empty_window(capsys):
    code, out, _ = run(capsys, "braid", "--fuzz", "--c1", "1", "--c2", "2", "--n", "5",
                       "--window", "", "--seed", "3")
    assert code == 0 and "n=5 seed=3 violations=0" in out


def test_braid_map_set(tmp_path, capsys):
    elements = [
        [[1, 0], [2, 0], [1, 0], [3, 0], [2, 0], [1, 0]],
        [[1, 0], [2, -1], [1, 0], [3, 0], [2, 0], [1, -1]],
    ]
    src = tmp_path / "im.json"
    src.write_text(json.dumps(elements))
    out_path = tmp_path / "mapped.json"
    code, _, _ = run(
        capsys, "braid", "--builtin", "a3", "--window", "4,5,6", "--i", "1",
        "--j", "2", "--map-set", str(src), "--output", str(out_path),
    )
    assert code == 0
    mapped = json.loads(out_path.read_text())
    assert len(mapped) == 2
    assert [entry[0][0] for entry in mapped] == [2, 2]  # leading letters now carry j


def test_braid_map_set_coordinate_encoding(tmp_path, capsys):
    # the graph command's JSON nodes feed straight into the braid command
    code, out, _ = run(
        capsys, "graph", "--builtin", "a3", "--iota", "1 2 3 1 2 1", "--binf",
        "--depth", "3", "--format", "json",
    )
    assert code == 0
    nodes = json.loads(out)["nodes"]
    src = tmp_path / "nodes.json"
    src.write_text(json.dumps(nodes))
    dest = tmp_path / "mapped.json"
    code, _, _ = run(
        capsys, "braid", "--builtin", "a3", "--iota", "1 2 3 1 2 1",
        "--window", "4,5,6", "--i", "1", "--j", "2",
        "--map-set", str(src), "--output", str(dest),
    )
    assert code == 0
    mapped = {json.dumps(e, sort_keys=True) for e in json.loads(dest.read_text())}
    code, out, _ = run(
        capsys, "graph", "--builtin", "a3", "--iota", "1 2 3 2 1 2", "--binf",
        "--depth", "3", "--format", "json",
    )
    other = {json.dumps(n, sort_keys=True) for n in json.loads(out)["nodes"]}
    assert mapped == other


@pytest.mark.parametrize("argv", [
    ("graph", "--builtin", "a2", "--lambda", "1,0", "--depth", "2"),
    ("inequalities", "--builtin", "a2", "--lambda", "1,0"),
    ("braid", "--builtin", "a3", "--window", "4,5,6", "--map-set", "MAP_SET"),
], ids=["graph", "inequalities", "braid"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, argv):
    src = tmp_path / "im.json"
    src.write_text(json.dumps([[[1, 0], [2, 0], [1, 0], [3, 0], [2, 0], [1, 0]]]))
    dest = tmp_path / "absent" / "out.txt"
    argv = [str(src) if a == "MAP_SET" else a for a in argv]
    code, out, err = run(capsys, *argv, "--output", str(dest))
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot write --output: ") and str(dest) in err
    assert not dest.parent.exists()


def test_braid_map_set_refuses_an_empty_iota(tmp_path, capsys):
    src = tmp_path / "nodes.json"
    src.write_text(json.dumps([{"coords": {"1": 1}, "mode": "binf"}]))
    code, out, err = run(capsys, "braid", "--builtin", "a3", "--iota", "", "--window", "4,5,6",
                         "--map-set", str(src))
    assert code == 2 and out == "" and err == "config error: empty index sequence\n"


def test_braid_map_set_missing_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "braid", "--builtin", "a3", "--window", "4,5,6",
        "--map-set", str(tmp_path / "absent.json"),
    )
    assert code == 2 and err.startswith("config error:")


def test_braid_map_set_not_json(tmp_path, capsys):
    src = tmp_path / "im.json"
    src.write_text("[[1, 0], [2,")
    code, _, err = run(
        capsys, "braid", "--builtin", "a3", "--window", "4,5,6", "--map-set", str(src),
    )
    assert code == 2 and err.startswith("config error:")


def test_braid_needs_mode(capsys):
    code, _, err = run(capsys, "braid", "--c1", "1", "--c2", "1")
    assert code == 2 and "fuzz" in err


def test_braid_violation_exit_code(capsys, monkeypatch):
    import crystalpoly.cli as cli

    def broken(c1, c2, n, seed):
        return {"c1": c1, "c2": c2, "n": n, "seed": seed,
                "violations": [{"kind": "wt", "values": (0,) * 3}], "ok": False}

    monkeypatch.setattr(cli, "_fuzz_chunk", lambda payload: broken(*payload))
    code, out, _ = run(capsys, "braid", "--fuzz", "--c1", "1", "--c2", "1", "--n", "10")
    assert code == 5 and "violations=1" in out


def test_inequalities_free_mode_positivity(capsys):
    code, out, _ = run(
        capsys, "inequalities", "--builtin", "a2", "--binf", "--support-bound", "4"
    )
    assert code == 0 and "positivity: ok" in out
    code, out, _ = run(
        capsys, "inequalities", "--builtin", "a3", "--iota", "1 2 3 2 1 2", "--binf",
    )
    assert code == 0 and "positivity: broken at x2" in out


def test_builtin_dir_env(tmp_path, capsys, monkeypatch):
    (tmp_path / "mytype.json").write_text(
        json.dumps({"rank": 2, "matrix": [[2, -1], [-1, 2]]})
    )
    monkeypatch.setenv("CRYSTALPOLY_BUILTIN_DIR", str(tmp_path))
    code, out, _ = run(
        capsys, "graph", "--builtin", "mytype", "--iota", "1 2", "--lambda", "1,0",
        "--depth", "2", "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 3


def test_inequalities_an_method(capsys):
    code, out, _ = run(
        capsys, "inequalities", "--builtin", "a3", "--lambda", "1,0,1", "--method", "an",
    )
    assert code == 0
    assert out.startswith("forms: 18  window: 9  saturated: True\nreport: ample\n")
    assert "1 - x1 >= 0" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("inequalities", "--builtin", "a3", "--lambda", "1,0,1", "--method", "rank2"),
         "this method needs a rank-2 Cartan datum"),
        (("inequalities", "--builtin", "a2", "--binf", "--method", "rank2"),
         "the rank2 method needs --lambda"),
        (("inequalities", "--builtin", "a2", "--binf", "--method", "an"),
         "the an method needs --lambda"),
        (("inequalities", "--builtin", "b2", "--lambda", "1,0", "--method", "an"),
         "the an method needs a simply laced chain datum"),
        (("verify", "--builtin", "a3", "--lambda", "1,0,0", "--depth", "3",
          "--method", "rank2"),
         "this method needs a rank-2 Cartan datum"),
        (("verify", "--builtin", "a2", "--binf", "--depth", "3", "--method", "rank2"),
         "the rank2 method needs --lambda"),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3",
          "--support-bound", "2"),
         "--support-bound must be at least max(depth, 1)"),
        (("verify", "--builtin", "a2", "--binf", "--depth", "3", "--method", "an"),
         "the an method needs --lambda"),
        # the closed forms are for 1 2 .. n repeated, whatever the period's length
        (("verify", "--builtin", "b2", "--lambda", "1,0", "--depth", "4",
          "--method", "rank2", "--iota", "2 1"),
         'the rank2 method is for --iota "1 2" only'),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "4",
          "--method", "an", "--iota", "2 1"),
         'the an method is for --iota "1 2" only'),
        (("inequalities", "--builtin", "a2", "--lambda", "1,0", "--method", "an",
          "--iota", "2 1"),
         'the an method is for --iota "1 2" only'),
        (("inequalities", "--builtin", "a3", "--lambda", "1,0,1", "--method", "an",
          "--iota", "1 2 3 1 2"),
         'the an method is for --iota "1 2 3" only'),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3", "--iota", ""),
         "empty index sequence"),
        (("inequalities", "--builtin", "a2", "--binf", "--iota", ""),
         "empty index sequence"),
    ],
)
def test_method_dispatch_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.strip() == f"config error: {message}"


@pytest.mark.parametrize("method", ["an", "rank2"])
def test_verify_rejects_method_before_bfs(capsys, monkeypatch, method):
    def no_bfs(crystal, depth):
        raise AssertionError("the BFS ran before the method was checked")

    monkeypatch.setattr(SequenceCrystal, "bfs", no_bfs)
    code, _, err = run(capsys, "verify", "--builtin", "a2", "--binf", "--depth", "12",
                       "--method", method)
    assert code == 2 and err.strip() == f"config error: the {method} method needs --lambda"


@pytest.mark.parametrize("builtin, method, iota, count", [
    ("b2", "rank2", "1 2 1 2", 5),
    ("a2", "an", "1 2 1 2 1 2", 3),
])
def test_closed_forms_take_a_longer_period_of_their_sequence(capsys, builtin, method, iota, count):
    code, out, _ = run(capsys, "verify", "--builtin", builtin, "--lambda", "1,0",
                       "--depth", "4", "--method", method, "--iota", iota)
    assert code == 0 and out == f"equal: {count} elements (depth 4)\n"


def test_generate_from_file_needs_support_bound(tmp_path, capsys):
    src = tmp_path / "a2.json"
    src.write_text(json.dumps({"rank": 2, "matrix": [[2, -1], [-1, 2]]}))
    code, _, err = run(
        capsys, "inequalities", "--cartan-file", str(src), "--iota", "1 2", "--lambda", "1,0",
    )
    assert code == 2 and err.strip() == "config error: --support-bound is required here"


def test_verify_rank2_ignores_support_bound(capsys):
    code, out, _ = run(
        capsys, "verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3",
        "--method", "rank2", "--support-bound", "1",
    )
    assert code == 0 and out.strip() == "equal: 3 elements (depth 3)"


@pytest.mark.parametrize(
    "content",
    [[1], {"matrix": 5}, {"matrix": [[2, -1.7], [-1, 2]]}, {"matrix": [[2, 1e400], [-1, 2]]}],
    ids=["top-level-list", "scalar-matrix", "non-integral", "overflowing"],
)
def test_malformed_cartan_file(tmp_path, capsys, content):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(content))
    code, _, err = run(
        capsys, "graph", "--cartan-file", str(src), "--iota", "1", "--binf", "--depth", "1",
    )
    assert code == 2 and err.startswith("config error: cannot load Cartan file:")


def test_malformed_builtin_dir_file(tmp_path, capsys, monkeypatch):
    (tmp_path / "norows.json").write_text(json.dumps({"rank": 2}))
    monkeypatch.setenv("CRYSTALPOLY_BUILTIN_DIR", str(tmp_path))
    code, _, err = run(
        capsys, "graph", "--builtin", "norows", "--iota", "1 2", "--binf", "--depth", "1",
    )
    assert code == 2 and err.startswith("config error: cannot load Cartan file:")


@pytest.mark.parametrize(
    "content",
    [
        {"x": 1},
        {"elements": [[[1]]]},
        [{"coords": {"1": 1}, "mode": {"lam": [1, 1]}}],
        [{"coords": [1, 2]}],
        [{"coords": None}],
    ],
    ids=["no-elements", "short-letter", "bad-mode", "coords-list", "coords-null"],
)
def test_braid_map_set_malformed(tmp_path, capsys, content):
    src = tmp_path / "im.json"
    src.write_text(json.dumps(content))
    code, _, err = run(
        capsys, "braid", "--builtin", "a2", "--window", "1,2,3", "--map-set", str(src),
    )
    assert code == 2 and err.startswith("config error: malformed --map-set contents:")


@pytest.mark.parametrize(
    "element, message",
    [
        ({"coords": {"1": 1.5}}, "expected an integer, got 1.5"),
        ([[1, 0], [2, 2.9], [1, 0]], "expected an integer, got 2.9"),
        ({"coords": {"1": 1}, "mode": {"lambda": [1]}}, "weight rank must match the Cartan datum"),
    ],
    ids=["fractional-coordinate", "fractional-letter", "short-weight"],
)
def test_braid_map_set_refuses_a_value(tmp_path, capsys, element, message):
    src = tmp_path / "im.json"
    src.write_text(json.dumps([element]))
    code, out, err = run(
        capsys, "braid", "--builtin", "a2", "--iota", "1 2", "--window", "1,2,3",
        "--map-set", str(src),
    )
    assert (code, out, err.strip()) == (2, "", f"config error: {message}")


def test_braid_map_set_c1_c2_names_the_datum(tmp_path, capsys):
    # --c1/--c2 pick rank2_cartan(c1, c2); --i/--j then read it as a builtin does
    rng = random.Random(7)
    words = [[[k, rng.randint(-4, 4)] for k in (2, 1, 2, 1, 2, 1)] for _ in range(16)]
    src = tmp_path / "words.json"
    src.write_text(json.dumps(words))
    window = ("--i", "2", "--j", "1", "--window", "1,2,3,4,5,6", "--map-set", str(src))
    code, by_pairing, _ = run(capsys, "braid", "--c1", "1", "--c2", "3", *window)
    assert code == 0
    code, by_name, _ = run(capsys, "braid", "--builtin", "g2", *window)
    assert code == 0 and by_pairing == by_name


@pytest.mark.parametrize(
    "datum, message",
    [
        (("--builtin", "a2", "--c1", "1", "--c2", "3"),
         "give either --c1/--c2 or --builtin/--cartan-file, not both"),
        (("--cartan-file", "a2.json", "--c1", "1", "--c2", "3"),
         "give either --c1/--c2 or --builtin/--cartan-file, not both"),
        (("--c1", "1"), "give both --c1 and --c2, or neither"),
        (("--c2", "3"), "give both --c1 and --c2, or neither"),
        (("--builtin", "g2", "--c2", "3"), "give both --c1 and --c2, or neither"),
    ],
    ids=["builtin-and-pairing", "file-and-pairing", "c1-alone", "c2-alone", "builtin-and-c2"],
)
def test_braid_map_set_one_datum(tmp_path, capsys, datum, message):
    # a named datum is never silently replaced, and a lone pairing never silently dropped
    src = tmp_path / "words.json"
    src.write_text(json.dumps([[[2, 1], [1, 0], [2, 0]]]))
    code, out, err = run(
        capsys, "braid", *datum, "--window", "1,2,3", "--map-set", str(src),
    )
    assert (code, out, err.strip()) == (2, "", f"config error: {message}")


def test_braid_c1_c2_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "braid", "--c1", "1", "--c2", "1", "--i", "3", "--j", "1", "--map-set", "f",
        "--window", "1,2,3",
    )
    assert code == 2 and err.strip() == "config error: --i and --j must lie in 1..2"


def test_braid_map_set_position_zero_is_a_config_error(tmp_path, capsys):
    # x0 is not a coordinate; it used to be dropped and the image of x2=1 printed
    src = tmp_path / "im.json"
    src.write_text(json.dumps([{"coords": {"0": 5, "2": 1}}]))
    code, out, err = run(
        capsys, "braid", "--builtin", "a2", "--iota", "1 2", "--window", "1 2 3",
        "--map-set", str(src),
    )
    assert (code, out) == (2, "")
    assert err.strip() == "config error: positions are 1-based"


def test_braid_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "braid", "--builtin", "a2", "--i", "1", "--j", "3", "--map-set", "f",
        "--window", "1,2,3",
    )
    assert code == 2 and err.strip() == "config error: --i and --j must lie in 1..2"


def test_builtin_chain_rank_cap(capsys):
    # one past the cap: cheap to build, so a missing cap fails here instead of allocating
    from crystalpoly.closed_forms import MAX_CHAIN_RANK, get_builtin

    assert get_builtin(f"a{MAX_CHAIN_RANK}").cartan.rank == MAX_CHAIN_RANK
    name = f"a{MAX_CHAIN_RANK + 1}"
    code, _, err = run(capsys, "graph", "--builtin", name, "--binf", "--depth", "1")
    assert code == 2
    assert err.strip() == f"config error: chain builtins go up to a{MAX_CHAIN_RANK}, got {name!r}"


def test_builtin_chain_huge_digits(capsys):
    # past Python's int() digit limit: the length check must come before conversion
    from crystalpoly.closed_forms import MAX_CHAIN_RANK

    name = "a" + "9" * 5000
    code, _, err = run(capsys, "graph", "--builtin", name, "--binf", "--depth", "1")
    assert code == 2
    assert err.strip() == f"config error: chain builtins go up to a{MAX_CHAIN_RANK}, got {name!r}"


def test_weight_seeds_inside_window(capsys):
    # x3 is the first occurrence of index 2, beyond every operator the bound 1 reaches
    base = ("--builtin", "a2", "--iota", "1 1 2", "--lambda", "1,1", "--support-bound", "1")
    code, out, _ = run(capsys, "inequalities", *base)
    assert code == 0 and out.startswith("forms: 6  window: 3  saturated: True")
    code, out, _ = run(capsys, "verify", *base, "--depth", "1")
    assert code == 0 and out.strip() == "equal: 3 elements (depth 1)"


REUSE_SEQUENCE = [
    ("graph", "--builtin", "a2", "--lambda", "1,1", "--depth", "3"),
    ("inequalities", "--builtin", "a3", "--lambda", "1,0,1"),
    ("verify", "--builtin", "a3", "--iota", "1 2 3 2 1 2", "--lambda", "0,1,0", "--depth", "6"),
    ("braid", "--fuzz", "--c1", "1", "--c2", "3", "--n", "40", "--seed", "7"),
    ("verify", "--builtin", "a2", "--lambda", "1,1", "--depth", "x"),  # argparse error
    ("graph", "--builtin", "a2", "--binf", "--depth", "2", "--format", "json"),
]


def run_catching_exit(capsys, argv):
    try:
        code = ("return", main(list(argv)))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_reuses_one_parser(capsys):
    import crystalpoly.cli as cli

    cli._parser.cache_clear()
    reused = [run_catching_exit(capsys, argv) for argv in REUSE_SEQUENCE]
    parser = cli._parser()
    assert cli._parser() is parser  # the sequence above ran on this one parser
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(run_catching_exit(capsys, argv))
        assert cli._parser() is not parser
    assert reused == fresh
    assert [code for code, _, _ in reused] == [
        ("return", 0), ("return", 0), ("return", 4), ("return", 0), ("exit", 2), ("return", 0),
    ]
    assert "invalid int value: 'x'" in reused[4][2]


ENTRY_POINTS = {
    "module": ["-m", "crystalpoly.cli"],
    "console": ["-c", "from crystalpoly.cli import console; console()"],
}


def _command(entry, *argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return [sys.executable, *ENTRY_POINTS[entry], *argv], env


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_stdout_closed_after_one_line_exits_quietly(entry):
    # about 115 KB of JSON, more than a pipe holds, so the writer is still
    # writing when the reader goes away
    cmd, env = _command(entry, "graph", "--builtin", "a3", "--binf", "--depth", "8",
                        "--format", "json")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert b"Traceback" not in err and err == b""


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_stdout_closed_before_the_fuzz_line_exits_quietly(entry):
    # the read end is gone before the child starts, so its one line cannot go out
    cmd, env = _command(entry, "braid", "--fuzz", "--c1", "1", "--c2", "3", "--n", "30",
                        "--seed", "1")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(cmd, env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and proc.stderr == b""


def test_console_passes_the_status_through(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["crystalpoly", "braid", "--n", "3"])
    with pytest.raises(SystemExit) as exc:
        console()
    assert exc.value.code == 2 and "braid needs --fuzz or --map-set" in capsys.readouterr().err
