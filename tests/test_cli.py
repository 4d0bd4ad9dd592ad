import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from crystalpoly import crystals, get_builtin, weight, zvectors
from crystalpoly.cli import console, main
from crystalpoly.forms import MAX_FORMS, DescentSystem
from crystalpoly.zvectors import SequenceCrystal
from root_oracle import weyl_length


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


@pytest.mark.parametrize("fmt, pattern", [
    ("text", r"  \[(\d+)\] (.*)"), ("dot", r'  n(\d+) \[label="(.*)"\];'),
])
def test_graph_node_lines_carry_the_node_labels(capsys, fmt, pattern):
    """Each node line of text and dot carries `label()` of its BFS node,
    the zero vector as 0, in the terms x<pos>=<val> joined by commas."""
    a4 = get_builtin("a4")
    nodes = SequenceCrystal(a4.cartan, a4.iota).bfs(6).nodes
    code, out, _ = run(capsys, "graph", "--builtin", "a4", "--binf", "--depth", "6",
                       "--format", fmt)
    assert code == 0
    found = [m.groups() for m in map(re.compile(pattern).fullmatch, out.splitlines()) if m]
    assert found == [(str(k), node.label()) for k, node in enumerate(nodes)]
    assert found[0] == ("0", "0")
    assert [text for _, text in found[1:]] == [
        ",".join(f"x{pos}={val}" for pos, val in node.coords) for node in nodes[1:]]


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


@pytest.mark.parametrize("command", ["graph", "verify"])
def test_bfs_stops_at_the_node_cap(capsys, monkeypatch, command):
    """A closure that never ends exits 2 at MAX_NODES, naming the cap and the
    depth it reached; a closure of exactly MAX_NODES nodes still runs."""
    monkeypatch.setattr(zvectors, "MAX_NODES", 8)  # the a2 rho closure has 8 nodes
    code, _, err = run(capsys, command, "--builtin", "a2", "--lambda", "1,1", "--depth", "9")
    assert code == 0 and err == ""
    code, out, err = run(capsys, command, "--builtin", "a2", "--binf", "--iota", "1 2 1",
                         "--depth", "99999999999999999999")
    assert code == 2 and out == ""
    assert err == "config error: the BFS passed the cap of 8 nodes at depth 3\n"
    monkeypatch.setattr(zvectors, "MAX_NODES", 7)
    code, _, err = run(capsys, command, "--builtin", "a2", "--lambda", "1,1", "--depth", "9")
    assert code == 2 and err == "config error: the BFS passed the cap of 7 nodes at depth 4\n"


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
        # past the form cap: the coordinate seeds or the rank-2 rows alone would pass it
        (("inequalities", "--builtin", "a2", "--binf", "--support-bound", "5001"),
         f"support bound must be <= {MAX_FORMS}"),
        (("inequalities", "--builtin", "a2", "--binf", "--support-bound", "1000000"),
         f"support bound must be <= {MAX_FORMS}"),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3",
          "--support-bound", "5001"), f"support bound must be <= {MAX_FORMS}"),
        (("inequalities", "--builtin", "a2", "--lambda", "1,0", "--method", "rank2",
          "--window", "5001"), f"window must be <= {MAX_FORMS}"),
        (("verify", "--builtin", "a1tilde", "--lambda", "1,1", "--depth", "3",
          "--method", "rank2", "--window", "100000000"), f"window must be <= {MAX_FORMS}"),
        # an option the method does not read
        (("inequalities", "--builtin", "a2", "--lambda", "1,0", "--window", "5"),
         "--method generate does not take --window"),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3", "--method", "an",
          "--window", "5"), "--method an does not take --window"),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3", "--method", "rank2",
          "--support-bound", "1"), "--method rank2 does not take --support-bound"),
        (("verify", "--builtin", "a2", "--lambda", "1,0", "--method", "an",
          "--support-bound", "1", "--depth", "3"), "--method an does not take --support-bound"),
        (("inequalities", "--builtin", "a2", "--lambda", "1,0", "--method", "rank2",
          "--max-rounds", "60"), "--method rank2 does not take --max-rounds"),
        (("inequalities", "--builtin", "a3", "--lambda", "1,0,1", "--method", "an",
          "--support-bound", "6", "--max-rounds", "5"),
         "--method an does not take --support-bound, --max-rounds"),
    ],
)
def test_bad_round_cap_or_window_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"config error: {message}"


def test_saturated_closed_form_past_the_cap_prints_no_warning(capsys):
    code, out, _ = run(capsys, "inequalities", "--builtin", "a2", "--lambda", "1,0",
                       "--method", "rank2", "--window", "3000")
    assert code == 0 and "WARNING" not in out
    assert out.splitlines()[:2] == ["forms: 5999  window: 3000  saturated: True", "report: ample"]


@pytest.mark.parametrize("argv, verdict", [
    # an enumeration search one level per free position, about a thousand deep or more
    (("--builtin", "a64", "--lambda", ",".join(["1"] * 64), "--method", "an", "--depth", "1"),
     "equal: 65 elements (depth 1)"),
    (("--builtin", "a1tilde", "--lambda", "1,1", "--method", "rank2", "--window", "1200",
      "--depth", "2"), "equal: 5 elements (depth 2)"),
])
def test_verify_on_a_large_window(capsys, argv, verdict):
    assert run(capsys, "verify", *argv) == (0, verdict + "\n", "")


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
    assert out == "BFS leaves the window: x5=1,x9=1,x13=1,x17=1,x21=1 beyond 20\n"


# reduced words of the a3 longest element whose default window (10) leaves
# x9 and x10 unbounded: the lattice has points past the word's length 6 that
# the BFS never reaches, and `verify` cuts them
@pytest.mark.parametrize("mode", [["--binf"], ["--lambda", "1,0,0"]], ids=["free", "lam100"])
@pytest.mark.parametrize("word", ["1 2 1 3 2 1", "2 1 2 3 2 1", "2 3 2 1 2 3", "3 2 3 1 2 3"])
def test_verify_reduced_longest_words_are_equal(capsys, word, mode):
    code, out, _ = run(capsys, "verify", "--builtin", "a3", "--iota", word, *mode,
                       "--depth", "6")
    assert code == 0 and out.startswith("equal: ")


def test_verify_cuts_only_a_reduced_period(capsys):
    # length 6 and lattice-only points past x6, as above, but "1 1" is not reduced
    code, out, _ = run(capsys, "verify", "--builtin", "a3", "--iota", "1 2 1 3 1 1",
                       "--lambda", "1,0,0", "--depth", "3")
    assert (code, out) == (4, "MISMATCH: bfs-only=[] lattice-only=['x1=1,x2=1,x9=1', "
                              "'x1=1,x9=1', 'x1=1,x9=2', 'x9=1', 'x9=2', 'x9=3']\n")


A3_LONGEST_WORDS = [" ".join(map(str, w)) for w in product((1, 2, 3), repeat=6)
                    if weyl_length(get_builtin("a3").cartan, w) == 6]


@pytest.mark.parametrize("lam", [None, *product((0, 1), repeat=3)],
                         ids=lambda lam: "free" if lam is None else "lam" + "".join(map(str, lam)))
def test_verify_on_every_reduced_a3_longest_word_agrees_with_the_report(capsys, lam):
    """At depth 6 the sets are equal exactly when the generated system's
    positivity (free) or ampleness report is clean; a MISMATCH then names
    only BFS points, as the cut leaves no lattice point past x6."""
    mode = ["--binf"] if lam is None else ["--lambda", ",".join(map(str, lam))]
    assert len(A3_LONGEST_WORDS) == 16
    equal = 0
    for word in A3_LONGEST_WORDS:
        code, out, _ = run(capsys, "verify", "--builtin", "a3", "--iota", word, *mode,
                           "--depth", "6")
        _, report, _ = run(capsys, "inequalities", "--builtin", "a3", "--iota", word, *mode)
        clean = {"positivity: ok", "report: ample"} & set(report.splitlines())
        assert (code == 0) == bool(clean), (word, out, report.splitlines()[:3])
        assert code == 0 or out.endswith(" lattice-only=[]\n"), (word, out)
        equal += code == 0
    assert equal == (14 if lam is None else 12 if lam[1] else 16)


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


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_braid_fuzz_jobs_below_one_is_a_config_error(capsys, jobs):
    code, out, err = run(capsys, "braid", "--fuzz", "--c1", "1", "--c2", "1", "--n", "5",
                         "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == "config error: --jobs must be >= 1\n"


@pytest.mark.parametrize("extra, named", [
    (["--builtin", "a3"], "--builtin"),
    (["--cartan-file", "absent.json"], "--cartan-file"),
    (["--iota", "1 2 1"], "--iota"),
    (["--map-set", "missing.json", "--window", "1,2,3"], "--map-set, --window"),
    (["--window", "1,2,3"], "--window"),
    (["--builtin", ""], "--builtin"),
    (["--cartan-file", ""], "--cartan-file"),
    (["--iota", ""], "--iota"),
    (["--map-set", ""], "--map-set"),
    (["--window", ""], "--window"),
    (["--i", "7"], "--i"),
    (["--j", "9"], "--j"),
    (["--i", "7", "--j", "9"], "--i, --j"),
], ids=["builtin", "cartan-file", "iota", "map-set-window", "window",
        "empty-builtin", "empty-cartan-file", "empty-iota", "empty-map-set", "empty-window",
        "i", "j", "i-j"])
def test_braid_fuzz_refuses_options_it_would_ignore(capsys, extra, named):
    code, out, err = run(capsys, "braid", "--fuzz", "--c1", "1", "--c2", "2", "--n", "5", *extra)
    assert code == 2 and out == ""
    assert err == f"config error: --fuzz does not take {named}\n"


@pytest.mark.parametrize("extra, named", [
    (["--n", "5"], "--n"),
    (["--seed", "7"], "--seed"),
    (["--jobs", "3"], "--jobs"),
    (["--n", "5", "--seed", "7", "--jobs", "3"], "--n, --seed, --jobs"),
], ids=["n", "seed", "jobs", "n-seed-jobs"])
def test_braid_map_set_refuses_options_it_would_ignore(tmp_path, capsys, extra, named):
    src = tmp_path / "im.json"
    src.write_text(json.dumps([[[1, 0], [2, 0], [1, 0], [3, 0], [2, 0], [1, 0]]]))
    argv = ("braid", "--builtin", "a3", "--window", "4,5,6", "--map-set", str(src))
    assert run(capsys, *argv, *extra) == (
        2, "", f"config error: --map-set does not take {named}\n")


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
    ("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3"),
    ("braid", "--fuzz", "--c1", "1", "--c2", "2", "--n", "5"),
], ids=["graph", "inequalities", "braid", "verify", "braid-fuzz"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, argv):
    src = tmp_path / "im.json"
    src.write_text(json.dumps([[[1, 0], [2, 0], [1, 0], [3, 0], [2, 0], [1, 0]]]))
    dest = tmp_path / "absent" / "out.txt"
    argv = [str(src) if a == "MAP_SET" else a for a in argv]
    code, out, err = run(capsys, *argv, "--output", str(dest))
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot write --output: ") and str(dest) in err
    assert not dest.parent.exists()


FUZZ = ("braid", "--fuzz", "--c1", "1", "--c2", "2", "--n", "20", "--seed", "3")


@pytest.mark.parametrize("argv, violations", [
    (("verify", "--builtin", "a2", "--lambda", "1,0", "--depth", "3"), 0),
    (("verify", "--builtin", "a3", "--iota", "1 2 3 2 1 2", "--binf", "--depth", "6"), 0),
    (("verify", "--builtin", "a1tilde", "--lambda", "1,1", "--depth", "4", "--method", "rank2",
      "--window", "2"), 0),
    (("verify", "--builtin", "a3", "--lambda", "1,1,1", "--depth", "4", "--max-rounds", "1"), 0),
    (FUZZ, 0),
    (FUZZ, 2),
], ids=["verify-equal", "verify-mismatch", "verify-window", "verify-unsaturated", "fuzz",
        "fuzz-violations"])
def test_output_file_holds_what_stdout_would(tmp_path, capsys, monkeypatch, argv, violations):
    import crystalpoly.cli as cli

    if violations:  # the fuzz then writes a line per violation after its own
        monkeypatch.setattr(cli, "_fuzz_chunk", lambda payload: {
            "n": payload[2], "violations": [{"kind": "wt", "values": (v,) * 3}
                                            for v in range(violations)]})
    code, printed, err = run(capsys, *argv)
    dest = tmp_path / "out.txt"
    assert run(capsys, *argv, "--output", str(dest)) == (code, "", err)
    assert code != 2 and printed.count("\n") == 1 + violations
    assert dest.read_text() == printed


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


def test_builtin_names_only_the_package_builtins(tmp_path, capsys, monkeypatch):
    # a JSON datum is loaded by --cartan-file; no directory in the environment
    # adds builtins, so the variable that once did is not read
    (tmp_path / "mytype.json").write_text(
        json.dumps({"rank": 2, "matrix": [[2, -1], [-1, 2]]})
    )
    monkeypatch.setenv("CRYSTALPOLY_BUILTIN_DIR", str(tmp_path))
    argv = ("graph", "--iota", "1 2", "--lambda", "1,0", "--depth", "2", "--format", "json")
    assert run(capsys, *argv, "--builtin", "mytype") == (
        2, "", "config error: unknown builtin 'mytype'\n")
    code, out, _ = run(capsys, *argv, "--cartan-file", str(tmp_path / "mytype.json"))
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
        # integer text is ASCII digits after an optional minus, and nothing else
        (("graph", "--builtin", "a2", "--lambda", "1_0,0", "--depth", "3"),
         "bad weight '1_0,0'"),
        (("graph", "--builtin", "a2", "--lambda", "\uff11,0", "--depth", "3"),
         "bad weight '\uff11,0'"),
        (("verify", "--builtin", "a2", "--lambda", "+1,0", "--depth", "3"),
         "bad weight '+1,0'"),
        (("verify", "--builtin", "a3", "--iota", "1 \u0663 2", "--lambda", "1,0,0",
          "--depth", "2"), "expected an ASCII decimal integer, got '\u0663'"),
        (("braid", "--builtin", "a2", "--window", "1,\u0662,3", "--map-set", "absent.json"),
         "expected an ASCII decimal integer, got '\u0662'"),
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
    monkeypatch.setattr(SequenceCrystal, "closure", no_bfs)
    code, _, err = run(capsys, "verify", "--builtin", "a2", "--binf", "--depth", "12",
                       "--method", method)
    assert code == 2 and err.strip() == f"config error: the {method} method needs --lambda"


@pytest.mark.parametrize("argv, code, line", [
    (("a2", "--lambda", "1,0", "--depth", "3"), 0, "equal: 3 elements (depth 3)"),
    (("a3", "--iota", "1 2 3 2 1 2", "--binf", "--depth", "6"), 4, "MISMATCH: bfs-only="),
    (("a3", "--iota", "2 1 2 3 2 1", "--binf", "--depth", "6"), 0, "equal: 217 elements"),
    (("a5", "--lambda", "1,0,0,0,1", "--depth", "10", "--support-bound", "15"), 4,
     "BFS leaves the window: "),
    (("a3", "--lambda", "1,1,1", "--depth", "4", "--max-rounds", "1"), 3,
     "generation did not saturate"),
], ids=["equal", "mismatch", "cut", "window-leave", "unsaturated"])
def test_verify_builds_no_graph(capsys, monkeypatch, argv, code, line):
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a graph")

    monkeypatch.setattr(SequenceCrystal, "bfs", refuse)
    monkeypatch.setattr(crystals.CrystalGraph, "__init__", refuse)
    got, out, err = run(capsys, "verify", "--builtin", *argv)
    assert (got, err) == (code, "") and out.startswith(line)


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


@pytest.mark.parametrize(
    "content",
    [[1], {"matrix": 5}, {"matrix": [[2, -1.7], [-1, 2]]}, {"matrix": [[2, 1e400], [-1, 2]]},
     {"rank": 2, "matrix": [[2, False], [False, 2]]},  # false == 0 would load as a1xa1
     {"rank": 2}],
    ids=["top-level-list", "scalar-matrix", "non-integral", "overflowing", "boolean",
         "no-matrix"],
)
def test_malformed_cartan_file(tmp_path, capsys, content):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(content))
    code, _, err = run(
        capsys, "graph", "--cartan-file", str(src), "--iota", "1", "--binf", "--depth", "1",
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
        ([["r", [1, 0]], [1, 1], [2, 0], [1, -2]],
         'a unit letter ["r", ...] must be the last entry'),
        ({"coords": {"1_0": 2}}, "a coordinate key must be an ASCII decimal position, got '1_0'"),
        ({"coords": {" 3": 1}}, "a coordinate key must be an ASCII decimal position, got ' 3'"),
        ({"coords": {"\u0663": 1}},
         "a coordinate key must be an ASCII decimal position, got '\u0663'"),
        ({"coords": {"1": 1, "01": 2}}, "position 1 is given twice"),
    ],
    ids=["fractional-coordinate", "fractional-letter", "short-weight", "unit-first",
         "underscored-key", "spaced-key", "arabic-indic-key", "repeated-position"],
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


@pytest.mark.parametrize("text", ["\uff13", "0_2", "+1", " 5"],
                         ids=["fullwidth", "underscore", "plus", "space"])
@pytest.mark.parametrize("argv", [
    ("graph", "--builtin", "a2", "--lambda", "1,0", "--depth"),
    ("braid", "--fuzz", "--c1", "1", "--c2", "1", "--seed"),
    ("braid", "--fuzz", "--c1", "1", "--c2", "1", "--n"),
], ids=["depth", "seed", "n"])
def test_numeric_options_take_ascii_decimal_text_only(capsys, argv, text):
    code, out, err = run_catching_exit(capsys, [*argv, text])
    assert code == ("exit", 2) and out == ""
    assert err.endswith(f"error: argument {argv[-1]}: invalid int value: {text!r}\n")


def test_every_numeric_option_is_read_as_decimal_text():
    import crystalpoly.cli as cli

    commands = cli.build_parser()._subparsers._group_actions[0].choices.values()
    typed = [action for command in commands for action in command._actions if action.type]
    assert len(typed) == 15  # --depth twice, the three system options twice, seven of braid's
    for action in typed:
        assert action.type("-12") == -12
        for text in ("\uff13", "0_2", "+1", " 5"):
            with pytest.raises(ValueError):
                action.type(text)


def test_braid_map_set_refuses_n_below_one(tmp_path, capsys):
    # the floors are checked for every command, so the map-set mode, which
    # reads no --n, refuses one below 1 as the fuzz does
    src = tmp_path / "im.json"
    src.write_text(json.dumps([[[1, 0], [2, 0], [1, 0], [3, 0], [2, 0], [1, 0]]]))
    argv = ("braid", "--builtin", "a3", "--window", "4,5,6", "--map-set", str(src))
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--n", "0") == (2, "", "config error: --n must be >= 1\n")


@pytest.mark.parametrize("argv, message", [
    (("graph", "--builtin", "nosuch", "--binf", "--depth", "-1"), "--depth must be >= 0"),
    (("verify", "--builtin", "a2", "--lambda", "1,-1", "--depth", "3", "--max-rounds", "0"),
     "--max-rounds must be >= 1"),
    (("braid", "--fuzz", "--c1", "1", "--n", "0"), "--n must be >= 1"),
], ids=["graph", "verify", "braid"])
def test_a_floor_is_named_before_other_faults(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"config error: {message}\n")


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
