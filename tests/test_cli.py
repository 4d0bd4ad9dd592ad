import json

import pytest

from crystalpoly.cli import main


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
        # the default support bound 15 gives window 20; the BFS reaches x21 at depth 8
        (("a5", "--lambda", "1,1,1,1,1", "--depth", "8", "--support-bound", "24"),
         "equal: 1279 elements (depth 8)"),
    ],
)
def test_verify_deep_oracle_cases(capsys, argv, line):
    code, out, _ = run(capsys, "verify", "--builtin", *argv)
    assert code == 0 and out.strip() == line


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
    ],
)
def test_method_dispatch_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.strip() == f"config error: {message}"


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


@pytest.mark.parametrize("content", [[1], {"matrix": 5}], ids=["top-level-list", "scalar-matrix"])
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
    ],
    ids=["no-elements", "short-letter", "bad-mode"],
)
def test_braid_map_set_malformed(tmp_path, capsys, content):
    src = tmp_path / "im.json"
    src.write_text(json.dumps(content))
    code, _, err = run(
        capsys, "braid", "--builtin", "a2", "--window", "1,2,3", "--map-set", str(src),
    )
    assert code == 2 and err.startswith("config error: malformed --map-set contents:")


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
