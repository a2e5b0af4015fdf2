"""Command line interface: subcommands, exit codes, manifests, replay."""

import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

from conftest import subprocess_env
from xpand import kernels
from xpand.cli import main
from xpand.generators import mesh
from xpand.graph import load_file


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_writes_graph_and_manifest(workdir, capsys):
    rc, _out, _err = run(
        ["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys
    )
    assert rc == 0
    g = load_file(str(workdir / "m.gr"))
    assert (g.n, g.m) == (16, 24)
    manifest = json.loads((workdir / "m.gr.manifest.json").read_text())
    assert manifest["tool"] == "xpand"
    assert "m.gr" in manifest["outputs"]


def test_gen_to_stdout(workdir, capsys):
    rc, out, _ = run(["gen", "--family", "cycle", "--n", "5"], capsys)
    assert rc == 0
    assert out.startswith("5 5\n")


def test_gen_subdivide_writes_sidecar(workdir, capsys):
    rc, _, _ = run(
        ["gen", "--family", "complete", "--n", "4", "-o", "k4.gr"], capsys
    )
    assert rc == 0
    rc, _, _ = run(
        [
            "gen",
            "--family",
            "subdivide",
            "--base",
            "k4.gr",
            "--k",
            "2",
            "-o",
            "s.gr",
        ],
        capsys,
    )
    assert rc == 0
    assert (workdir / "s.gr.sub.json").exists()
    side = json.loads((workdir / "s.gr.sub.json").read_text())
    assert side["k"] == 2 and side["base_nodes"] == [0, 1, 2, 3]


def test_gen_errors(workdir, capsys):
    rc, _, err = run(["gen", "--family", "mesh", "--dims", "0x4"], capsys)
    assert rc == 2 and "error:" in err
    rc, _, _ = run(["gen", "--family", "subdivide", "--k", "2"], capsys)
    assert rc == 2  # missing --base and -o


@pytest.mark.parametrize(
    "target",
    [["-o", "missing/x.gr"], ["--manifest", "missing/m.json"]],
    ids=["output", "manifest"],
)
def test_unwritable_output_path_is_an_input_error(workdir, capsys, target):
    rc, _, err = run(["gen", "--family", "mesh", "--dims", "3x3", *target], capsys)
    assert rc == 2
    assert err.startswith(f"error: cannot write {target[1]}:")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_heuristic_trials_below_one_is_an_input_error(workdir, capsys, trials):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, out, err = run(["expansion", "m.gr", "--heuristic", "--trials", trials], capsys)
    assert rc == 2
    assert err.startswith("error:") and "trial" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-mesh-span", "--dims", "2x2", "--sample", "5", "--seed", "-3"],
        ["span", "m.gr", "--sample", "5", "--seed", "-1"],
        ["percolate", "m.gr", "--p-grid", "1/2", "--trials", "2", "--seed", "-1"],
        ["gen", "--family", "random-regular", "--n", "10", "--degree", "3", "--seed", "-1"],
        ["expansion", "m.gr", "--heuristic", "--seed", "-1"],
    ],
    ids=["verify-mesh-span", "span", "percolate", "gen", "expansion"],
)
def test_negative_seed_is_an_input_error(workdir, capsys, argv):
    run(["gen", "--family", "mesh", "--dims", "3x3", "-o", "m.gr"], capsys)
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert err.startswith("error:") and "seed" in err
    assert out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sample", "5", "--max-size", "0"], "max_size"),
        (["--sample", "5", "--max-size", "-2"], "max_size"),
        (["--max-size", "3"], "--max-size needs --sample"),
        (["--exact", "--max-size", "3"], "--max-size needs --sample"),
    ],
)
def test_span_max_size_is_checked(workdir, capsys, flags, message):
    run(["gen", "--family", "mesh", "--dims", "3x3", "-o", "m.gr"], capsys)
    rc, out, err = run(["span", "m.gr", *flags], capsys)
    assert rc == 2
    assert err.startswith("error:") and message in err
    assert out == ""


def test_expansion_node_exact(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, out, _ = run(["expansion", "m.gr", "--node", "--exact"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert (payload["value_num"], payload["value_den"]) == (1, 2)
    assert payload["witness"] == list(range(8))
    assert payload["mode"] == "node" and payload["method"] == "exact"


def test_expansion_edge_and_heuristic(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, out, _ = run(["expansion", "m.gr", "--edge", "--exact"], capsys)
    assert rc == 0
    assert json.loads(out)["value_num"] == 1
    rc, out, _ = run(
        ["expansion", "m.gr", "--node", "--heuristic", "--seed", "3"], capsys
    )
    assert rc == 0
    heur = json.loads(out)
    assert heur["method"] == "heuristic"
    assert heur["value_num"] / heur["value_den"] >= 0.5


def test_expansion_chain_dp_uses_sidecar(workdir, capsys):
    run(["gen", "--family", "complete", "--n", "4", "-o", "k4.gr"], capsys)
    run(
        ["gen", "--family", "subdivide", "--base", "k4.gr", "--k", "2", "-o", "s.gr"],
        capsys,
    )
    rc, out, _ = run(["expansion", "s.gr", "--node", "--chain-dp"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert (payload["value_num"], payload["value_den"]) == (3, 8)
    # without the sidecar the command must refuse cleanly
    (workdir / "s.gr.sub.json").unlink()
    rc, _, err = run(["expansion", "s.gr", "--node", "--chain-dp"], capsys)
    assert rc == 2 and "error:" in err


def test_expansion_refuses_oversized_exact(workdir, capsys):
    run(["gen", "--family", "complete", "--n", "30", "-o", "k30.gr"], capsys)
    rc, _, err = run(["expansion", "k30.gr", "--node", "--exact"], capsys)
    assert rc == 1 and "refused:" in err


def test_expansion_missing_file(workdir, capsys):
    rc, _, err = run(["expansion", "nope.gr", "--node", "--exact"], capsys)
    assert rc == 2 and "error:" in err


def test_span_exact_and_sampled(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "3x3", "-o", "m.gr"], capsys)
    rc, out, _ = run(["span", "m.gr", "--exact"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert (payload["value_num"], payload["value_den"]) == (5, 3)
    assert payload["argmax"] == [0, 1, 3]
    assert payload["boundary"] == [2, 4, 6]
    assert len(payload["tree_edges"]) == payload["tree_size"] - 1
    rc, out, _ = run(["span", "m.gr", "--sample", "100", "--seed", "1"], capsys)
    assert rc == 0
    sampled = json.loads(out)
    assert sampled["method"] == "sampled"
    assert sampled["value_num"] / sampled["value_den"] <= 5 / 3


def test_prune_oracle_roundtrip(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, out, _ = run(
        ["prune", "m.gr", "--oracle", "--eps", "1/2", "--faults", "empty"], capsys
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["h_size"] == 16 and payload["steps"] == []
    assert payload["faults"] == 0
    assert payload["certified"] is True


def test_prune_rejects_alpha_and_oracle_together(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, _, err = run(
        [
            "prune",
            "m.gr",
            "--alpha",
            "1/2",
            "--oracle",
            "--eps",
            "1/2",
            "--faults",
            "empty",
        ],
        capsys,
    )
    assert rc == 2
    rc, _, _ = run(["prune", "m.gr", "--eps", "1/2", "--faults", "empty"], capsys)
    assert rc == 2  # neither given


def test_prune_with_fault_file(workdir, capsys):
    run(["gen", "--family", "cycle", "--n", "8", "-o", "c8.gr"], capsys)
    pattern = {
        "kind": "node-faults",
        "failed": [0],
        "provenance": {"by": "hand"},
    }
    (workdir / "f.json").write_text(json.dumps(pattern) + "\n")
    rc, out, _ = run(
        [
            "prune",
            "c8.gr",
            "--alpha",
            "1/2",
            "--eps",
            "3/4",
            "--faults",
            "f.json",
        ],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["faults"] == 1
    assert payload["h_size"] == 4
    assert payload["final_nodes"] == [4, 5, 6, 7]


def test_prune2_subcommand(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, out, _ = run(
        ["prune2", "m.gr", "--alpha-e", "1/2", "--eps", "1/8", "--faults", "empty"],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "edge" and payload["h_size"] == 16


def test_prune_rejects_decimal_rationals(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, _, _ = run(
        ["prune", "m.gr", "--alpha", "0.5", "--eps", "1/2", "--faults", "empty"],
        capsys,
    )
    assert rc == 2


def test_shatter_subcommand(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, out, _ = run(["shatter", "m.gr", "--eps-frac", "1/4"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["failed"] == [2, 6, 8, 9, 10, 11]
    assert all(len(c) <= 4 for c in payload["components"])


def test_attack_chain_centers(workdir, capsys):
    run(["gen", "--family", "complete", "--n", "4", "-o", "k4.gr"], capsys)
    run(
        ["gen", "--family", "subdivide", "--base", "k4.gr", "--k", "2", "-o", "s.gr"],
        capsys,
    )
    rc, out, _ = run(["attack", "s.gr", "--strategy", "chain-centers"], capsys)
    assert rc == 0
    pattern = json.loads(out)
    assert pattern["failed"] == [4, 6, 8, 10, 12, 14]


def test_attack_greedy(workdir, capsys):
    run(["gen", "--family", "path", "--n", "9", "-o", "p.gr"], capsys)
    rc, out, _ = run(
        ["attack", "p.gr", "--strategy", "greedy", "--budget", "1"], capsys
    )
    assert rc == 0
    assert json.loads(out)["failed"] == [4]
    rc, _, _ = run(["attack", "p.gr", "--strategy", "greedy"], capsys)
    assert rc == 2  # budget required


def test_percolate_csv_and_jsonl(workdir, capsys):
    run(["gen", "--family", "cycle", "--n", "12", "-o", "c.gr"], capsys)
    argv = [
        "percolate",
        "c.gr",
        "--model",
        "edge",
        "--p-grid",
        "1/4:3/4:1/4",
        "--trials",
        "5",
        "--seed",
        "42",
    ]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("p,trial,gamma")
    assert len(lines) == 1 + 3 * 5
    rc, out, _ = run(argv + ["--format", "jsonl"], capsys)
    assert rc == 0
    assert all(json.loads(line) for line in out.splitlines())
    assert len(out.splitlines()) == 15


def test_percolate_with_pruning(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    rc, out, _ = run(
        [
            "percolate",
            "m.gr",
            "--model",
            "node",
            "--p-grid",
            "1/8",
            "--trials",
            "6",
            "--seed",
            "1",
            "--prune",
            "--k",
            "2",
        ],
        capsys,
    )
    assert rc == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 6
    assert any(row.split(",")[6] == "true" for row in rows)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--model", "node", "--k", "1"], "--k must be at least 2"),
        (["--model", "edge", "--k", "2"], "node fault model only"),
    ],
)
def test_percolate_prune_checks_flags_before_sweeping(
    workdir, capsys, monkeypatch, flags, message
):
    run(["gen", "--family", "mesh", "--dims", "4x4", "-o", "m.gr"], capsys)
    calls = []
    sweep = kernels.min_ratio_node_cut
    monkeypatch.setattr(
        kernels, "min_ratio_node_cut", lambda *a: calls.append(a) or sweep(*a)
    )
    rc, _, err = run(
        ["percolate", "m.gr", "--p-grid", "1/8", "--trials", "2", "--prune"] + flags,
        capsys,
    )
    assert rc == 2
    assert message in err
    assert calls == []


def test_verify_mesh_span_subcommand(workdir, capsys):
    rc, out, _ = run(["verify-mesh-span", "--dims", "3x3", "--exhaustive"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checked"] == 106
    rc, out, _ = run(
        ["verify-mesh-span", "--dims", "5x5", "--sample", "80", "--seed", "3"],
        capsys,
    )
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_verify_mesh_span_samples_are_compact_on_large_meshes(workdir, capsys):
    # grown sets have their holes filled, so every draw is checked
    rc, out, _ = run(
        ["verify-mesh-span", "--dims", "40x40", "--sample", "40", "--seed", "1"], capsys
    )
    assert rc == 0
    assert json.loads(out)["checked"] == 40
    rc, out, _ = run(
        ["verify-mesh-span", "--dims", "12x12x12", "--sample", "20", "--seed", "2"], capsys
    )
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_replay_reproduces_outputs(workdir, capsys):
    run(["gen", "--family", "cycle", "--n", "12", "-o", "c.gr"], capsys)
    rc, _, _ = run(
        [
            "percolate",
            "c.gr",
            "--model",
            "node",
            "--p-grid",
            "1/4:1/2:1/4",
            "--trials",
            "4",
            "--seed",
            "9",
            "-o",
            "rows.csv",
        ],
        capsys,
    )
    assert rc == 0
    rc, out, _ = run(["--replay", "rows.csv.manifest.json"], capsys)
    assert rc == 0
    assert "ok" in out
    assert not (workdir / "rows.csv.replay").exists()


def test_replay_of_crlf_input(workdir, capsys):
    data = b"3 2\r\n0 1\r\n1 2\r\n"
    (workdir / "p3.gr").write_bytes(data)
    rc, _, _ = run(["expansion", "p3.gr", "-o", "e.json"], capsys)
    assert rc == 0
    manifest = json.loads((workdir / "e.json.manifest.json").read_text())
    assert manifest["inputs"]["p3.gr"] == hashlib.sha256(data).hexdigest()
    rc, out, _ = run(["--replay", "e.json.manifest.json"], capsys)
    assert rc == 0
    assert "byte for byte" in out


def test_replay_in_a_child_process(workdir, capsys):
    # outputs recorded in this process replay in a fresh interpreter
    run(["gen", "--family", "mesh", "--dims", "3x3", "-o", "m.gr"], capsys)
    rc, _, _ = run(["expansion", "m.gr", "--node", "--exact", "-o", "e.json"], capsys)
    assert rc == 0
    out = subprocess.run(
        [sys.executable, "-m", "xpand", "--replay", "e.json.manifest.json"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert out.returncode == 0, out.stderr
    assert "byte for byte" in out.stdout


def test_replay_from_another_directory(workdir, capsys, monkeypatch):
    sub = workdir / "sub"
    sub.mkdir()
    monkeypatch.chdir(sub)
    run(["gen", "--family", "complete", "--n", "4", "-o", "c.gr"], capsys)
    rc, _, _ = run(["expansion", "c.gr", "--node", "--exact", "-o", "e.json"], capsys)
    assert rc == 0
    manifest = json.loads((sub / "e.json.manifest.json").read_text())
    assert manifest["cwd"] == "."
    monkeypatch.chdir(workdir)
    rc, out, _ = run(["--replay", "sub/e.json.manifest.json"], capsys)
    assert rc == 0
    assert "byte for byte" in out
    assert os.getcwd() == str(workdir)
    assert not (sub / "e.json.replay").exists()
    # a manifest without the key replays against the current directory
    del manifest["cwd"]
    (sub / "e.json.manifest.json").write_text(json.dumps(manifest))
    rc, _, err = run(["--replay", "sub/e.json.manifest.json"], capsys)
    assert rc == 2
    assert "recorded input c.gr is missing" in err
    monkeypatch.chdir(sub)
    rc, _, _ = run(["--replay", "e.json.manifest.json"], capsys)
    assert rc == 0
    manifest["cwd"] = "gone"
    (sub / "e.json.manifest.json").write_text(json.dumps(manifest))
    rc, _, err = run(["--replay", "e.json.manifest.json"], capsys)
    assert rc == 2
    assert "cannot enter recorded directory" in err


def test_non_utf8_input_is_an_input_error(workdir, capsys):
    (workdir / "bad.gr").write_bytes(b"2 1\n0 1 \xff\n")
    rc, _, err = run(["expansion", "bad.gr"], capsys)
    assert rc == 2
    assert "not UTF-8" in err


def _subdivided_k4(capsys):
    run(["gen", "--family", "complete", "--n", "4", "-o", "k4.gr"], capsys)
    run(
        ["gen", "--family", "subdivide", "--base", "k4.gr", "--k", "2", "-o", "s.gr"],
        capsys,
    )


def _forge_inner_ids(side):
    side["chains"][0][2] = [99, 8]


def _forge_k(side):
    side["k"] = 3


def _reorder_chains(side):
    side["chains"].reverse()


def _flip_first_chain(side):
    u, v, inner = side["chains"][0]
    side["chains"][0] = [v, u, inner[::-1]]


def _add_base_node(side):
    side["base_nodes"].append(4)


@pytest.mark.parametrize(
    "forge",
    [_forge_inner_ids, _forge_k, _reorder_chains, _flip_first_chain, _add_base_node],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "s.gr", "--strategy", "chain-centers"],
        ["expansion", "s.gr", "--node", "--chain-dp"],
    ],
    ids=["attack", "chain-dp"],
)
def test_sidecar_that_does_not_match_its_graph_is_refused(workdir, capsys, forge, argv):
    _subdivided_k4(capsys)
    path = workdir / "s.gr.sub.json"
    side = json.loads(path.read_text())
    forge(side)
    path.write_text(json.dumps(side))
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert err.startswith("error:") and "sidecar" in err
    assert out == ""


def _deep_json(path):
    path.write_text("[" * 100000)


def _set_manifest_key(key, value):
    def prepare(workdir):
        path = workdir / "c.gr.manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))

    return prepare


def _set_sidecar_key(workdir, key, value):
    path = workdir / "s.gr.sub.json"
    side = json.loads(path.read_text())
    side[key] = value
    path.write_text(json.dumps(side))


REPLAY_C = ["--replay", "c.gr.manifest.json"]


@pytest.mark.parametrize(
    "prepare, argv",
    [
        pytest.param(
            lambda w: (w / "m.json").write_text("5"),
            ["--replay", "m.json"],
            id="manifest-int",
        ),
        pytest.param(
            lambda w: (w / "m.json").write_bytes(b'{"tool": "\xff"}'),
            ["--replay", "m.json"],
            id="manifest-not-utf8",
        ),
        pytest.param(_set_manifest_key("argv", 5), REPLAY_C, id="argv-int"),
        pytest.param(_set_manifest_key("argv", [5]), REPLAY_C, id="argv-of-ints"),
        pytest.param(_set_manifest_key("inputs", []), REPLAY_C, id="inputs-list"),
        pytest.param(_set_manifest_key("outputs", 5), REPLAY_C, id="outputs-int"),
        pytest.param(_set_manifest_key("cwd", 5), REPLAY_C, id="cwd-int"),
        pytest.param(_set_manifest_key("cwd", "a\0b"), REPLAY_C, id="cwd-nul"),
        pytest.param(
            lambda w: _deep_json(w / "m.json"), ["--replay", "m.json"], id="manifest-deep"
        ),
        pytest.param(
            lambda w: _deep_json(w / "f.json"),
            ["prune", "c.gr", "--oracle", "--eps", "1/2", "--faults", "f.json"],
            id="faults-deep",
        ),
        pytest.param(
            lambda w: _deep_json(w / "s.gr.sub.json"),
            ["attack", "s.gr", "--strategy", "chain-centers"],
            id="sidecar-deep",
        ),
        pytest.param(
            lambda w: (w / "f.json").write_text('{"kind": "node-faults", "failed": [1e400]}'),
            ["prune", "c.gr", "--oracle", "--eps", "1/2", "--faults", "f.json"],
            id="faults-infinite",
        ),
        pytest.param(
            lambda w: (w / "s.gr.sub.json").write_text('{"k": 1e400}'),
            ["attack", "s.gr", "--strategy", "chain-centers"],
            id="sidecar-infinite",
        ),
        # numbers must be JSON integers: no truncation, no booleans
        pytest.param(
            lambda w: (w / "f.json").write_text('{"kind": "node-faults", "failed": [2.7]}'),
            ["prune", "c.gr", "--oracle", "--eps", "1/2", "--faults", "f.json"],
            id="faults-float",
        ),
        pytest.param(
            lambda w: (w / "f.json").write_text('{"kind": "node-faults", "failed": [true]}'),
            ["prune", "c.gr", "--oracle", "--eps", "1/2", "--faults", "f.json"],
            id="faults-bool",
        ),
        pytest.param(
            lambda w: (w / "f.json").write_text(
                '{"kind": "edge-survival", "kept_edges": [[0, 1.0]]}'
            ),
            ["prune", "c.gr", "--oracle", "--eps", "1/2", "--faults", "f.json"],
            id="kept-edge-float",
        ),
        pytest.param(
            lambda w: _set_sidecar_key(w, "k", 2.5),
            ["attack", "s.gr", "--strategy", "chain-centers"],
            id="sidecar-float-k",
        ),
    ],
)
def test_malformed_json_inputs_are_input_errors(workdir, capsys, prepare, argv):
    _subdivided_k4(capsys)
    run(["gen", "--family", "cycle", "--n", "5", "-o", "c.gr"], capsys)
    prepare(workdir)
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err.startswith("error:")


def test_replay_detects_tampered_input(workdir, capsys):
    run(["gen", "--family", "cycle", "--n", "12", "-o", "c.gr"], capsys)
    run(
        [
            "percolate",
            "c.gr",
            "--model",
            "node",
            "--p-grid",
            "1/4",
            "--trials",
            "4",
            "--seed",
            "9",
            "-o",
            "rows.csv",
        ],
        capsys,
    )
    (workdir / "c.gr").write_text("3 2\n0 1\n1 2\n")
    rc, _, err = run(["--replay", "rows.csv.manifest.json"], capsys)
    assert rc == 2
    assert "error:" in err


def test_replay_detects_tampered_output(workdir, capsys):
    run(["gen", "--family", "cycle", "--n", "12", "-o", "c.gr"], capsys)
    manifest_path = workdir / "c.gr.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["c.gr"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    rc, _, err = run(["--replay", str(manifest_path)], capsys)
    assert rc == 1
    assert (workdir / "c.gr.replay").exists()  # kept for inspection


def test_explicit_manifest_for_stdout_run(workdir, capsys):
    run(["gen", "--family", "mesh", "--dims", "3x3", "-o", "m.gr"], capsys)
    rc, _, _ = run(
        ["expansion", "m.gr", "--node", "--exact", "--manifest", "exp.manifest.json"],
        capsys,
    )
    assert rc == 0
    manifest = json.loads((workdir / "exp.manifest.json").read_text())
    assert "<stdout>" in manifest["outputs"]
    rc, out, _ = run(["--replay", "exp.manifest.json"], capsys)
    assert rc == 0


def test_version_flag(workdir, capsys):
    import xpand

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert xpand.__version__ in capsys.readouterr().out


def test_usage_error_exit_code(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expansion"])  # missing graph argument
    assert exc.value.code == 2


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "xpand", "--version"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert out.returncode == 0
    assert out.stdout.strip()


CAP_KEYWORDS = {
    "limit",
    "terminal_limit",
    "exact_limit",
    "node_limit",
    "dim_limit",
    "max_tries",
    "max_subsets",
    "count_cap",
}


def test_caps_are_constants_not_keywords():
    # every cap is a module constant; no function lets a call move it
    import xpand

    found = []
    for info in pkgutil.iter_modules(xpand.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"xpand.{info.name}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                hit = CAP_KEYWORDS & set(inspect.signature(fn).parameters)
                found.extend(f"{info.name}.{name}({p})" for p in sorted(hit))
    assert found == []
