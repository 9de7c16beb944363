import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbs_toolkit.cli import DEFAULTS, main
from gbs_toolkit.encoding import GbsProgram, WeightedGraph
from gbs_toolkit.numerics import random_unitary
from gbs_toolkit import serialize
import gbs_toolkit


def write_graph(path: Path, g: WeightedGraph):
    path.write_text(serialize.graph_to_json(g))


def triangle_graph():
    return WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def planted_graph():
    rng = np.random.default_rng(9)
    edges = {(0, 1), (0, 2), (1, 2)}
    for i in range(6):
        for j in range(i + 1, 6):
            if rng.random() < 0.3:
                edges.add((i, j))
    weights = [1.0, 1.0, 1.0, 0.3, 0.3, 0.3]
    return WeightedGraph.from_edges(6, sorted(edges), weights)


# ---------------------------------------------------------------------------
# serialize round trips


def test_graph_json_round_trip(tmp_path):
    g = planted_graph()
    path = tmp_path / "g.json"
    write_graph(path, g)
    back = serialize.load_graph(path)
    assert back.edges == g.edges
    assert np.array_equal(back.weights, g.weights)


def test_graph_json_rejects_sparse_ids(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": [{"id": 0}, {"id": 2}], "edges": []}))
    from gbs_toolkit.errors import ValidationError
    with pytest.raises(ValidationError, match="dense"):
        serialize.load_graph(path)


def test_program_json_round_trip(tmp_path):
    u = random_unitary(4, 3)
    prog = GbsProgram.from_squeezing([0.5, 0.4, 0.0, 0.2], u, loss=[1.0, 0.9, 1.0, 0.8])
    path = tmp_path / "p.json"
    path.write_text(serialize.program_to_json(prog))
    back = serialize.load_program(path)
    assert np.allclose(back.unitary, prog.unitary)
    assert np.array_equal(back.squeezing, prog.squeezing)
    assert np.array_equal(back.loss, prog.loss)


def test_samples_jsonl_round_trip():
    from gbs_toolkit.simulator import PhotonPattern
    pats = [PhotonPattern((0, 1, 2)), PhotonPattern((1, 0, 0))]
    text = serialize.samples_to_jsonl(pats)
    assert serialize.samples_from_jsonl(text) == pats


def test_dotbracket_parsing():
    pairs = serialize.parse_dotbracket("(((...)))")
    assert pairs == frozenset({(1, 9), (2, 8), (3, 7)})
    from gbs_toolkit.errors import ValidationError
    with pytest.raises(ValidationError):
        serialize.parse_dotbracket("((.)")
    with pytest.raises(ValidationError):
        serialize.parse_dotbracket("..x..")


def test_fasta_first_record():
    seq = serialize.read_fasta(">acc1 desc\nGGGAAA\nCCC\n>acc2\nAAAA\n")
    assert seq.bases == "GGGAAACCC"
    assert seq.accession == "acc1"


# ---------------------------------------------------------------------------
# encode command


def test_cmd_encode_triangle(tmp_path):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    out = tmp_path / "run"
    assert main(["encode", str(gpath), "--target-max-eig", "0.5", "--out", str(out)]) == 0
    prog = serialize.load_program(out / "program.json")
    r = sorted(prog.squeezing, reverse=True)
    assert r[0] == pytest.approx(r[1], abs=1e-9)
    assert r[2] == pytest.approx(0.0, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "program.json" in manifest["artifacts"]


def test_cmd_encode_edgeless_all_zero(tmp_path):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, WeightedGraph.from_edges(3, []))
    out = tmp_path / "run"
    assert main(["encode", str(gpath), "--out", str(out)]) == 0
    prog = serialize.load_program(out / "program.json")
    assert np.allclose(prog.squeezing, 0.0)


def test_cmd_encode_malformed_json_exit_2(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    gpath.write_text('{"nodes": [{"weight": 1.0}], "edges": []}')
    assert main(["encode", str(gpath), "--out", str(tmp_path / "o")]) == 2
    assert "id" in capsys.readouterr().err


def test_cmd_encode_schedule_artifact(tmp_path):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    out = tmp_path / "run"
    assert main(["encode", str(gpath), "--schedule", "--out", str(out)]) == 0
    lines = (out / "schedule.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert all(set(e) == {"t_ns", "device", "value"} for e in events)


def test_cmd_encode_config_file(tmp_path):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target_max_eig": 0.25}))
    out = tmp_path / "run"
    assert main(["encode", str(gpath), "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["target_max_eig"] == 0.25


def test_cmd_encode_config_unknown_key_exit_2(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target_eig": 0.25}))
    assert main(["encode", str(gpath), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"target_max_eig": 0.25', '["seed"]', "7"])
def test_cmd_encode_malformed_config_exit_2(tmp_path, capsys, text):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["encode", str(gpath), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "cfg.json" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


POSITIONAL_FILES = {"encode": 1, "sample": 1, "clique": 2, "dock": 1, "rnafold": 1}


@pytest.mark.parametrize("command,key", [(c, k) for c, d in DEFAULTS.items() for k in d])
def test_config_value_of_wrong_type_exit_2(tmp_path, capsys, command, key):
    # config values are checked before any input is read, so any files will do
    inputs = []
    for k in range(POSITIONAL_FILES[command]):
        inputs.append(tmp_path / f"input{k}")
        inputs[-1].write_text("{}")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 7 if isinstance(DEFAULTS[command][key], str) else "six"}))
    assert main([command, *map(str, inputs), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc,code", [({"cutoff": True}, 2), ({"cutoff": 4.0}, 2),
                                      ({"collision_free": 1, "cutoff": 3}, 2),
                                      ({"collision_free": True, "cutoff": 3}, 0)])
def test_cmd_sample_config_int_and_bool_are_distinct(tmp_path, doc, code):
    ppath = encoded_program_file(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": 5, **doc}))
    assert main(["sample", str(ppath), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == code
    assert (tmp_path / "o").exists() == (code == 0)


def test_cmd_encode_config_int_for_float_and_null_alpha(tmp_path):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss_eta": 1, "alpha": None}))
    assert main(["encode", str(gpath), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------------------
# sample command


def encoded_program_file(tmp_path):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    out = tmp_path / "enc"
    assert main(["encode", str(gpath), "--target-max-eig", "0.5", "--out", str(out)]) == 0
    return out / "program.json"


def test_cmd_sample_writes_artifacts(tmp_path):
    ppath = encoded_program_file(tmp_path)
    out = tmp_path / "samp"
    assert main(["sample", str(ppath), "--n", "50", "--cutoff", "4",
                 "--seed", "3", "--out", str(out)]) == 0
    samples = serialize.load_samples(out / "samples.jsonl")
    assert len(samples) == 50
    rows = (out / "distribution.csv").read_text().splitlines()
    assert rows[0] == "pattern,probability"
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0 < manifest["captured_mass"] <= 1


def test_cmd_sample_rerun_byte_identical(tmp_path):
    ppath = encoded_program_file(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["sample", str(ppath), "--n", "40", "--cutoff", "4", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "samples.jsonl").read_bytes() == (out2 / "samples.jsonl").read_bytes()
    assert (out1 / "distribution.csv").read_bytes() == (out2 / "distribution.csv").read_bytes()


def test_cmd_sample_guard_exit_3(tmp_path, capsys):
    u = random_unitary(32, 0)
    prog = GbsProgram.from_squeezing([0.3] * 32, u)
    ppath = tmp_path / "p.json"
    ppath.write_text(serialize.program_to_json(prog))
    assert main(["sample", str(ppath), "--n", "5", "--cutoff", "7",
                 "--collision-free", "--out", str(tmp_path / "o")]) == 3
    assert "guard" in capsys.readouterr().err


def test_cmd_sample_missing_file_exit_2(tmp_path):
    assert main(["sample", str(tmp_path / "nope.json"), "--n", "5",
                 "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# clique command


def test_cmd_clique_end_to_end(tmp_path):
    g = planted_graph()
    gpath = tmp_path / "graph.json"
    write_graph(gpath, g)
    out_enc = tmp_path / "enc"
    assert main(["encode", str(gpath), "--out", str(out_enc)]) == 0
    out_samp = tmp_path / "samp"
    assert main(["sample", str(out_enc / "program.json"), "--n", "120",
                 "--cutoff", "4", "--min-photons", "2", "--collision-free",
                 "--seed", "5", "--out", str(out_samp)]) == 0
    out_cliq = tmp_path / "cliq"
    assert main(["clique", str(gpath), str(out_samp / "samples.jsonl"),
                 "--iterations", "10", "--min-photons", "2", "--seed", "7",
                 "--out", str(out_cliq)]) == 0
    doc = json.loads((out_cliq / "report.json").read_text())
    assert doc["cliques"]
    best = max(doc["cliques"], key=lambda c: c["weight"])
    assert best["nodes"] == [0, 1, 2]
    csv_rows = (out_cliq / "report.csv").read_text().splitlines()
    assert csv_rows[0] == "clique,weight,freq_gbs,freq_uniform"


def test_cmd_clique_mode_mismatch_exit_2(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    spath = tmp_path / "samples.jsonl"
    spath.write_text('{"counts": [1, 1, 0, 0]}\n')
    assert main(["clique", str(gpath), str(spath), "--min-photons", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "node count" in capsys.readouterr().err


def test_cmd_clique_empty_report_exit_2(tmp_path):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    spath = tmp_path / "samples.jsonl"
    spath.write_text('{"counts": [1, 1, 0]}\n')
    assert main(["clique", str(gpath), str(spath), "--min-photons", "5",
                 "--out", str(tmp_path / "o")]) == 2


def test_cmd_clique_negative_iterations_exit_2(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    write_graph(gpath, triangle_graph())
    spath = tmp_path / "samples.jsonl"
    spath.write_text('{"counts": [1, 1, 0]}\n')
    assert main(["clique", str(gpath), str(spath), "--min-photons", "1",
                 "--iterations", "-3", "--out", str(tmp_path / "o")]) == 2
    assert "iterations" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# dock command


def docking_points_file(tmp_path):
    doc = {
        "ligand": [
            {"id": "l0", "kind": "HA", "xyz": [0, 0, 0]},
            {"id": "l1", "kind": "HD", "xyz": [3, 0, 0]},
            {"id": "l2", "kind": "HA", "xyz": [0, 4, 0]},
        ],
        "protein": [
            {"id": "P0", "kind": "HD", "xyz": [0, 0, 0]},
            {"id": "P1", "kind": "HA", "xyz": [3.1, 0, 0]},
            {"id": "P2", "kind": "HD", "xyz": [0.13548387, 4.09775568, 0]},
        ],
    }
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc))
    return path


def test_cmd_dock_emits_big(tmp_path):
    points = docking_points_file(tmp_path)
    out = tmp_path / "dock"
    assert main(["dock", str(points), "--out", str(out)]) == 0
    big = serialize.load_graph(out / "big.json")
    assert big.node_count == 9


def test_cmd_dock_solve_recovers_planted_pose(tmp_path):
    points = docking_points_file(tmp_path)
    out = tmp_path / "dock"
    assert main(["dock", str(points), "--solve", "--n", "150", "--seed", "1",
                 "--out", str(out)]) == 0
    pose = json.loads((out / "pose.json").read_text())
    assert [(c["ligand"], c["protein"]) for c in pose["contacts"]] == \
        [("l0", "P0"), ("l1", "P1"), ("l2", "P2")]


def test_cmd_dock_missing_weight_entry_exit_2(tmp_path, capsys):
    points = docking_points_file(tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"weight_table": [["HA", "HD", 1.0]]}))
    assert main(["dock", str(points), "--params", str(params),
                 "--out", str(tmp_path / "o")]) == 2
    assert "missing pair" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ('{"tau": 0.5', "not valid JSON"),
    ('{"tau": "wide"}', "tau"),
    ('{"epsilon_table": {"hbond": "0.1", "mixed": 0.3}}', "epsilon"),
    ('{"weight_table": [["HA", "HD", null]]}', "weight"),
    ('{"weight_table": [["HA", "HD"]]}', "weight_table"),
    ('{"epsilon_table": 3}', "epsilon_table"),
    ('["tau"]', "JSON object"),
])
def test_cmd_dock_malformed_params_exit_2(tmp_path, capsys, text, message):
    points = docking_points_file(tmp_path)
    params = tmp_path / "params.json"
    params.write_text(text)
    assert main(["dock", str(points), "--params", str(params),
                 "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# rnafold command


def test_cmd_rnafold_with_reference(tmp_path):
    fasta = tmp_path / "seq.fa"
    fasta.write_text(">hairpin\nGGGAAACCC\n")
    ref = tmp_path / "ref.db"
    ref.write_text("(((...)))\n")
    out = tmp_path / "rna"
    assert main(["rnafold", str(fasta), "--reference", str(ref), "--exact",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "prediction.json").read_text())
    assert doc["mcc_vs_reference"] == pytest.approx(1.0)
    assert sorted(map(tuple, doc["base_pairs"])) == [(1, 9), (2, 8), (3, 7)]


def test_cmd_rnafold_no_reference_no_mcc(tmp_path):
    fasta = tmp_path / "seq.fa"
    fasta.write_text(">hairpin\nGGGAAACCC\n")
    out = tmp_path / "rna"
    assert main(["rnafold", str(fasta), "--exact", "--out", str(out)]) == 0
    doc = json.loads((out / "prediction.json").read_text())
    assert "mcc_vs_reference" not in doc


def test_cmd_rnafold_all_a_warns_empty(tmp_path, capsys):
    fasta = tmp_path / "seq.fa"
    fasta.write_text(">empty\nAAAAAAAA\n")
    out = tmp_path / "rna"
    assert main(["rnafold", str(fasta), "--exact", "--out", str(out)]) == 0
    assert "empty prediction" in capsys.readouterr().err
    doc = json.loads((out / "prediction.json").read_text())
    assert doc["stems"] == []


def test_cmd_rnafold_length_mismatch_exit_2(tmp_path, capsys):
    fasta = tmp_path / "seq.fa"
    fasta.write_text(">x\nGGGAAACCC\n")
    ref = tmp_path / "ref.db"
    ref.write_text("(((...)))...\n")
    assert main(["rnafold", str(fasta), "--reference", str(ref),
                 "--out", str(tmp_path / "o")]) == 2
    assert "length" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# lossbudget command


def test_cmd_lossbudget_methods_case(tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps({
        "per_loop_transmission": 0.90,
        "stages": [
            {"label": "ppKTP-to-fibre", "transmission": 0.9},
            {"label": "filter", "transmission": 0.944},
            {"label": "QPU-to-fibre", "transmission": 0.93},
            {"label": "demux", "transmission": 0.973},
            {"label": "SNSPD", "transmission": 0.95},
        ],
    }))
    assert main(["lossbudget", str(stages), "--loops", "61"]) == 0
    out = capsys.readouterr().out
    assert "total transmission" in out
    total = float(out.strip().splitlines()[-1].split()[2])
    assert abs(total - 0.0012) <= 5e-5


def test_cmd_lossbudget_trivial(tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps({"per_loop_transmission": 1.0, "stages": []}))
    assert main(["lossbudget", str(stages), "--loops", "0"]) == 0
    assert "total transmission: 1" in capsys.readouterr().out


def test_cmd_lossbudget_prints_each_stage(tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps({"stages": [{"label": "filter", "transmission": 1}]}))
    assert main(["lossbudget", str(stages), "--loops", "2"]) == 0
    assert "stage filter: 1" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    '[{"label": "filter", "transmission": 0.9}]',
    '{"stages": [{"label": "filter", "transmission": 0.9}',
    '{"stages": [{"transmission": 0.9}]}',
    '{"stages": [{"label": "filter"}]}',
    '{"stages": [{"label": "filter", "transmission": "high"}]}',
], ids=["list", "truncated", "no-label", "no-transmission", "string-transmission"])
def test_cmd_lossbudget_malformed_stages_exit_2(tmp_path, capsys, text):
    stages = tmp_path / "stages.json"
    stages.write_text(text)
    assert main(["lossbudget", str(stages), "--loops", "3"]) == 2
    assert "stages.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed input files: exit 2, no traceback, no artifact


def input_files(tmp_path):
    files = {"graph": tmp_path / "graph.json", "samples": tmp_path / "samples.jsonl",
             "config": tmp_path / "cfg.json", "points": docking_points_file(tmp_path),
             "fasta": tmp_path / "seq.fa", "reference": tmp_path / "ref.db",
             "program": encoded_program_file(tmp_path)}
    write_graph(files["graph"], triangle_graph())
    files["samples"].write_text('{"counts": [1, 1, 0]}\n')
    files["config"].write_text("{}")
    files["fasta"].write_text(">hairpin\nGGGAAACCC\n")
    files["reference"].write_text("(((...)))\n")
    return files


def command_reading(name, files):
    """A CLI command that reads the file ``name`` among its inputs."""
    f = {k: str(v) for k, v in files.items()}
    return {
        "graph": ["encode", f["graph"]],
        "config": ["encode", f["graph"], "--config", f["config"]],
        "samples": ["clique", f["graph"], f["samples"], "--min-photons", "1"],
        "points": ["dock", f["points"]],
        "program": ["sample", f["program"], "--n", "5"],
        "fasta": ["rnafold", f["fasta"], "--exact"],
        "reference": ["rnafold", f["fasta"], "--exact", "--reference", f["reference"]],
    }[name]


@pytest.mark.parametrize("name", ["config", "graph", "samples", "fasta", "reference"])
def test_non_utf8_input_exit_2(tmp_path, capsys, name):
    files = input_files(tmp_path)
    files[name].write_bytes(b'{"\xff\xfe": 1}\n')
    assert main([*command_reading(name, files), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and files[name].name in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,text,message", [
    ("samples", "5\n", "line 1"),
    ("samples", '{"counts": 5}\n', "counts"),
    ("samples", '{"counts": ["a", 1, 0]}\n', "array of numbers"),
    ("graph", '{"nodes": 3, "edges": []}', "nodes"),
    ("graph", '{"nodes": [5], "edges": []}', "nodes"),
    ("points", '{"ligand": 3, "protein": []}', "ligand"),
    ("program", '{"mode_count": 1, "r": [0.1], "U": [5]}', "U"),
], ids=["sample-line-number", "counts-number", "counts-string", "nodes-number",
        "node-number", "ligand-number", "unitary-flat-numbers"])
def test_wrong_shaped_field_exit_2(tmp_path, capsys, name, text, message):
    files = input_files(tmp_path)
    files[name].write_text(text)
    assert main([*command_reading(name, files), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and files[name].name in err
    assert not (tmp_path / "o").exists()


def test_cli_import_does_not_load_scipy():
    src = str(Path(gbs_toolkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import gbs_toolkit.cli, sys; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
