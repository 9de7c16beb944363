"""Command-line entry point wiring all modules together.

Every command resolves its parameters from defaults, then an optional
``--config`` JSON file (unknown keys rejected), then explicit flags; fully
validates its inputs; computes everything in memory; and only then writes
artifacts, followed by a ``manifest.json`` listing each artifact's sha256.
Reruns with identical config and seed reproduce byte-identical artifacts.

Exit codes: 0 success, 2 validation error, 3 numerical/guard error, 4 I/O
error.
"""

from __future__ import annotations

import datetime
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .cliques import Clique, run_pipeline
from .docking import DockingParams, build_big, interpret_pose
from .encoding import (MODE_ADJACENCY, MODE_LAPLACIAN, choose_scale, default_alpha,
                       encode, rescale)
from .errors import GuardError, ValidationError
from .mesh import clements_decompose, compile_timebin_schedule, loss_budget
from .rna import gbs_clique_report, mcc, mcc_approx, predict
from .simulator import draw, prepare_state, truncated_distribution
from . import serialize
from .serialize import atomic_write_text, sha256_file


class _Run:
    """Collects inputs/artifacts and writes the manifest at the end."""

    def __init__(self, command: str, out_dir: Path, config: dict):
        self.command = command
        self.out_dir = Path(out_dir)
        self.config = config
        self.inputs: dict[str, str] = {}
        self.artifacts: list[Path] = []

    def record_input(self, path: Path):
        self.inputs[str(path)] = sha256_file(path)

    def write(self, name: str, text: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        atomic_write_text(path, text)
        self.artifacts.append(path)
        return path

    def finish(self, extra: dict | None = None):
        manifest = {
            "command": self.command,
            "config": self.config,
            "tool_version": __version__,
            "wall_clock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "inputs": self.inputs,
            "artifacts": {p.name: sha256_file(p) for p in self.artifacts},
        }
        if extra:
            manifest.update(extra)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.out_dir / "manifest.json",
                          json.dumps(manifest, indent=2, sort_keys=True) + "\n")


DEFAULTS = {
    "encode": {"alpha": None, "target_max_eig": 0.9, "mode": MODE_LAPLACIAN,
               "loss_eta": 1.0, "emit_schedule": False},
    "sample": {"n_samples": 1000, "cutoff": 6, "min_photons": 0,
               "collision_free": False, "seed": 0},
    "clique": {"iterations": 30, "min_photons": 5, "seed": 0},
    "dock": {"solve": False, "n_samples": 200, "cutoff": 6, "min_photons": 2,
             "iterations": 30, "seed": 0},
    "rnafold": {"exact": False, "min_stem": 3, "min_loop": 3, "n_samples": 300,
                "iterations": 30, "seed": 0},
}


def _type_ok(value, default) -> bool:
    """A config value needs its default's type; an int passes for a float (or
    for a None default, which also takes null), a bool never for a number."""
    if default is None:
        return value is None or _type_ok(value, 0.0)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def _resolve_config(config_path, cli_values: dict, defaults: dict) -> dict:
    """defaults < config file < explicit CLI flags; unknown or mistyped config
    values rejected."""
    resolved = dict(defaults)
    if config_path is not None:
        doc = serialize.load_json(Path(config_path))
        if not isinstance(doc, dict):
            raise ValidationError(f"config {config_path}: expected a JSON object")
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ValidationError(f"config {config_path}: unknown keys {sorted(unknown)}")
        for key, value in doc.items():
            if not _type_ok(value, defaults[key]):
                raise ValidationError(f"config {config_path}: {key}={value!r} does not "
                                      f"have the type of its default {defaults[key]!r}")
        resolved.update(doc)
    for key, value in cli_values.items():
        if value is not None:
            resolved[key] = value
    return resolved


@click.group()
def cli():
    """Desk-scale GBS toolkit: graph encoding, sampling, cliques, docking, RNA."""


@cli.command(name="encode")
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--alpha", type=float, default=None, help="Weight emphasis coefficient.")
@click.option("--target-max-eig", type=float, default=None)
@click.option("--mode", type=click.Choice([MODE_LAPLACIAN, MODE_ADJACENCY]), default=None)
@click.option("--loss-eta", type=float, default=None, help="Uniform per-mode transmission.")
@click.option("--schedule/--no-schedule", "emit_schedule", default=None,
              help="Also emit the Clements mesh time-bin schedule.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
def cmd_encode(graph_file, config_path, alpha, target_max_eig, mode, loss_eta,
               emit_schedule, out_dir):
    """Compile a graph JSON file into a GBS program file."""
    cfg = _resolve_config(config_path, {
        "alpha": alpha, "target_max_eig": target_max_eig, "mode": mode,
        "loss_eta": loss_eta, "emit_schedule": emit_schedule}, DEFAULTS["encode"])
    g = serialize.load_graph(Path(graph_file))
    alpha_val = cfg["alpha"] if cfg["alpha"] is not None else default_alpha(g)
    params = choose_scale(g, alpha=alpha_val, target_max_eig=cfg["target_max_eig"],
                          mode=cfg["mode"])
    b = rescale(g, params)
    program = encode(b, loss=np.full(g.node_count, float(cfg["loss_eta"])))

    run = _Run("encode", Path(out_dir), {**cfg, "alpha": alpha_val, "c": params.c,
                                         "graph_file": str(graph_file)})
    run.record_input(Path(graph_file))
    run.write("program.json", serialize.program_to_json(program))
    if cfg["emit_schedule"]:
        mesh = clements_decompose(program.unitary)
        run.write("schedule.jsonl", serialize.schedule_to_jsonl(
            compile_timebin_schedule(mesh)))
    run.finish()
    click.echo(f"encoded {g.node_count}-node graph: c={params.c:.6g}, "
               f"max tanh(r)={np.tanh(program.squeezing).max():.6g}")


@cli.command(name="sample")
@click.argument("program_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--n", "n_samples", type=int, default=None)
@click.option("--cutoff", type=int, default=None, help="Max total photons enumerated.")
@click.option("--min-photons", type=int, default=None, help="Min total photons enumerated.")
@click.option("--collision-free", "collision_free", flag_value=True, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
def cmd_sample(program_file, config_path, n_samples, cutoff, min_photons,
               collision_free, seed, out_dir):
    """Draw samples from a program file; write samples.jsonl + distribution.csv."""
    cfg = _resolve_config(config_path, {
        "n_samples": n_samples, "cutoff": cutoff, "min_photons": min_photons,
        "collision_free": collision_free, "seed": seed}, DEFAULTS["sample"])
    program = serialize.load_program(Path(program_file))
    state = prepare_state(program)
    dist = truncated_distribution(state, cfg["cutoff"], cfg["collision_free"],
                                  cfg["min_photons"])
    if dist.captured_mass < 0.5:
        click.echo(f"warning: truncated distribution captures only "
                   f"{dist.captured_mass:.3g} of the state's mass", err=True)
    batch = draw(dist, cfg["n_samples"], cfg["seed"])

    run = _Run("sample", Path(out_dir), {**cfg, "program_file": str(program_file)})
    run.record_input(Path(program_file))
    run.write("samples.jsonl", serialize.samples_to_jsonl(batch.patterns))
    run.write("distribution.csv", serialize.distribution_to_csv(dist))
    run.finish(extra={"captured_mass": batch.captured_mass})
    click.echo(f"{cfg['n_samples']} samples over {len(dist)} patterns, "
               f"captured_mass={batch.captured_mass:.6g}")


@cli.command(name="clique")
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("samples_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--iterations", type=int, default=None)
@click.option("--min-photons", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
def cmd_clique(graph_file, samples_file, config_path, iterations, min_photons,
               seed, out_dir):
    """Post-process samples into a clique report (GBS vs uniform baseline)."""
    cfg = _resolve_config(config_path, {
        "iterations": iterations, "min_photons": min_photons, "seed": seed}, DEFAULTS["clique"])
    g = serialize.load_graph(Path(graph_file))
    samples = serialize.load_samples(Path(samples_file))
    report = run_pipeline(g, samples, min_photons=cfg["min_photons"],
                          iterations=cfg["iterations"], seed=cfg["seed"])

    run = _Run("clique", Path(out_dir), {**cfg, "graph_file": str(graph_file),
                                         "samples_file": str(samples_file)})
    run.record_input(Path(graph_file))
    run.record_input(Path(samples_file))
    run.write("report.json", serialize.report_to_json(report, cfg))
    run.write("report.csv", serialize.report_to_csv(report))
    run.finish()
    best = report.best_clique()
    click.echo(f"{len(report.entries)} distinct cliques from {report.gbs_samples} samples; "
               f"best {list(best)} (freq_gbs={report.frequency(best):.3f})")


@cli.command(name="dock")
@click.argument("points_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--params", "params_file", type=click.Path(exists=True), default=None,
              help="DockingParams JSON (tau, epsilon_table, weight_table).")
@click.option("--solve", "solve", flag_value=True, default=None,
              help="Run encode+sample+clique and emit the pose.")
@click.option("--n", "n_samples", type=int, default=None)
@click.option("--cutoff", type=int, default=None)
@click.option("--min-photons", type=int, default=None)
@click.option("--iterations", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
def cmd_dock(points_file, config_path, params_file, solve, n_samples, cutoff,
             min_photons, iterations, seed, out_dir):
    """Build the binding interaction graph; optionally solve for the pose."""
    cfg = _resolve_config(config_path, {
        "solve": solve, "n_samples": n_samples, "cutoff": cutoff,
        "min_photons": min_photons, "iterations": iterations, "seed": seed}, DEFAULTS["dock"])
    ligand, protein = serialize.load_pharmacophores(Path(points_file))
    params = DockingParams() if params_file is None else \
        serialize.docking_params_from_json(serialize.load_json(Path(params_file)))
    big = build_big(ligand, protein, params)

    run = _Run("dock", Path(out_dir), {**cfg, "points_file": str(points_file),
                                       "params_file": str(params_file) if params_file else None})
    run.record_input(Path(points_file))
    if params_file:
        run.record_input(Path(params_file))
    run.write("big.json", serialize.graph_to_json(big.graph))

    if cfg["solve"]:
        report = gbs_clique_report(big.graph, seed=cfg["seed"], n_samples=cfg["n_samples"],
                                   min_photons=cfg["min_photons"],
                                   iterations=cfg["iterations"], max_photons=cfg["cutoff"])
        pose_clique = Clique.of(big.graph, report.best_clique())
        pose = interpret_pose(big, pose_clique)
        pose_doc = {
            "nodes": list(pose_clique.nodes),
            "weight": pose_clique.weight,
            "contacts": [{"ligand": c.ligand_point, "protein": c.protein_point,
                          "weight": c.weight} for c in pose],
            "freq_gbs": report.frequency(pose_clique.nodes, "gbs"),
            "freq_uniform": report.frequency(pose_clique.nodes, "uniform"),
        }
        run.write("pose.json", json.dumps(pose_doc, indent=2) + "\n")
        click.echo(f"pose: {[(c.ligand_point, c.protein_point) for c in pose]} "
                   f"weight={pose_clique.weight:.4f}")
    run.finish()
    click.echo(f"BIG: {big.graph.node_count} nodes, {len(big.graph.edges)} edges")


@cli.command(name="rnafold")
@click.argument("fasta_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--reference", "reference_file", type=click.Path(exists=True), default=None,
              help="Dot-bracket reference structure for MCC scoring.")
@click.option("--exact/--gbs", "exact", default=None,
              help="Exact clique oracle vs the full GBS route.")
@click.option("--min-stem", type=int, default=None)
@click.option("--min-loop", type=int, default=None)
@click.option("--n", "n_samples", type=int, default=None)
@click.option("--iterations", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
def cmd_rnafold(fasta_file, config_path, reference_file, exact, min_stem, min_loop,
                n_samples, iterations, seed, out_dir):
    """Predict RNA secondary structure from a FASTA file."""
    cfg = _resolve_config(config_path, {
        "exact": exact, "min_stem": min_stem, "min_loop": min_loop,
        "n_samples": n_samples, "iterations": iterations, "seed": seed}, DEFAULTS["rnafold"])
    seq = serialize.load_fasta(Path(fasta_file))
    reference = None
    if reference_file is not None:
        ref_text = serialize.read_text(Path(reference_file)).strip()
        if serialize.dotbracket_length(ref_text) != len(seq):
            raise ValidationError(
                f"reference length {serialize.dotbracket_length(ref_text)} does not "
                f"match sequence length {len(seq)}")
        reference = serialize.parse_dotbracket(ref_text)

    pred = predict(seq, min_stem_len=cfg["min_stem"], min_loop=cfg["min_loop"],
                   exact=cfg["exact"], seed=cfg["seed"], n_samples=cfg["n_samples"],
                   iterations=cfg["iterations"])
    if not pred.stems:
        click.echo("warning: no stems found; empty prediction", err=True)

    mcc_value = approx_value = None
    if reference is not None:
        mcc_value = mcc(pred.base_pairs, reference, len(seq))
        approx_value = mcc_approx(pred.base_pairs, reference, len(seq))

    run = _Run("rnafold", Path(out_dir), {**cfg, "fasta_file": str(fasta_file),
                                          "reference_file": str(reference_file) if reference_file else None})
    run.record_input(Path(fasta_file))
    if reference_file:
        run.record_input(Path(reference_file))
    run.write("prediction.json", serialize.prediction_to_json(pred, mcc_value, approx_value))
    run.finish()
    msg = f"{len(pred.stems)} stems, {len(pred.base_pairs)} base pairs"
    if mcc_value is not None:
        msg += f", MCC={mcc_value:.4f}"
    click.echo(msg)


@cli.command(name="lossbudget")
@click.argument("stages_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--loops", type=int, required=True)
def cmd_lossbudget(stages_file, loops):
    """Print the total transmission and per-stage contributions."""
    model = serialize.load_loss_model(Path(stages_file))
    total = loss_budget(model, loops)
    click.echo(f"per-loop transmission^{loops}: {model.per_loop_transmission ** loops:.6g}")
    for label, t in model.stages:
        click.echo(f"stage {label}: {t:.6g}")
    click.echo(f"total transmission: {total:.6g} ({100 * total:.4g}%)")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.exceptions.Abort:
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
