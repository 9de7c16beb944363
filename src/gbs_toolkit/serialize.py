"""File formats: graphs, programs, samples, distributions, schedules,
reports, pharmacophores, FASTA/dot-bracket, plus digest and atomic-write
helpers used by the CLI manifest.

Complex numbers serialize as [re, im] pairs; a unitary is stored row-major
as a flat list of such pairs.  All writes go through ``atomic_write_text``
so a failed run never leaves a partial artifact behind.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from .cliques import CliqueReport
from .docking import DockingParams, PharmacophorePoint
from .encoding import GbsProgram, WeightedGraph
from .errors import ValidationError
from .mesh import TimeBinSchedule
from .rna import FoldPrediction, RnaSequence
from .simulator import Distribution, PhotonPattern


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return doc[key]


# ---------------------------------------------------------------------------
# graphs


def graph_to_json(g: WeightedGraph) -> str:
    doc = {
        "nodes": [{"id": i, "weight": float(w)} for i, w in enumerate(g.weights)],
        "edges": [[i, j] for i, j in g.edges],
    }
    if g.edge_weights is not None:
        doc["edges"] = [[i, j, float(w)] for (i, j), w in zip(g.edges, g.edge_weights)]
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return json.dumps(doc, indent=2) + "\n"


def graph_from_json(text: str, where: str = "graph") -> WeightedGraph:
    doc = json.loads(text) if isinstance(text, str) else text
    nodes = _require(doc, "nodes", where)
    edges_raw = _require(doc, "edges", where)
    ids = [int(_require(n, "id", f"{where}.nodes")) for n in nodes]
    if sorted(ids) != list(range(len(ids))):
        raise ValidationError(f"{where}: node ids must be dense from 0")
    weights = np.zeros(len(ids))
    for n in nodes:
        weights[int(n["id"])] = float(n.get("weight", 1.0))
    edges, edge_weights = [], []
    for e in edges_raw:
        if len(e) not in (2, 3):
            raise ValidationError(f"{where}: edge {e} must be [i, j] or [i, j, w]")
        edges.append((int(e[0]), int(e[1])))
        edge_weights.append(float(e[2]) if len(e) == 3 else 1.0)
    ew = None if all(w == 1.0 for w in edge_weights) else edge_weights
    labels = doc.get("labels")
    return WeightedGraph.from_edges(len(ids), edges, weights, ew, labels)


def load_graph(path: Path) -> WeightedGraph:
    return graph_from_json(load_json(path), where=str(path))


# ---------------------------------------------------------------------------
# programs


def program_to_json(p: GbsProgram) -> str:
    flat = p.unitary.reshape(-1)
    doc = {
        "mode_count": p.mode_count,
        "r": [float(x) for x in p.squeezing],
        "U": [[float(z.real), float(z.imag)] for z in flat],
        "loss": [float(x) for x in p.loss],
    }
    return json.dumps(doc, indent=2) + "\n"


def program_from_json(text: str, where: str = "program") -> GbsProgram:
    doc = json.loads(text) if isinstance(text, str) else text
    m = int(_require(doc, "mode_count", where))
    r = np.asarray(_require(doc, "r", where), dtype=float)
    flat = _require(doc, "U", where)
    if len(flat) != m * m:
        raise ValidationError(f"{where}: U must hold {m * m} row-major [re, im] pairs")
    u = np.array([complex(re, im) for re, im in flat]).reshape(m, m)
    loss = np.asarray(doc.get("loss", np.ones(m)), dtype=float)
    return GbsProgram(m, r, u, loss)


def load_program(path: Path) -> GbsProgram:
    return program_from_json(load_json(path), where=str(path))


# ---------------------------------------------------------------------------
# samples and distributions


def samples_to_jsonl(patterns) -> str:
    return "".join(json.dumps({"counts": list(p.counts)}) + "\n" for p in patterns)


def samples_from_jsonl(text: str) -> list[PhotonPattern]:
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"samples line {line_no}: not valid JSON ({exc})") from exc
        out.append(PhotonPattern(tuple(int(c) for c in _require(doc, "counts", "sample"))))
    return out


def load_samples(path: Path) -> list[PhotonPattern]:
    return samples_from_jsonl(Path(path).read_text())


def distribution_to_csv(d: Distribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pattern", "probability"])
    for i in range(len(d)):
        counts = " ".join(str(int(c)) for c in d.pattern_counts[i])
        writer.writerow([counts, repr(float(d.probs[i]))])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# schedules


def schedule_to_jsonl(s: TimeBinSchedule) -> str:
    return "".join(
        json.dumps({"t_ns": t, "device": device, "value": value}) + "\n"
        for t, device, value in s.events)


# ---------------------------------------------------------------------------
# clique reports


def report_to_json(report: CliqueReport, params: dict) -> str:
    doc = {
        "cliques": [
            {"nodes": list(e["nodes"]), "weight": e["weight"],
             "freq_gbs": e["freq_gbs"], "freq_uniform": e["freq_uniform"]}
            for e in report.entries
        ],
        "params": dict(params),
    }
    return json.dumps(doc, indent=2) + "\n"


def report_to_csv(report: CliqueReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["clique", "weight", "freq_gbs", "freq_uniform"])
    for e in report.entries:
        writer.writerow([" ".join(map(str, e["nodes"])), repr(e["weight"]),
                         repr(e["freq_gbs"]), repr(e["freq_uniform"])])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# pharmacophores


def pharmacophores_from_json(text: str, where: str = "points"):
    doc = json.loads(text) if isinstance(text, str) else text
    out = {}
    for side in ("ligand", "protein"):
        pts = _require(doc, side, where)
        out[side] = [
            PharmacophorePoint(str(_require(p, "id", f"{where}.{side}")),
                               str(_require(p, "kind", f"{where}.{side}")),
                               np.asarray(_require(p, "xyz", f"{where}.{side}"), float),
                               side)
            for p in pts
        ]
    return out["ligand"], out["protein"]


def load_pharmacophores(path: Path):
    return pharmacophores_from_json(load_json(path), where=str(path))


def docking_params_from_json(text: str) -> DockingParams:
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise ValidationError("docking params: expected a JSON object")
    kwargs = {}
    if "tau" in doc:
        kwargs["tau"] = doc["tau"]
    if "epsilon_table" in doc:
        kwargs["epsilon_table"] = {str(k): v for k, v in doc["epsilon_table"].items()}
    if "weight_table" in doc:
        kwargs["weight_table"] = {
            (str(lk), str(pk)): w
            for lk, pk, w in (tuple(entry) for entry in doc["weight_table"])
        }
    known = {"tau", "epsilon_table", "weight_table"}
    unknown = set(doc) - known
    if unknown:
        raise ValidationError(f"docking params: unknown keys {sorted(unknown)}")
    return DockingParams(**kwargs)


# ---------------------------------------------------------------------------
# RNA formats


def read_fasta(text: str) -> RnaSequence:
    """First record of a FASTA document (or a bare sequence)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("FASTA input is empty")
    accession = None
    seq_lines = []
    started = False
    for ln in lines:
        if ln.startswith(">"):
            if started:
                break  # first record only
            accession = ln[1:].split()[0] if len(ln) > 1 else None
            started = True
        else:
            seq_lines.append(ln)
            started = True
    return RnaSequence("".join(seq_lines), accession)


def load_fasta(path: Path) -> RnaSequence:
    return read_fasta(Path(path).read_text())


_BRACKETS = {"(": ")", "[": "]", "{": "}", "<": ">"}
_CLOSERS = {v: k for k, v in _BRACKETS.items()}


def parse_dotbracket(text: str) -> frozenset[tuple[int, int]]:
    """Dot-bracket string -> set of 1-based base pairs."""
    stacks: dict[str, list[int]] = {k: [] for k in _BRACKETS}
    pairs = set()
    for pos, ch in enumerate(text.strip(), start=1):
        if ch == ".":
            continue
        if ch in _BRACKETS:
            stacks[ch].append(pos)
        elif ch in _CLOSERS:
            opener = _CLOSERS[ch]
            if not stacks[opener]:
                raise ValidationError(f"unbalanced {ch!r} at position {pos}")
            pairs.add((stacks[opener].pop(), pos))
        else:
            raise ValidationError(f"invalid dot-bracket character {ch!r} at position {pos}")
    leftovers = [k for k, v in stacks.items() if v]
    if leftovers:
        raise ValidationError(f"unbalanced {leftovers[0]!r} bracket")
    return frozenset(pairs)


def dotbracket_length(text: str) -> int:
    return len(text.strip())


def prediction_to_json(pred: FoldPrediction, mcc_value: float | None = None,
                       mcc_approx_value: float | None = None) -> str:
    doc = {
        "stems": [{"i": s.i, "j": s.j, "length": s.length} for s in pred.stems],
        "base_pairs": sorted([a, b] for a, b in pred.base_pairs),
    }
    if mcc_value is not None:
        doc["mcc_vs_reference"] = mcc_value
        doc["mcc_approx_vs_reference"] = mcc_approx_value
    return json.dumps(doc, indent=2) + "\n"
