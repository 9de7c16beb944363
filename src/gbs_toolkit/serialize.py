"""File formats: graphs, programs, samples, distributions, schedules,
reports, pharmacophores, FASTA/dot-bracket, plus digest and atomic-write
helpers used by the CLI manifest.

Complex numbers serialize as [re, im] pairs; a unitary is stored row-major
as a flat list of such pairs.  Every file is read through ``read_text`` and
every field through ``_require``, so undecodable bytes, missing fields and
fields of the wrong type all raise ``ValidationError``.  All writes go
through ``atomic_write_text`` so a failed run never leaves a partial
artifact behind.
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
from .mesh import LossModel, TimeBinSchedule
from .rna import FoldPrediction, RnaSequence
from .simulator import Distribution, PhotonPattern


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_text(path: Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def load_json(path: Path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


_NUMBER = (int, float)
_MISSING = object()


def _require(doc, key: str, where: str, kind=object, default=_MISSING):
    """``doc[key]``, which must be an instance of ``kind``; an absent key is an
    error unless a ``default`` is given."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {doc!r}")
    if key not in doc:
        if default is _MISSING:
            raise ValidationError(f"{where}: missing required field {key!r}")
        return default
    if not isinstance(doc[key], kind):
        raise ValidationError(f"{where}: field {key!r} has the wrong type "
                              f"({type(doc[key]).__name__})")
    return doc[key]


def _array(values: list, where: str, dtype=float, ndim: int = 1) -> np.ndarray:
    """A JSON list as an ``ndim``-dimensional numeric array."""
    try:
        arr = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != ndim:
        raise ValidationError(f"{where}: expected a {ndim}-d array of numbers, got {values!r}")
    return arr


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


def graph_from_json(doc: dict, where: str = "graph") -> WeightedGraph:
    nodes = _require(doc, "nodes", where, list)
    edges_raw = _require(doc, "edges", where, list)
    ids = [_require(n, "id", f"{where}.nodes", int) for n in nodes]
    if sorted(ids) != list(range(len(ids))):
        raise ValidationError(f"{where}: node ids must be dense from 0")
    weights = np.zeros(len(ids))
    for n in nodes:
        weights[int(n["id"])] = float(_require(n, "weight", f"{where}.nodes", _NUMBER, 1.0))
    edges, edge_weights = [], []
    for e in edges_raw:
        if not (isinstance(e, list) and len(e) in (2, 3)
                and all(isinstance(x, _NUMBER) for x in e)):
            raise ValidationError(f"{where}: edge {e} must be [i, j] or [i, j, w]")
        edges.append((int(e[0]), int(e[1])))
        edge_weights.append(float(e[2]) if len(e) == 3 else 1.0)
    ew = None if all(w == 1.0 for w in edge_weights) else edge_weights
    labels = _require(doc, "labels", where, list, None)
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


def program_from_json(doc: dict, where: str = "program") -> GbsProgram:
    m = _require(doc, "mode_count", where, int)
    r = _array(_require(doc, "r", where, list), f"{where}.r")
    flat = _array(_require(doc, "U", where, list), f"{where}.U", ndim=2)
    if m < 0 or flat.shape != (m * m, 2):
        raise ValidationError(f"{where}: U must hold {m * m} row-major [re, im] pairs")
    u = flat.view(complex).reshape(m, m)
    loss = _array(_require(doc, "loss", where, list, [1.0] * m), f"{where}.loss")
    return GbsProgram(m, r, u, loss)


def load_program(path: Path) -> GbsProgram:
    return program_from_json(load_json(path), where=str(path))


# ---------------------------------------------------------------------------
# samples and distributions


def samples_to_jsonl(patterns) -> str:
    return "".join(json.dumps({"counts": list(p.counts)}) + "\n" for p in patterns)


def samples_from_jsonl(text: str, where: str = "samples") -> list[PhotonPattern]:
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where} line {line_no}: not valid JSON ({exc})") from exc
        line_where = f"{where} line {line_no}"
        counts = _array(_require(doc, "counts", line_where, list), line_where, dtype=int)
        out.append(PhotonPattern(tuple(counts.tolist())))
    return out


def load_samples(path: Path) -> list[PhotonPattern]:
    return samples_from_jsonl(read_text(path), where=str(path))


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


def pharmacophores_from_json(doc: dict, where: str = "points"):
    out = {}
    for side in ("ligand", "protein"):
        pts = _require(doc, side, where, list)
        out[side] = [
            PharmacophorePoint(str(_require(p, "id", f"{where}.{side}")),
                               str(_require(p, "kind", f"{where}.{side}")),
                               _array(_require(p, "xyz", f"{where}.{side}", list),
                                      f"{where}.{side}"),
                               side)
            for p in pts
        ]
    return out["ligand"], out["protein"]


def load_pharmacophores(path: Path):
    return pharmacophores_from_json(load_json(path), where=str(path))


def docking_params_from_json(doc: dict) -> DockingParams:
    where, default = "docking params", DockingParams()
    tau = _require(doc, "tau", where, object, default.tau)
    epsilon = _require(doc, "epsilon_table", where, dict, default.epsilon_table)
    entries = _require(doc, "weight_table", where, list, [])
    unknown = set(doc) - {"tau", "epsilon_table", "weight_table"}
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    if not all(isinstance(e, list) and len(e) == 3 for e in entries):
        raise ValidationError(f"{where}: each weight_table entry must be "
                              f"[ligand kind, protein kind, weight]")
    weights = {(str(lk), str(pk)): w for lk, pk, w in entries} if "weight_table" in doc else None
    return DockingParams(tau, {str(k): v for k, v in epsilon.items()}, weights)


# ---------------------------------------------------------------------------
# loss budgets


def load_loss_model(path: Path) -> LossModel:
    doc = load_json(path)
    stages = tuple((str(_require(s, "label", f"{path}.stages")),
                    float(_require(s, "transmission", f"{path}.stages", _NUMBER)))
                   for s in _require(doc, "stages", str(path), list, []))
    return LossModel(stages, float(_require(doc, "per_loop_transmission", str(path),
                                            _NUMBER, 1.0)))


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
    return read_fasta(read_text(path))


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
