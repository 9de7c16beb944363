"""The three benchmark workloads: inputs made from the workload seed, the timed
job calls, and the checks applied to each job's outputs.

A workload is a stream of cycles.  Every cycle holds the same job kinds and
input sizes in the same positions; only the random content (edges, weights,
point sets, sequences) changes, made from ``(seed, cycle)``.  Keeping the size
mix fixed is what makes a position's time comparable across cycles and
throughput comparable across seeds, since the cost of every layer is set
mainly by input size.  The program sees only the generated graphs, points and
sequences; the draw and search seeds it is given are the job's position in
its cycle.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import gbs_toolkit.cli
from gbs_toolkit import cliques, docking, encoding, serialize, simulator

import oracles

ITERATIONS = 30
TARGET_MAX_EIG = 0.9
WARMUP_DRAWS = 10  # warm-up jobs only touch each code path once


@dataclass
class Outcome:
    """What the checks found for one job.

    ``refused`` marks a guard refusal the benchmark predicted from the input
    and verified (documented exit code, no artifacts): it counts in
    ``fail_share`` but is not a failure of the program.
    """

    problems: list[str] = field(default_factory=list)
    refused: bool = False
    qualifying: int = 0
    hits_gbs: int = 0
    hits_uniform: int = 0
    best_ratios: list[float] = field(default_factory=list)
    digest: list[str] = field(default_factory=list)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    lossless: bool = True  # every mode's transmission is 1
    before: Callable[[], None] | None = None  # untimed preparation before each run


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2 ** 64, *key]))


def random_graph(rng, n: int, p: float) -> encoding.WeightedGraph:
    upper = np.triu(rng.random((n, n)) < p, k=1)
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(upper))]
    return encoding.WeightedGraph.from_edges(n, edges, rng.uniform(0.5, 1.5, n))


def array_digest(values: np.ndarray) -> str:
    """sha256 of ``values`` rounded to 30 mantissa bits (about 9 significant digits)."""
    mant, expo = np.frexp(np.asarray(values, dtype=float))
    rounded = np.round(mant * 2.0 ** 30).astype(np.int64)
    return hashlib.sha256(rounded.tobytes() + expo.astype(np.int64).tobytes()).hexdigest()


def _entries_quality(out: Outcome, entries, exact_weight: float, qualifying: int):
    gbs, uni = oracles.hit_counts(entries, exact_weight, qualifying)
    out.qualifying += qualifying
    out.hits_gbs += gbs
    out.hits_uniform += uni
    best = max(e["weight"] for e in entries)
    out.best_ratios.append(best / exact_weight)


# ---------------------------------------------------------------------------
# library workloads: graph -> program -> sectors -> draws -> clique pipeline


@dataclass(frozen=True)
class LibrarySpec:
    name: str
    index: int
    sizes: tuple[int, ...]  # one job per size in every cycle, in this order
    transmission: float
    max_photons: int
    draws: int
    min_photons: int = 2  # every enumerated sector (2 and up) qualifies


class LibraryWorkload:
    cover_depth = 0

    def __init__(self, spec: LibrarySpec):
        self.spec = spec
        self.name = spec.name

    def cycle(self, seed: int, c: int) -> list[Job]:
        return [self._job(random_graph(_rng(seed, self.spec.index, c, k), n, 0.5), k)
                for k, n in enumerate(self.spec.sizes)]

    def warmup(self) -> list[Job]:
        g = random_graph(_rng(0, self.spec.index, 1 << 30), 6, 0.5)
        return [self._job(g, 0, replace(self.spec, draws=WARMUP_DRAWS))]

    def release(self, c: int):
        pass

    def _job(self, g, job_seed: int, spec: LibrarySpec | None = None) -> Job:
        spec = spec or self.spec
        n = g.node_count
        exact = cliques.max_weight_clique(g)

        def run():
            params = encoding.choose_scale(g, alpha=encoding.default_alpha(g),
                                           target_max_eig=TARGET_MAX_EIG)
            program = encoding.encode(encoding.rescale(g, params),
                                      loss=np.full(n, spec.transmission))
            state = simulator.prepare_state(program)
            dist = simulator.truncated_distribution(state, spec.max_photons,
                                                    collision_free=True,
                                                    min_total_photons=2)
            batch = simulator.draw(dist, spec.draws, job_seed)
            report = cliques.run_pipeline(g, batch.patterns, min_photons=spec.min_photons,
                                          iterations=ITERATIONS, seed=job_seed)
            return state, dist, batch, report, report.best_clique()

        def check(result) -> Outcome:
            state, dist, batch, report, best = result
            out = Outcome()
            rows = dist.pattern_counts

            def listed(counts):
                hit = np.flatnonzero((rows == np.asarray(counts)).all(axis=1))
                return float(dist.probs[hit[0]]) if hit.size else None

            out.problems += oracles.spot_check(state, (p.counts for p in batch.patterns),
                                               listed)
            entries = report.entries
            out.problems += oracles.clique_problems(g, [(e["nodes"], e["weight"])
                                                        for e in entries])
            if not any(e["nodes"] == best for e in entries):
                out.problems.append(f"best clique {best} is not a report entry")
            _entries_quality(out, entries, exact.weight, report.gbs_samples)
            out.digest += [array_digest(dist.probs), repr(best)]
            return out

        return Job(f"{spec.name} n={n}", run, check, lossless=spec.transmission == 1.0)


LOSSY = LibrarySpec("lossy-clique", 1, sizes=(10, 11, 12, 13, 14), transmission=0.8,
                    max_photons=4, draws=100)
PURE = LibrarySpec("pure-clique", 2, sizes=(16, 18, 20, 22, 24), transmission=1.0,
                   max_photons=6, draws=500)


# ---------------------------------------------------------------------------
# front ends through the CLI, in process


def _cli(argv: list[str]):
    """Run one CLI invocation; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = gbs_toolkit.cli.main(argv)
    return code, err.getvalue()


KINDS = ("HA", "HD", "NC", "AR")


def _points(rng, n: int, side: str, xyz=None) -> list[docking.PharmacophorePoint]:
    xyz = rng.uniform(0.0, 12.0, (n, 3)) if xyz is None else xyz
    return [docking.PharmacophorePoint(f"{side[0]}{i}", str(rng.choice(KINDS)), xyz[i], side)
            for i in range(n)]


def docking_points(rng, n_lig: int, n_prot: int):
    """Random ligand points; the protein holds a rotated, shifted and jittered
    copy of a subset of them (a planted pose) plus random decoys."""
    ligand = _points(rng, n_lig, docking.SIDE_LIGAND)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    planted = min(n_lig, n_prot) - 1
    xyz = rng.uniform(0.0, 12.0, (n_prot, 3))
    src = np.array([p.position for p in ligand[:planted]])
    xyz[:planted] = src @ q.T + rng.uniform(-5, 5, 3) + rng.normal(0, 0.15, (planted, 3))
    protein = _points(rng, n_prot, docking.SIDE_PROTEIN, xyz)
    for k in range(planted):
        protein[k] = docking.PharmacophorePoint(protein[k].id, ligand[k].kind, xyz[k],
                                                docking.SIDE_PROTEIN)
    return ligand, protein


def big_oracle(ligand, protein) -> encoding.WeightedGraph:
    """BIG under default DockingParams, from distance matrices."""
    params = docking.DockingParams()
    nl, npr = len(ligand), len(protein)
    dl = np.linalg.norm(np.array([p.position for p in ligand])[:, None]
                        - np.array([p.position for p in ligand])[None], axis=-1)
    dp = np.linalg.norm(np.array([p.position for p in protein])[:, None]
                        - np.array([p.position for p in protein])[None], axis=-1)
    hb = {docking.KIND_HBOND_ACCEPTOR, docking.KIND_HBOND_DONOR}
    lh = np.array([p.kind in hb for p in ligand])
    ph = np.array([p.kind in hb for p in protein])
    edges = []
    for u in range(nl * npr):
        li, pi = divmod(u, npr)
        for v in range(u + 1, nl * npr):
            lj, pj = divmod(v, npr)
            if li == lj or pi == pj:
                continue
            hbond = lh[li] and lh[lj] and ph[pi] and ph[pj]
            eps = params.epsilon_table["hbond" if hbond else "mixed"]
            if abs(dp[pi, pj] - dl[li, lj]) <= params.tau + 2 * eps:
                edges.append((u, v))
    return encoding.WeightedGraph.from_edges(nl * npr, edges)


def points_json(ligand, protein) -> str:
    doc = {side: [{"id": p.id, "kind": p.kind, "xyz": [float(x) for x in p.position]}
                  for p in pts] for side, pts in (("ligand", ligand), ("protein", protein))}
    return json.dumps(doc)


_PAIRS = frozenset({("A", "U"), ("U", "A"), ("G", "C"), ("C", "G"), ("G", "U"), ("U", "G")})
RNA_DRAWS = 100_000  # rejection-sampling cap; a stem count is hit within ~100


def stems_of(bases: str, min_len: int = 3, min_loop: int = 3) -> list[tuple[int, int, int]]:
    """(i, j, length) of every stem ``rnafold`` folds with by default: runs of
    complementary (wobble included) pairs (i+k, j-k), 1-based, at least
    ``min_len`` long, around a loop of at least ``min_loop`` bases."""
    n = len(bases)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            cap = (j - i + 1 - min_loop) // 2
            run = 0
            while run < cap and (bases[i + run - 1], bases[j - run - 1]) in _PAIRS:
                run += 1
            out += [(i, j, length) for length in range(min_len, run + 1)]
    return out


def rna_sequence(rng, stems: int) -> str:
    """A uniformly random 30-45 nt sequence with exactly ``stems`` stems."""
    for _ in range(RNA_DRAWS):
        bases = "".join(rng.choice(list("ACGU"), int(rng.integers(30, 46))))
        if len(stems_of(bases)) == stems:
            return bases
    raise RuntimeError(f"no 30-45 nt sequence with {stems} stems in {RNA_DRAWS} draws")


def rna_guard_expected(bases: str) -> bool:
    """Whether ``rnafold --gbs`` may refuse: its WFSG has an edge (two stems
    on disjoint, non-crossing bases), so the GBS route runs, and some
    enumerated sector exceeds the simulator's pattern guard."""
    stems = stems_of(bases)
    spans = [(set(range(i, i + n)) | set(range(j - n + 1, j + 1)), i, j) for i, j, n in stems]
    edge = any(not (a & b) and not (ai < bi < aj < bj or bi < ai < bj < aj)
               for k, (a, ai, aj) in enumerate(spans) for b, bi, bj in spans[k + 1:])
    m = len(stems)
    return edge and any(math.comb(m, k) > simulator.PATTERN_GUARD
                        for k in range(2, min(m, 6) + 1))


def _load_csv_probs(path: Path) -> dict:
    probs = {}
    for line in path.read_text().splitlines()[1:]:
        pattern, p = line.split(",")
        probs[tuple(int(c) for c in pattern.split())] = float(p)
    return probs


def _load_samples(path: Path) -> list[tuple[int, ...]]:
    return [tuple(json.loads(line)["counts"]) for line in path.read_text().splitlines()]


@dataclass(frozen=True)
class _Program:
    """An 8-mode program fixture: its graph and program files, state and oracle."""

    graph: encoding.WeightedGraph
    graph_path: Path
    program_path: Path
    state: simulator.GaussianState
    exact_weight: float


class FrontendWorkload:
    """encode --schedule, sample (PNR and collision-free), clique, dock (build
    and solve) and rnafold --gbs, each called through ``gbs_toolkit.cli.main``."""

    name = "frontends"
    cover_depth = 1  # layer spans directly under each cli.<command> span
    ENCODE_SIZES = (32, 64)  # node counts of the two encode --schedule graphs
    SAMPLE_MODES = 8
    SAMPLE_DRAWS = 200
    CHAINS = 4  # sample --collision-free + clique chains, each on its own program
    BUILD_ONLY = (8, 10)
    SOLVE_SIZES = ((3, 4), (4, 4), (4, 5), (5, 5))
    # WFSG node counts: a light and a heavy pure collision-free fold, and one
    # whose 6-photon sector exceeds the 1M-pattern guard (C(40, 6) = 3.8M)
    RNA_STEMS = (14, 30, 40)

    def __init__(self, work: Path):
        self.work = work

    def release(self, c: int):
        shutil.rmtree(self.work / f"c{c}", ignore_errors=True)

    def cycle(self, seed: int, c: int) -> list[Job]:
        return self._jobs(_rng(seed, 3, c), self.work / f"c{c}", self.ENCODE_SIZES,
                          self.SAMPLE_MODES, 6, self.SAMPLE_DRAWS, self.CHAINS,
                          self.BUILD_ONLY, self.SOLVE_SIZES, self.RNA_STEMS, ())

    def warmup(self) -> list[Job]:
        return self._jobs(_rng(0, 3, 1 << 30), self.work / "warmup", (4,), 6, 4,
                          WARMUP_DRAWS, 1, (2, 2), ((3, 3),), (8,),
                          ("--n", str(WARMUP_DRAWS)))

    def _jobs(self, rng, d: Path, encode_sizes, sample_modes, cutoff, draws, chains,
              build_only, solve_sizes, rna_stems, solve_argv) -> list[Job]:
        """One cycle; ``solve_argv`` is appended to the dock --solve and rnafold calls."""
        d.mkdir(parents=True, exist_ok=True)
        jobs = []
        for k, n in enumerate(encode_sizes):
            jobs.append(self._encode(d, f"enc{k}", random_graph(rng, n, 0.5)))
        programs = [self._program(d, f"p{k}", rng, sample_modes) for k in range(chains)]
        jobs.append(self._sample(d / "pnr", programs[0], ["--cutoff", str(cutoff)], draws))
        for k, prog in enumerate(programs):
            cf_dir = d / f"cf{k}"
            jobs.append(self._sample(cf_dir, prog, ["--collision-free", "--cutoff", str(cutoff),
                                                    "--min-photons", "2"], draws))
            jobs.append(self._clique(d / f"clique{k}", prog, cf_dir / "samples.jsonl"))
        lig, prot = docking_points(rng, *build_only)
        jobs.append(self._dock(d, "build", lig, prot, []))
        for k, (nl, npr) in enumerate(solve_sizes):
            jobs.append(self._dock(d, f"solve{k}", *docking_points(rng, nl, npr),
                                   ["--solve", *solve_argv]))
        for k, stems in enumerate(rna_stems):
            jobs.append(self._rnafold(d, f"rna{k}", rna_sequence(rng, stems), solve_argv))
        return jobs

    # -- job builders ------------------------------------------------------

    def _encode(self, d: Path, tag: str, g) -> Job:
        gpath, out_dir = d / f"{tag}.json", d / tag
        gpath.write_text(serialize.graph_to_json(g))
        # expected B: Omega L Omega scaled so its largest |eigenvalue| is the target
        alpha = 0.1 if np.ptp(g.weights) > 0 else 0.0
        omega = 1.0 + alpha * g.weights
        adj = np.zeros((g.node_count, g.node_count))
        for i, j in g.edges:
            adj[i, j] = adj[j, i] = 1.0
        b = omega[:, None] * (np.diag(adj.sum(1)) - adj) * omega[None, :]
        b *= TARGET_MAX_EIG / np.max(np.abs(np.linalg.eigvalsh(b)))

        def check(result) -> Outcome:
            out = _cli_outcome(result, out_dir, ("program.json", "schedule.jsonl"))
            if out.problems:
                return out
            doc = json.loads((out_dir / "program.json").read_text())
            m = doc["mode_count"]
            u = np.array([complex(re, im) for re, im in doc["U"]]).reshape(m, m)
            got = (u * np.tanh(np.array(doc["r"]))[None, :]) @ u.T
            if np.max(np.abs(got - b)) > 1e-8:
                out.problems.append("program does not realise the rescaled Laplacian")
            times = [json.loads(line)["t_ns"]
                     for line in (out_dir / "schedule.jsonl").read_text().splitlines()]
            if not times or times != sorted(times):
                out.problems.append("schedule events are empty or out of order")
            return out

        return Job("encode", lambda: _cli(["encode", str(gpath), "--schedule",
                                           "--out", str(out_dir)]), check,
                   before=_clear(out_dir))

    def _program(self, d: Path, tag: str, rng, modes: int) -> _Program:
        g = random_graph(rng, modes, 0.5)
        program = encoding.encode(encoding.rescale(g, encoding.choose_scale(
            g, alpha=encoding.default_alpha(g), target_max_eig=TARGET_MAX_EIG)))
        gpath, ppath = d / f"{tag}-graph.json", d / f"{tag}-program.json"
        gpath.write_text(serialize.graph_to_json(g))
        ppath.write_text(serialize.program_to_json(program))
        return _Program(g, gpath, ppath, simulator.prepare_state(program),
                        cliques.max_weight_clique(g).weight)

    def _sample(self, out_dir: Path, prog: _Program, options: list[str], draws: int) -> Job:
        collision_free = "--collision-free" in options
        cutoff = int(options[options.index("--cutoff") + 1])

        def check(result) -> Outcome:
            out = _cli_outcome(result, out_dir, ("samples.jsonl", "distribution.csv"))
            if out.problems:
                return out
            samples = _load_samples(out_dir / "samples.jsonl")
            if len(samples) != draws:
                out.problems.append(f"{len(samples)} samples, asked for {draws}")
            if collision_free and any(max(s) > 1 or not 2 <= sum(s) <= cutoff
                                      for s in samples):
                out.problems.append("collision-free sample outside sectors 2..cutoff")
            probs = _load_csv_probs(out_dir / "distribution.csv")
            out.problems += oracles.spot_check(prog.state, samples, probs.get)
            return out

        argv = ["sample", str(prog.program_path), *options, "--n", str(draws),
                "--out", str(out_dir)]
        return Job("sample-cf" if collision_free else "sample-pnr", lambda: _cli(argv),
                   check, before=_clear(out_dir))

    def _clique(self, out_dir: Path, prog: _Program, samples_path: Path) -> Job:
        def check(result) -> Outcome:
            out = _cli_outcome(result, out_dir, ("report.json", "report.csv"))
            if out.problems:
                return out
            entries = json.loads((out_dir / "report.json").read_text())["cliques"]
            out.problems += oracles.clique_problems(prog.graph, [(e["nodes"], e["weight"])
                                                                 for e in entries])
            kept = sum(1 for s in _load_samples(samples_path) if sum(s) >= 2)
            _entries_quality(out, entries, prog.exact_weight, kept)
            return out

        argv = ["clique", str(prog.graph_path), str(samples_path), "--min-photons", "2",
                "--iterations", str(ITERATIONS), "--out", str(out_dir)]
        return Job("clique", lambda: _cli(argv), check, before=_clear(out_dir))

    def _dock(self, d: Path, tag: str, ligand, protein, extra: list[str]) -> Job:
        solve = "--solve" in extra
        path, out_dir = d / f"{tag}.json", d / tag
        path.write_text(points_json(ligand, protein))
        big = big_oracle(ligand, protein)
        exact = cliques.max_weight_clique(big) if solve else None
        argv = ["dock", str(path), "--out", str(out_dir), *extra]

        def check(result) -> Outcome:
            names = ("big.json", "pose.json") if solve else ("big.json",)
            out = _cli_outcome(result, out_dir, names)
            if out.problems:
                return out
            doc = json.loads((out_dir / "big.json").read_text())
            if {tuple(e[:2]) for e in doc["edges"]} != set(big.edges):
                out.problems.append("BIG edges differ from the distance-matrix oracle")
            if solve:
                pose = json.loads((out_dir / "pose.json").read_text())
                out.problems += oracles.clique_problems(big, [(pose["nodes"], pose["weight"])])
                out.best_ratios.append(pose["weight"] / exact.weight)
            return out

        return Job("dock-solve" if solve else "dock-build", lambda: _cli(argv), check,
                   before=_clear(out_dir))

    def _rnafold(self, d: Path, tag: str, bases: str, extra) -> Job:
        path, out_dir = d / f"{tag}.fa", d / tag
        path.write_text(f">{tag}\n{bases}\n")
        guard = rna_guard_expected(bases)

        def check(result) -> Outcome:
            code, err = result
            if guard and code == 3:  # a predicted refusal; solving it is fine too
                out = Outcome(refused=True)
                if "enumeration guard" not in err:
                    out.problems.append(f"exit 3 without the guard message: {err.strip()}")
                if out_dir.exists() and any(out_dir.iterdir()):
                    out.problems.append("guard refusal left artifacts behind")
                return out
            out = _cli_outcome(result, out_dir, ("prediction.json",))
            if not out.problems:
                pred = json.loads((out_dir / "prediction.json").read_text())
                out.problems += oracles.fold_problems(bases, pred["base_pairs"])
            return out

        return Job("rnafold", lambda: _cli(["rnafold", str(path), "--gbs",
                                            "--out", str(out_dir), *extra]), check,
                   before=_clear(out_dir))


def _clear(out_dir: Path):
    """A job's ``before`` hook: remove its previous outputs so checks see only this run's."""
    return lambda: shutil.rmtree(out_dir, ignore_errors=True)


def run_warmup(jobs: list[Job]):
    """Run warm-up jobs for their side effects; a failure here shows up again,
    and is recorded, when the timed jobs run."""
    for job in jobs:
        try:
            job.run()
        except Exception:
            pass


def _cli_outcome(result, out_dir: Path, artifacts: tuple[str, ...]) -> Outcome:
    code, err = result
    if code != 0:
        return Outcome(problems=[f"exit {code}: {err.strip()}"])
    out = Outcome(problems=oracles.manifest_problems(out_dir, artifacts))
    listed = json.loads((out_dir / "manifest.json").read_text())["artifacts"] \
        if not out.problems else {}
    out.digest += [f"{name}={digest}" for name, digest in sorted(listed.items())]
    return out


def make(name: str, work: Path):
    if name == LOSSY.name:
        return LibraryWorkload(LOSSY)
    if name == PURE.name:
        return LibraryWorkload(PURE)
    if name == FrontendWorkload.name:
        return FrontendWorkload(work)
    raise ValueError(f"unknown workload {name!r}")

