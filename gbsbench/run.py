"""Benchmark of the gbs_toolkit pipeline: solve throughput, clique hit rate and
per-layer cost on three seeded workloads.

Usage, from the root of a checkout:

    python3 gbsbench/run.py --workload lossy-clique --seed 1 --seconds 30 --trace 0
    python3 gbsbench/run.py --workload all --seed 1 --seconds 30   # table of every workload

Workloads (see workloads.py): ``lossy-clique`` and ``pure-clique`` call the
library directly; ``frontends`` calls ``gbs_toolkit.cli.main(argv)`` in this
process.  A job is one solve.  Everything runs in one single-threaded process:
OpenBLAS is pinned to one thread and ``GBS_TOOLKIT_THREADS`` is removed from
the environment.

Each run prints three JSON lines: the run conditions, a report (failure
counts, fail share, per-kind job times, output digest and, when traced, the
exact-repeat counters), and last the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are per-layer
metrics from the first traced cycle plus the tracing overhead.

Timing: a phase runs cycles of jobs (see workloads.py), at least MIN_CYCLES,
while the next cycle is expected to end within ``seconds`` of job time.  Every
cycle has the same job kind and input size at each position, with fresh
seeded content.  Job time is the wall time of the program calls alone;
making inputs, oracles and checks run between jobs with the clock stopped.
It is reported in scaled seconds: rescaled by the calibration kernel timed
just before and after the job (calibrate.py), because this host's CPU speed
swings by up to 2x.  ``jobs_per_s`` is successful jobs over the summed job
time and ``job_p50_s`` the median over every attempted job.  Traced runs
alternate untraced and traced cycles.  Set-up time is the median over
SETUP_PROBES fresh interpreters (probe.py), scaled the same way.

Exits 2 without a result when the checkout holds no ``src/gbs_toolkit``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("lossy-clique", "pure-clique", "frontends")
SETUP_PROBES = 9
MIN_CYCLES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gbs_toolkit" / "__init__.py").is_file():
        print(f"error: no gbs_toolkit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("GBS_TOOLKIT_THREADS", None)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import gbs_toolkit
    if Path(gbs_toolkit.__file__).resolve().parent != (SRC / "gbs_toolkit").resolve():
        print(f"error: imported gbs_toolkit from {gbs_toolkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / f"gbsbench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# one workload


def run(args, work: Path) -> dict:
    import workloads

    print(json.dumps({"conditions": run_conditions(args)}), flush=True)
    wl = workloads.make(args.workload, work)
    setups, imports = probe_setup(args.workload, work)
    workloads.run_warmup(wl.warmup())  # this process's own first-call lazy work
    phase = run_phase(wl, args.seed, args.seconds, traced=bool(args.trace))

    plain = [r for r in phase.runs if not r.traced]
    report = phase.report(args, plain)
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
            "jobs_per_s": (jobs_per_s(plain), "1/s"),
            "job_p50_s": (statistics.median(r.scaled for r in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "hit_rate_gbs": (_ratio(phase.hits_gbs, phase.qualifying), "ratio"),
            "hit_rate_uniform": (_ratio(phase.hits_uniform, phase.qualifying), "ratio"),
            "best_weight_ratio": (_ratio(sum(phase.best_ratios), len(phase.best_ratios)),
                                  "ratio"),
        }
        report["setup_s_samples"] = [{"scaled": a, "raw": b} for a, b in setups]
    else:
        import spans
        traced = [r for r in phase.runs if r.traced]
        metrics = phase.layers
        metrics["cli.import_s"] = (statistics.median(imports), "s")
        metrics["trace.top_span_share"] = (
            statistics.median(share for _, share in phase.covered_shares), "ratio")
        metrics["trace.overhead"] = (1 - jobs_per_s(traced) / jobs_per_s(plain), "ratio")
        metrics["trace.cycle_s"] = (phase.traced_cycle_s, "s")
        report["repeat_counters"] = {k: metrics[k][0] for k in spans.REPEAT_COUNTERS}
        report["top_span_share_by_job"] = phase.covered_shares[:phase.positions]
        report["traced_jobs_per_s"] = jobs_per_s(traced)

    print(json.dumps({"report": report}), flush=True)
    return {"correct": phase.failed == 0, "attempted": phase.attempted, "failed": phase.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when no job produced the counts (every such job failed)."""
    return num / den if den else 0.0


@dataclass
class JobRun:
    """One timed job: raw wall time, and the same at the reference machine
    speed (see calibrate.py)."""

    cycle: int
    kind: str
    wall: float
    scaled: float
    traced: bool
    ok: bool  # neither failed nor refused


def jobs_per_s(runs) -> float:
    """Successful jobs over the summed (scaled) job time."""
    return sum(r.ok for r in runs) / sum(r.scaled for r in runs)


class Phase:
    """Records of one timed phase: every job run, plus pooled quality counts
    and the digest of the first cycle, whose inputs depend only on the seed."""

    def __init__(self):
        self.runs: list[JobRun] = []
        self.positions = 0
        self.attempted = self.failed = self.refused = 0
        self.problems: list[str] = []
        self.qualifying = self.hits_gbs = self.hits_uniform = 0
        self.best_ratios: list[float] = []
        self.digest_parts: list[str] = []
        self.cycles = 0
        self.covered_shares: list[tuple[str, float]] = []  # (kind, share) per traced job
        self.layers: dict = {}
        self.traced_cycle_s = 0.0

    def record(self, kind: str, wall: float, scaled: float, outcome, traced: bool):
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems += [f"{kind}: {p}" for p in outcome.problems]
        elif outcome.refused:
            self.refused += 1
        self.qualifying += outcome.qualifying
        self.hits_gbs += outcome.hits_gbs
        self.hits_uniform += outcome.hits_uniform
        self.best_ratios += outcome.best_ratios
        if self.cycles == 0:
            self.digest_parts += [kind, *outcome.digest]
        ok = not outcome.problems and not outcome.refused
        self.runs.append(JobRun(self.cycles, kind, wall, scaled, traced, ok))

    def report(self, args, plain: list[JobRun]) -> dict:
        import hashlib
        kinds: dict[str, list[JobRun]] = {}
        for r in plain:
            kinds.setdefault(r.kind, []).append(r)
        return {
            "workload": args.workload, "seed": args.seed,
            "positions": self.positions, "cycles": self.cycles,
            "attempted": self.attempted, "failed": self.failed,
            "guard_refused": self.refused,
            "fail_share": {"value": (self.failed + self.refused) / self.attempted,
                           "unit": "ratio"},
            "job_p50_s": {"value": statistics.median(r.scaled for r in plain), "unit": "s",
                          "count": len(plain), "beyond": len(plain) // 2},
            "raw_jobs_per_s": sum(r.ok for r in plain) / sum(r.wall for r in plain),
            "raw_job_p50_s": statistics.median(r.wall for r in plain),
            "kinds": {k: {"n": len(v), "median_s": statistics.median(r.scaled for r in v),
                          "median_raw_s": statistics.median(r.wall for r in v)}
                      for k, v in sorted(kinds.items())},
            "qualifying_samples": self.qualifying,
            "hit_rate_gbs": _ratio(self.hits_gbs, self.qualifying),
            "hit_rate_uniform": _ratio(self.hits_uniform, self.qualifying),
            "output_digest": hashlib.sha256("\n".join(self.digest_parts).encode()).hexdigest(),
            "problems": self.problems[:20],
            "runs": [[r.cycle, r.kind, round(r.wall, 6), round(r.scaled, 6), r.traced]
                     for r in self.runs],
        }


def run_phase(wl, seed: int, seconds: float, traced: bool) -> Phase:
    """Run cycles, at least MIN_CYCLES, while the next one is expected to end
    within ``seconds`` of summed job time.  Traced runs alternate untraced and
    traced cycles, starting untraced; per-layer metrics come from the first
    traced cycle (cycle 1)."""
    import spans

    phase = Phase()
    busy = 0.0
    for c in itertools.count():
        jobs = wl.cycle(seed, c)
        phase.positions = len(jobs)
        tracer = None
        if traced and c % 2 == 1:
            tracer = spans.Tracer()
            tracer.cover_depth = wl.cover_depth
            tracer.install()
        try:
            cycle_s = run_cycle(phase, jobs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
            wl.release(c)
        if tracer is not None and not phase.layers:
            phase.layers = spans.layer_metrics(tracer, cycle_s)
            phase.traced_cycle_s = cycle_s
        phase.cycles += 1
        busy += cycle_s
        if phase.cycles >= MIN_CYCLES and busy + busy / phase.cycles > seconds:
            return phase


def run_cycle(phase: Phase, jobs, tracer) -> float:
    """One pass over the positions; returns the summed raw job time.  The
    reference kernel runs before the first job and after every job."""
    import calibrate
    from workloads import Outcome

    gc.collect()
    total = 0.0
    ref_before = calibrate.measure()
    for job in jobs:
        if job.before is not None:
            job.before()
        if tracer is not None:
            tracer.lossless = job.lossless
            tracer.begin_job()
            tracer.paused = False
        t0 = time.perf_counter()
        try:
            result, error = job.run(), None
        except Exception as exc:  # a job failure is recorded, never fatal
            result, error = None, exc
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.paused = True
            phase.covered_shares.append((job.kind, tracer.covered() / wall))
        ref_after = calibrate.measure()
        if error is not None:
            outcome = Outcome(problems=[f"raised {type(error).__name__}: {error}"])
        else:
            try:
                outcome = job.check(result)
            except Exception as exc:
                outcome = Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])
        scaled = wall * calibrate.NOMINAL_S * 2 / (ref_before + ref_after)
        phase.record(job.kind, wall, scaled, outcome, traced=tracer is not None)
        ref_before = ref_after
        total += wall
    return total


# ---------------------------------------------------------------------------
# set-up time and run conditions


def probe_setup(name: str, work: Path) -> tuple[list[tuple[float, float]], list[float]]:
    """(scaled, raw) set-up seconds and import seconds of SETUP_PROBES fresh
    interpreters; scaling uses the reference kernel timed around each probe."""
    import calibrate

    setups, imports = [], []
    ref_before = calibrate.measure()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(work)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = doc["ready"] - t0 - doc["gen_s"]
        ref_after = calibrate.measure()
        setups.append((raw * calibrate.NOMINAL_S * 2 / (ref_before + ref_after), raw))
        ref_before = ref_after
        imports.append(doc["import_s"])
    return setups, imports


def openblas_threads():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def run_conditions(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GBS_TOOLKIT_THREADS": os.environ.get("GBS_TOOLKIT_THREADS", "unset"),
    }


# ---------------------------------------------------------------------------
# every workload, one table


def run_all(args) -> int:
    """Run each workload in its own process and print one table of its metrics."""
    rows = []
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        rows.append((name, json.loads(lines[-2])["report"], json.loads(lines[-1])))
    for name, report, result in rows:
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_share={report['fail_share']['value']:.4f} "
              f"ratio (guard-refused {report['guard_refused']}; job_p50_s over "
              f"{report['job_p50_s']['count']} jobs in {report['cycles']} cycles)")
        for key, m in result["metrics"].items():
            print(f"   {key:40s} {m['value']:>14.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
