"""Span tracing installed from outside the program.

``Tracer.install`` replaces each layer's public function on the module
attribute its callers look the name up in (``gbs_toolkit.simulator.hafnian``
for the simulator's call into numerics, ``gbs_toolkit.cli.build_big`` for the
CLI's call into docking, ...) with a wrapper that records a span: its
duration, the part of it covered by nested spans (so self time is known) and
counts taken from the call's arguments and result.  ``uninstall`` puts the
originals back, so untraced phases run the program unmodified.

Spans are aggregated in memory per name; nothing is written until the
benchmark prints its result.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

PATTERN_PATHS = ("lossy", "pure_cf", "pnr")
HAFNIAN_DIMS = (2, 4, 6, 8)
CLI_COMMANDS = ("encode", "sample", "clique", "dock", "rnafold")
LAYERS = ("numerics", "encoding", "mesh", "simulator", "cliques", "docking", "rna",
          "serialize", "cli")


class Tracer:
    """Nested span timer plus counters, active only between install/uninstall."""

    def __init__(self):
        self.lossless = True  # set per job by the runner: every transmission is 1
        self.cover_depth = 0  # depth of the spans whose sum is compared with job time
        self._stack: list[list[float]] = []
        self._covered = 0.0
        self.spans = defaultdict(lambda: [0.0, 0.0, 0])  # name -> [total, self, calls]
        self.counts = Counter()
        self.sums = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self.paused = True  # spans are recorded only while a job runs

    # -- job boundaries -----------------------------------------------------

    def begin_job(self):
        self._covered = 0.0

    def covered(self) -> float:
        """Seconds of the current job covered by spans at ``cover_depth``."""
        return self._covered

    # -- spans --------------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """Wrap ``fn``; ``name`` is a string or ``f(args, kwargs) -> str``;
        ``after(tracer, label, args, kwargs, result)`` records counts on success."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"raised.{label}.{type(exc).__name__}"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                depth = len(self._stack)
                if self._stack:
                    self._stack[-1][0] += dt
                if depth == self.cover_depth:
                    self._covered += dt
                rec = self.spans[label]
                rec[0] += dt
                rec[1] += dt - frame[0]
                rec[2] += 1
            if after is not None:
                after(self, label, args, kwargs, out)
            return out

        return traced

    def install(self):
        for module_name, attr, name, after in _targets(self):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, after))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# what is wrapped, and the counts taken at each boundary


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _sector_name(tracer):
    def name(args, kwargs):
        if not tracer.lossless:
            return "simulator.sector_lossy"
        cf = _arg(args, kwargs, 2, "collision_free", False)
        return "simulator.sector_pure_cf" if cf else "simulator.sector_pnr"
    return name


def _after_hafnian(tracer, label, args, kwargs, out):
    tracer.counts[f"numerics.hafnian.calls_by_dim.{len(args[0])}"] += 1


def _after_sector(tracer, label, args, kwargs, out):
    path = label.removeprefix("simulator.sector_")
    tracer.counts[f"simulator.patterns.{path}"] += len(out)


def _after_draw(tracer, label, args, kwargs, out):
    dist = args[0]
    tracer.counts["simulator.draws"] += 1
    tracer.counts["simulator.draw.enumerated"] += len(dist)
    tracer.counts["simulator.draw.distinct"] += len({p.counts for p in out.patterns})
    tracer.sums["simulator.captured_mass"] += dist.captured_mass


def _after_pipeline(tracer, label, args, kwargs, out):
    samples = _arg(args, kwargs, 1, "samples")
    tracer.counts["cliques.drawn"] += len(samples)
    tracer.counts["cliques.kept"] += out.gbs_samples


def _after_big(tracer, label, args, kwargs, out):
    tracer.counts["docking.big_edges"] += len(out.graph.edges)


def _after_stems(tracer, label, args, kwargs, out):
    tracer.counts["rna.stems"] += len(out)


def _after_write(tracer, label, args, kwargs, out):
    tracer.counts["serialize.bytes_written"] += len(_arg(args, kwargs, 1, "text").encode())


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}"


def _after_cli(tracer, label, args, kwargs, code):
    if code != 0:
        tracer.counts["cli.exit_nonzero"] += 1


_SERIALIZE_WRITERS = ("graph_to_json", "program_to_json", "samples_to_jsonl",
                      "distribution_to_csv", "schedule_to_jsonl", "report_to_json",
                      "report_to_csv", "prediction_to_json")
_SERIALIZE_LOADERS = ("load_graph", "load_program", "load_samples", "load_pharmacophores",
                      "load_fasta")


def _targets(tracer):
    """(module, attribute, span name, after-hook) for every wrapped call site."""
    p = "gbs_toolkit."
    out = [
        (p + "simulator", "hafnian", "numerics.hafnian", _after_hafnian),
        (p + "encoding", "takagi", "numerics.takagi", None),
        (p + "simulator", "enumerate_distribution", _sector_name(tracer), _after_sector),
        (p + "cliques", "greedy_shrink", "cliques.greedy_shrink", None),
        (p + "cliques", "local_search", "cliques.local_search", None),
        (p + "rna", "enumerate_stems", "rna.enumerate_stems", _after_stems),
        (p + "rna", "build_wfsg", "rna.build_wfsg", None),
        (p + "cli", "clements_decompose", "mesh.clements_decompose", None),
        (p + "cli", "compile_timebin_schedule", "mesh.compile_timebin_schedule", None),
        (p + "cli", "build_big", "docking.build_big", _after_big),
        (p + "cli", "atomic_write_text", "serialize.write", _after_write),
        (p + "cli", "sha256_file", "serialize.sha256", None),
        (p + "cli", "main", _cli_name, _after_cli),
    ]
    # called from the benchmark's own library jobs, the CLI and the RNA front end
    for module in ("encoding", "cli", "rna"):
        out.append((p + module, "choose_scale", "encoding.choose_scale", None))
        out.append((p + module, "encode", "encoding.encode", None))
    for module in ("simulator", "cli", "rna"):
        out.append((p + module, "prepare_state", "simulator.prepare_state", None))
    for module in ("simulator", "cli"):
        out.append((p + module, "draw", "simulator.draw", _after_draw))
    for module in ("cliques", "cli", "rna"):
        out.append((p + module, "run_pipeline", "cliques.run_pipeline", _after_pipeline))
    for attr in _SERIALIZE_WRITERS:
        out.append((p + "serialize", attr, "serialize.write", None))
    for attr in _SERIALIZE_LOADERS:
        out.append((p + "serialize", attr, "serialize.load", None))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, cycle_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced cycle; ``cycle_s`` is its summed job time."""
    spans, counts, sums = tracer.spans, tracer.counts, tracer.sums

    def s(name):
        return spans[name][0] if name in spans else 0.0

    def self_s(name):
        return spans[name][1] if name in spans else 0.0

    def calls(name):
        return spans[name][2] if name in spans else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {
        "numerics.hafnian.s": (s("numerics.hafnian"), "s"),
        "numerics.hafnian.calls": (calls("numerics.hafnian"), "count"),
    }
    for dim in HAFNIAN_DIMS:
        m[f"numerics.hafnian.calls_by_dim.{dim}"] = (
            counts[f"numerics.hafnian.calls_by_dim.{dim}"], "count")
    m["numerics.takagi.s"] = (s("numerics.takagi"), "s")
    m["encoding.choose_scale.s"] = (s("encoding.choose_scale"), "s")
    m["encoding.encode.s"] = (s("encoding.encode"), "s")
    m["mesh.clements_decompose.s"] = (s("mesh.clements_decompose"), "s")
    m["mesh.compile_timebin_schedule.s"] = (s("mesh.compile_timebin_schedule"), "s")
    m["simulator.prepare_state.s"] = (s("simulator.prepare_state"), "s")
    m["simulator.sector_lossy.self_s"] = (self_s("simulator.sector_lossy"), "s")
    m["simulator.sector_pure_cf.s"] = (s("simulator.sector_pure_cf"), "s")
    m["simulator.sector_pnr.self_s"] = (self_s("simulator.sector_pnr"), "s")
    patterns = 0
    for path in PATTERN_PATHS:
        n = counts[f"simulator.patterns.{path}"]
        patterns += n
        m[f"simulator.patterns.{path}"] = (n, "count")
    sector_s = sum(s(f"simulator.sector_{path}") for path in PATTERN_PATHS)
    m["simulator.patterns_per_s"] = (ratio(patterns, sector_s), "1/s")
    m["simulator.draw.s"] = (s("simulator.draw"), "s")
    m["simulator.useful_ratio"] = (ratio(counts["simulator.draw.distinct"],
                                         counts["simulator.draw.enumerated"]), "ratio")
    m["simulator.captured_mass"] = (ratio(sums["simulator.captured_mass"],
                                          counts["simulator.draws"]), "ratio")
    m["simulator.guard_trips"] = (sum(v for k, v in counts.items()
                                      if k.startswith("raised.simulator.sector_")
                                      and k.endswith(".GuardError")), "count")
    m["cliques.run_pipeline.s"] = (s("cliques.run_pipeline"), "s")
    m["cliques.greedy_shrink.s"] = (s("cliques.greedy_shrink"), "s")
    m["cliques.local_search.s"] = (s("cliques.local_search"), "s")
    m["cliques.local_search.calls"] = (calls("cliques.local_search"), "count")
    m["cliques.kept_ratio"] = (ratio(counts["cliques.kept"], counts["cliques.drawn"]), "ratio")
    m["docking.build_big.s"] = (s("docking.build_big"), "s")
    m["docking.big_edges"] = (counts["docking.big_edges"], "count")
    m["rna.enumerate_stems.s"] = (s("rna.enumerate_stems"), "s")
    m["rna.build_wfsg.s"] = (s("rna.build_wfsg"), "s")
    m["rna.stems"] = (counts["rna.stems"], "count")
    m["serialize.load.s"] = (s("serialize.load"), "s")
    m["serialize.write.s"] = (s("serialize.write"), "s")
    m["serialize.sha256.s"] = (s("serialize.sha256"), "s")
    m["serialize.bytes_written"] = (counts["serialize.bytes_written"], "bytes")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = (s(f"cli.{command}"), "s")
    m["cli.exit_nonzero"] = (counts["cli.exit_nonzero"], "count")
    for layer in LAYERS:
        own = sum(rec[1] for name, rec in spans.items() if name.split(".")[0] == layer)
        m[f"{layer}.share"] = (ratio(own, cycle_s), "ratio")
    return m


REPEAT_COUNTERS = ("numerics.hafnian.calls", "numerics.hafnian.calls_by_dim.2",
                   "numerics.hafnian.calls_by_dim.4", "numerics.hafnian.calls_by_dim.6",
                   "numerics.hafnian.calls_by_dim.8", "simulator.patterns.lossy",
                   "simulator.patterns.pure_cf", "simulator.patterns.pnr",
                   "cliques.local_search.calls", "simulator.guard_trips",
                   "cliques.kept_ratio")
