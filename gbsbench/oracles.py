"""Correctness checks the benchmark applies to every job, written here rather
than taken from the program so that a fast path cannot vouch for itself.

* ``husimi_a`` rebuilds A = X (I - Q^-1) from a state's quadrature covariance
  through the ladder-operator change of basis W = [[I, iI], [I, -iI]] / sqrt 2
  (Q = W V W^dag + I/2), and ``oracle_probability`` evaluates the pattern law
  with the matching-enumeration hafnian.
* ``clique_problems`` checks reported cliques with ``cliques.is_clique`` and
  their stated weights against the graph.
* ``manifest_problems`` re-hashes every artifact a CLI run lists.
* ``fold_problems`` checks a predicted RNA fold is a nested, complementary,
  base-disjoint pairing.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gbs_toolkit import cliques, numerics, rna, simulator

REL_TOL = 1e-10
SPOT_CHECKS = 3


def husimi_a(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """(A, sqrt(det Q)) for a zero-mean state with xxpp covariance ``cov``."""
    m = cov.shape[0] // 2
    eye = np.eye(m)
    w = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2)
    q = w @ cov @ w.conj().T + np.eye(2 * m) / 2
    x = np.block([[np.zeros((m, m)), eye], [eye, np.zeros((m, m))]])
    a = x @ (np.eye(2 * m) - np.linalg.inv(q))
    return a, math.sqrt(np.linalg.det(q).real)


def oracle_probability(a: np.ndarray, sqrt_det_q: float, counts) -> float:
    counts = np.asarray(counts, dtype=int)
    m = len(counts)
    modes = np.repeat(np.arange(m), counts)
    idx = np.concatenate([modes, modes + m])
    haf = numerics.hafnian_by_matchings(a[np.ix_(idx, idx)])
    norm = sqrt_det_q * math.prod(math.factorial(int(c)) for c in counts)
    return haf.real / norm


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def spot_check(state, patterns, listed) -> list[str]:
    """Compare the program's probabilities for the first few distinct drawn
    patterns with the matching-enumeration oracle: both the value its
    enumeration gave (``listed(counts)``, None when absent) and
    ``pattern_probability``."""
    a, sqrt_det_q = husimi_a(state.cov)
    problems = []
    seen = []
    for counts in patterns:
        counts = tuple(int(c) for c in counts)
        if counts in seen:
            continue
        seen.append(counts)
        want = oracle_probability(a, sqrt_det_q, counts)
        single = simulator.pattern_probability(state, simulator.PhotonPattern(counts))
        enumerated = listed(counts)
        if enumerated is None:
            problems.append(f"drawn pattern {counts} is not in the distribution")
        elif not _close(enumerated, want):
            problems.append(f"distribution p{counts}={enumerated!r}, oracle {want!r}")
        if not _close(single, want):
            problems.append(f"pattern_probability{counts}={single!r}, oracle {want!r}")
        if len(seen) == SPOT_CHECKS:
            break
    if not seen:
        problems.append("no drawn patterns to check")
    return problems


def clique_problems(g, entries) -> list[str]:
    """``entries``: iterable of (nodes, stated weight)."""
    problems = []
    for nodes, weight in entries:
        nodes = tuple(int(n) for n in nodes)
        if not cliques.is_clique(g, nodes):
            problems.append(f"{nodes} is not a clique")
        elif abs(float(g.weights[list(nodes)].sum()) - weight) > 1e-9:
            problems.append(f"{nodes} weight {weight} does not match the graph")
    return problems


def manifest_problems(out_dir: Path, expected: tuple[str, ...]) -> list[str]:
    """Every expected artifact exists and the manifest's sha256s match the files."""
    path = out_dir / "manifest.json"
    if not path.exists():
        return ["manifest.json missing"]
    listed = json.loads(path.read_text())["artifacts"]
    problems = [f"artifact {name} missing from manifest" for name in expected
                if name not in listed]
    for name, digest in listed.items():
        artifact = out_dir / name
        if not artifact.exists():
            problems.append(f"artifact {name} missing")
        elif hashlib.sha256(artifact.read_bytes()).hexdigest() != digest:
            problems.append(f"artifact {name} sha256 differs from manifest")
    return problems


def fold_problems(bases: str, pairs) -> list[str]:
    problems = []
    used = set()
    pairs = sorted(tuple(p) for p in pairs)
    for i, j in pairs:
        if not 1 <= i < j <= len(bases):
            problems.append(f"pair ({i}, {j}) out of range")
            continue
        if (bases[i - 1], bases[j - 1]) not in rna.WATSON_CRICK_WOBBLE:
            problems.append(f"pair ({i}, {j}) is not complementary")
        if i in used or j in used:
            problems.append(f"pair ({i}, {j}) reuses a base")
        used.update((i, j))
    for a, b in pairs:
        for c, d in pairs:
            if a < c < b < d:
                problems.append(f"pairs ({a}, {b}) and ({c}, {d}) cross")
    return problems


def hit_counts(entries, exact_weight: float, total: int) -> tuple[int, int]:
    """(GBS hits, uniform hits) among ``total`` post-processed samples each:
    samples whose clique weighs the exact maximum."""
    gbs = uni = 0.0
    for e in entries:
        if abs(e["weight"] - exact_weight) <= 1e-9:
            gbs += e["freq_gbs"] * total
            uni += e["freq_uniform"] * total
    return round(gbs), round(uni)
