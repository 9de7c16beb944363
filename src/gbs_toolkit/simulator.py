"""Exact simulation of the lossy Gaussian state prepared by a GbsProgram.

Convention, used everywhere in this module and restated in every formula:
quadrature ordering is (x_1..x_M, p_1..p_M) and the vacuum covariance is
I/2 (hbar = 1).  A squeezer with parameter r turns mode i's covariance into
diag(exp(-2r)/2, exp(+2r)/2); an interferometer U acts as the orthogonal
symplectic [[Re U, -Im U], [Im U, Re U]]; uniform loss eta on a mode sends
sigma -> sqrt(eta) sigma sqrt(eta) + (1 - eta)/2 I on its rows/columns.

Pattern probabilities follow the standard Gaussian sampling law: with
N = <a^dag a>, M = <a a> read off the covariance, form the ladder-ordered
Husimi matrix Q = [[conj(N) + I, M], [conj(M), N + I]] and
A = X (I - Q^{-1}), X the block swap.  Then

    p(nbar) = Haf(A_nbar) / (sqrt(det Q) * prod_i n_i!)

where A_nbar repeats mode i (in both halves) n_i times.  For pure states A
splits into conj(B) (+) B and the hafnian factors as |Haf(B_nbar)|^2.  Every
path (pure collision-free, pure photon-number-resolving and lossy) evaluates a
whole sector with one call to the batched kernel ``numerics.hafnian_batch``;
``pattern_probability`` uses its one-matrix form ``numerics.hafnian``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .encoding import GbsProgram
from .errors import GuardError, ValidationError
from .numerics import hafnian, hafnian_batch
from .seeding import STREAM_SAMPLER, spawn_rng

PATTERN_GUARD = 1_000_000
PHOTON_LIMIT = 16
PROB_CLAMP = -1e-12


class CapturedMassWarning(UserWarning):
    """Issued when the truncated distribution holds less than half the mass."""


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Zero-mean Gaussian state given by its 2M x 2M quadrature covariance."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise ValidationError(f"covariance must be 2M x 2M, got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariance has non-finite entries")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ValidationError("covariance must be symmetric")
        cov = (cov + cov.T) / 2
        m = cov.shape[0] // 2
        omega = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
        min_eig = float(np.min(np.linalg.eigvalsh(cov + 0.5j * omega)))
        if min_eig < -1e-9:
            raise ValidationError(f"covariance is unphysical (min eig {min_eig:.3e})")
        object.__setattr__(self, "cov", cov)

    @property
    def mode_count(self) -> int:
        return self.cov.shape[0] // 2


@dataclass(frozen=True)
class PhotonPattern:
    """Per-mode photon counts of one detection event."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 or c != int(c) for c in self.counts):
            raise ValidationError("photon counts must be non-negative integers")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def collision_free(self) -> bool:
        return all(c <= 1 for c in self.counts)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Enumerated patterns (rows of ``pattern_counts``) with probabilities.

    ``probs`` sum to ``captured_mass``; ordering is lexicographically
    ascending in the occupied-mode tuples, matching the (1,2), (1,3), ...
    plotting convention.
    """

    pattern_counts: np.ndarray
    probs: np.ndarray
    captured_mass: float

    def __post_init__(self):
        counts = np.asarray(self.pattern_counts, dtype=np.int16)
        probs = np.asarray(self.probs, dtype=float)
        if counts.ndim != 2 or probs.shape != (counts.shape[0],):
            raise ValidationError("pattern_counts and probs shapes disagree")
        if np.any(probs < 0):
            raise ValidationError("probabilities must be >= 0")
        object.__setattr__(self, "pattern_counts", counts)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.pattern_counts.shape[0]

    def pattern(self, i: int) -> PhotonPattern:
        return PhotonPattern(tuple(int(c) for c in self.pattern_counts[i]))

    def normalized_probs(self) -> np.ndarray:
        total = self.probs.sum()
        if total <= 0:
            raise ValidationError("distribution carries zero mass")
        return self.probs / total


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Monte-Carlo draws plus the truncated mass they were drawn from."""

    patterns: tuple[PhotonPattern, ...]
    captured_mass: float


# ---------------------------------------------------------------------------
# state preparation


def prepare_state(p: GbsProgram) -> GaussianState:
    """Compose squeezers, interferometer and per-mode loss into a covariance."""
    m = p.mode_count
    r = p.squeezing
    diag = np.concatenate([np.exp(-2 * r) / 2, np.exp(2 * r) / 2])
    cov = np.diag(diag)
    s = np.block([[p.unitary.real, -p.unitary.imag], [p.unitary.imag, p.unitary.real]])
    cov = s @ cov @ s.T
    if np.any(p.loss < 1.0):
        t = np.concatenate([np.sqrt(p.loss), np.sqrt(p.loss)])
        cov = t[:, None] * cov * t[None, :] + np.diag((1 - t ** 2) / 2)
    return GaussianState(cov)


# ---------------------------------------------------------------------------
# probability kernel


@dataclass(frozen=True, eq=False)
class _Kernel:
    a: np.ndarray
    sqrt_det_q: float
    pure: bool
    bmat: np.ndarray | None


def _state_kernel(state: GaussianState) -> _Kernel:
    m = state.mode_count
    cov = state.cov
    vxx, vxp, vpp = cov[:m, :m], cov[:m, m:], cov[m:, m:]
    eye = np.eye(m)
    nmat = (vxx + vpp - eye) / 2 + 0.5j * (vxp - vxp.T)
    mmat = (vxx - vpp) / 2 + 0.5j * (vxp + vxp.T)
    q = np.block([[nmat.conj() + eye, mmat], [mmat.conj(), nmat + eye]])
    sign, logdet = np.linalg.slogdet(q)
    if not np.isclose(abs(complex(sign)), 1.0) or complex(sign).real <= 0:
        raise GuardError("Husimi matrix has non-positive determinant")
    sqrt_det_q = float(np.exp(logdet / 2))
    qinv = np.linalg.inv(q)
    eye2 = np.eye(2 * m)
    x = np.block([[np.zeros((m, m)), eye], [eye, np.zeros((m, m))]])
    a = x @ (eye2 - qinv)
    off = max(np.max(np.abs(a[:m, m:])), np.max(np.abs(a[m:, :m]))) if m else 0.0
    pure = off <= 1e-10 and np.max(np.abs(a[:m, :m] - a[m:, m:].conj())) <= 1e-10
    return _Kernel(a=a, sqrt_det_q=sqrt_det_q, pure=pure,
                   bmat=a[m:, m:].copy() if pure else None)


_FACTORIALS = np.array([math.factorial(c) for c in range(PHOTON_LIMIT + 1)], dtype=float)


def _probabilities(kernel: _Kernel, h: np.ndarray, fact: np.ndarray | float,
                   context: str) -> np.ndarray:
    """Pattern probabilities from their hafnians and count factorials prod(n_i!)."""
    norm = kernel.sqrt_det_q * fact
    if kernel.pure:
        return np.abs(h) ** 2 / norm
    values = h / norm
    residue = np.abs(values.imag) > 1e-10 * np.maximum(1.0, np.abs(values.real))
    if residue.any():
        raise GuardError(f"{context}: imaginary residue {values.imag[residue][0]:.3e}")
    p = values.real
    if (p < PROB_CLAMP).any():
        raise GuardError(f"{context}: negative probability {p.min():.3e}")
    return np.where(p < 0, 0.0, p)


def pattern_probability(s: GaussianState, n: PhotonPattern) -> float:
    """Probability of detecting pattern ``n`` in state ``s``."""
    if len(n.counts) != s.mode_count:
        raise ValidationError("pattern length must equal mode count")
    if n.total > PHOTON_LIMIT:
        raise GuardError(f"pattern too large: {n.total} photons exceeds the {PHOTON_LIMIT} kernel limit")
    kernel = _state_kernel(s)
    counts = np.asarray(n.counts, dtype=int)
    modes = np.repeat(np.arange(len(counts)), counts)
    if kernel.pure:
        h = hafnian(kernel.bmat[np.ix_(modes, modes)])
    else:
        idx = np.concatenate([modes, modes + len(counts)])
        h = hafnian(kernel.a[np.ix_(idx, idx)])
    fact = np.prod(_FACTORIALS[counts])
    return float(_probabilities(kernel, np.array([h]), fact, "pattern")[0])


# ---------------------------------------------------------------------------
# sector enumeration


def _sector_size(m: int, k: int, collision_free: bool) -> int:
    """Validate one sector request and return its pattern count."""
    if k < 0:
        raise ValidationError("total_photons must be >= 0")
    if collision_free and k > m:
        raise ValidationError("collision-free total cannot exceed the mode count")
    if k > PHOTON_LIMIT:
        raise GuardError(f"pattern too large: {k} photons exceeds "
                         f"the {PHOTON_LIMIT} kernel limit")
    count = math.comb(m, k) if collision_free else math.comb(m + k - 1, k)
    if count > PATTERN_GUARD:
        raise GuardError(f"sector ({m} modes, {k} photons) has {count} patterns, "
                         f"exceeding the {PATTERN_GUARD} enumeration guard")
    return count


def _counts_from_modes(mode_tuples: np.ndarray, m: int) -> np.ndarray:
    k = mode_tuples.shape[0]
    counts = np.zeros((k, m), dtype=np.int16)
    rows = np.repeat(np.arange(k), mode_tuples.shape[1])
    np.add.at(counts, (rows, mode_tuples.reshape(-1)), 1)
    return counts


def enumerate_distribution(s: GaussianState, total_photons: int,
                           collision_free: bool = False) -> Distribution:
    """Every pattern with the given photon total, with exact probabilities."""
    m, k = s.mode_count, total_photons
    count = _sector_size(m, k, collision_free)
    kernel = _state_kernel(s)
    gen = itertools.combinations(range(m), k) if collision_free \
        else itertools.combinations_with_replacement(range(m), k)
    flat = np.fromiter(itertools.chain.from_iterable(gen), dtype=np.int64, count=count * k)
    mode_tuples = flat.reshape(count, k)
    counts = _counts_from_modes(mode_tuples, m)
    if kernel.pure:
        h = hafnian_batch(kernel.bmat, mode_tuples)
    else:
        h = hafnian_batch(kernel.a, np.concatenate([mode_tuples, mode_tuples + m], axis=1))
    fact = 1.0 if collision_free else np.prod(_FACTORIALS[counts], axis=1)
    probs = _probabilities(kernel, h, fact, f"sector ({m} modes, {k} photons)")
    return Distribution(counts, probs, float(probs.sum()))


def truncated_distribution(s: GaussianState, max_total_photons: int,
                           collision_free: bool = False,
                           min_total_photons: int = 0) -> Distribution:
    """All patterns with min <= total <= max, stacked in ascending-total order.

    Every sector is checked against the guards before any is enumerated.
    """
    if min_total_photons > max_total_photons:
        raise ValidationError("min_total_photons cannot exceed max_total_photons")
    totals = range(min_total_photons, max_total_photons + 1)
    for k in totals:
        _sector_size(s.mode_count, k, collision_free)
    parts = [enumerate_distribution(s, k, collision_free) for k in totals]
    counts = np.vstack([p.pattern_counts for p in parts])
    probs = np.concatenate([p.probs for p in parts])
    return Distribution(counts, probs, float(probs.sum()))


def draw(dist: Distribution, n_samples: int, seed: int) -> SampleBatch:
    """Seeded categorical draws from a renormalized Distribution."""
    if n_samples < 0:
        raise ValidationError("n_samples must be >= 0")
    if dist.captured_mass <= 0:
        raise GuardError("truncated distribution carries zero mass; nothing to sample")
    rng = spawn_rng(seed, STREAM_SAMPLER)
    idx = rng.choice(len(dist), size=n_samples, p=dist.normalized_probs())
    patterns = tuple(dist.pattern(int(i)) for i in idx)
    return SampleBatch(patterns, dist.captured_mass)


def sample(s: GaussianState, n_samples: int, max_total_photons: int, seed: int,
           collision_free: bool = False, min_total_photons: int = 0) -> SampleBatch:
    """Categorical draws from the truncated, renormalized distribution.

    ``captured_mass`` reports the mass inside the truncation so the error is
    explicit; below 0.5 a CapturedMassWarning advises a higher cutoff.
    Deterministic per seed.
    """
    dist = truncated_distribution(s, max_total_photons, collision_free,
                                  min_total_photons)
    if dist.captured_mass < 0.5:
        warnings.warn(
            f"truncated distribution captures only {dist.captured_mass:.3g} of the "
            "state's mass; consider a higher max_total_photons cutoff",
            CapturedMassWarning)
    return draw(dist, n_samples, seed)


def empirical_distribution(samples, template: Distribution) -> Distribution:
    """Histogram of ``samples`` on the support of ``template``.

    Samples outside the template support raise; use this to compare Monte
    Carlo output against an exact sector distribution via ``tvd``.
    """
    index = {tuple(row): i for i, row in enumerate(np.asarray(template.pattern_counts))}
    hist = np.zeros(len(template))
    for pat in samples:
        key = tuple(int(c) for c in pat.counts)
        if key not in index:
            raise ValidationError(f"sample {key} lies outside the template support")
        hist[index[key]] += 1
    total = hist.sum()
    if total == 0:
        raise ValidationError("no samples to histogram")
    return Distribution(template.pattern_counts, hist / total, 1.0)


def tvd(p: Distribution, q: Distribution) -> float:
    """Total variation distance on the shared support, after renormalizing each."""
    if p.pattern_counts.shape != q.pattern_counts.shape or \
            not np.array_equal(p.pattern_counts, q.pattern_counts):
        raise ValidationError("distributions must share an identical pattern list")
    return float(0.5 * np.abs(p.normalized_probs() - q.normalized_probs()).sum())
