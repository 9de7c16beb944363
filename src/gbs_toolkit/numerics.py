"""Dense linear-algebra and combinatorial kernels used by every other module.

Conventions fixed here once:

* A "symmetric matrix" is complex square with ``M == M.T`` (not Hermitian).
* ``takagi`` factors a symmetric B as ``U @ diag(lam) @ U.T`` with U unitary
  and ``lam >= 0`` sorted descending, ties kept in original order.  Complex
  B goes through ``eigh`` of its real embedding ``[[Re B, Im B], [Im B, -Re B]]``
  plus one QR, so numpy is the only linear-algebra dependency.
* ``hafnian_batch`` is the one hafnian kernel: it evaluates the hafnians of
  many index-selected submatrices of one matrix at once, by summing perfect
  matchings for small n and by the inclusion-exclusion power-trace method,
  O(2^(n/2) poly(n)), above that.  ``hafnian`` is its one-matrix form; the
  scalar matching enumeration ``hafnian_by_matchings`` is kept as an
  independent test oracle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .seeding import STREAM_UNITARY, spawn_rng

LAMBDA_CLAMP = 1e-12  # Takagi values below this are treated as exact zeros


def ensure_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    return m


def ensure_symmetric(m: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate symmetry and return the exactly symmetrized matrix."""
    m = ensure_square(m, name)
    if m.size and np.max(np.abs(m - m.T)) > tol * max(1.0, np.max(np.abs(m))):
        raise ValidationError(f"{name} is not symmetric")
    return (m + m.T) / 2


def ensure_unitary(u: np.ndarray, tol: float = 1e-10, name: str = "unitary") -> np.ndarray:
    u = ensure_square(u, name)
    dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) if u.size else 0.0
    if dev > tol:
        raise ValidationError(f"{name} deviates from unitarity by {dev:.3e} (tol {tol:.0e})")
    return u


def unitarity_deviation(u: np.ndarray) -> float:
    u = np.asarray(u)
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


# ---------------------------------------------------------------------------
# Takagi decomposition


def takagi(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric matrix as ``U diag(lam) U^T``.

    Real input takes the cheap eigendecomposition route: columns belonging to
    negative eigenvalues are rotated by 1j, which flips the sign under the
    transpose (not conjugate-transpose) product.  Complex input takes ``eigh``
    of the real symmetric embedding ``[[Re B, Im B], [Im B, -Re B]]``: each of
    its n largest eigenpairs ``(lam, [x; y])`` gives ``B conj(z) = lam z`` for
    ``z = x + iy``.  One QR of ``[z_kept, I]``, with R's diagonal phases put
    back, orthonormalizes the kept z and completes the columns of values below
    ``LAMBDA_CLAMP`` (the null space), so U stays unitary on rank-deficient input.

    Returns:
        (u, lam): unitary u and non-negative values sorted descending,
        ties stable by original position.
    """
    b = ensure_symmetric(np.asarray(b, dtype=complex), name="takagi input")
    n = b.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros(0)

    if np.all(b.imag == 0):
        eigvals, eigvecs = np.linalg.eigh(b.real)
        phases = np.where(eigvals < 0, 1j, 1.0 + 0j)
        u = eigvecs.astype(complex) * phases[np.newaxis, :]
        lam = np.abs(eigvals)
    else:
        eigvals, eigvecs = np.linalg.eigh(np.block([[b.real, b.imag], [b.imag, -b.real]]))
        top = slice(None, n - 1, -1)  # the n largest eigenpairs, descending
        lam = eigvals[top]
        z = eigvecs[:n, top] + 1j * eigvecs[n:, top]
        kept = int(np.count_nonzero(lam >= LAMBDA_CLAMP))
        u, r = np.linalg.qr(np.hstack([z[:, :kept], np.eye(n)]))
        d = np.diagonal(r)[:kept]
        u[:, :kept] *= d / np.abs(d)

    lam[lam < LAMBDA_CLAMP] = 0.0
    order = np.argsort(-lam, kind="stable")
    return u[:, order], lam[order]


# ---------------------------------------------------------------------------
# Hafnian


MATCHING_MAX = 8  # up to 105 perfect matchings: summed directly, larger n by power traces
_TRACE_BLOCK = 1 << 19  # complex entries per gathered power-trace array (8 MiB)


def hafnian(m: np.ndarray) -> complex:
    """Hafnian of one symmetric matrix; odd dimension returns 0, empty returns 1."""
    m = ensure_symmetric(np.asarray(m, dtype=complex), name="hafnian input")
    return complex(hafnian_batch(m, np.arange(m.shape[0])[np.newaxis, :])[0])


def hafnian_batch(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``Haf(m[r][:, r])`` for every row ``r`` of the ``(P, n)`` index array.

    ``m`` must be symmetric (not checked); indices may repeat within a row.
    For n <= MATCHING_MAX the perfect matchings are summed, vectorized over
    rows; above it the inclusion-exclusion power-trace formula runs on the
    gathered ``(chunk, n, n)`` stack by batched matmul, exact up to round-off
    for the desk-scale sizes this toolkit needs (n <= 32).
    """
    rows = np.asarray(rows, dtype=np.intp)
    npat, n = rows.shape
    if n % 2:
        return np.zeros(npat, dtype=complex)
    if n <= MATCHING_MAX:
        return _hafnian_by_matchings_batch(m, rows)
    return _hafnian_by_power_traces_batch(m, rows)


def _hafnian_by_matchings_batch(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    npat, n = rows.shape
    matchings = perfect_matchings(n)
    out = np.zeros(npat, dtype=complex)
    chunk = max(1, 200_000 // max(1, len(matchings)) * 8)
    for start in range(0, npat, chunk):
        sel = rows[start:start + chunk]
        h = np.zeros(sel.shape[0], dtype=complex)
        for matching in matchings:
            term = np.ones(sel.shape[0], dtype=complex)
            for i, j in matching:
                term = term * m[sel[:, i], sel[:, j]]
            h += term
        out[start:start + chunk] = h
    return out


def _hafnian_by_power_traces_batch(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Haf(A) = sum over pair subsets S of (-1)^(n/2-|S|) times the x^(n/2)
    coefficient of exp(sum_j tr((XA)_S^j) x^j / 2j), X swapping each pair's rows."""
    npat, n = rows.shape
    half = n // 2
    # row/column indices of every subset of pairs, one (C(half, size), 2 size) array per size
    subsets = [(2 * np.array(list(itertools.combinations(range(half), size)))[:, :, np.newaxis]
                + np.arange(2)).reshape(-1, 2 * size) for size in range(1, half + 1)]
    chunk = max(1, _TRACE_BLOCK // (n * n))
    out = np.zeros(npat, dtype=complex)
    for start in range(0, npat, chunk):
        sel = rows[start:start + chunk]
        xa = m[sel[:, np.arange(n) ^ 1, np.newaxis], sel[:, np.newaxis, :]]
        for size, idx in enumerate(subsets, start=1):
            block = max(1, _TRACE_BLOCK // (len(sel) * max(4 * size * size, half)))
            for part in np.split(idx, range(block, len(idx), block)):
                sub = xa[:, part[:, :, np.newaxis], part[:, np.newaxis, :]]
                q = np.empty(sub.shape[:2] + (half,), dtype=complex)
                power = sub
                for j in range(half):
                    q[..., j] = np.trace(power, axis1=-2, axis2=-1) / (2 * j + 2)
                    if j + 1 < half:
                        power = power @ sub
                # c_k = sum_j j q_j c_(k-j) / k are the coefficients of exp(sum_j q_j x^j)
                coeffs = [np.ones(q.shape[:2], dtype=complex)]
                for k in range(1, half + 1):
                    coeffs.append(sum(j * q[..., j - 1] * coeffs[k - j]
                                      for j in range(1, k + 1)) / k)
                out[start:start + chunk] += (-1) ** (half - size) * coeffs[half].sum(axis=1)
    return out


@lru_cache(maxsize=None)
def perfect_matchings(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All perfect matchings of {0..n-1} as tuples of (i, j) pairs, i < j."""
    if n % 2:
        return ()
    if n == 0:
        return ((),)
    out = []

    def rec(avail: tuple[int, ...], acc: tuple[tuple[int, int], ...]):
        if not avail:
            out.append(acc)
            return
        first, rest = avail[0], avail[1:]
        for k, partner in enumerate(rest):
            rec(rest[:k] + rest[k + 1:], acc + ((first, partner),))

    rec(tuple(range(n)), ())
    return tuple(out)


def hafnian_by_matchings(m: np.ndarray) -> complex:
    """Direct perfect-matching enumeration; the exponentially slower oracle."""
    m = ensure_symmetric(np.asarray(m, dtype=complex), name="hafnian input")
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for matching in perfect_matchings(n):
        prod = 1.0 + 0.0j
        for i, j in matching:
            prod *= m[i, j]
        total += prod
    return complex(total)


# ---------------------------------------------------------------------------
# Haar-random unitaries


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R diagonal phases absorbed into Q.  Deterministic per seed."""
    if dim < 1:
        raise ValidationError("random_unitary requires dim >= 1")
    rng = spawn_rng(seed, STREAM_UNITARY)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
