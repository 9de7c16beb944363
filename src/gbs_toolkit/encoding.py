"""Turn a node-weighted graph into a GBS program.

The pipeline is: build K (graph Laplacian by default, adjacency as an
option), rescale it to B = Omega K Omega with Omega_ii = c (1 + alpha w_i),
pick c so the largest Takagi value of B hits a target below 1, then read the
squeezing parameters off the Takagi values, r_i = artanh(lam_i), and the
interferometer off the Takagi unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpectrumError, ValidationError
from .numerics import ensure_unitary, takagi

MODE_LAPLACIAN = "laplacian"
MODE_ADJACENCY = "adjacency"


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with non-negative node weights.

    ``edges`` are unordered distinct pairs (stored sorted); optional
    ``edge_weights`` parallel the edge list and default to 1.
    """

    node_count: int
    weights: np.ndarray
    edges: tuple[tuple[int, int], ...]
    edge_weights: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise ValidationError("graph needs at least one node")
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (self.node_count,):
            raise ValidationError("weights length must equal node_count")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValidationError("node weights must be finite and >= 0")
        object.__setattr__(self, "weights", weights)

        seen = set()
        edges = []
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValidationError(f"self-loop on node {i}")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ValidationError(f"edge ({i}, {j}) out of range")
            i, j = min(i, j), max(i, j)
            if (i, j) in seen:
                raise ValidationError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            edges.append((i, j))
        object.__setattr__(self, "edges", tuple(edges))

        if self.edge_weights is not None:
            ew = np.asarray(self.edge_weights, dtype=float)
            if ew.shape != (len(edges),):
                raise ValidationError("edge_weights length must equal edge count")
            if not np.all(np.isfinite(ew)) or np.any(ew < 0):
                raise ValidationError("edge weights must be finite and >= 0")
            object.__setattr__(self, "edge_weights", ew)

        if self.labels is not None and len(self.labels) != self.node_count:
            raise ValidationError("labels length must equal node_count")

    @classmethod
    def from_edges(cls, node_count, edges, weights=None, edge_weights=None, labels=None):
        if weights is None:
            weights = np.ones(node_count)
        return cls(node_count, np.asarray(weights, float), tuple(edges),
                   None if edge_weights is None else np.asarray(edge_weights, float),
                   None if labels is None else tuple(labels))

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count))
        ew = self.edge_weights if self.edge_weights is not None else np.ones(len(self.edges))
        for (i, j), w in zip(self.edges, ew):
            a[i, j] = a[j, i] = w
        return a

    def neighbors(self, node: int) -> frozenset[int]:
        return self._neighbor_sets[node]

    @property
    def _neighbor_sets(self) -> tuple[frozenset[int], ...]:
        cached = getattr(self, "_nbr_cache", None)
        if cached is None:
            sets = [set() for _ in range(self.node_count)]
            for i, j in self.edges:
                sets[i].add(j)
                sets[j].add(i)
            cached = tuple(frozenset(s) for s in sets)
            object.__setattr__(self, "_nbr_cache", cached)
        return cached

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._neighbor_sets[i]


@dataclass(frozen=True)
class EncodingParams:
    """Rescaling knobs: B = Omega K Omega with Omega_ii = c (1 + alpha w_i)."""

    c: float = 1.0
    alpha: float = 0.0
    target_max_eig: float = 0.9
    mode: str = MODE_LAPLACIAN

    def __post_init__(self):
        if not (self.c > 0):
            raise ValidationError("scale c must be positive")
        if not (0 < self.target_max_eig < 1):
            raise ValidationError("target_max_eig must lie in (0, 1)")
        if self.mode not in (MODE_LAPLACIAN, MODE_ADJACENCY):
            raise ValidationError(f"unknown encoding mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class GbsProgram:
    """Compiled machine configuration: squeezing vector, unitary, per-mode loss."""

    mode_count: int
    squeezing: np.ndarray
    unitary: np.ndarray
    loss: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.squeezing, dtype=float)
        eta = np.asarray(self.loss, dtype=float)
        u = ensure_unitary(np.asarray(self.unitary, dtype=complex))
        if r.shape != (self.mode_count,) or eta.shape != (self.mode_count,):
            raise ValidationError("squeezing and loss must have mode_count entries")
        if u.shape != (self.mode_count, self.mode_count):
            raise ValidationError("unitary dimension must equal mode_count")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValidationError("squeezing parameters must be finite and >= 0")
        if not np.all((eta >= 0) & (eta <= 1)):
            raise ValidationError("loss transmissions must lie in [0, 1]")
        object.__setattr__(self, "squeezing", r)
        object.__setattr__(self, "loss", eta)
        object.__setattr__(self, "unitary", u)

    @classmethod
    def from_squeezing(cls, r, unitary, loss=None):
        r = np.asarray(r, dtype=float)
        if loss is None:
            loss = np.ones(len(r))
        return cls(len(r), r, unitary, np.asarray(loss, float))


def laplacian(g: WeightedGraph) -> np.ndarray:
    """D - A with D_ii the (weighted) degree; PSD with zero row sums."""
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


def omega_diagonal(g: WeightedGraph, c: float, alpha: float) -> np.ndarray:
    d = c * (1.0 + alpha * g.weights)
    if np.any(d <= 0):
        bad = int(np.argmin(d))
        raise ValidationError(
            f"Omega_{bad}{bad} = {d[bad]:.4g} <= 0; alpha={alpha} too negative for weight {g.weights[bad]:.4g}")
    return d


def rescale(g: WeightedGraph, p: EncodingParams) -> np.ndarray:
    """B = Omega K Omega for K = Laplacian (default) or adjacency."""
    k = laplacian(g) if p.mode == MODE_LAPLACIAN else g.adjacency()
    d = omega_diagonal(g, p.c, p.alpha)
    return d[:, None] * k * d[None, :]


def choose_scale(g: WeightedGraph, alpha: float = 0.0,
                 target_max_eig: float = 0.9, mode: str = MODE_LAPLACIAN) -> EncodingParams:
    """Pick c so the largest Takagi value of B equals target_max_eig.

    B scales as c^2, so c = sqrt(target / lam_max(B at c=1)).  The largest
    Takagi value equals the spectral norm, which covers adjacency mode where
    eigenvalues may be negative.  An edgeless graph has B = 0 for any c and
    returns c = 1.
    """
    if not (0 < target_max_eig < 1):
        raise ValidationError("target_max_eig must lie in (0, 1)")
    base = EncodingParams(c=1.0, alpha=alpha, target_max_eig=target_max_eig, mode=mode)
    if not g.edges:
        return base
    lam_max = float(np.max(np.abs(np.linalg.eigvalsh(rescale(g, base)))))
    if lam_max <= 0:
        return base
    c = float(np.sqrt(target_max_eig / lam_max))
    return EncodingParams(c=c, alpha=alpha, target_max_eig=target_max_eig, mode=mode)


def default_alpha(g: WeightedGraph) -> float:
    """0.1 when node weights are non-uniform, 0 otherwise."""
    return 0.1 if np.ptp(g.weights) > 0 else 0.0


def encode(b: np.ndarray, loss: np.ndarray | None = None) -> GbsProgram:
    """Extract the GBS program realizing B = U diag(tanh r) U^T.

    Raises SpectrumError when any Takagi value reaches 1, naming the value.
    """
    u, lam = takagi(b)
    if lam.size and lam[0] >= 1.0:
        raise SpectrumError(f"spectrum not in [0, 1): largest Takagi value is {lam[0]:.6g}")
    r = np.arctanh(lam)
    if loss is None:
        loss = np.ones(len(r))
    return GbsProgram(len(r), r, u, np.asarray(loss, dtype=float))


def decode(p: GbsProgram) -> np.ndarray:
    """Inverse of encode: U diag(tanh r) U^T."""
    return (p.unitary * np.tanh(p.squeezing)[None, :]) @ p.unitary.T
