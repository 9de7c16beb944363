"""Clique post-processing: greedy shrinking, local search, exact oracles and
the GBS-vs-uniform pipeline statistics.

Shrink and search are batch kernels over a (K, n) boolean membership array,
one start set per row, applying one move to every row per step; they read
member-neighbour counts ``members @ adj`` off the edge list.
``greedy_shrink`` and ``local_search`` are their one-row forms.  The shrink
removes, from each incomplete row, the member minimizing (induced degree,
weight, index).  Each search iteration adds to a row the addable node
maximizing (weight, index), or a uniformly random one while the row is
diversifying.  A maximal row takes the best strictly-improving swap of one
member v for adjacent non-members a < b that miss only v: the largest gain
w_a + w_b - w_v above 1e-15, ties to the smallest (v, a, b).  Failing that
it drops a random subset of members, of size uniform on 1..|members|, and
diversifies until maximal again.  Rows return the heaviest clique visited.
A search takes every random draw from one generator, in fixed-shape blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .encoding import WeightedGraph
from .errors import GuardError, ValidationError
from .seeding import STREAM_BASELINE, STREAM_LOCAL_SEARCH, spawn_rng
from .simulator import PhotonPattern

BRON_KERBOSCH_GUARD = 40
_SWAP_BLOCK = 256  # rows per block of the swap step's (rows, n, n) temporaries


@dataclass(frozen=True)
class Clique:
    """A complete induced subgraph, stored as a sorted node tuple."""

    nodes: tuple[int, ...]
    weight: float

    @classmethod
    def of(cls, g: WeightedGraph, nodes) -> "Clique":
        nodes = tuple(sorted(int(n) for n in nodes))
        if len(set(nodes)) != len(nodes):
            raise ValidationError("clique nodes must be distinct")
        for n in nodes:
            if not (0 <= n < g.node_count):
                raise ValidationError(f"node {n} out of range")
        if not is_clique(g, nodes):
            raise ValidationError(f"nodes {nodes} do not induce a complete subgraph")
        return cls(nodes, float(sum(g.weights[n] for n in nodes)))


@dataclass(frozen=True)
class CliqueReport:
    """Frequencies of post-processed cliques under GBS and uniform seeding."""

    entries: tuple[dict, ...]
    gbs_samples: int
    uniform_samples: int
    iterations: int

    def frequency(self, nodes, which: str = "gbs") -> float:
        key = tuple(sorted(nodes))
        for e in self.entries:
            if e["nodes"] == key:
                return e["freq_gbs"] if which == "gbs" else e["freq_uniform"]
        return 0.0

    def best_clique(self) -> tuple[int, ...]:
        """Heaviest clique found, ties broken by GBS frequency then node order."""
        best = max(self.entries, key=lambda e: (e["weight"], e["freq_gbs"],
                                                tuple(-n for n in e["nodes"])))
        return best["nodes"]


def is_clique(g: WeightedGraph, nodes) -> bool:
    nodes = list(nodes)
    return all(g.has_edge(a, b) for a, b in combinations(nodes, 2))


def pattern_to_subgraph(n: PhotonPattern) -> frozenset[int]:
    """Collision-free pattern -> the set of single-occupied modes."""
    if not n.collision_free:
        raise ValidationError("pattern has collisions; clique mapping needs collision-free events")
    return frozenset(m for m, c in enumerate(n.counts) if c == 1)


def _adjacency(g: WeightedGraph) -> np.ndarray:
    """0/1 float adjacency (BLAS counts); a zero-weight edge is an edge."""
    adj = np.zeros((g.node_count, g.node_count))
    if g.edges:
        i, j = np.array(g.edges).T
        adj[i, j] = adj[j, i] = 1
    return adj


def _row(g: WeightedGraph, nodes) -> np.ndarray:
    row = np.zeros((1, g.node_count), dtype=bool)
    for n in map(int, nodes):
        if not (0 <= n < g.node_count):
            raise ValidationError(f"node {n} out of range")
        row[0, n] = True
    return row


def _incomplete(members: np.ndarray, counts: np.ndarray) -> np.ndarray:
    size = members.sum(1)
    return (counts * members).sum(1) < size * (size - 1)


def shrink_batch(g: WeightedGraph, members: np.ndarray) -> np.ndarray:
    """Shrink every row of a (K, n) membership array to a clique (a new array)."""
    adj = _adjacency(g)
    cur = np.array(members, dtype=bool).reshape(-1, g.node_count)
    counts = cur @ adj
    while (rows := np.flatnonzero(_incomplete(cur, counts))).size:
        degree = np.where(cur[rows], counts[rows], g.node_count)
        tied = degree == degree.min(1, keepdims=True)
        weight = np.where(tied, g.weights, np.inf)
        victim = (tied & (weight == weight.min(1, keepdims=True))).argmax(1)
        cur[rows, victim] = False
        counts[rows] -= adj[victim]
    return cur


def _swap(adj, w, cur, stuck, counts) -> np.ndarray:
    """Apply the best swap to each maximal row ``stuck``; True where one was found."""
    n = len(w)
    members = cur[stuck]
    cand = ~members & (counts == members.sum(1, keepdims=True) - 1)
    # a candidate's label is the one member it misses; other nodes get unique labels >= n
    label = np.where(cand, (members * np.arange(n)) @ (1 - adj),
                     n + np.arange(n)).astype(np.int64)
    upper = np.triu(adj, 1).astype(bool)
    found = np.zeros(len(stuck), dtype=bool)
    rows = np.flatnonzero(cand.sum(1) >= 2)
    for lo in range(0, len(rows), _SWAP_BLOCK):
        lab = label[rows[lo:lo + _SWAP_BLOCK]]
        r, a, b = np.nonzero((lab[:, :, None] == lab[:, None, :]) & upper)
        v = lab[r, a]
        gain = w[a] + w[b] - w[v]
        # per row: the largest gain, then the smallest (v, a, b)
        order = np.lexsort((b, a, v, -gain, r))
        head = order[np.unique(r[order], return_index=True)[1]]
        head = head[gain[head] > 1e-15]
        sel = rows[lo + r[head]]
        cur[stuck[sel], v[head]] = False
        cur[stuck[sel], a[head]] = cur[stuck[sel], b[head]] = True
        found[sel] = True
    return found


def search_batch(g: WeightedGraph, members: np.ndarray, iterations: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Local search from every clique row of a (K, n) array; returns each row's
    heaviest visit.

    Every iteration draws ``rng.random(K)`` twice and ``rng.random((K, n))``.
    """
    if int(iterations) < 0:
        raise ValidationError(f"iterations must be >= 0, got {iterations}")
    adj, w, n = _adjacency(g), g.weights, g.node_count
    cur = np.array(members, dtype=bool).reshape(-1, n)
    if _incomplete(cur, cur @ adj).any():
        raise ValidationError("local search start rows must be cliques")
    best, best_w = cur.copy(), cur @ w
    diversifying = np.zeros(len(cur), dtype=bool)
    for _ in range(int(iterations)):
        pick, drop_size, keys = rng.random(len(cur)), rng.random(len(cur)), rng.random(cur.shape)
        size, counts = cur.sum(1), cur @ adj
        addable = ~cur & (counts == size[:, None])
        n_add = addable.sum(1)
        grow = np.flatnonzero(n_add)
        ok = addable[grow]
        wt = np.where(ok, w, -np.inf)
        greedy = n - 1 - (ok & (wt == wt.max(1, keepdims=True)))[:, ::-1].argmax(1)
        nth = (ok.cumsum(1) > np.floor(pick[grow] * n_add[grow])[:, None]).argmax(1)
        cur[grow, np.where(diversifying[grow], nth, greedy)] = True

        stuck = np.flatnonzero(n_add == 0)
        drop = stuck[~_swap(adj, w, cur, stuck, counts[stuck])]
        # drop the k members with the smallest keys, k uniform on 1..size
        k = 1 + np.floor(drop_size[drop] * size[drop]).astype(np.int64)
        cur[drop] &= np.where(cur[drop], keys[drop], 2).argsort(1).argsort(1) >= k[:, None]
        diversifying[stuck] = False
        diversifying[drop] = True
        weight = cur @ w
        better = weight > best_w + 1e-15
        best[better], best_w[better] = cur[better], weight[better]
    return best


def greedy_shrink(g: WeightedGraph, nodes) -> Clique:
    """One-row form of ``shrink_batch``."""
    return Clique.of(g, np.flatnonzero(shrink_batch(g, _row(g, nodes))[0]))


def local_search(g: WeightedGraph, c: Clique, iterations: int, seed: int = 0) -> Clique:
    """One-row form of ``search_batch`` on the seed's local-search stream."""
    found = search_batch(g, _row(g, c.nodes), iterations, spawn_rng(seed, STREAM_LOCAL_SEARCH))
    return Clique.of(g, np.flatnonzero(found[0]))


def bron_kerbosch(g: WeightedGraph) -> list[Clique]:
    """All maximal cliques, with pivoting; the ground-truth oracle."""
    if g.node_count > BRON_KERBOSCH_GUARD:
        raise GuardError(f"Bron-Kerbosch guard: {g.node_count} nodes exceeds {BRON_KERBOSCH_GUARD}")
    found: list[tuple[int, ...]] = []

    def expand(clique: list[int], candidates: set[int], excluded: set[int]):
        if not candidates and not excluded:
            found.append(tuple(sorted(clique)))
            return
        pivot = max(candidates | excluded,
                    key=lambda u: len(candidates & g.neighbors(u)))
        for v in sorted(candidates - g.neighbors(pivot)):
            nv = g.neighbors(v)
            expand(clique + [v], candidates & nv, excluded & nv)
            candidates.remove(v)
            excluded.add(v)

    expand([], set(range(g.node_count)), set())
    return [Clique.of(g, nodes) for nodes in sorted(found)]


def max_weight_clique(g: WeightedGraph) -> Clique:
    """Exact maximum weighted clique via Bron-Kerbosch enumeration."""
    cliques = bron_kerbosch(g)
    if not cliques:
        return Clique((), 0.0)
    return max(cliques, key=lambda c: (c.weight, tuple(-n for n in c.nodes)))


def run_pipeline(g: WeightedGraph, samples, min_photons: int, iterations: int,
                 seed: int) -> CliqueReport:
    """Shrink+search every qualifying sample and a size-matched uniform baseline.

    Samples must be collision-free; those with fewer than ``min_photons``
    photons are dropped.  Sample k and a same-size uniform node subset drawn
    from the ``STREAM_BASELINE`` stream are rows 2k and 2k + 1 of one (2S, n)
    array that ``shrink_batch`` and ``search_batch`` each process in one call;
    the search draws from the single ``STREAM_LOCAL_SEARCH`` generator.
    """
    starts = []
    for pat in samples:
        if len(pat.counts) != g.node_count:
            raise ValidationError("sample mode count must equal graph node count")
        nodes = pattern_to_subgraph(pat)
        if pat.total >= min_photons:
            starts.append(list(nodes))
    if not starts:
        raise ValidationError(f"no samples with at least {min_photons} photons; empty report")

    rng = spawn_rng(seed, STREAM_BASELINE)
    rows = np.zeros((2 * len(starts), g.node_count), dtype=bool)
    for k, nodes in enumerate(starts):
        rows[2 * k, nodes] = True
        rows[2 * k + 1, rng.choice(g.node_count, size=len(nodes), replace=False)] = True
    found = search_batch(g, shrink_batch(g, rows), iterations,
                         spawn_rng(seed, STREAM_LOCAL_SEARCH))

    distinct, which = np.unique(found, axis=0, return_inverse=True)
    hits = np.zeros((len(distinct), 2), dtype=np.int64)
    np.add.at(hits, (which.reshape(-1), np.arange(len(found)) % 2), 1)
    total = len(starts)
    cliques = sorted(zip((Clique.of(g, np.flatnonzero(row)) for row in distinct), hits.tolist()),
                     key=lambda ch: ch[0].nodes)
    entries = tuple({"nodes": c.nodes, "weight": c.weight, "freq_gbs": h[0] / total,
                     "freq_uniform": h[1] / total} for c, h in cliques)
    return CliqueReport(entries, gbs_samples=total, uniform_samples=total,
                        iterations=int(iterations))
