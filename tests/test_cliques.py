from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbs_toolkit import cliques
from gbs_toolkit.cliques import (
    Clique,
    bron_kerbosch,
    greedy_shrink,
    is_clique,
    local_search,
    max_weight_clique,
    pattern_to_subgraph,
    run_pipeline,
    search_batch,
    shrink_batch,
)
from gbs_toolkit.encoding import WeightedGraph
from gbs_toolkit.errors import GuardError, ValidationError
from gbs_toolkit.seeding import STREAM_LOCAL_SEARCH, spawn_rng
from gbs_toolkit.simulator import PhotonPattern


def graph_from_pairs(n, pairs, weights=None):
    return WeightedGraph.from_edges(n, pairs, weights)


def triangle():
    return graph_from_pairs(3, [(0, 1), (0, 2), (1, 2)])


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_pairs(n, pairs, rng.uniform(0.1, 1.0, n))


def independent_is_clique(g, nodes):
    """Edge check straight off the adjacency matrix, bypassing library helpers."""
    a = g.adjacency()
    return all(a[i, j] > 0 for i, j in combinations(sorted(nodes), 2))


# ---------------------------------------------------------------------------
# pattern_to_subgraph


def test_pattern_to_subgraph_basic():
    assert pattern_to_subgraph(PhotonPattern((1, 0, 1, 0))) == {0, 2}
    assert pattern_to_subgraph(PhotonPattern((0, 0, 0))) == frozenset()
    counts = [0] * 8
    for m in range(3, 8):
        counts[m] = 1
    assert pattern_to_subgraph(PhotonPattern(tuple(counts))) == {3, 4, 5, 6, 7}


def test_pattern_to_subgraph_rejects_collisions():
    with pytest.raises(ValidationError, match="collision"):
        pattern_to_subgraph(PhotonPattern((2, 0)))


# ---------------------------------------------------------------------------
# greedy_shrink


def test_shrink_clique_unchanged():
    g = triangle()
    out = greedy_shrink(g, {0, 1, 2})
    assert out.nodes == (0, 1, 2)


def test_shrink_removes_lowest_degree():
    g = graph_from_pairs(4, [(1, 2)])
    out = greedy_shrink(g, {1, 2, 3})
    assert out.nodes == (1, 2)


def test_shrink_empty_input():
    assert greedy_shrink(triangle(), set()).nodes == ()


def test_shrink_idempotent_and_sound():
    for seed in range(8):
        g = random_graph(12, 0.4, seed)
        rng = np.random.default_rng(100 + seed)
        nodes = rng.choice(12, size=6, replace=False)
        first = greedy_shrink(g, nodes)
        assert independent_is_clique(g, first.nodes)
        assert greedy_shrink(g, first.nodes).nodes == first.nodes
        assert set(first.nodes) <= set(int(n) for n in nodes)


# ---------------------------------------------------------------------------
# local_search


def test_local_search_completes_triangle():
    g = triangle()
    out = local_search(g, Clique.of(g, (0, 1)), iterations=5, seed=0)
    assert out.nodes == (0, 1, 2)


def test_local_search_add_prefers_weight_then_index():
    for weights, want in (([1.0, 1.0, 1.0], (0, 2)), ([1.0, 2.0, 1.0], (0, 1))):
        g = graph_from_pairs(3, [(0, 1), (0, 2)], weights)
        assert local_search(g, Clique.of(g, (0,)), iterations=1, seed=0).nodes == want


def test_local_search_zero_iterations_returns_input():
    g = triangle()
    start = Clique.of(g, (0, 1))
    assert local_search(g, start, iterations=0, seed=0).nodes == start.nodes


def test_local_search_maximal_clique_fixed_point():
    g = graph_from_pairs(4, [(0, 1), (0, 2), (1, 2)])
    maximal = Clique.of(g, (0, 1, 2))
    assert local_search(g, maximal, iterations=10, seed=0).nodes == maximal.nodes


def test_local_search_swap_escapes_light_maximal_clique():
    # node 0 (heavy-ish) forms a maximal 2-clique with 1; swapping 1 out for
    # the (2, 3) pair raises the weight
    g = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3), (2, 3)],
                         weights=[1.0, 0.9, 0.6, 0.6])
    start = Clique.of(g, (0, 1))
    out = local_search(g, start, iterations=5, seed=0)
    assert out.nodes == (0, 2, 3)
    assert out.weight > start.weight


def test_local_search_weight_monotone_randomized():
    for seed in range(20):
        g = random_graph(14, 0.35, seed)
        start = greedy_shrink(g, np.random.default_rng(seed).choice(14, 5, replace=False))
        out = local_search(g, start, iterations=15, seed=seed)
        assert out.weight >= start.weight - 1e-12
        assert independent_is_clique(g, out.nodes)


# ---------------------------------------------------------------------------
# bron_kerbosch


def test_bron_kerbosch_triangle():
    assert [c.nodes for c in bron_kerbosch(triangle())] == [(0, 1, 2)]


def test_bron_kerbosch_path():
    g = graph_from_pairs(3, [(0, 1), (1, 2)])
    assert [c.nodes for c in bron_kerbosch(g)] == [(0, 1), (1, 2)]


def test_bron_kerbosch_edgeless_singletons():
    g = graph_from_pairs(3, [])
    assert [c.nodes for c in bron_kerbosch(g)] == [(0,), (1,), (2,)]


def test_bron_kerbosch_guard():
    g = graph_from_pairs(41, [])
    with pytest.raises(GuardError):
        bron_kerbosch(g)


def test_bron_kerbosch_matches_bruteforce_maximal():
    for seed in range(6):
        g = random_graph(9, 0.45, seed)
        found = {c.nodes for c in bron_kerbosch(g)}
        # brute force: all cliques, keep the maximal ones
        nodes = range(9)
        cliques = [frozenset(sub) for size in range(1, 10)
                   for sub in combinations(nodes, size)
                   if independent_is_clique(g, sub)]
        maximal = {tuple(sorted(c)) for c in cliques
                   if not any(c < d for d in cliques)}
        assert found == maximal


def test_max_weight_clique_matches_bruteforce():
    for seed in range(6):
        g = random_graph(10, 0.4, seed)
        best = max_weight_clique(g)
        brute = max(
            (sub for size in range(0, 11) for sub in combinations(range(10), size)
             if independent_is_clique(g, sub)),
            key=lambda sub: sum(g.weights[n] for n in sub))
        assert best.weight == pytest.approx(sum(g.weights[n] for n in brute))


# ---------------------------------------------------------------------------
# shrink+search vs oracle (statistical property, fixed seeds)


def test_shrink_search_reaches_optimum_from_full_set():
    hits = 0
    total = 40
    for seed in range(total):
        g = random_graph(11, 0.45, seed)
        opt = max_weight_clique(g)
        reached = local_search(g, greedy_shrink(g, range(11)), iterations=150, seed=seed)
        if reached.weight >= opt.weight - 1e-12:
            hits += 1
    assert hits / total >= 0.95


# ---------------------------------------------------------------------------
# run_pipeline


def planted_graph():
    # planted heavy triangle {0,1,2} on 6 nodes
    pairs = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]
    return graph_from_pairs(6, pairs, weights=[1.0, 1.0, 1.0, 0.2, 0.2, 0.2])


def as_pattern(nodes, n):
    counts = [0] * n
    for m in nodes:
        counts[m] = 1
    return PhotonPattern(tuple(counts))


def test_pipeline_all_samples_on_max_clique():
    g = planted_graph()
    samples = [as_pattern({0, 1, 2}, 6)] * 20
    report = run_pipeline(g, samples, min_photons=2, iterations=0, seed=0)
    assert report.frequency((0, 1, 2), "gbs") == pytest.approx(1.0)


def test_pipeline_min_photons_filter_error():
    g = planted_graph()
    samples = [as_pattern({0, 1}, 6)]
    with pytest.raises(ValidationError, match="empty report|no samples"):
        run_pipeline(g, samples, min_photons=5, iterations=3, seed=0)


def test_pipeline_rejects_collisions():
    g = planted_graph()
    with pytest.raises(ValidationError):
        run_pipeline(g, [PhotonPattern((2, 0, 0, 0, 0, 0))], min_photons=1,
                     iterations=1, seed=0)


def test_pipeline_frequencies_sum_to_one():
    g = planted_graph()
    rng = np.random.default_rng(0)
    samples = [as_pattern(rng.choice(6, 3, replace=False), 6) for _ in range(30)]
    report = run_pipeline(g, samples, min_photons=2, iterations=5, seed=1)
    assert sum(e["freq_gbs"] for e in report.entries) == pytest.approx(1.0)
    assert sum(e["freq_uniform"] for e in report.entries) == pytest.approx(1.0)
    for e in report.entries:
        assert independent_is_clique(g, e["nodes"])


def test_pipeline_deterministic():
    g = planted_graph()
    rng = np.random.default_rng(5)
    samples = [as_pattern(rng.choice(6, 3, replace=False), 6) for _ in range(25)]
    a = run_pipeline(g, samples, min_photons=2, iterations=5, seed=42)
    b = run_pipeline(g, samples, min_photons=2, iterations=5, seed=42)
    assert a.entries == b.entries


# ---------------------------------------------------------------------------
# hypothesis properties


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_property_shrink_always_clique(seed):
    g = random_graph(10, 0.4, seed)
    rng = np.random.default_rng(seed)
    nodes = rng.choice(10, size=rng.integers(0, 10), replace=False)
    out = greedy_shrink(g, nodes)
    assert independent_is_clique(g, out.nodes)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=25))
def test_property_local_search_monotone(seed, iterations):
    g = random_graph(10, 0.4, seed)
    start = greedy_shrink(g, np.random.default_rng(seed).choice(10, 4, replace=False))
    out = local_search(g, start, iterations=iterations, seed=seed)
    assert out.weight >= start.weight - 1e-12
    assert independent_is_clique(g, out.nodes)


# ---------------------------------------------------------------------------
# batch kernels against per-row references


def reference_shrink(g, nodes):
    """The shrink rule one row at a time, on neighbour sets."""
    current = sorted(set(int(n) for n in nodes))
    while not independent_is_clique(g, current):
        members = set(current)
        degree = {n: len(g.neighbors(n) & members) for n in current}
        current.remove(min(current, key=lambda n: (degree[n], g.weights[n], n)))
    return tuple(current)


def reference_best_swap(g, members):
    """Best (v, a, b) swap by the documented rule, scanning v, then a < b."""
    best, best_gain = None, 1e-15
    for v in sorted(members):
        rest = members - {v}
        cand = [u for u in range(g.node_count) if u not in members
                and all(g.has_edge(u, m) for m in rest)]
        for a, b in combinations(cand, 2):
            gain = g.weights[a] + g.weights[b] - g.weights[v]
            if g.has_edge(a, b) and gain > best_gain:
                best, best_gain = (v, a, b), gain
    return best


def rows_of(n, node_sets):
    rows = np.zeros((len(node_sets), n), dtype=bool)
    for k, nodes in enumerate(node_sets):
        rows[k, list(nodes)] = True
    return rows


def integer_weight_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_pairs(n, pairs, rng.integers(1, 4, n).astype(float))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_property_shrink_batch_matches_reference(seed, integer_weights):
    n = 11
    g = (integer_weight_graph if integer_weights else random_graph)(n, 0.5, seed)
    rng = np.random.default_rng(seed)
    node_sets = [np.flatnonzero(rng.random(n) < rng.random()) for _ in range(12)]
    node_sets += [(), bron_kerbosch(g)[0].nodes, (int(rng.integers(n)),)]
    out = shrink_batch(g, rows_of(n, node_sets))
    for row, nodes in zip(out, node_sets):
        assert tuple(np.flatnonzero(row)) == reference_shrink(g, nodes)
        assert greedy_shrink(g, nodes).nodes == reference_shrink(g, nodes)


def test_swap_step_matches_reference_with_ties():
    for seed in range(30):
        g = integer_weight_graph(9, 0.6, seed) if seed % 2 else random_graph(9, 0.6, seed)
        maximal = [set(c.nodes) for c in bron_kerbosch(g)]
        rows = rows_of(9, maximal)
        adj = rows_of(9, [g.neighbors(u) for u in range(9)]).astype(float)
        found = cliques._swap(adj, g.weights, rows, np.arange(len(rows)), rows @ adj)
        for row, hit, members in zip(rows, found, maximal):
            swap = reference_best_swap(g, members)
            assert hit == (swap is not None)
            want = members if swap is None else members - {swap[0]} | set(swap[1:])
            assert set(np.flatnonzero(row)) == want


def test_swap_tie_goes_to_smallest_dropped_node():
    # from the maximal {0, 1}, dropping 1 for (2, 3) and dropping 0 for (4, 5)
    # gain the same; the tie goes to the smaller dropped node, 0
    g = graph_from_pairs(6, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    assert local_search(g, Clique.of(g, (0, 1)), iterations=1, seed=0).nodes == (1, 4, 5)


def test_search_batch_rows_are_cliques_monotone_and_seeded():
    for seed in range(6):
        g = random_graph(16, 0.45, seed)
        rng = np.random.default_rng(seed)
        starts = shrink_batch(g, rng.random((40, 16)) < 0.4)
        out = search_batch(g, starts, 20, spawn_rng(seed, STREAM_LOCAL_SEARCH))
        again = search_batch(g, starts, 20, spawn_rng(seed, STREAM_LOCAL_SEARCH))
        assert np.array_equal(out, again)
        for row, start in zip(out, starts):
            assert independent_is_clique(g, np.flatnonzero(row))
            assert g.weights[row].sum() >= g.weights[start].sum() - 1e-12


def test_search_batch_rejects_non_clique_rows():
    g = graph_from_pairs(3, [(0, 1)])
    with pytest.raises(ValidationError, match="cliques"):
        search_batch(g, rows_of(3, [(0, 2)]), 1, np.random.default_rng(0))


def test_zero_weight_edge_is_an_edge():
    # the (1, 2) edge has weight 0 in the adjacency matrix but is still an edge
    g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], edge_weights=[1.0, 1.0, 0.0])
    assert greedy_shrink(g, (0, 1, 2)).nodes == (0, 1, 2)
    assert local_search(g, Clique.of(g, (1, 2)), iterations=3, seed=0).nodes == (0, 1, 2)
    samples = [as_pattern({1, 2}, 3)] * 4
    report = run_pipeline(g, samples, min_photons=1, iterations=3, seed=0)
    assert report.frequency((0, 1, 2), "gbs") == pytest.approx(1.0)


def test_negative_iterations_rejected():
    g = planted_graph()
    with pytest.raises(ValidationError, match="iterations"):
        local_search(g, Clique.of(g, (0, 1)), iterations=-1, seed=0)
    with pytest.raises(ValidationError, match="iterations"):
        run_pipeline(g, [as_pattern({0, 1, 2}, 6)], min_photons=1, iterations=-3, seed=0)


# ---------------------------------------------------------------------------
# exact oracles against networkx


def test_exact_oracles_match_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        g = integer_weight_graph(n, rng.uniform(0.2, 0.8), seed)
        h = nx.Graph()
        h.add_nodes_from((i, {"weight": int(w)}) for i, w in enumerate(g.weights))
        h.add_edges_from(g.edges)
        want = {tuple(sorted(c)) for c in nx.find_cliques(h)}
        assert {c.nodes for c in bron_kerbosch(g)} == want
        _, weight = nx.max_weight_clique(h, weight="weight")
        assert max_weight_clique(g).weight == weight
