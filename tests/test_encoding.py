import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbs_toolkit.encoding import (
    EncodingParams,
    GbsProgram,
    WeightedGraph,
    choose_scale,
    decode,
    default_alpha,
    encode,
    laplacian,
    omega_diagonal,
    rescale,
)
from gbs_toolkit.errors import SpectrumError, ValidationError
from gbs_toolkit.numerics import random_unitary


def triangle(weights=None):
    return WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], weights)


def path2():
    return WeightedGraph.from_edges(2, [(0, 1)])


def random_graph(n, p, seed, weighted=True):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    weights = rng.uniform(0.0, 1.0, n) if weighted else None
    return WeightedGraph.from_edges(n, edges, weights)


# ---------------------------------------------------------------------------
# WeightedGraph validation


def test_graph_rejects_self_loop():
    with pytest.raises(ValidationError):
        WeightedGraph.from_edges(2, [(0, 0)])


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValidationError):
        WeightedGraph.from_edges(2, [(0, 2)])


def test_graph_rejects_negative_weight():
    with pytest.raises(ValidationError):
        WeightedGraph.from_edges(2, [(0, 1)], weights=[1.0, -0.1])


def test_graph_normalizes_edge_order():
    g = WeightedGraph.from_edges(3, [(2, 0)])
    assert g.edges == ((0, 2),)
    assert g.has_edge(0, 2) and g.has_edge(2, 0)


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_edgeless_is_zero():
    g = WeightedGraph.from_edges(3, [])
    assert np.array_equal(laplacian(g), np.zeros((3, 3)))


def test_laplacian_triangle_spectrum():
    lap = laplacian(triangle())
    expected = np.diag([2.0, 2.0, 2.0]) - (np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(lap, expected)
    assert np.allclose(sorted(np.linalg.eigvalsh(lap)), [0.0, 3.0, 3.0])


def test_laplacian_path():
    assert np.array_equal(laplacian(path2()), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_row_sums_zero():
    lap = laplacian(random_graph(8, 0.4, 1))
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.min(np.linalg.eigvalsh(lap)) >= -1e-10


# ---------------------------------------------------------------------------
# rescale / choose_scale


def test_rescale_alpha_zero_is_c_squared_times_k():
    g = triangle()
    p = EncodingParams(c=0.3, alpha=0.0)
    assert np.allclose(rescale(g, p), 0.09 * laplacian(g))


def test_rescale_triangle_target_spectrum():
    g = triangle()
    p = EncodingParams(c=np.sqrt(1 / 6), alpha=0.0)
    eigs = sorted(np.linalg.eigvalsh(rescale(g, p)))
    assert np.allclose(eigs, [0.0, 0.5, 0.5])


def test_rescale_single_node_zero():
    g = WeightedGraph.from_edges(1, [])
    assert np.array_equal(rescale(g, EncodingParams()), np.zeros((1, 1)))


def test_rescale_rejects_nonpositive_omega():
    g = triangle([1.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        rescale(g, EncodingParams(c=1.0, alpha=-0.6))


def test_choose_scale_triangle():
    p = choose_scale(triangle(), alpha=0.0, target_max_eig=0.5)
    assert np.isclose(p.c, np.sqrt(0.5 / 3.0))
    lam_max = np.max(np.abs(np.linalg.eigvalsh(rescale(triangle(), p))))
    assert abs(lam_max - 0.5) <= 1e-9


def test_choose_scale_path():
    p = choose_scale(path2(), alpha=0.0, target_max_eig=0.5)
    assert np.isclose(p.c, 0.5)


def test_choose_scale_edgeless():
    g = WeightedGraph.from_edges(4, [])
    p = choose_scale(g, alpha=0.0, target_max_eig=0.5)
    assert p.c == 1.0
    assert np.allclose(np.linalg.eigvalsh(rescale(g, p)), 0.0)


def test_choose_scale_rejects_bad_target():
    with pytest.raises(ValidationError):
        choose_scale(triangle(), target_max_eig=1.0)


def test_alpha_monotonicity_on_omega():
    g = triangle([0.0, 0.5, 2.0])
    base = omega_diagonal(g, 1.0, 0.1)
    bumped = omega_diagonal(g, 1.0, 0.2)
    ratio = bumped / base
    assert ratio[0] == 1.0  # weight-zero node unchanged
    assert np.all(ratio[1:] > 1.0)
    assert ratio[2] > ratio[1]


def test_default_alpha():
    assert default_alpha(triangle()) == 0.0
    assert default_alpha(triangle([1.0, 2.0, 3.0])) == 0.1


# ---------------------------------------------------------------------------
# encode


def test_encode_zero_matrix_gives_vacuum_program():
    prog = encode(np.zeros((3, 3)))
    assert np.array_equal(prog.squeezing, np.zeros(3))


def test_encode_known_takagi_values():
    u = random_unitary(3, 5)
    b = u @ np.diag([0.5, 0.5, 0.0]) @ u.T
    prog = encode(b)
    expected = np.arctanh(0.5)
    assert np.allclose(sorted(prog.squeezing, reverse=True),
                       [expected, expected, 0.0], atol=1e-10)
    assert np.isclose(expected, 0.5493, atol=5e-5)


def test_encode_fig1b_regime_tanh():
    # four squeezers at r = 2.23 land at tanh(r) ~ 0.9771
    lam = np.tanh(2.23)
    assert np.isclose(lam, 0.9771, atol=5e-5)
    u = random_unitary(6, 8)
    b = u @ np.diag([lam] * 4 + [0.0, 0.0]) @ u.T
    prog = encode(b)
    assert np.allclose(sorted(prog.squeezing, reverse=True)[:4], [2.23] * 4, atol=1e-9)


def test_encode_rejects_spectrum_at_one():
    u = random_unitary(2, 3)
    b = u @ np.diag([1.0, 0.2]) @ u.T
    with pytest.raises(SpectrumError, match="1"):
        encode(b)


def test_encode_decode_round_trip():
    g = random_graph(7, 0.5, 3)
    p = choose_scale(g, alpha=0.1, target_max_eig=0.8)
    b = rescale(g, p)
    prog = encode(b)
    assert np.max(np.abs(decode(prog) - b)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=10),
       st.floats(min_value=0.1, max_value=0.95))
def test_spectrum_safety_property(seed, n, target):
    g = random_graph(n, 0.5, seed)
    p = choose_scale(g, alpha=default_alpha(g), target_max_eig=target)
    b = rescale(g, p)
    prog = encode(b)  # must not raise
    assert np.all(np.tanh(prog.squeezing) < 1.0)
    assert np.max(np.abs(decode(prog) - b)) <= 1e-9


def test_gbs_program_direct_construction():
    u = random_unitary(4, 11)
    prog = GbsProgram.from_squeezing([2.23, 0.0, 1.0, 0.5], u)
    assert prog.mode_count == 4
    assert np.array_equal(prog.loss, np.ones(4))


def test_gbs_program_rejects_bad_loss():
    u = random_unitary(2, 1)
    with pytest.raises(ValidationError):
        GbsProgram.from_squeezing([0.1, 0.1], u, loss=[0.5, 1.2])
    with pytest.raises(ValidationError):  # a program file's "loss": [null, 1.0]
        GbsProgram.from_squeezing([0.1, 0.1], u, loss=[np.nan, 1.0])
