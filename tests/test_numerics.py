import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbs_toolkit.errors import ValidationError
from gbs_toolkit.numerics import (
    hafnian,
    hafnian_batch,
    hafnian_by_matchings,
    perfect_matchings,
    random_unitary,
    takagi,
    unitarity_deviation,
)


def random_symmetric(dim, seed, complex_entries=True):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (dim, dim))
    if complex_entries:
        m = m + 1j * rng.uniform(-1, 1, (dim, dim))
    return (m + m.T) / 2


# ---------------------------------------------------------------------------
# Takagi


def test_takagi_identity():
    u, lam = takagi(np.eye(2))
    assert np.allclose(lam, [1.0, 1.0])
    assert np.allclose(u @ u.T, np.eye(2))


def test_takagi_offdiagonal_pair():
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    u, lam = takagi(b)
    assert np.allclose(lam, [1.0, 1.0])
    assert np.max(np.abs(u @ np.diag(lam) @ u.T - b)) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_takagi_random_real_reconstruction(seed):
    b = random_symmetric(6, seed, complex_entries=False)
    u, lam = takagi(b)
    assert np.max(np.abs(u @ np.diag(lam) @ u.T - b)) <= 1e-10
    assert unitarity_deviation(u) <= 1e-10
    assert np.all(np.diff(lam) <= 1e-15)
    assert np.all(lam >= 0)


@pytest.mark.parametrize("seed", range(6))
def test_takagi_random_complex_reconstruction(seed):
    b = random_symmetric(5, seed, complex_entries=True)
    u, lam = takagi(b)
    assert np.max(np.abs(u @ np.diag(lam) @ u.T - b)) <= 1e-10
    assert unitarity_deviation(u) <= 1e-10


def test_takagi_degenerate_complex_spectrum():
    # scaled unitary congruence of a degenerate diagonal keeps singular values equal
    rng = np.random.default_rng(3)
    w = random_unitary(4, 17)
    b = w @ np.diag([0.7, 0.7, 0.7, 0.2]) @ w.T
    u, lam = takagi(b)
    assert np.allclose(sorted(lam, reverse=True), [0.7, 0.7, 0.7, 0.2], atol=1e-10)
    assert np.max(np.abs(u @ np.diag(lam) @ u.T - b)) <= 1e-9


def test_takagi_values_match_singular_values():
    b = random_symmetric(7, 11)
    _, lam = takagi(b)
    sv = np.linalg.svd(b, compute_uv=False)
    assert np.allclose(lam, sv, atol=1e-10)


def test_takagi_rejects_asymmetric():
    with pytest.raises(ValidationError):
        takagi(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_takagi_rejects_nonfinite():
    with pytest.raises(ValidationError):
        takagi(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Hafnian


def test_hafnian_empty_matrix():
    assert hafnian(np.zeros((0, 0))) == 1.0


def test_hafnian_odd_dimension_is_zero():
    assert hafnian(random_symmetric(3, 0)) == 0.0
    assert hafnian(random_symmetric(5, 1)) == 0.0


def test_hafnian_2x2_is_offdiagonal():
    m = np.array([[2.0, 3.5], [3.5, -1.0]])
    assert np.isclose(hafnian(m), 3.5)


def test_hafnian_k4_all_ones():
    assert np.isclose(hafnian(np.ones((4, 4))), 3.0)


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("seed", [0, 1])
def test_hafnian_matches_matching_oracle(dim, seed):
    m = random_symmetric(dim, seed)
    fast = hafnian(m)
    slow = hafnian_by_matchings(m)
    assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


def test_hafnian_scaling_law():
    m = random_symmetric(6, 5)
    c = 1.7 - 0.3j
    assert np.isclose(hafnian(c * m), c ** 3 * hafnian(m))


def test_hafnian_block_diagonal_multiplicative():
    a = random_symmetric(4, 2)
    b = random_symmetric(4, 3)
    blk = np.zeros((8, 8), dtype=complex)
    blk[:4, :4] = a
    blk[4:, 4:] = b
    assert np.isclose(hafnian(blk), hafnian(a) * hafnian(b))


def test_hafnian_rejects_nonfinite():
    m = np.full((2, 2), np.inf)
    with pytest.raises(ValidationError):
        hafnian(m)


def test_perfect_matchings_counts():
    assert len(perfect_matchings(2)) == 1
    assert len(perfect_matchings(4)) == 3
    assert len(perfect_matchings(6)) == 15
    assert perfect_matchings(3) == ()


# ---------------------------------------------------------------------------
# Haar unitaries


def test_random_unitary_dim1_unit_modulus():
    u = random_unitary(1, 99)
    assert u.shape == (1, 1)
    assert np.isclose(abs(u[0, 0]), 1.0)


def test_random_unitary_is_unitary():
    u = random_unitary(8, 42)
    assert unitarity_deviation(u) <= 1e-12


def test_random_unitary_deterministic():
    a = random_unitary(6, 7)
    b = random_unitary(6, 7)
    assert np.array_equal(a, b)


def test_random_unitary_seed_changes_output():
    assert not np.allclose(random_unitary(4, 1), random_unitary(4, 2))


def test_random_unitary_rejects_dim_zero():
    with pytest.raises(ValidationError):
        random_unitary(0, 1)


# ---------------------------------------------------------------------------
# Property tests


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 63 - 1), st.integers(min_value=1, max_value=12))
def test_random_unitary_always_unitary(seed, dim):
    assert unitarity_deviation(random_unitary(dim, seed)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=1, max_value=8))
def test_takagi_reconstruction_property(seed, dim):
    b = random_symmetric(dim, seed)
    u, lam = takagi(b)
    assert np.max(np.abs(u @ np.diag(lam) @ u.T - b)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=1, max_value=24),
       st.sampled_from(["generic", "degenerate", "rank-deficient", "near-deficient"]))
def test_takagi_complex_generic_degenerate_and_rank_deficient(seed, dim, kind):
    # W diag(d) W^T with W unitary has Takagi values d: repeated d and zero d
    # exercise degenerate subspaces and the null-space completion; values just
    # above LAMBDA_CLAMP have eigenvectors the embedding barely separates
    rng = np.random.default_rng(seed)
    if kind == "generic":
        b = random_symmetric(dim, seed)
    else:
        levels = rng.uniform(0.1, 1.0, 2)
        d = levels[rng.integers(0, 2, dim)]
        if kind != "degenerate":
            d[rng.random(dim) < 0.5] = 0.0 if kind == "rank-deficient" else 1e-11
        w = random_unitary(dim, seed)
        b = w @ np.diag(d) @ w.T
    u, lam = takagi(b)
    assert np.max(np.abs(u @ np.diag(lam) @ u.T - b)) <= 1e-10
    assert unitarity_deviation(u) <= 1e-10
    assert np.max(np.abs(lam - np.linalg.svd(b, compute_uv=False))) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=3))
@example(seed=0, dim=3, n=0, npat=2)
@example(seed=1, dim=4, n=5, npat=2)
@example(seed=2, dim=3, n=10, npat=2)  # repeated modes on the power-trace side
def test_hafnian_batch_matches_matching_oracle(seed, dim, n, npat):
    # both sides of the n = 8 switch from matchings to power traces
    m = random_symmetric(dim, seed)
    rows = np.random.default_rng(seed).integers(0, dim, (npat, n))
    got = hafnian_batch(m, rows)
    assert got.shape == (npat,)
    if n == 0:
        assert np.all(got == 1.0)
    if n % 2:
        assert np.all(got == 0.0)
    for h, r in zip(got, rows):
        slow = hafnian_by_matchings(m[np.ix_(r, r)])
        assert abs(h - slow) <= 1e-9 * max(1.0, abs(slow))
