import math

import numpy as np
import pytest

from gbs_toolkit.encoding import GbsProgram, WeightedGraph, choose_scale, encode, rescale
from gbs_toolkit.errors import GuardError, ValidationError
from gbs_toolkit import simulator
from gbs_toolkit.numerics import hafnian, hafnian_by_matchings, random_unitary
from gbs_toolkit.simulator import (
    CapturedMassWarning,
    Distribution,
    GaussianState,
    PhotonPattern,
    empirical_distribution,
    enumerate_distribution,
    pattern_probability,
    prepare_state,
    sample,
    truncated_distribution,
    tvd,
)


def single_mode_state(tanh_r, eta=1.0):
    prog = GbsProgram.from_squeezing([np.arctanh(tanh_r)], np.eye(1, dtype=complex),
                                     loss=[eta])
    return prepare_state(prog)


def squeezed_fock_probs(tanh_r, kmax):
    """Exact single-mode squeezed-vacuum photon distribution p(2k)."""
    cosh_r = 1.0 / np.sqrt(1.0 - tanh_r ** 2)
    return {2 * k: tanh_r ** (2 * k) * math.factorial(2 * k)
            / (math.factorial(k) ** 2 * 4 ** k) / cosh_r
            for k in range(kmax + 1)}


# ---------------------------------------------------------------------------
# prepare_state


def test_vacuum_covariance():
    s = prepare_state(GbsProgram.from_squeezing([0.0, 0.0], np.eye(2, dtype=complex)))
    assert np.allclose(s.cov, np.eye(4) / 2)


def test_vacuum_invariant_under_unitary_and_loss():
    u = random_unitary(3, 4)
    s = prepare_state(GbsProgram.from_squeezing([0.0] * 3, u, loss=[0.3, 0.9, 1.0]))
    assert np.allclose(s.cov, np.eye(6) / 2, atol=1e-12)


def test_single_mode_squeezed_covariance():
    s = single_mode_state(0.5)
    assert np.allclose(np.diagonal(s.cov), [1 / 6, 3 / 2])


def test_loss_limits():
    prog_id = GbsProgram.from_squeezing([0.8], np.eye(1, dtype=complex), loss=[1.0])
    prog_dead = GbsProgram.from_squeezing([0.8], np.eye(1, dtype=complex), loss=[0.0])
    assert np.allclose(prepare_state(prog_dead).cov, np.eye(2) / 2)
    no_loss = prepare_state(GbsProgram.from_squeezing([0.8], np.eye(1, dtype=complex)))
    assert np.allclose(prepare_state(prog_id).cov, no_loss.cov)


def test_state_rejects_unphysical_covariance():
    with pytest.raises(ValidationError, match="unphysical"):
        GaussianState(np.eye(2) / 10)


# ---------------------------------------------------------------------------
# pattern_probability


def test_vacuum_zero_pattern_probability_one():
    s = prepare_state(GbsProgram.from_squeezing([0.0] * 2, np.eye(2, dtype=complex)))
    assert pattern_probability(s, PhotonPattern((0, 0))) == pytest.approx(1.0)


def test_single_mode_two_photon_probability():
    # p(2) = tanh^2 r / (2 cosh r) with cosh r = 2/sqrt(3)
    s = single_mode_state(0.5)
    assert pattern_probability(s, PhotonPattern((2,))) == pytest.approx(np.sqrt(3) / 16, abs=1e-12)
    assert np.sqrt(3) / 16 == pytest.approx(0.10825, abs=5e-6)


def test_odd_total_pure_pattern_is_zero():
    u = random_unitary(3, 2)
    s = prepare_state(GbsProgram.from_squeezing([0.4, 0.3, 0.0], u))
    assert pattern_probability(s, PhotonPattern((1, 0, 0))) <= 1e-12
    assert pattern_probability(s, PhotonPattern((1, 1, 1))) <= 1e-12


def test_two_mode_squeezed_geometric_law():
    # two equal squeezers through a phase-adjusted 50:50 splitter make a TMSS
    r = 0.7
    u = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
    s = prepare_state(GbsProgram.from_squeezing([r, r], u))
    x = np.tanh(r) ** 2
    for n in range(4):
        assert pattern_probability(s, PhotonPattern((n, n))) == pytest.approx((1 - x) * x ** n, abs=1e-12)
    assert pattern_probability(s, PhotonPattern((0, 1))) <= 1e-12


def test_lossy_single_mode_matches_binomial_thinning():
    tanh_r, eta = 0.6, 0.63
    s = single_mode_state(tanh_r, eta)
    p_in = squeezed_fock_probs(tanh_r, 60)
    for n in range(5):
        oracle = sum(math.comb(m, n) * eta ** n * (1 - eta) ** (m - n) * p
                     for m, p in p_in.items() if m >= n)
        assert pattern_probability(s, PhotonPattern((n,))) == pytest.approx(oracle, abs=1e-12)


def test_hafnian_consistency_pure_graph_program():
    # p(n) must equal |Haf(B_n)|^2 / (n! prod cosh r) computed from B directly
    g = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    params = choose_scale(g, alpha=0.0, target_max_eig=0.7)
    b = rescale(g, params)
    prog = encode(b)
    s = prepare_state(prog)
    norm = np.prod(np.cosh(prog.squeezing))
    for counts in [(1, 1, 0, 0), (1, 1, 1, 1), (2, 0, 0, 0), (2, 2, 0, 0)]:
        pat = PhotonPattern(counts)
        modes = np.repeat(np.arange(4), counts)
        bn = b[np.ix_(modes, modes)]
        nfact = np.prod([math.factorial(c) for c in counts])
        expected = abs(hafnian(bn)) ** 2 / (nfact * norm)
        got = pattern_probability(s, pat)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_pattern_too_large_guard():
    s = single_mode_state(0.5)
    with pytest.raises(GuardError, match="pattern too large"):
        pattern_probability(s, PhotonPattern((18,)))


def test_pattern_length_mismatch():
    s = single_mode_state(0.5)
    with pytest.raises(ValidationError):
        pattern_probability(s, PhotonPattern((0, 0)))


# ---------------------------------------------------------------------------
# enumerate_distribution


def test_enumerate_496_two_photon_events():
    prog = GbsProgram.from_squeezing([0.2] * 32, random_unitary(32, 1))
    d = enumerate_distribution(prepare_state(prog), 2, collision_free=True)
    assert len(d) == 496


def test_enumerate_1820_four_photon_events():
    prog = GbsProgram.from_squeezing([0.15] * 16, random_unitary(16, 2))
    d = enumerate_distribution(prepare_state(prog), 4, collision_free=True)
    assert len(d) == 1820


def test_enumerate_vacuum_all_zero():
    s = prepare_state(GbsProgram.from_squeezing([0.0] * 4, random_unitary(4, 3)))
    d = enumerate_distribution(s, 2, collision_free=True)
    assert np.allclose(d.probs, 0.0)


def test_enumerate_ordering_lexicographic():
    prog = GbsProgram.from_squeezing([0.3] * 4, random_unitary(4, 5))
    d = enumerate_distribution(prepare_state(prog), 2, collision_free=True)
    pairs = [tuple(np.nonzero(d.pattern_counts[i])[0]) for i in range(len(d))]
    assert pairs == sorted(pairs)
    assert pairs[0] == (0, 1) and pairs[1] == (0, 2)


def test_enumerate_fast_path_matches_general_kernel():
    # same sector computed with and without the pure shortcut
    prog = GbsProgram.from_squeezing([0.5, 0.4, 0.3, 0.2], random_unitary(4, 8))
    s = prepare_state(prog)
    d = enumerate_distribution(s, 2, collision_free=True)
    for i in range(len(d)):
        assert d.probs[i] == pytest.approx(pattern_probability(s, d.pattern(i)),
                                           rel=1e-9, abs=1e-15)


def test_enumerate_collision_sector_with_loss():
    prog = GbsProgram.from_squeezing([0.5, 0.3], random_unitary(2, 9), loss=[0.8, 0.6])
    s = prepare_state(prog)
    d = enumerate_distribution(s, 2, collision_free=False)
    assert len(d) == 3  # (2,0), (1,1), (0,2)
    for i in range(len(d)):
        assert d.probs[i] == pytest.approx(pattern_probability(s, d.pattern(i)),
                                           rel=1e-9, abs=1e-15)


def test_enumerate_guard_trips():
    prog = GbsProgram.from_squeezing([0.1] * 32, random_unitary(32, 4))
    s = prepare_state(prog)
    with pytest.raises(GuardError, match="guard"):
        enumerate_distribution(s, 7, collision_free=True)  # C(32,7) > 1e6


def test_truncated_distribution_guards_before_enumerating(monkeypatch):
    calls = []
    real = simulator.enumerate_distribution

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "enumerate_distribution", counting)
    s = prepare_state(GbsProgram.from_squeezing([0.1] * 40, random_unitary(40, 4)))
    with pytest.raises(GuardError, match="guard"):
        truncated_distribution(s, 6, collision_free=True)  # C(40,6) > 1e6
    assert calls == []


def test_lossy_sector_matches_matching_oracle():
    rng = np.random.default_rng(14)
    upper = np.triu(rng.random((14, 14)) < 0.5, k=1)
    g = WeightedGraph.from_edges(14, list(zip(*np.nonzero(upper))), rng.uniform(0.5, 1.5, 14))
    prog = encode(rescale(g, choose_scale(g, alpha=0.1, target_max_eig=0.9)),
                  loss=np.full(14, 0.8))
    s = prepare_state(prog)
    d = enumerate_distribution(s, 4, collision_free=True)
    kernel = simulator._state_kernel(s)
    assert len(d) == 1001
    for counts, p in zip(d.pattern_counts, d.probs):
        modes = np.nonzero(counts)[0]
        idx = np.concatenate([modes, modes + 14])
        oracle = hafnian_by_matchings(kernel.a[np.ix_(idx, idx)]).real / kernel.sqrt_det_q
        assert abs(p - oracle) <= 1e-10 * oracle


def test_lossy_probability_checks_guard_and_clamp():
    kernel = simulator._state_kernel(single_mode_state(0.5, eta=0.7))
    assert not kernel.pure
    norm = kernel.sqrt_det_q
    with pytest.raises(GuardError, match="imaginary residue"):
        simulator._probabilities(kernel, np.array([0.1, 0.1 + 1e-3j]) * norm, 1.0, "t")
    with pytest.raises(GuardError, match="negative probability"):
        simulator._probabilities(kernel, np.array([0.1, -1e-6]) * norm, 1.0, "t")
    p = simulator._probabilities(kernel, np.array([0.1, -1e-14 + 0j]) * norm, 1.0, "t")
    assert p[0] == pytest.approx(0.1) and p[1] == 0.0


def test_captured_mass_partial_sums_single_mode():
    # exact partial sums of the closed-form photon distribution
    for tanh_r in (0.5, 0.8):
        s = single_mode_state(tanh_r)
        exact = squeezed_fock_probs(tanh_r, 6)
        for k in range(0, 13):
            d = enumerate_distribution(s, k)
            expected = exact.get(k, 0.0)
            assert d.captured_mass == pytest.approx(expected, abs=1e-12)


def test_captured_mass_cutoff12_bound():
    # truncation captures the documented mass: ~0.9860 at tanh r = 0.8,
    # >= 0.999 for tanh r <= 0.6
    total_08 = sum(enumerate_distribution(single_mode_state(0.8), k).captured_mass
                   for k in range(13))
    exact_08 = sum(squeezed_fock_probs(0.8, 6).values())
    assert total_08 == pytest.approx(exact_08, abs=1e-12)
    assert total_08 > 0.985
    total_06 = sum(enumerate_distribution(single_mode_state(0.6), k).captured_mass
                   for k in range(13))
    assert total_06 >= 0.999


# ---------------------------------------------------------------------------
# sample


def test_sample_vacuum_all_zero():
    s = prepare_state(GbsProgram.from_squeezing([0.0] * 3, random_unitary(3, 1)))
    batch = sample(s, 50, max_total_photons=4, seed=0)
    assert all(p.counts == (0, 0, 0) for p in batch.patterns)
    assert batch.captured_mass == pytest.approx(1.0)


def test_sample_deterministic_per_seed():
    s = single_mode_state(0.5)
    a = sample(s, 200, max_total_photons=6, seed=123)
    b = sample(s, 200, max_total_photons=6, seed=123)
    c = sample(s, 200, max_total_photons=6, seed=124)
    assert a.patterns == b.patterns
    assert a.patterns != c.patterns


def test_sample_single_mode_empirical_p2():
    s = single_mode_state(0.5)
    n = 100_000
    batch = sample(s, n, max_total_photons=4, seed=7)
    p2_exact = np.sqrt(3) / 16 / batch.captured_mass
    freq = sum(1 for p in batch.patterns if p.counts == (2,)) / n
    sigma = np.sqrt(p2_exact * (1 - p2_exact) / n)
    assert abs(freq - p2_exact) <= 3 * sigma


def test_sample_low_captured_mass_warns():
    s = single_mode_state(0.97)
    with pytest.warns(CapturedMassWarning, match="cutoff"):
        sample(s, 10, max_total_photons=2, seed=0)


def test_sample_permutation_maps_marginals():
    perm = [2, 0, 1]
    r = np.array([0.6, 0.3, 0.1])
    u = np.eye(3, dtype=complex)
    s_a = prepare_state(GbsProgram.from_squeezing(r, u))
    s_b = prepare_state(GbsProgram.from_squeezing(r[perm], u))
    n = 40_000
    a = sample(s_a, n, max_total_photons=4, seed=5)
    b = sample(s_b, n, max_total_photons=4, seed=5)
    marg_a = np.mean([p.counts for p in a.patterns], axis=0)
    marg_b = np.mean([p.counts for p in b.patterns], axis=0)
    assert np.max(np.abs(marg_a[perm] - marg_b)) <= 0.02


def test_sample_sector_restriction():
    s = single_mode_state(0.8)
    with pytest.warns(CapturedMassWarning):
        batch = sample(s, 64, max_total_photons=4, seed=3,
                       min_total_photons=2)
    assert all(p.total in (2, 3, 4) for p in batch.patterns)


# ---------------------------------------------------------------------------
# tvd


def two_point_distribution(p0, p1):
    counts = np.array([[1, 0], [0, 1]], dtype=np.int16)
    return Distribution(counts, np.array([p0, p1]), p0 + p1)


def test_tvd_identical_zero():
    d = two_point_distribution(0.3, 0.7)
    assert tvd(d, d) == 0.0


def test_tvd_disjoint_point_masses():
    p = two_point_distribution(1.0, 0.0)
    q = two_point_distribution(0.0, 1.0)
    assert tvd(p, q) == pytest.approx(1.0)


def test_tvd_direct_formula():
    p = two_point_distribution(0.6, 0.4)
    q = two_point_distribution(0.5, 0.5)
    assert tvd(p, q) == pytest.approx(0.1)


def test_tvd_renormalizes_each_side():
    p = two_point_distribution(0.06, 0.04)  # mass 0.1
    q = two_point_distribution(0.5, 0.5)
    assert tvd(p, q) == pytest.approx(0.1)


def test_tvd_rejects_mismatched_support():
    p = two_point_distribution(0.5, 0.5)
    counts = np.array([[2, 0], [0, 1]], dtype=np.int16)
    q = Distribution(counts, np.array([0.5, 0.5]), 1.0)
    with pytest.raises(ValidationError):
        tvd(p, q)


def test_empirical_distribution_roundtrip():
    s = single_mode_state(0.5)
    exact = enumerate_distribution(s, 2)
    emp = empirical_distribution([PhotonPattern((2,))] * 10, exact)
    assert emp.probs[0] == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        empirical_distribution([PhotonPattern((4,))], exact)
