"""Checks of the truncated Fock-space oracle and of the package's Poisson window."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import fock_oracles as fs
from yzero.detection import truncation_dim


def poisson_tail(s: float, n_max: int) -> float:
    """Independent tail mass P[n > n_max] for Poisson(s), summed upward."""
    n = n_max + 1
    term = math.exp(-s + n * math.log(s) - math.lgamma(n + 1)) if s > 0 else 0.0
    total = 0.0
    while term > 1e-300 and (total == 0.0 or term > total * 1e-18):
        total += term
        n += 1
        term *= s / n
    return total


def test_truncation_dim_vacuum_needs_one_level():
    assert truncation_dim(0.0, 1e-12) == 1


@pytest.mark.parametrize("s,tol", [(4.0, 1e-10), (25.0, 1e-10), (1.0, 1e-12)])
def test_truncation_dim_matches_tail_summation(s, tol):
    d = truncation_dim(s, tol)
    assert poisson_tail(s, d - 1) < tol
    # minimality: one level fewer leaves too much tail
    assert poisson_tail(s, d - 2) >= tol


def test_truncation_dim_monotone_in_energy():
    dims = [truncation_dim(s, 1e-10) for s in (0.5, 2.0, 8.0, 32.0, 128.0)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_truncation_dim_rejects_bad_args():
    with pytest.raises(ValueError):
        truncation_dim(4.0, 0.0)
    with pytest.raises(ValueError):
        truncation_dim(4.0, 1.0)
    with pytest.raises(ValueError):
        truncation_dim(-1.0, 1e-10)


def test_coherent_overlap_closed_forms():
    npt.assert_allclose(fs.coherent_overlap(2 + 0j, 2 + 0j), 1.0, atol=1e-15)
    npt.assert_allclose(fs.coherent_overlap(0j, 1 + 0j), math.exp(-0.5), rtol=1e-14)
    npt.assert_allclose(fs.coherent_overlap(1 + 0j, -1 + 0j), math.exp(-2.0), rtol=1e-14)


def test_overlap_magnitude_bounded_and_conjugate_symmetric():
    rng = np.random.default_rng(101)
    for _ in range(40):
        a, b = (rng.normal(0, 1.5) + 1j * rng.normal(0, 1.5) for _ in range(2))
        ov = fs.coherent_overlap(a, b)
        assert abs(ov) <= 1.0 + 1e-12
        npt.assert_allclose(ov, np.conj(fs.coherent_overlap(b, a)), rtol=1e-12)


def test_complex_amplitude_polar_and_energy():
    a = fs.ComplexAmplitude.from_polar(2.0, math.pi / 3)
    npt.assert_allclose(a.energy, 4.0, rtol=1e-14)
    npt.assert_allclose(a.phase, math.pi / 3, rtol=1e-14)
    with pytest.raises(ValueError):
        fs.ComplexAmplitude.from_polar(-1.0, 0.0)
    with pytest.raises(ValueError):
        fs.ComplexAmplitude(math.inf, 0.0)


def test_coherent_fock_vacuum_is_unit_vector():
    v = fs.coherent_fock(0j, 4)
    npt.assert_array_equal(v.coeffs, np.array([1, 0, 0, 0], dtype=complex))


def test_coherent_fock_explicit_small_coefficients():
    z = 1.3 + 0.4j
    v = fs.coherent_fock(z, 6)
    pref = math.exp(-0.5 * abs(z) ** 2)
    for n in range(6):
        expected = pref * z**n / math.sqrt(math.factorial(n))
        npt.assert_allclose(v.coeffs[n], expected, rtol=1e-13)


def test_coherent_fock_norm_deficit_equals_poisson_tail():
    for s in (1.0, 4.0, 9.0):
        dim = truncation_dim(s, 1e-8)
        v = fs.coherent_fock(math.sqrt(s) + 0j, dim)
        deficit = 1.0 - v.norm() ** 2
        npt.assert_allclose(deficit, poisson_tail(s, dim - 1), rtol=1e-6, atol=1e-15)


def test_truncated_inner_product_tracks_analytic_overlap():
    # at tail tolerance 1e-12 the numerical inner product must agree to 1e-9
    rng = np.random.default_rng(77)
    dim = truncation_dim(9.0, 1e-12)
    for _ in range(25):
        a = rng.uniform(0, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        b = rng.uniform(0, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        va, vb = fs.coherent_fock(a, dim), fs.coherent_fock(b, dim)
        npt.assert_allclose(va.inner(vb), fs.coherent_overlap(a, b),
                            rtol=0, atol=1e-9)


def test_density_single_state_is_projector():
    dim = truncation_dim(1.0, 1e-12)
    rho = fs.density_from_ensemble([fs.coherent_fock(1 + 0j, dim)], [1.0])
    rho.validate()
    npt.assert_allclose(np.trace(rho.entries @ rho.entries).real, 1.0, atol=1e-12)


def test_density_from_ensemble_rejections():
    dim = 8
    v = fs.coherent_fock(0.5 + 0j, dim)
    w = fs.coherent_fock(0.5 + 0j, dim + 1)
    with pytest.raises(ValueError):
        fs.density_from_ensemble([v, v], [0.5, 0.6])
    with pytest.raises(ValueError):
        fs.density_from_ensemble([v, v], [1.5, -0.5])
    with pytest.raises(ValueError):
        fs.density_from_ensemble([v, w], [0.5, 0.5])
    with pytest.raises(ValueError):
        fs.density_from_ensemble([], [])


def two_state_mixture_eigs(p: float, kappa2: float) -> "tuple[float, float]":
    """Nonzero spectrum of p|a><a| + (1-p)|b><b| from the 2x2 Gram construction."""
    disc = math.sqrt(1.0 - 4.0 * p * (1.0 - p) * (1.0 - kappa2))
    return (1.0 - disc) / 2.0, (1.0 + disc) / 2.0


def test_two_state_density_eigenvalues_match_gram_oracle():
    rng = np.random.default_rng(5150)
    dim = truncation_dim(9.0, 1e-13)
    for _ in range(10):
        a = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        b = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        p = rng.uniform(0.05, 0.95)
        rho = fs.density_from_ensemble(
            [fs.coherent_fock(a, dim), fs.coherent_fock(b, dim)], [p, 1.0 - p])
        w, _ = fs.hermitian_eig(rho)
        lo, hi = two_state_mixture_eigs(p, abs(fs.coherent_overlap(a, b)) ** 2)
        npt.assert_allclose(w[-1], hi, atol=1e-10)
        npt.assert_allclose(w[-2], lo, atol=1e-10)
        assert np.all(np.abs(w[:-2]) < 1e-10)


def test_antipodal_large_alpha_mixture_is_nearly_degenerate():
    dim = truncation_dim(16.0, 1e-12)
    states = [fs.coherent_fock(4 + 0j, dim), fs.coherent_fock(-4 + 0j, dim)]
    rho = fs.density_from_ensemble(states, [0.5, 0.5])
    w, _ = fs.hermitian_eig(rho)
    kappa = math.exp(-2 * 16.0)
    npt.assert_allclose(w[-1], 0.5 * (1 + kappa), atol=1e-10)
    npt.assert_allclose(w[-2], 0.5 * (1 - kappa), atol=1e-10)


def test_hermitian_eig_identity_and_diag_order():
    w, _ = fs.hermitian_eig(np.eye(3, dtype=complex))
    npt.assert_allclose(w, [1, 1, 1], atol=1e-14)
    w, _ = fs.hermitian_eig(np.diag([0.7, 0.3]).astype(complex))
    npt.assert_allclose(w, [0.3, 0.7], atol=1e-14)


def test_hermitian_eig_reconstruction_residual():
    rng = np.random.default_rng(321)
    x = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    m = 0.5 * (x + x.conj().T)
    w, v = fs.hermitian_eig(m)
    recon = (v * w) @ v.conj().T
    assert np.max(np.abs(recon - m)) < 1e-8
    assert np.all(np.diff(w) >= -1e-14)


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        fs.hermitian_eig(m)
    with pytest.raises(ValueError):
        fs.trace_norm(m)


def test_trace_norm_basics():
    assert fs.trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    npt.assert_allclose(fs.trace_norm(np.diag([0.5, -0.5]).astype(complex)), 1.0,
                        atol=1e-14)


def test_trace_norm_negation_and_triangle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a, b = 0.5 * (x + x.conj().T), 0.5 * (y + y.conj().T)
        npt.assert_allclose(fs.trace_norm(a), fs.trace_norm(-a), rtol=1e-12)
        assert fs.trace_norm(a + b) <= fs.trace_norm(a) + fs.trace_norm(b) + 1e-10


def test_weighted_difference_matches_pure_helstrom_closed_form():
    # trace norm of (rho1 - rho0)/2 for antipodal unit-amplitude states must
    # reproduce the closed-form minimum error (1 - sqrt(1 - e^-4))/2
    dim = truncation_dim(1.0, 1e-13)
    r0 = fs.density_from_ensemble([fs.coherent_fock(1 + 0j, dim)], [1.0])
    r1 = fs.density_from_ensemble([fs.coherent_fock(-1 + 0j, dim)], [1.0])
    tn = fs.trace_norm(0.5 * r1.entries - 0.5 * r0.entries)
    pe = 0.5 * (1.0 - tn)
    expected = 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-4.0)))
    npt.assert_allclose(pe, expected, atol=1e-10)


def test_density_eigenvalues_stay_in_unit_range():
    rng = np.random.default_rng(42)
    dim = truncation_dim(4.0, 1e-10)
    states = [fs.coherent_fock(rng.normal(0, 1) + 1j * rng.normal(0, 1), dim)
              for _ in range(6)]
    probs = rng.uniform(0.1, 1.0, 6)
    probs /= probs.sum()
    rho = fs.density_from_ensemble(states, probs)
    w, _ = fs.hermitian_eig(rho)
    assert w[0] >= -1e-9 and w[-1] <= 1 + 1e-9
