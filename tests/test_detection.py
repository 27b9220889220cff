"""Discrimination bounds and receiver models against independent oracles."""

import math
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import codec_oracles
import detection_oracles as oracles
import fock_oracles
from yzero import codec, detection


def test_helstrom_pure_trivial_cases():
    assert detection.helstrom_pure(2 + 0j, 2 + 0j).p_error == 0.5


def test_helstrom_pure_antipodal_unit_energy():
    b = detection.helstrom_pure(1 + 0j, -1 + 0j)
    npt.assert_allclose(b.p_error, 0.004600070369588705, rtol=1e-12)
    assert b.method == "helstrom_pure"


def test_helstrom_pure_keeps_precision_when_states_nearly_coincide():
    # at M = 1, S = 6.36e-16 the form 1 - |<a0|a1>|^2 cancels to a 5e-10 error
    c = codec.Constellation(m=1, energy=6.36e-16)
    a = math.sqrt(c.energy)
    p = detection.helstrom_pure(a + 0j, -a + 0j).p_error
    assert abs(p - 0.5 * (1.0 - math.sqrt(-math.expm1(-4.0 * c.energy)))) < 1e-15
    assert abs(p - detection.bit_bound(c).p_error) < 1e-15


@pytest.mark.parametrize("s", [8.0, 9.0, 9.2, 10.0, 20.0])
def test_helstrom_pure_keeps_precision_when_states_are_far_apart(s):
    # antipodal states at energy S: the error is exp(-4S)/4 to a relative
    # exp(-4S)/4, far below the asserted 1e-12; 0.5 (1 - sqrt(arg)) loses
    # every digit by S = 9.2
    a = math.sqrt(s)
    p = detection.helstrom_pure(a + 0j, -a + 0j).p_error
    want = math.exp(-4.0 * s) / 4.0
    assert abs(p - want) <= 1e-12 * want


def test_helstrom_mixed_agrees_with_pure_closed_form():
    # rank-one density inputs must land on the closed form to 1e-9
    rng = np.random.default_rng(314)
    for _ in range(25):
        a = rng.uniform(0, 2.2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        b = rng.uniform(0, 2.2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        p0 = rng.uniform(0.1, 0.9)
        dim = detection.truncation_dim(max(abs(a), abs(b)) ** 2, 1e-13)
        rho0 = fock_oracles.density_from_ensemble([fock_oracles.coherent_fock(a, dim)], [1.0])
        rho1 = fock_oracles.density_from_ensemble([fock_oracles.coherent_fock(b, dim)], [1.0])
        got = fock_oracles.helstrom_mixed(rho0, rho1, p0=p0).p_error
        npt.assert_allclose(got, oracles.pure_pair_error(a, b, p0=p0), atol=1e-9)
        got = fock_oracles.helstrom_mixed(rho0, rho1).p_error
        npt.assert_allclose(got, detection.helstrom_pure(a, b).p_error, atol=1e-9)


def test_helstrom_mixed_rejects_dimension_mismatch():
    r = fock_oracles.density_from_ensemble([fock_oracles.coherent_fock(0j, 4)], [1.0])
    s = fock_oracles.density_from_ensemble([fock_oracles.coherent_fock(0j, 5)], [1.0])
    with pytest.raises(ValueError):
        fock_oracles.helstrom_mixed(r, s)


TAIL_ENERGIES = [0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                 300.0, 500.0, 1000.0, 2000.0, 5000.0]


@pytest.mark.parametrize("s", TAIL_ENERGIES)
def test_truncation_dim_matches_pdtrc_scan(s):
    for tol in (1e-6, 1e-12, 2.0**-106, 1e-300):
        assert detection.truncation_dim(s, tol) == oracles.pdtrc_truncation_dim(s, tol)


@pytest.mark.parametrize("s", TAIL_ENERGIES)
def test_poisson_pmf_matches_gammaln_form(s):
    # both forms are exact to the rounding of the exponent k ln S - ln k! - S,
    # whose size sets the relative gap between them
    size = int(s + 40.0 * math.sqrt(s + 1.0) + 80.0)
    got = detection._poisson_pmf(s, size)
    want = oracles.scipy_poisson_pmf(s, size)
    k = np.arange(size)
    exponent = k * abs(math.log(s)) if s > 0 else 0.0
    scale = exponent + np.array([math.lgamma(j + 1.0) for j in k]) + s
    assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * (1.0 + scale) * want)


def test_log_factorial_table_grows_safely_across_threads(monkeypatch):
    # more threads than cores, a short switch interval, and a table reset to
    # one entry, so that growth races between threads
    monkeypatch.setattr(detection, "_LOG_FACTORIAL", np.zeros(1))
    want = np.array([math.lgamma(k + 1.0) for k in range(4096)])
    bad = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for size in rng.integers(1, 4096, 200):
            if not np.array_equal(detection._log_factorials(int(size)), want[:size]):
                bad.append(int(size))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_bit_bound_scrambled_pairs_are_unreadable():
    # the weights are exactly zero, so every mode is dropped
    for m in (4, 16):
        c = codec.Constellation(m=m, energy=5.0, osk=True)
        b = detection.bit_bound(c)
        assert b.p_error == 0.5
        assert b.dim_used == 0


BOUNDS_GRID_M = [2**j for j in range(1, 10)]
BOUNDS_GRID_S = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0]


def assert_full_matrix_route(b, want):
    p, kept = want
    assert abs(b.p_error - p) <= 1e-14
    assert b.dim_used == kept


@pytest.mark.parametrize("m", BOUNDS_GRID_M)
def test_half_size_svd_matches_the_full_matrix_route_on_the_bounds_grid(m):
    for s in BOUNDS_GRID_S:
        c = codec.Constellation(m=m, energy=s)
        assert_full_matrix_route(detection.bit_bound(c), oracles.eigvalsh_bit_bound(c))
        assert_full_matrix_route(detection.updown_bound(c), oracles.eigvalsh_updown_bound(c))


def test_bit_bound_gram_and_fock_routes_agree():
    for m in (8, 32):
        for s in (1.0, 4.0):
            c = codec.Constellation(m=m, energy=s)
            p = detection.bit_bound(c).p_error
            assert abs(p - oracles.fock_bit_bound(c)) < 1e-8
            assert abs(p - oracles.gram_bit_bound(c)) < 1e-8


def test_bit_bound_grows_with_constellation_size():
    vals = [detection.bit_bound(codec.Constellation(m=m, energy=1.0)).p_error
            for m in (8, 16, 32, 64, 128, 256)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 0.45


def test_updown_bound_routes_agree():
    for m in (2, 8, 32):
        c = codec.Constellation(m=m, energy=6.0)
        p = detection.updown_bound(c).p_error
        assert abs(p - oracles.fock_updown_bound(c)) < 1e-8
        assert abs(p - oracles.gram_updown_bound(c)) < 1e-8


def test_updown_bound_vacuum_is_coin_flip():
    c = codec.Constellation(m=4, energy=0.0)
    p = detection.updown_bound(c).p_error
    npt.assert_allclose(p, 0.5, atol=1e-12)
    npt.assert_allclose(p, oracles.fock_updown_bound(c), atol=1e-12)


def test_updown_bound_single_pair_matches_pure_helstrom():
    c = codec.Constellation(m=1, energy=2.0)
    want = detection.helstrom_pure(math.sqrt(2) + 0j, -math.sqrt(2) + 0j).p_error
    npt.assert_allclose(detection.updown_bound(c).p_error, want, atol=1e-12)
    npt.assert_allclose(oracles.fock_updown_bound(c), want, atol=1e-9)
    npt.assert_allclose(oracles.gram_updown_bound(c), want, atol=1e-9)


def test_updown_bound_rejects_scrambling():
    with pytest.raises(ValueError):
        detection.updown_bound(codec.Constellation(m=4, energy=1.0, osk=True))


# Default-path bounds, exactly as the CLI calls them, over generated
# constellations.  M <= 32 keeps the Gram oracle at n <= 64 states.
def constellations(m=st.sampled_from([1, 2, 4, 8, 16, 32]), osk=st.booleans(),
                   energy=st.floats(0.0, 12.0)):
    return st.builds(codec.Constellation, m=m, energy=energy, osk=osk)


# Between the vacuum and S = 1e-6 both oracles lose the states: the Gram
# oracle's overlaps round toward 1 (6e-8 off at S = 1e-14), and the Fock
# oracle keeps only the vacuum once S is under its tail tolerance.  The
# one-pair closed form below covers that range.
oracle_energies = st.one_of(st.just(0.0), st.floats(1e-6, 12.0))


@settings(max_examples=60, deadline=None)
@given(c=constellations(energy=oracle_energies))
@example(c=codec.Constellation(m=16, energy=2.0))
@example(c=codec.Constellation(m=32, energy=8.0))
def test_bit_bound_matches_gram_and_fock_oracles(c):
    p = detection.bit_bound(c).p_error
    assert abs(p - oracles.gram_bit_bound(c)) < 1e-8
    assert abs(p - oracles.fock_bit_bound(c)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(c=constellations(osk=st.just(False), energy=oracle_energies))
@example(c=codec.Constellation(m=32, energy=8.0))
def test_updown_bound_matches_gram_and_fock_oracles(c):
    p = detection.updown_bound(c).p_error
    assert abs(p - oracles.gram_updown_bound(c)) < 1e-8
    assert abs(p - oracles.fock_updown_bound(c)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(c=constellations(m=st.just(1), osk=st.just(False)))
def test_single_pair_bounds_match_closed_form(c):
    a0 = c.amplitudes()[codec_oracles.encode(0, 0, 0, c).index]
    a1 = c.amplitudes()[codec_oracles.encode(1, 0, 0, c).index]
    want = oracles.pure_pair_error(a0, a1)
    assert abs(detection.bit_bound(c).p_error - want) < 1e-12
    assert abs(detection.updown_bound(c).p_error - want) < 1e-12


@settings(max_examples=60, deadline=None)
@given(c=constellations(m=st.sampled_from([2**j for j in range(10)]),
                        energy=st.floats(0.0, 300.0)))
@example(c=codec.Constellation(m=1, energy=2.0))
@example(c=codec.Constellation(m=512, energy=300.0))
def test_binary_bounds_match_the_full_matrix_route(c):
    assert_full_matrix_route(detection.bit_bound(c), oracles.eigvalsh_bit_bound(c))
    if not c.osk:
        assert_full_matrix_route(detection.updown_bound(c), oracles.eigvalsh_updown_bound(c))


@settings(max_examples=40, deadline=None)
@given(c=constellations(m=st.sampled_from([2**j for j in range(10)]),
                        energy=st.floats(0.0, 300.0)),
       p0=st.floats(0.0, 1.0).filter(lambda p: p != 0.5))
def test_helstrom_error_rejects_weights_without_the_equal_prior_symmetries(c, p0):
    # unequal priors break the half-turn symmetry
    with pytest.raises(AssertionError, match="symmetries"):
        detection._helstrom_error(c, oracles._bit_weights(c, p0))
    # the half turn alone is not enough: the reflection must hold too
    if c.m > 1:
        half = np.arange(1.0, c.m + 1.0)
        with pytest.raises(AssertionError, match="symmetries"):
            detection._helstrom_error(c, np.concatenate([half, -half]))


@settings(max_examples=40, deadline=None)
@given(c=constellations(osk=st.just(True)))
def test_scrambled_bit_bound_is_exactly_half(c):
    assert abs(detection.bit_bound(c).p_error - 0.5) < 1e-12


def test_srm_vacuum_error_is_uniform_guess():
    for m in (1, 4, 32):
        b = detection.srm_mary_error(codec.Constellation(m=m, energy=0.0))
        npt.assert_allclose(b.p_error, 1.0 - 1.0 / (2 * m), atol=1e-12)


def test_srm_single_pair_matches_helstrom():
    # for two symmetric pure states the square-root measurement is optimal
    c = codec.Constellation(m=1, energy=1.5)
    want = detection.helstrom_pure(math.sqrt(1.5) + 0j, -math.sqrt(1.5) + 0j).p_error
    npt.assert_allclose(detection.srm_mary_error(c).p_error, want, atol=1e-9)


def test_srm_dft_and_gram_sqrt_routes_agree():
    for m in (1, 2, 4, 8):
        for s in (1.0, 4.0):
            c = codec.Constellation(m=m, energy=s)
            a = detection.srm_mary_error(c)
            b = oracles.srm_mary_error_direct(c)
            assert abs(a.p_error - b.p_error) < 1e-8
            assert a.method == "srm_dft" and b.method == "srm_gram_sqrt"


def test_srm_error_bounded_by_uniform_guess():
    for m in (4, 16, 64):
        for s in (0.5, 2.0, 10.0):
            b = detection.srm_mary_error(codec.Constellation(m=m, energy=s))
            assert 0.0 <= b.p_error <= 1.0 - 1.0 / (2 * m) + 1e-12


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([2**j for j in range(10)]), s=st.floats(0.0, 300.0),
       osk=st.booleans())
@example(m=2, s=100.0, osk=False)
@example(m=4, s=100.0, osk=False)
def test_bounds_stay_in_range(m, s, osk):
    c = codec.Constellation(m=m, energy=s, osk=osk)
    assert 0.0 <= detection.bit_bound(c).p_error <= 0.5
    assert 0.0 <= detection.srm_mary_error(c).p_error <= 1.0
    if not osk:
        assert 0.0 <= detection.updown_bound(c).p_error <= 0.5


def test_heterodyne_sample_moments():
    rng = np.random.default_rng(9)
    z = detection.heterodyne_sample(1.0 + 2.0j, rng, size=200_000)
    n = 200_000
    sd = math.sqrt(0.5)
    assert abs(z.real.mean() - 1.0) < 3 * sd / math.sqrt(n)
    assert abs(z.imag.mean() - 2.0) < 3 * sd / math.sqrt(n)
    assert abs(z.real.var() - 0.5) < 3 * 0.5 * math.sqrt(2 / n)
    assert abs(z.imag.var() - 0.5) < 3 * 0.5 * math.sqrt(2 / n)


def test_antipodal_homodyne_error_closed_form():
    npt.assert_allclose(detection.antipodal_homodyne_error(4.0),
                        3.167124183311986e-05, rtol=1e-12)
    assert detection.antipodal_homodyne_error(0.0) == 0.5
    with pytest.raises(ValueError):
        detection.antipodal_homodyne_error(-1.0)


@pytest.mark.parametrize("s", [0.0, 1e-16, 1e-6, 0.1, 1.0, 4.0, 10.0, 30.0, 100.0])
def test_antipodal_homodyne_error_matches_ndtr(s):
    npt.assert_allclose(detection.antipodal_homodyne_error(s),
                        oracles.ndtr_antipodal_homodyne_error(s), rtol=1e-13, atol=0.0)


def test_antipodal_homodyne_error_matches_monte_carlo():
    rng = np.random.default_rng(11)
    s, n = 2.0, 400_000
    amp = math.sqrt(s)
    bits = rng.integers(0, 2, size=n)
    means = np.where(bits == 1, -amp, amp)
    x = means + rng.normal(0.0, 0.5, size=n)
    # decide bit 1 when the quadrature is negative
    decided = (x < 0).astype(int)
    p_hat = float(np.mean(decided != bits))
    p = detection.antipodal_homodyne_error(s)
    assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n)


def radial_phase_density(phi: float, s: float) -> float:
    """Independent oracle: integrate the circular Gaussian over the radius."""
    def f(r: float) -> float:
        return r / math.pi * math.exp(-(r * r - 2 * r * math.sqrt(s) * math.cos(phi) + s))
    val, _ = integrate.quad(f, 0.0, np.inf, limit=200)
    return val


@pytest.mark.parametrize("s", [0.5, 4.0, 25.0])
def test_phase_density_matches_radial_quadrature(s):
    for phi in np.linspace(-math.pi, math.pi, 17):
        npt.assert_allclose(detection.phase_density(float(phi), s),
                            radial_phase_density(float(phi), s), atol=1e-12)


@pytest.mark.parametrize("s", [0.0, 1e-6, 0.1, 1.0, 4.0, 10.0, 30.0, 100.0])
def test_phase_density_matches_ndtr(s):
    # relative agreement holds where the density is not a cancelling tail
    phi = np.linspace(-math.pi, math.pi, 721)
    want = oracles.ndtr_phase_density(phi, s)
    npt.assert_allclose(detection.phase_density(phi, s), want, rtol=1e-13,
                        atol=1e-15 * float(want.max()))


def test_phase_density_normalizes():
    for s in (0.0, 1.0, 9.0):
        total, _ = integrate.quad(detection.phase_density, -math.pi, math.pi,
                                  args=(s,), limit=200)
        npt.assert_allclose(total, 1.0, atol=1e-12)


def test_phase_density_vacuum_is_uniform():
    npt.assert_allclose(detection.phase_density(1.234, 0.0), 1 / (2 * math.pi),
                        rtol=1e-12)


def test_nearest_phase_index_hits_grid_points():
    c = codec.Constellation(m=8, energy=4.0)
    for j in range(16):
        z = np.exp(1j * math.pi * j / c.m)
        assert detection.nearest_phase_index(complex(z), c) == j
        # small rotations inside the wedge must not change the decision
        assert detection.nearest_phase_index(complex(z * np.exp(0.4j * math.pi / 8)), c) == j


def test_nearest_phase_index_decision_offset_shifts_wedges():
    c = codec.Constellation(m=8, energy=4.0)
    z = complex(np.exp(1j * math.pi * 3 / c.m))
    # rotating the receiver grid by a full wedge moves the decision down one
    assert detection.nearest_phase_index(z, c, decision_offset=math.pi / 8) == 2


def test_heterodyne_transition_rows_are_circulant_distributions():
    c = codec.Constellation(m=8, energy=2.0)
    t = detection.heterodyne_index_transition(c)
    n = c.n_states
    npt.assert_allclose(t.sum(axis=1), np.ones(n), atol=1e-9)
    assert np.all(t >= 0)
    for sent in range(n):
        for m in range(n):
            npt.assert_allclose(t[sent, m], t[0, (m - sent) % n], rtol=1e-12)


def test_heterodyne_transition_vacuum_is_uniform():
    c = codec.Constellation(m=4, energy=0.0)
    npt.assert_allclose(detection.heterodyne_index_transition(c),
                        np.full((8, 8), 1 / 8), atol=1e-15)


def test_heterodyne_transition_matches_monte_carlo():
    c = codec.Constellation(m=4, energy=2.0)
    t = detection.heterodyne_index_transition(c)
    rng = np.random.default_rng(23)
    n = 200_000
    sent = 3
    z = detection.heterodyne_sample(c.amplitudes()[sent], rng, size=n)
    decided = detection.nearest_phase_index(z, c)
    counts = np.bincount(decided, minlength=c.n_states)
    for m in range(c.n_states):
        p = t[sent, m]
        if p * n >= 25:
            assert abs(counts[m] / n - p) < 4 * math.sqrt(p * (1 - p) / n)
    assert 0.5 * np.abs(counts / n - t[sent]).sum() < 0.02


def test_heterodyne_transition_decision_offset_biases_neighbors():
    c = codec.Constellation(m=4, energy=4.0)
    t = detection.heterodyne_index_transition(c, decision_offset=0.3 * math.pi / 4)
    # a receiver grid rotated toward the next index must leak probability there
    assert t[0, 7] > t[0, 1]
    npt.assert_allclose(t.sum(axis=1), np.ones(c.n_states), atol=1e-9)


@pytest.mark.parametrize("m,s", [(1, 0.1), (1, 1000.0), (2, 4.0), (4, 1e4), (16, 4.0),
                                 (16, 100.0), (64, 30.0)])
def test_wedge_quadrature_matches_quad(m, s):
    c = codec.Constellation(m=m, energy=s)
    for offset in (0.0, 0.3 * math.pi / m):
        t = detection.heterodyne_index_transition(c, decision_offset=offset)
        npt.assert_allclose(t[0], oracles.quad_wedge_integrals(c, offset), rtol=0.0, atol=1e-13)


def test_wedge_quadrature_fails_past_its_panel_cap(monkeypatch):
    # a sharp density at S = 1e4 on a wide wedge needs more than 8 panels
    monkeypatch.setattr(detection, "WEDGE_PANELS_CAP", 8)
    with pytest.raises(AssertionError, match="unconverged"):
        detection.heterodyne_index_transition(codec.Constellation(m=1, energy=1e4))


def test_exponent_fit_recovers_exact_decay():
    s = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    pts = np.column_stack([s, 0.4 * np.exp(-3.0 * s)])
    fit = detection.exponent_fit(pts)
    npt.assert_allclose(fit.slope, -3.0, atol=1e-9)
    npt.assert_allclose(fit.intercept, math.log(0.4), atol=1e-9)
    npt.assert_allclose(fit.r_squared, 1.0, atol=1e-12)


def test_exponent_fit_input_validation():
    good = [(1.0, 0.1), (2.0, 0.05), (3.0, 0.02), (4.0, 0.01)]
    detection.exponent_fit(good)
    with pytest.raises(ValueError):
        detection.exponent_fit(good[:3])
    with pytest.raises(ValueError):
        detection.exponent_fit(good[:3] + [(4.0, 0.0)])
    with pytest.raises(ValueError):
        detection.exponent_fit(good[:3] + [(4.0, 0.5)])
