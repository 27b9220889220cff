"""Discrimination bounds and the homodyne receiver against independent oracles."""

import dataclasses
import inspect
import math
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codec_oracles
import detection_oracles as oracles
import fock_oracles
from yzero import codec, detection
from yzero.errors import RegimeCapError


def test_helstrom_pure_trivial_cases():
    assert detection.helstrom_pure(2 + 0j, 2 + 0j).p_error == 0.5


def test_helstrom_pure_antipodal_unit_energy():
    b = detection.helstrom_pure(1 + 0j, -1 + 0j)
    npt.assert_allclose(b.p_error, 0.004600070369588705, rtol=1e-12)


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


@pytest.mark.parametrize("d", [27.5, 1e154, 1.3407807929942596e154, 1.35e154, 1e308, math.inf])
def test_helstrom_pure_is_zero_where_the_squared_distance_overflows(d):
    # d ** 2 raised OverflowError past 1.34e154, which keygen energies from
    # 4.5e307 reach; the error is 0 from d ~ 27.3, where exp(-d^2) underflows
    assert detection.helstrom_pure(d / 2, -d / 2).p_error == 0.0


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


@pytest.mark.parametrize("m", [2, 64, 512])
def test_bounds_run_up_to_the_energy_cap_and_refuse_past_it(m):
    # the spectrum mass check fired on the pmf's own rounding from S ~ 1600
    for bound in (detection.bit_bound, detection.updown_bound, detection.srm_mary_error):
        assert 0.0 <= bound(codec.Constellation(m=m, energy=1000.0)).p_error <= 1.0
        with pytest.raises(RegimeCapError):
            bound(codec.Constellation(m=m, energy=1000.5))


def scrambled_bit_bound(c):
    # the shipped solver on the weights of a pairing that hands each bit to
    # both members of every pair, built by the encoder oracle
    spectrum = detection._weight_spectrum(oracles._bit_weights(c, 0.5, scramble=True))
    return detection._helstrom_error(spectrum, detection._mode_spectrum(c))


def test_bit_bound_scrambled_pairs_are_unreadable():
    # the weights are exactly zero, so every mode is dropped
    for m in (4, 16):
        b = scrambled_bit_bound(codec.Constellation(m=m, energy=5.0))
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
    # no scrambling flag reaches a bound: a constellation is its size and
    # energy alone, and the grid takes no pairing argument
    with pytest.raises(TypeError):
        detection.updown_bound(codec.Constellation(m=4, energy=1.0, osk=True))
    assert [f.name for f in dataclasses.fields(codec.Constellation)] == ["m", "energy"]
    assert list(inspect.signature(detection.bound_grid).parameters) == \
        ["m_grid", "energies", "methods"]


# Default-path bounds, exactly as the CLI calls them, over generated
# constellations.  M <= 32 keeps the Gram oracle at n <= 64 states.
def constellations(m=st.sampled_from([1, 2, 4, 8, 16, 32]), energy=st.floats(0.0, 12.0)):
    return st.builds(codec.Constellation, m=m, energy=energy)


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
@given(c=constellations(energy=oracle_energies))
@example(c=codec.Constellation(m=32, energy=8.0))
def test_updown_bound_matches_gram_and_fock_oracles(c):
    p = detection.updown_bound(c).p_error
    assert abs(p - oracles.gram_updown_bound(c)) < 1e-8
    assert abs(p - oracles.fock_updown_bound(c)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(c=constellations(m=st.just(1)))
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
    assert_full_matrix_route(detection.updown_bound(c), oracles.eigvalsh_updown_bound(c))


@settings(max_examples=40, deadline=None)
@given(c=constellations(m=st.sampled_from([2**j for j in range(10)]),
                        energy=st.floats(0.0, 300.0)),
       p0=st.floats(0.0, 1.0).filter(lambda p: p != 0.5))
def test_weight_spectrum_rejects_weights_without_the_equal_prior_symmetries(c, p0):
    # unequal priors break the half-turn symmetry
    with pytest.raises(AssertionError, match="symmetries"):
        detection._weight_spectrum(oracles._bit_weights(c, p0))
    # the half turn alone is not enough: the reflection must hold too
    if c.m > 1:
        half = np.arange(1.0, c.m + 1.0)
        with pytest.raises(AssertionError, match="symmetries"):
            detection._weight_spectrum(np.concatenate([half, -half]))


@settings(max_examples=40, deadline=None)
@given(c=constellations())
def test_scrambled_bit_bound_is_exactly_half(c):
    assert abs(scrambled_bit_bound(c).p_error - 0.5) < 1e-12


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


def test_srm_error_bounded_by_uniform_guess():
    for m in (4, 16, 64):
        for s in (0.5, 2.0, 10.0):
            b = detection.srm_mary_error(codec.Constellation(m=m, energy=s))
            assert 0.0 <= b.p_error <= 1.0 - 1.0 / (2 * m) + 1e-12


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([2**j for j in range(10)]), s=st.floats(0.0, 300.0))
@example(m=2, s=100.0)
@example(m=4, s=100.0)
def test_bounds_stay_in_range(m, s):
    c = codec.Constellation(m=m, energy=s)
    assert 0.0 <= detection.bit_bound(c).p_error <= 0.5
    assert 0.0 <= detection.srm_mary_error(c).p_error <= 1.0
    assert 0.0 <= detection.updown_bound(c).p_error <= 0.5


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
    # four points at one energy fix no slope
    with pytest.raises(ValueError, match="two distinct energies"):
        detection.exponent_fit([(2.0, p) for _, p in good])


def test_keygen_zero_energy_gives_no_advantage():
    pt = detection.keygen_advantage([0.0])[0]
    assert pt.p_error_bob == 0.5
    assert pt.p_error_eve == 0.5
    assert pt.advantage_bits == 0.0


def test_keygen_points_recompute_from_closed_forms():
    for pt in detection.keygen_advantage([0.5, 1.0, 2.0, 4.0]):
        a = math.sqrt(pt.s)
        npt.assert_allclose(pt.p_error_bob, detection.helstrom_pure(a, -a).p_error, rtol=1e-12)
        npt.assert_allclose(pt.p_error_eve, detection.antipodal_homodyne_error(pt.s),
                            rtol=1e-12)
        npt.assert_allclose(
            pt.advantage_bits,
            detection.binary_entropy(pt.p_error_eve)
            - detection.binary_entropy(pt.p_error_bob), rtol=1e-12)
        assert pt.p_error_bob < pt.p_error_eve
        assert pt.advantage_bits > 0.0


# h2(pe_eve) - h2(pe_bob) at 80 digits, printed by this mpmath script:
#   import mpmath as m
#   m.mp.dps = 80
#   h = lambda p: -p * m.log(p, 2) - (1 - p) * m.log1p(-p) / m.log(2)
#   for s in map(m.mpf, (10, 16, 20, 30)):
#       pe_eve = m.erfc(m.sqrt(2 * s)) / 2
#       pe_bob = m.exp(-4 * s) / (2 * (1 + m.sqrt(-m.expm1(-4 * s))))
#       print(m.nstr(h(pe_eve) - h(pe_bob), 17))
@pytest.mark.parametrize("s, want", [(10.0, 4.3576671687743986e-9),
                                     (16.0, 3.2321876074693311e-14),
                                     (20.0, 1.1916471825602551e-17),
                                     (30.0, 2.9351493072787954e-26)])
def test_keygen_advantage_matches_high_precision_references(s, want):
    # a difference of two capacities near 1 read 0.0 from S = 20
    got = detection.keygen_advantage([s])[0].advantage_bits
    assert abs(got - want) <= 1e-12 * want, (got, want)


@settings(max_examples=100, deadline=None)
@given(s=st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 200.0)))
@example(s=5e-17)
def test_keygen_advantage_is_nonnegative_when_the_key_holder_errs_less(s):
    pt = detection.keygen_advantage([s])[0]
    if pt.p_error_bob <= pt.p_error_eve:
        assert pt.advantage_bits >= 0.0


@settings(max_examples=200, deadline=None)
@given(s_grid=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0), st.floats(190.0, 340.0)),
                       min_size=1, max_size=9))
# at S = 0 both errors are exactly 1/2; from S ~ 187 the key holder's is
# exactly 0.0 while the interceptor's stays positive up to S ~ 350
@example(s_grid=[0.0, 2.0, 3.0, 4.0, 5.0])
@example(s_grid=[0.0, 2.0, 4.0])
@example(s_grid=[2.0, 3.0, 4.0, 5.0, 200.0])
@example(s_grid=[2.0, 3.0, 4.0, 200.0, 300.0])
# one energy, repeated, fixes no slope; a second one does
@example(s_grid=[2.0, 2.0, 2.0, 2.0])
@example(s_grid=[2.0, 2.0, 2.0, 3.0])
def test_keygen_curve_fits_each_curve_over_the_points_a_fit_takes(s_grid):
    points, fit_bob, fit_eve, ratio = detection.keygen_curve(s_grid)
    assert points == detection.keygen_advantage(s_grid)
    kept = [[(p.s, pe) for p, pe in zip(points, errors) if 0.0 < pe < 0.5]
            for errors in ([p.p_error_bob for p in points], [p.p_error_eve for p in points])]
    if all(len(curve) >= 4 and len({s for s, _ in curve}) >= 2 for curve in kept):
        assert fit_bob == detection.exponent_fit(kept[0])
        assert fit_eve == detection.exponent_fit(kept[1])
        assert ratio == (fit_bob.slope / fit_eve.slope if fit_eve.slope != 0.0 else None)
    else:
        assert (fit_bob, fit_eve, ratio) == (None, None, None)


@pytest.mark.parametrize("q", [1e-12, 1e-8, 1e-4, 1e-2, 0.3])
def test_binary_capacity_matches_its_series(q):
    # 1 - h2((1 - q) / 2) = sum_j q^(2j) / (j (2j - 1)) / (2 ln 2), with q = 1 - 2p
    # taken from the rounded p
    for p in (0.5 * (1.0 - q), 0.5 * (1.0 + q)):
        q_p = abs(1.0 - 2.0 * p)
        want = sum(q_p ** (2 * j) / (j * (2 * j - 1)) for j in range(1, 40)) / (2.0 * math.log(2.0))
        npt.assert_allclose(detection._binary_capacity(p), want, rtol=1e-14)


def test_binary_entropy_reference_values():
    assert detection.binary_entropy(0.0) == 0.0
    assert detection.binary_entropy(1.0) == 0.0
    assert detection.binary_entropy(0.5) == 1.0
    npt.assert_allclose(detection.binary_entropy(0.25), 0.8112781244591328, rtol=1e-15)
    with pytest.raises(ValueError):
        detection.binary_entropy(1.2)


@pytest.mark.parametrize("energy", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("check", [
    detection.antipodal_homodyne_error,
    lambda energy: detection.truncation_dim(energy, 1e-10),
    lambda energy: detection.keygen_advantage([energy]),
], ids=["antipodal_homodyne_error", "truncation_dim", "keygen_advantage"])
def test_energy_must_be_finite_and_nonnegative(check, energy):
    # NaN passed the homodyne error and came back as nan (the phase density's
    # case is in test_heterodyne.py)
    with pytest.raises(ValueError, match="energy must be finite and nonnegative"):
        check(energy)
