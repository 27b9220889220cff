"""The heterodyne receiver against independent oracles and a high-precision table."""

import json
import math
import pathlib

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate

import detection_oracles as oracles
from yzero import codec, heterodyne

# the package's rule is leggauss(16)'s, written out; see the module docstring
NODES, WEIGHTS = heterodyne._GL_NODES, heterodyne._GL_WEIGHTS


def test_gauss_legendre_rule_is_ascending_and_exactly_mirrored():
    assert NODES.shape == WEIGHTS.shape == (16,)
    assert np.all(np.diff(NODES) > 0.0) and np.all(WEIGHTS > 0.0)
    for i in range(16):
        assert NODES[i] == -NODES[15 - i] and WEIGHTS[i] == WEIGHTS[15 - i], i


def test_gauss_legendre_weights_sum_to_the_interval_length():
    assert abs(math.fsum(WEIGHTS) - 2.0) <= 4e-16


def test_gauss_legendre_rule_is_exact_through_degree_31():
    for k in range(32):
        # the integral of x^k over [-1, 1]
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(WEIGHTS * NODES**k) - exact) <= 1e-15, k


def test_gauss_legendre_rule_is_numpys_within_two_ulp():
    # numpy.polynomial is the oracle here only: no yzero module imports it
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(16)
    assert np.all(np.abs(NODES - x) <= 2.0 * np.spacing(np.abs(x)))
    assert np.all(np.abs(WEIGHTS - w) <= 2.0 * np.spacing(w))


def test_heterodyne_sample_draws_the_real_parts_first_and_returns_an_array():
    # the record samplers reshape what it returns; its draws must not move
    for size in (1, 5, (2, 3)):
        z = heterodyne.heterodyne_sample(1.0 - 0.5j, np.random.default_rng(4), size=size)
        rng = np.random.default_rng(4)
        re = rng.normal(1.0, math.sqrt(0.5), size)
        im = rng.normal(-0.5, math.sqrt(0.5), size)
        assert isinstance(z, np.ndarray) and z.shape == np.shape(re)
        assert np.array_equal(z, re + 1j * im)


def test_heterodyne_sample_moments():
    rng = np.random.default_rng(9)
    z = heterodyne.heterodyne_sample(1.0 + 2.0j, rng, size=200_000)
    n = 200_000
    sd = math.sqrt(0.5)
    assert abs(z.real.mean() - 1.0) < 3 * sd / math.sqrt(n)
    assert abs(z.imag.mean() - 2.0) < 3 * sd / math.sqrt(n)
    assert abs(z.real.var() - 0.5) < 3 * 0.5 * math.sqrt(2 / n)
    assert abs(z.imag.var() - 0.5) < 3 * 0.5 * math.sqrt(2 / n)


def radial_phase_density(phi: float, s: float) -> float:
    """Independent oracle: integrate the circular Gaussian over the radius."""
    def f(r: float) -> float:
        return r / math.pi * math.exp(-(r * r - 2 * r * math.sqrt(s) * math.cos(phi) + s))
    val, _ = integrate.quad(f, 0.0, np.inf, limit=200)
    return val


@pytest.mark.parametrize("s", [0.5, 4.0, 25.0])
def test_phase_density_matches_radial_quadrature(s):
    for phi in np.linspace(-math.pi, math.pi, 17):
        npt.assert_allclose(heterodyne.phase_density(float(phi), s),
                            radial_phase_density(float(phi), s), atol=1e-12)


@pytest.mark.parametrize("s", [0.0, 1e-6, 0.1, 1.0, 4.0, 10.0, 30.0, 100.0])
def test_phase_density_matches_ndtr(s):
    # relative agreement holds where the density is not a cancelling tail
    phi = np.linspace(-math.pi, math.pi, 721)
    want = oracles.ndtr_phase_density(phi, s)
    npt.assert_allclose(heterodyne.phase_density(phi, s), want, rtol=1e-13,
                        atol=1e-15 * float(want.max()))


def test_phase_density_normalizes():
    for s in (0.0, 1.0, 9.0):
        total, _ = integrate.quad(heterodyne.phase_density, -math.pi, math.pi,
                                  args=(s,), limit=200)
        npt.assert_allclose(total, 1.0, atol=1e-12)


def test_phase_density_vacuum_is_uniform():
    npt.assert_allclose(heterodyne.phase_density(1.234, 0.0), 1 / (2 * math.pi),
                        rtol=1e-12)


def test_nearest_phase_index_hits_grid_points():
    c = codec.Constellation(m=8, energy=4.0)
    for j in range(16):
        z = np.exp(1j * math.pi * j / c.m)
        assert heterodyne.nearest_phase_index(complex(z), c) == j
        # small rotations inside the wedge must not change the decision
        assert heterodyne.nearest_phase_index(complex(z * np.exp(0.4j * math.pi / 8)), c) == j


def test_nearest_phase_index_decision_offset_shifts_wedges():
    c = codec.Constellation(m=8, energy=4.0)
    z = complex(np.exp(1j * math.pi * 3 / c.m))
    # rotating the receiver grid by a full wedge moves the decision down one
    assert heterodyne.nearest_phase_index(z, c, decision_offset=math.pi / 8) == 2


def test_heterodyne_transition_rows_are_circulant_distributions():
    c = codec.Constellation(m=8, energy=2.0)
    t = heterodyne.heterodyne_index_transition(c)
    n = c.n_states
    npt.assert_allclose(t.sum(axis=1), np.ones(n), atol=1e-9)
    assert np.all(t >= 0)
    for sent in range(n):
        for m in range(n):
            npt.assert_allclose(t[sent, m], t[0, (m - sent) % n], rtol=1e-12)


def test_heterodyne_transition_vacuum_is_uniform():
    c = codec.Constellation(m=4, energy=0.0)
    npt.assert_allclose(heterodyne.heterodyne_index_transition(c),
                        np.full((8, 8), 1 / 8), atol=1e-15)


def test_heterodyne_transition_matches_monte_carlo():
    c = codec.Constellation(m=4, energy=2.0)
    t = heterodyne.heterodyne_index_transition(c)
    rng = np.random.default_rng(23)
    n = 200_000
    sent = 3
    z = heterodyne.heterodyne_sample(c.amplitudes()[sent], rng, size=n)
    decided = heterodyne.nearest_phase_index(z, c)
    counts = np.bincount(decided, minlength=c.n_states)
    for m in range(c.n_states):
        p = t[sent, m]
        if p * n >= 25:
            assert abs(counts[m] / n - p) < 4 * math.sqrt(p * (1 - p) / n)
    assert 0.5 * np.abs(counts / n - t[sent]).sum() < 0.02


def test_heterodyne_transition_decision_offset_biases_neighbors():
    c = codec.Constellation(m=4, energy=4.0)
    t = heterodyne.heterodyne_index_transition(c, decision_offset=0.3 * math.pi / 4)
    # a receiver grid rotated toward the next index must leak probability there
    assert t[0, 7] > t[0, 1]
    npt.assert_allclose(t.sum(axis=1), np.ones(c.n_states), atol=1e-9)


@pytest.mark.parametrize("m,s", [(1, 0.1), (1, 1000.0), (2, 4.0), (4, 1e4), (16, 4.0),
                                 (16, 100.0), (64, 30.0)])
def test_wedge_quadrature_matches_quad(m, s):
    c = codec.Constellation(m=m, energy=s)
    for offset in (0.0, 0.3 * math.pi / m):
        t = heterodyne.heterodyne_index_transition(c, decision_offset=offset)
        npt.assert_allclose(t[0], oracles.quad_wedge_integrals(c, offset), rtol=0.0, atol=1e-13)


def test_wedge_quadrature_fails_past_its_panel_cap(monkeypatch):
    # a sharp density at S = 1e4 on a wide wedge needs more than 8 panels
    monkeypatch.setattr(heterodyne, "WEDGE_PANELS_CAP", 8)
    with pytest.raises(AssertionError, match="unconverged"):
        heterodyne.heterodyne_index_transition(codec.Constellation(m=1, energy=1e4))




@pytest.mark.parametrize("energy", [math.nan, math.inf, -1.0])
def test_phase_density_energy_must_be_finite_and_nonnegative(energy):
    # NaN passed the phase density and came back as nan
    with pytest.raises(ValueError, match="energy must be finite and nonnegative"):
        heterodyne.phase_density(0.3, energy)


# mpmath values of the phase density at 60 digits, written by
# tests/make_reference_tables.py; the tests read the JSON only
REFS = json.loads(pathlib.Path(__file__).with_name("phase_density_refs.json")
                  .read_text(encoding="utf-8"))
# the worst relative error of today's form on each table, where cos(phi) < 0
# cancels its two terms (ROADMAP item 5); a stable form tightens these
PHASE_DENSITY_REL_ERR = {4.0: 6e-15, 30.0: 5e-13, 300.0: 7.9e-11, 700.0: 1.3e-10, 1e4: 3e-14}


@pytest.mark.parametrize("table", REFS["phase_density"], ids=lambda t: f"S={t['energy']:g}")
def test_phase_density_matches_the_high_precision_table(table):
    s = table["energy"]
    phi, want = (np.array(column, dtype=float) for column in zip(*table["points"]))
    got = heterodyne.phase_density(phi, s)
    # relative, with values below the normal range measured against the least normal
    err = np.abs(got - want) / np.maximum(want, np.finfo(float).tiny)
    assert float(err.max()) <= PHASE_DENSITY_REL_ERR[s], (s, float(phi[np.argmax(err)]))
