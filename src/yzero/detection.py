"""Quantum and semiclassical receiver bounds for phase-shift constellations.

Three layers of analysis, from strongest observer to weakest:

* Helstrom bounds: the minimum achievable error probability of any quantum
  measurement distinguishing two states (pure closed form, or two mixtures
  over the constellation).
* Square-root measurement: the pretty-good measurement for the full set of
  2M symmetric states.
* An explicit receiver: the homodyne error on an antipodal pair, in closed
  form.  The heterodyne receiver the ``quantum`` regime records with is
  :mod:`yzero.heterodyne`'s, so a quantum-regime entropy run never loads
  this module.

Key generation scores two of these receivers against each other: the key
holder's pure-state Helstrom error and an interceptor's homodyne error on
the same antipodal pair, as an advantage in bits per pulse.
``keygen_curve``, which the ``keygen`` family runs, adds both curves'
decay exponents, fitted under one rule of which points a fit takes.

Every operator behind the constellation bounds (``bit_bound``,
``updown_bound``, ``srm_mary_error``) is a weighted mixture over the 2M
phase rotations, so the Gram matrix of the states is circulant and the DFT
diagonalizes it.  Its spectrum is computed analytically, as the aliased
Poisson distribution, once per constellation, together with its
sqrt(Lambda) ordering.  The binary bounds share one trace-norm solve that
works in that DFT basis and keeps only the modes that can move the
result.  Each one's weights enter it as a spectrum that depends on M and
not on the energy.  ``bound_grid``, which the ``bounds`` family runs,
evaluates the configured bounds over an (M, S) grid and shares that work:
one weight spectrum per M and binary bound, one Gram spectrum per point,
and one SVD per point and binary bound, which it counts.  No Fock basis
is built and the cost follows the photon-number spread, not M.  Every
binary bound is taken at equal priors, the uniformly distributed
data bits an eavesdropper faces.  Its weights are antisymmetric under the
half turn and symmetric or antisymmetric under the reflection of the first
half, so the trace norm is twice the nuclear norm of a real matrix over the
kept even x kept odd modes: one real SVD of half the size, which agrees
with a Hermitian eigensolve of the full matrix to 4.4e-16 on the
``bounds_grid`` points.

The module needs numpy and ``math`` only.  The Poisson pmf is
exp(k ln S - ln k! - S) with ln k! from one growing ``math.lgamma`` table;
the normal cdf is erfc(-x / sqrt 2) / 2.  Bounds are clipped to their
ranges, so rounding never shows as a negative error probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Constellation, _check_energy, _pair_index_table
from .errors import RegimeCapError

# DFT modes of the Gram matrix are dropped while the bound on the change in
# a binary p_error they cause stays at or below this: under the rounding of
# 1 - ||T||_1.
MODE_DROP_BOUND = 2.0**-53

# The summed spectrum must equal n to this relative precision.  The gap is
# the pmf's own rounding, not a missed tail; it grows with the exponent
# k ln S - ln k! - S (at most 6.9e-13 for S <= 1000, past 1e-12 from
# S ~ 1600), so the bounds refuse energies above GRAM_ENERGY_CAP.
SPECTRUM_MASS_TOL = 1e-12
GRAM_ENERGY_CAP = 1000.0

# A decay fit (``exponent_fit``) needs at least this many points.
FIT_MIN_POINTS = 4

# ln(k!) for k = 0, 1, ..., replaced by one twice as long when a longer pmf
# is needed; a published table is never written, so callers slice the one they read.
_LOG_FACTORIAL = np.zeros(1)


@dataclass(frozen=True)
class BinaryBound:
    """Error probability of an optimal binary discrimination."""

    p_error: float
    dim_used: "int | None" = None


@dataclass(frozen=True)
class MaryBound:
    """Error probability of a measurement resolving all constellation states."""

    p_error: float


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of ln(p_error) = slope * s + intercept."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class KeygenPoint:
    """One energy point of the key-generation advantage curve."""

    s: float
    p_error_bob: float
    p_error_eve: float
    advantage_bits: float


def helstrom_pure(a0: complex, a1: complex) -> BinaryBound:
    """Minimum error probability between two equally likely pure coherent states.

    Closed form (1 - sqrt(arg)) / 2 with arg = 1 - |<a0|a1>|^2; no
    truncation.  The argument is evaluated as 1 - exp(-|a0 - a1|^2) by
    expm1, which does not cancel when the states nearly coincide, and the
    error as the equal exp(-|a0 - a1|^2) / (2 (1 + sqrt(arg))), which does
    not cancel when they are far apart.
    """
    d = abs(complex(a0) - complex(a1))
    # exp(-d^2) is 0 from d ~ 27.3, long before d ** 2 overflows
    d2 = d ** 2 if d < 1e154 else math.inf
    pe = 0.5 * math.exp(-d2) / (1.0 + math.sqrt(-math.expm1(-d2)))
    return BinaryBound(p_error=pe)


def _log_factorials(size: int) -> np.ndarray:
    """ln(k!) for k < size, from one table per process."""
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if table.size < size:
        table = np.array([math.lgamma(k + 1.0) for k in range(max(size, 2 * table.size))])
        _LOG_FACTORIAL = table
    return table[:size]


def _poisson_pmf(energy: float, size: int) -> np.ndarray:
    """P[N = k] for k < size, N ~ Poisson(energy), as exp(k ln S - ln k! - S)."""
    if energy == 0.0:
        pmf = np.zeros(size)
        pmf[0] = 1.0
        return pmf
    k = np.arange(size)
    return np.exp(k * math.log(energy) - _log_factorials(size) - energy)


def _poisson_window(energy: float, tol: float, multiple: int = 1) -> "tuple[int, np.ndarray]":
    """Least d with P[N >= d] < tol, and the pmf over a window past d.

    The window starts comfortably past the mean and doubles until the tail
    summed inside it falls below tol and the mass past the window is under
    tol times the unit roundoff, too small to move that comparison.  Its
    length is a multiple of ``multiple``.
    """
    hi = int(energy + 20.0 * math.sqrt(energy + 1.0) + 40.0)
    while True:
        size = multiple * -(-hi // multiple)
        pmf = _poisson_pmf(energy, size)
        # P[N >= d] for d < size, summed smallest term first
        tail = np.cumsum(pmf[::-1])[::-1]
        # past the window the pmf falls at least geometrically, by S / size
        left_out = float(pmf[-1]) * energy / (size - energy) if size > energy else math.inf
        hit = np.nonzero(tail < tol)[0]
        if hit.size and left_out <= tol * np.finfo(float).eps:
            return max(int(hit[0]), 1), pmf
        hi *= 2


def truncation_dim(max_energy: float, tol: float) -> int:
    """Smallest photon number d with Poisson tail P[n >= d] below tol.

    For mean photon number S the photon distribution is Poisson(S); the
    returned d is the least d such that P[n >= d] < tol, at least 1.
    """
    _check_energy(max_energy)
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    return _poisson_window(max_energy, tol)[0]


def _check_gram_energy(energy: float) -> None:
    if energy > GRAM_ENERGY_CAP:
        raise RegimeCapError(f"bounds take S <= {GRAM_ENERGY_CAP}, got {energy}: above "
                             "it the Poisson pmf's rounding breaks the spectrum mass check")


def _gram_spectrum(c: Constellation) -> np.ndarray:
    """Eigenvalues of the Gram matrix of the 2M states, in DFT order.

    The Gram matrix <a_j|a_l> = exp(-S + S omega^(l-j)), omega = e^(i pi / M), is
    circulant, and its eigenvalues are the Poisson(S) photon distribution
    aliased onto n = 2M bins: Lambda_k = n sum_j P[N = k + j n] >= 0.
    """
    _check_gram_energy(c.energy)
    n = c.n_states
    # Poisson mass tau left out of the window moves a binary p_error by at
    # most sqrt(tau) n max|w| <= 2 sqrt(tau), so a tail below
    # MODE_DROP_BOUND^2 costs at most twice the mode-drop bound.
    window, pmf = _poisson_window(c.energy, MODE_DROP_BOUND**2, multiple=n)
    lam = n * pmf[:n * math.ceil(window / n)].reshape(-1, n).sum(axis=0)
    mass = float(lam.sum()) / n
    if abs(mass - 1.0) > SPECTRUM_MASS_TOL:
        raise AssertionError(f"Poisson window holds mass {mass}, expected 1")
    # the rounding of the pmf is removed, so the spectrum sums to n
    return lam / mass


@dataclass(frozen=True)
class _WeightSpectrum:
    """The energy-independent half of a binary bound: its weights in the DFT basis.

    ``peak`` is max|ifft(w)|, and ``signed_lags[d + n - 1]`` is sign(d) g_d
    for the lags d in (-n, n), with g_d as in ``_helstrom_error``.
    """

    peak: float
    signed_lags: np.ndarray


@dataclass(frozen=True)
class _ModeSpectrum:
    """The Gram spectrum of one grid point as every bound reads it.

    ``root`` is sqrt(Lambda) in DFT order, ``order`` the stable ascending
    order of Lambda, and ``drop_cost`` the cumulative sum of sqrt(Lambda)
    in that order.
    """

    root: np.ndarray
    order: np.ndarray
    drop_cost: np.ndarray


def _mode_spectrum(c: Constellation) -> _ModeSpectrum:
    lam = _gram_spectrum(c)
    root = np.sqrt(lam)
    order = np.argsort(lam, kind="stable")
    return _ModeSpectrum(root=root, order=order, drop_cost=np.cumsum(root[order]))


def _weight_spectrum(weights: np.ndarray) -> _WeightSpectrum:
    """Check equal-prior weights on the 2M states and take them to the DFT basis.

    Equal-prior weights have two exact symmetries; weights without them
    raise AssertionError.  Half-turn, w[M + i] = -w[i]: ifft(w) vanishes at
    even lags.  Reflection, w[M - 1 - i] = +-w[i] for i < M:
    g_d = e^(i pi d / n) ifft(w)[d] is purely imaginary (+) or purely real
    (-) at every odd d, and the table keeps that part.
    """
    n = weights.size
    m = n // 2
    half, mirror = weights[:m], weights[m - 1::-1]
    symmetric = np.array_equal(mirror, half)
    if not (np.array_equal(weights[m:], -half)
            and (symmetric or np.array_equal(mirror, -half))):
        raise AssertionError("weights lack the half-turn and reflection symmetries "
                             "of equal priors")
    w_hat = np.fft.ifft(weights)
    g = np.exp(1j * math.pi * np.arange(n) / n) * w_hat
    g = g.imag if symmetric else g.real
    lags = np.arange(1 - n, n)
    return _WeightSpectrum(peak=float(np.max(np.abs(w_hat))),
                           signed_lags=np.sign(lags) * g[lags])


def _bit_spectrum(c: Constellation) -> _WeightSpectrum:
    """Weight spectrum of ``bit_bound``; reads c's size, not its energy."""
    weights = np.zeros(c.n_states)
    pairs = _pair_index_table(c)
    weights[pairs[1]], weights[pairs[0]] = 0.5 / c.m, -0.5 / c.m
    return _weight_spectrum(weights)


def _updown_spectrum(c: Constellation) -> _WeightSpectrum:
    """Weight spectrum of ``updown_bound``; reads c's size, not its energy."""
    return _weight_spectrum(np.where(c.label(np.arange(c.n_states)) == 1, 1.0, -1.0)
                            / c.n_states)


def _helstrom_error(spectrum: _WeightSpectrum, modes: _ModeSpectrum) -> BinaryBound:
    """Helstrom error (1 - ||T||_1) / 2 for T = sum_j w_j |a_j><a_j| over the states.

    The cost is split.  Per M, ``_weight_spectrum`` checks the weights and
    tabulates them in the DFT basis once.  Per grid point, ``_mode_spectrum``
    takes one Gram spectrum and one sqrt(Lambda) ordering, shared by the
    point's bounds.  Per binary bound this solve does the rest, with one SVD.

    In the DFT basis the nonzero spectrum of T is that of
    H = Lambda^(1/2) W Lambda^(1/2), with W_kl = ifft(w)[(k - l) mod n].
    Modes are dropped, smallest first, while sum_dropped sqrt(Lambda_k)
    max|ifft(w)| sqrt(n) stays at or below MODE_DROP_BOUND.  Each dropped row
    (and column) of H has 2-norm at most sqrt(Lambda_k) max|ifft(w)| sqrt(n),
    because sum Lambda = n, so that sum bounds the change in
    p_error = (1 - ||T||_1) / 2.

    The half-turn symmetry makes H couple even modes only to odd ones,
    H = [[0, B], [B^H, 0]], and ||H||_1 = 2 sum sigma(B) over the kept
    even x kept odd block.  By the reflection symmetry g_d is real or
    imaginary at every odd lag.  With d = k - l + n [k < l], the phase
    e^(-i pi d / n) splits into diagonal unitaries and the sign -1 where
    k - l wraps, so B has the singular values of the real
    G_kl = sign(k - l) g_d sqrt(Lambda_k) sqrt(Lambda_l), with g_d its real
    or imaginary part: one real SVD of a half-size matrix; it agrees with
    the eigenvalues of the full H to 4.4e-16 on the ``bounds_grid`` points.
    Returns p_error, clipped to [0, 1/2], and the modes kept.
    """
    n = modes.root.size
    cost = modes.drop_cost * spectrum.peak * math.sqrt(n)
    keep = np.sort(modes.order[np.count_nonzero(cost <= MODE_DROP_BOUND):])
    even, odd = keep[keep % 2 == 0], keep[keep % 2 == 1]
    block = spectrum.signed_lags[even[:, None] - (odd - (n - 1))[None, :]]
    block *= modes.root[even][:, None] * modes.root[odd][None, :]
    trace_norm = 2.0 * float(np.sum(np.linalg.svd(block, compute_uv=False)))
    p_error = 0.5 * (1.0 - trace_norm)
    return BinaryBound(p_error=min(max(0.0, p_error), 0.5), dim_used=int(keep.size))


def bit_bound(c: Constellation) -> BinaryBound:
    """Helstrom bound on reading the data bit without the keystream.

    The two hypotheses are the whole-constellation mixtures carrying bit 0
    and bit 1 under the cipher's fixed pairing, at equal priors.  The bound
    is below 1/2 because the pairing ties each bit to one member of every
    pair; a pairing that handed each bit to both members would make the
    mixtures identical and the bound exactly 1/2 (acceptance check C02).
    """
    return _helstrom_error(_bit_spectrum(c), _mode_spectrum(c))


def updown_bound(c: Constellation) -> BinaryBound:
    """Helstrom bound on the half-plane label of a keyed transmission.

    Hypotheses: the uniform mixture of all states whose label is 1 versus
    the uniform mixture of those labeled 0, equal priors.  This is the
    per-symbol quantity an eavesdropper needs for a label-record attack
    against the cipher's fixed pairing.
    """
    return _helstrom_error(_updown_spectrum(c), _mode_spectrum(c))


def srm_mary_error(c: Constellation) -> MaryBound:
    """Square-root-measurement error for resolving all 2M states.

    For a phase-symmetric set the success probability is mean(sqrt(Lambda))^2
    over the eigenvalues Lambda of the circulant Gram matrix; the error is
    clipped to [0, 1].
    """
    return MaryBound(p_error=_srm_error(_mode_spectrum(c)))


def _srm_error(modes: _ModeSpectrum) -> float:
    """1 - mean(sqrt(Lambda))^2 over the Gram spectrum, clipped to [0, 1]."""
    return min(max(0.0, 1.0 - float(np.mean(modes.root)) ** 2), 1.0)


def bound_grid(m_grid: "list[int]", energies: "list[float]",
               methods: "list[str]") -> "tuple[list[tuple], dict[str, int]]":
    """The bounds named in ``methods`` ('bit', 'updown', 'srm') at every (M, S) point.

    Each row is (M, S, method, p_error, dim_used), in grid order: M outer,
    then S, then the methods in the order given; p_error is what
    ``bit_bound``, ``updown_bound`` or ``srm_mary_error`` gives at the
    point, bit for bit, and dim_used is the modes kept, 2M for 'srm'.  The
    work is shared.  Per M, one weight spectrum for each binary bound, which
    does not depend on the energy.  Per point, one Gram spectrum and one
    sqrt(Lambda) ordering, shared by the point's methods.  Per binary bound,
    one SVD.  The returned counts name each: ``weight_spectra``,
    ``gram_spectra`` and ``svd_solves``.
    """
    spectrum_of = {"bit": _bit_spectrum, "updown": _updown_spectrum}
    rows, work = [], {"gram_spectra": 0, "weight_spectra": 0, "svd_solves": 0}
    for m in m_grid:
        points = [Constellation(m=m, energy=s) for s in energies]
        spectra = {method: spectrum_of[method](points[0]) for method in methods if method != "srm"}
        work["weight_spectra"] += len(spectra)
        for c in points:
            modes = _mode_spectrum(c)
            work["gram_spectra"] += 1
            for method in methods:
                if method == "srm":
                    rows.append((m, c.energy, method, _srm_error(modes), c.n_states))
                else:
                    b = _helstrom_error(spectra[method], modes)
                    work["svd_solves"] += 1
                    rows.append((m, c.energy, method, b.p_error, b.dim_used))
    return rows, work


# ---------------------------------------------------------------------------
# The homodyne receiver, and decay fits


def antipodal_homodyne_error(energy: float) -> float:
    """Exact bit-error probability of homodyne detection of +/- sqrt(S).

    Phi(-2 sqrt(S)) = erfc(sqrt(2 S)) / 2 with the sd-1/2 quadrature
    convention; decays like exp(-2S), the square root of the Helstrom
    exponent.
    """
    _check_energy(energy)
    return 0.5 * math.erfc(math.sqrt(2.0 * energy))


def _fit_takes(p_error):
    """Whether a decay fit takes an error probability: strictly inside (0, 1/2).

    Zero has no logarithm, and an error at or above one half carries no
    decay information.  Elementwise on an array.
    """
    return (p_error > 0.0) & (p_error < 0.5)


def _decay_fit(s: np.ndarray, p_error: np.ndarray, drop: bool) -> ExponentFit:
    """Fit ln(p_error) = slope * s + intercept over the pairs a fit takes (`_fit_takes`).

    With ``drop`` the other pairs are left out; without it, any of them
    raises ValueError.  So does a fit the kept pairs cannot fix: fewer than
    FIT_MIN_POINTS of them, or fewer than two distinct energies, which the
    least-squares solve reports as rank < 2 (as it does energies that
    differ only in their last bits).
    """
    takes = _fit_takes(p_error)
    if not (drop or np.all(takes)):
        raise ValueError("every p_error must lie strictly in (0, 0.5)")
    s, y = s[takes], np.log(p_error[takes])
    if s.size < FIT_MIN_POINTS:
        raise ValueError(f"need at least {FIT_MIN_POINTS} (s, p_error) points")
    (slope, intercept), _, rank, _, _ = np.polyfit(s, y, 1, full=True)
    if rank < 2:
        raise ValueError("need at least two distinct energies to fix a slope")
    resid = y - (slope * s + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def exponent_fit(points: "np.ndarray | list[tuple[float, float]]") -> ExponentFit:
    """Fit ln(p_error) = slope * s + intercept over (s, p_error) pairs.

    Every p_error must be one that a fit takes, and the points must fix a
    slope (`_decay_fit`): at least FIT_MIN_POINTS of them, at two or more
    distinct energies; otherwise ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (s, p_error) pairs")
    return _decay_fit(pts[:, 0], pts[:, 1], drop=False)


# ---------------------------------------------------------------------------
# Key generation


def binary_entropy(p: float) -> float:
    """h2(p) in bits, with the 0 log 0 = 0 convention.

    ln(1 - p) is taken by log1p, which keeps the digits of a small p that
    the rounded 1 - p loses.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log1p(-p) / math.log(2.0))


def _binary_capacity(p: float) -> float:
    """1 - h2(p) in bits, without cancellation as p approaches 1/2.

    With q = |1 - 2p| it equals (2 q atanh(q) + log1p(-q^2)) / (2 ln 2),
    whose two terms are of size q^2 and add without cancellation; away from
    1/2 the difference 1 - h2(p) loses nothing.
    """
    q = abs(1.0 - 2.0 * p)
    if q > 0.5:
        return 1.0 - binary_entropy(p)
    return (2.0 * q * math.atanh(q) + math.log1p(-q * q)) / (2.0 * math.log(2.0))


def keygen_advantage(s_values: "np.ndarray | list[float]") -> "list[KeygenPoint]":
    """Per-pulse error gap between the key holder and a homodyne interceptor.

    Antipodal signaling at mean photon number S: the key holder reaches the
    quantum-optimal error (decaying like e^{-4S}), and the interceptor is
    scored as a homodyne receiver on the same pair +/- sqrt(S) (decaying
    like e^{-2S}).  She therefore holds the basis the key selects and lacks
    only the optimal measurement; an eavesdropper without the seed, who
    faces the whole 2M-state ring, is the keyless mode of ROADMAP item 9.
    The advantage is the difference of binary entropies of the two error
    rates, h2(pe_eve) - h2(pe_bob).  Once h2(pe_eve) <= 1/2 both entropies
    are small and it is formed from them directly; below that energy, as
    S -> 0, it is the difference of the capacities 1 - h2, which does not
    cancel there.  So it keeps its relative precision from S -> 0 to where
    the interceptor's error underflows.  A pulse that delivers only a
    fraction f of its energy coherently is the point at f S.
    """
    out = []
    # Python floats: 2 S overflows to inf, where a numpy scalar would warn
    for s in np.asarray(s_values, dtype=float).tolist():
        # the homodyne error checks the energy before its square root is taken
        pe_eve = antipodal_homodyne_error(s)
        a = math.sqrt(s)
        pe_bob = helstrom_pure(a, -a).p_error
        h_eve = binary_entropy(pe_eve)
        out.append(KeygenPoint(
            s=float(s),
            p_error_bob=pe_bob,
            p_error_eve=pe_eve,
            advantage_bits=(h_eve - binary_entropy(pe_bob) if h_eve <= 0.5
                            else _binary_capacity(pe_bob) - _binary_capacity(pe_eve)),
        ))
    return out


def keygen_curve(
    s_values: "np.ndarray | list[float]",
) -> "tuple[list[KeygenPoint], ExponentFit | None, ExponentFit | None, float | None]":
    """The ``keygen_advantage`` points with both decay fits and their slope ratio.

    Returns (points, fit_bob, fit_eve, slope_ratio).  Each curve is fitted
    over its own points that a fit takes (`_decay_fit`), and both only when
    each of them fixes a slope: at least FIT_MIN_POINTS such points, at two
    or more distinct energies; otherwise all three are None.  slope_ratio is
    slope_bob / slope_eve, about 2 (e^{-4S} against e^{-2S}), and None when
    slope_eve is 0.
    """
    points = keygen_advantage(s_values)
    s, bob, eve = np.array([(p.s, p.p_error_bob, p.p_error_eve) for p in points]).reshape(-1, 3).T
    try:
        fit_bob, fit_eve = (_decay_fit(s, errors, drop=True) for errors in (bob, eve))
    except ValueError:
        return points, None, None, None
    ratio = fit_bob.slope / fit_eve.slope if fit_eve.slope != 0.0 else None
    return points, fit_bob, fit_eve, ratio
