"""Quantum and semiclassical receiver bounds for phase-shift constellations.

Three layers of analysis, from strongest observer to weakest:

* Helstrom bounds: the minimum achievable error probability of any quantum
  measurement distinguishing two states (pure closed form, or two mixtures
  over the constellation).
* Square-root measurement: the pretty-good measurement for the full set of
  2M symmetric states.
* Explicit receivers: a heterodyne sampler, the homodyne error in closed
  form, and the phase decision statistics an intercepting receiver faces.

Every operator behind the constellation bounds (``bit_bound``,
``updown_bound``, ``srm_mary_error``) is a weighted mixture over the 2M
phase rotations, so the Gram matrix of the states is circulant and the DFT
diagonalizes it.  All three take its spectrum from one helper, computed
analytically as the aliased Poisson distribution; the binary bounds share
one trace-norm helper that works in that DFT basis and keeps only the modes
that can move the result.  No Fock basis is built and the cost follows the
photon-number spread, not M.  Every binary bound is taken at equal priors,
the uniformly distributed data bits an eavesdropper faces.  Its weights are
antisymmetric under the half turn and symmetric or antisymmetric under the
reflection of the first half, so the trace norm is twice the nuclear norm
of a real matrix over the kept even x kept odd modes: one real SVD of half
the size, which agrees with a Hermitian eigensolve of the full matrix to
4.4e-16 on the ``bounds_grid`` points.

The module needs numpy and ``math`` only.  The Poisson pmf is
exp(k ln S - ln k! - S) with ln k! from one growing ``math.lgamma`` table;
the normal cdf is erfc(-x / sqrt 2) / 2; the heterodyne wedge integrals are
composite Gauss-Legendre sums whose panel count doubles until two estimates
agree.  Bounds are clipped to their ranges, so rounding never shows as a
negative error probability.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .codec import Constellation, _pair_index_table

# DFT modes of the Gram matrix are dropped while the bound on the change in
# a binary p_error they cause stays at or below this: under the rounding of
# 1 - ||T||_1.
MODE_DROP_BOUND = 2.0**-53

# The summed spectrum must equal n to this relative precision; a larger gap
# means the pmf window missed part of the distribution.
SPECTRUM_MASS_TOL = 1e-12

# Row sums of a numerically integrated decision matrix must land this close
# to one before renormalization.
TRANSITION_ROW_TOL = 1e-9

# The wedge quadrature doubles its panel count until two successive
# estimates of every wedge integral agree to this absolute precision.
WEDGE_QUAD_TOL = 1e-13

# Gauss-Legendre nodes per panel, the first panel count, and the panel
# count past which the wedge quadrature gives up.
WEDGE_NODES = 16
WEDGE_PANELS_START = 2
WEDGE_PANELS_CAP = 1024

# ln(k!) for k = 0, 1, ..., grown by doubling when a longer pmf is needed;
# the bounds runner's threads share it.
_LOG_FACTORIAL = np.zeros(1)
_LOG_FACTORIAL_LOCK = threading.Lock()

_ERFC = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class BinaryBound:
    """Error probability of an optimal binary discrimination."""

    p_error: float
    method: str
    dim_used: "int | None" = None


@dataclass(frozen=True)
class MaryBound:
    """Error probability of a measurement resolving all constellation states."""

    p_error: float
    n_states: int
    method: str = "srm_dft"


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of ln(p_error) = slope * s + intercept."""

    slope: float
    intercept: float
    r_squared: float


def helstrom_pure(a0: complex, a1: complex) -> BinaryBound:
    """Minimum error probability between two equally likely pure coherent states.

    Closed form (1 - sqrt(arg)) / 2 with arg = 1 - |<a0|a1>|^2; no
    truncation.  The argument is evaluated as 1 - exp(-|a0 - a1|^2) by
    expm1, which does not cancel when the states nearly coincide, and the
    error as the equal exp(-|a0 - a1|^2) / (2 (1 + sqrt(arg))), which does
    not cancel when they are far apart.
    """
    d2 = abs(complex(a0) - complex(a1)) ** 2
    pe = 0.5 * math.exp(-d2) / (1.0 + math.sqrt(-math.expm1(-d2)))
    return BinaryBound(p_error=pe, method="helstrom_pure")


def _log_factorials(size: int) -> np.ndarray:
    """ln(k!) for k < size, from one table per process."""
    global _LOG_FACTORIAL
    with _LOG_FACTORIAL_LOCK:
        if _LOG_FACTORIAL.size < size:
            _LOG_FACTORIAL = np.array([math.lgamma(k + 1.0)
                                       for k in range(max(size, 2 * _LOG_FACTORIAL.size))])
        return _LOG_FACTORIAL[:size]


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
    if not math.isfinite(max_energy) or max_energy < 0:
        raise ValueError("max_energy must be finite and nonnegative")
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    return _poisson_window(max_energy, tol)[0]


def _gram_spectrum(c: Constellation) -> np.ndarray:
    """Eigenvalues of the Gram matrix of the 2M states, in DFT order.

    The Gram matrix <a_j|a_l> = exp(-S + S omega^(l-j)), omega = e^(i pi / M), is
    circulant, and its eigenvalues are the Poisson(S) photon distribution
    aliased onto n = 2M bins: Lambda_k = n sum_j P[N = k + j n] >= 0.
    """
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


def _helstrom_error(c: Constellation, weights: np.ndarray) -> "tuple[float, int]":
    """Helstrom error (1 - ||T||_1) / 2 for T = sum_j w_j |a_j><a_j| over the states.

    In the DFT basis the nonzero spectrum of T is that of
    H = Lambda^(1/2) W Lambda^(1/2), with W_kl = ifft(w)[(k - l) mod n].
    Modes are dropped, smallest first, while sum_dropped sqrt(Lambda_k)
    max|ifft(w)| sqrt(n) stays at or below MODE_DROP_BOUND.  Each dropped row
    (and column) of H has 2-norm at most sqrt(Lambda_k) max|ifft(w)| sqrt(n),
    because sum Lambda = n, so that sum bounds the change in
    p_error = (1 - ||T||_1) / 2.

    Equal-prior weights have two exact symmetries; weights without them
    raise AssertionError.  Half-turn, w[M + i] = -w[i]: ifft(w) vanishes at
    even lags, so H couples even modes only to odd ones,
    H = [[0, B], [B^H, 0]], and ||H||_1 = 2 sum sigma(B) over the kept
    even x kept odd block.
    Reflection, w[M - 1 - i] = +-w[i] for i < M: g_d = e^(i pi d / n)
    ifft(w)[d] is purely imaginary (+) or purely real (-) at every odd d.
    With d = k - l + n [k < l], the phase e^(-i pi d / n) splits into
    diagonal unitaries and the sign -1 where k - l wraps, so B has the
    singular values of the real G_kl = sign(k - l) sqrt(Lambda_k) g_d
    sqrt(Lambda_l), with g_d its real or imaginary part: one real SVD of a
    half-size matrix; it agrees with the eigenvalues of the full H to
    4.4e-16 on the ``bounds_grid`` points.  Returns p_error, clipped to
    [0, 1/2], and the modes kept.
    """
    n, m = c.n_states, c.m
    half, mirror = weights[:m], weights[m - 1::-1]
    symmetric = np.array_equal(mirror, half)
    if not (np.array_equal(weights[m:], -half)
            and (symmetric or np.array_equal(mirror, -half))):
        raise AssertionError("weights lack the half-turn and reflection symmetries "
                             "of equal priors")
    lam = _gram_spectrum(c)
    w_hat = np.fft.ifft(weights)
    order = np.argsort(lam, kind="stable")
    cost = np.cumsum(np.sqrt(lam[order])) * float(np.max(np.abs(w_hat))) * math.sqrt(n)
    keep = np.sort(order[np.count_nonzero(cost <= MODE_DROP_BOUND):])
    g = np.exp(1j * math.pi * np.arange(n) / n) * w_hat
    g = g.imag if symmetric else g.real
    even, odd = keep[keep % 2 == 0], keep[keep % 2 == 1]
    lag = even[:, None] - odd[None, :]
    block = np.sign(lag) * g[lag]
    block *= np.sqrt(lam[even])[:, None] * np.sqrt(lam[odd])[None, :]
    trace_norm = 2.0 * float(np.sum(np.linalg.svd(block, compute_uv=False)))
    p_error = 0.5 * (1.0 - trace_norm)
    return min(max(0.0, p_error), 0.5), int(keep.size)


def bit_bound(c: Constellation) -> BinaryBound:
    """Helstrom bound on reading the data bit without the keystream.

    The two hypotheses are the whole-constellation mixtures carrying bit 0
    and bit 1, at equal priors.  With scrambling active the scramble bit
    hands each bit to both pair members, the mixtures coincide and the
    bound sits at exactly 1/2.
    """
    weights = np.zeros(c.n_states)
    if not c.osk:
        pairs = _pair_index_table(c)
        weights[pairs[1]], weights[pairs[0]] = 0.5 / c.m, -0.5 / c.m
    p_error, kept = _helstrom_error(c, weights)
    return BinaryBound(p_error=p_error, method="bit_dft", dim_used=kept)


def updown_bound(c: Constellation) -> BinaryBound:
    """Helstrom bound on the half-plane label of a keyed transmission.

    Hypotheses: the uniform mixture of all states whose label is 1 versus
    the uniform mixture of those labeled 0, equal priors.  This is the
    per-symbol quantity an eavesdropper needs for a label-record attack,
    which only exists against the fixed (non-scrambling) pairing.
    """
    if c.osk:
        raise ValueError("the half-plane bound applies to non-scrambling constellations")
    weights = np.where(c.label(np.arange(c.n_states)) == 1, 1.0, -1.0) / c.n_states
    p_error, kept = _helstrom_error(c, weights)
    return BinaryBound(p_error=p_error, method="updown_dft", dim_used=kept)


def srm_mary_error(c: Constellation) -> MaryBound:
    """Square-root-measurement error for resolving all 2M states.

    For a phase-symmetric set the success probability is mean(sqrt(Lambda))^2
    over the eigenvalues Lambda of the circulant Gram matrix; the error is
    clipped to [0, 1].
    """
    p_success = float(np.mean(np.sqrt(_gram_spectrum(c)))) ** 2
    return MaryBound(p_error=min(max(0.0, 1.0 - p_success), 1.0), n_states=c.n_states,
                     method="srm_dft")


# ---------------------------------------------------------------------------
# Explicit receivers


def heterodyne_sample(a: complex, rng: np.random.Generator,
                      size: "int | None" = None) -> "complex | np.ndarray":
    """Heterodyne outcomes: the amplitude plus circular Gaussian noise.

    Both quadratures are resolved at once, at the price of variance 1/2 in
    each (double the homodyne figure).
    """
    sd = math.sqrt(0.5)
    z = complex(a)
    re = rng.normal(z.real, sd, size)
    im = rng.normal(z.imag, sd, size)
    out = re + 1j * im
    return out if size is not None else complex(out)


def antipodal_homodyne_error(energy: float) -> float:
    """Exact bit-error probability of homodyne detection of +/- sqrt(S).

    Phi(-2 sqrt(S)) = erfc(sqrt(2 S)) / 2 with the sd-1/2 quadrature
    convention; decays like exp(-2S), the square root of the Helstrom
    exponent.
    """
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    return 0.5 * math.erfc(math.sqrt(2.0 * energy))


def nearest_phase_index(z: "complex | np.ndarray", c: Constellation,
                        decision_offset: float = 0.0) -> "int | np.ndarray":
    """Index of the constellation phase nearest to the argument of z.

    ``decision_offset`` rotates the receiver's grid against the sender's,
    where index i sits at pi i / M, modeling a misaligned phase reference.
    """
    rel = np.angle(np.asarray(z, dtype=np.complex128)) - decision_offset
    idx = np.round(rel / (math.pi / c.m)).astype(int) % c.n_states
    return idx if isinstance(z, np.ndarray) else int(idx)


def phase_density(phi: "float | np.ndarray", energy: float) -> "float | np.ndarray":
    """Density of the heterodyne phase error for an on-axis coherent state.

    For mean photon number S the angle of sqrt(S) + circular Gaussian noise
    (variance 1/2 per quadrature) has the closed form

        p(phi) = e^{-S}/(2 pi)
               + sqrt(S/pi) cos(phi) e^{-S sin^2 phi} Phi(sqrt(2S) cos(phi)),

    with Phi(sqrt(2S) cos(phi)) = erfc(-sqrt(S) cos(phi)) / 2.
    """
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    f = np.asarray(phi, dtype=float)
    s = energy
    cos = np.cos(f)
    cdf = 0.5 * np.asarray(_ERFC(-math.sqrt(s) * cos), dtype=float)
    out = (math.exp(-s) / (2.0 * math.pi)
           + math.sqrt(s / math.pi) * cos * np.exp(-s * np.sin(f) ** 2) * cdf)
    return out if isinstance(phi, np.ndarray) else float(out)


def _wedge_integrals(c: Constellation, decision_offset: float, panels: int,
                     x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Integral of the phase-error density over each of the 2M decision wedges.

    Composite Gauss-Legendre with ``panels`` equal panels per wedge, with
    nodes ``x`` and weights ``w`` on [-1, 1], all wedges evaluated at once.
    The density is 2 pi periodic, so each wedge is integrated in place.
    """
    width = math.pi / c.m
    h = width / panels
    offsets = ((np.arange(panels)[:, None] + 0.5 * (x[None, :] + 1.0)) * h).ravel()
    lower = width * (np.arange(c.n_states) - 0.5) + decision_offset
    density = phase_density(lower[:, None] + offsets[None, :], c.energy)
    return 0.5 * h * (density @ np.tile(w, panels))


def heterodyne_index_transition(c: Constellation, decision_offset: float = 0.0) -> np.ndarray:
    """Transition matrix T[sent, decided] of a nearest-phase heterodyne receiver.

    Entry (t, m) is the probability that a heterodyne measurement of state t,
    decided by the nearest point of a grid rotated by ``decision_offset``,
    lands on index m.  The matrix is circulant; each distinct wedge integral
    of the phase-error density is evaluated once.  The quadrature doubles
    its panel count until two successive estimates agree within
    WEDGE_QUAD_TOL, and fails past WEDGE_PANELS_CAP panels.
    """
    if c.energy == 0.0:
        return np.full((c.n_states, c.n_states), 1.0 / c.n_states)
    n = c.n_states
    x, w = np.polynomial.legendre.leggauss(WEDGE_NODES)
    panels = WEDGE_PANELS_START
    q = _wedge_integrals(c, decision_offset, panels, x, w)
    while True:
        panels *= 2
        if panels > WEDGE_PANELS_CAP:
            raise AssertionError(f"wedge quadrature unconverged at {panels // 2} panels")
        coarse, q = q, _wedge_integrals(c, decision_offset, panels, x, w)
        if float(np.max(np.abs(q - coarse))) <= WEDGE_QUAD_TOL:
            break
    total = float(q.sum())
    if abs(total - 1.0) > TRANSITION_ROW_TOL:
        raise AssertionError(f"wedge integrals sum to {total}, expected 1")
    q /= total
    # T[sent, decided] = q[(decided - sent) mod n]
    return q[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def exponent_fit(points: "np.ndarray | list[tuple[float, float]]") -> ExponentFit:
    """Fit ln(p_error) = slope * s + intercept over (s, p_error) pairs.

    Requires at least four points with p_error strictly inside (0, 0.5);
    zeros have no logarithm and values at or above one half carry no decay
    information.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise ValueError("need at least four (s, p_error) points")
    s, p = pts[:, 0], pts[:, 1]
    if np.any(p <= 0.0) or np.any(p >= 0.5):
        raise ValueError("every p_error must lie strictly in (0, 0.5)")
    y = np.log(p)
    slope, intercept = np.polyfit(s, y, 1)
    resid = y - (slope * s + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
