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
photon-number spread, not M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

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


@dataclass(frozen=True)
class BinaryBound:
    """Error probability of an optimal binary discrimination."""

    p_error: float
    method: str
    priors: "tuple[float, float]" = (0.5, 0.5)
    dim_used: "int | None" = None
    deficit: float = 0.0


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


def _check_priors(p0: float) -> "tuple[float, float]":
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("prior p0 must lie in [0, 1]")
    return (p0, 1.0 - p0)


def helstrom_pure(a0: complex, a1: complex, p0: float = 0.5) -> BinaryBound:
    """Minimum error probability between two pure coherent states.

    Closed form (1 - sqrt(arg)) / 2 with arg = 1 - 4 p0 p1 |<a0|a1>|^2; no
    truncation.  The argument is evaluated as
    (p0 - p1)^2 + 4 p0 p1 (1 - exp(-|a0 - a1|^2)), which does not cancel when
    the states nearly coincide, and the error as the equal
    2 p0 p1 exp(-|a0 - a1|^2) / (1 + sqrt(arg)), which does not cancel when
    they are far apart.
    """
    priors = _check_priors(p0)
    d2 = abs(complex(a0) - complex(a1)) ** 2
    arg = (priors[0] - priors[1]) ** 2 + 4.0 * priors[0] * priors[1] * -math.expm1(-d2)
    pe = 2.0 * priors[0] * priors[1] * math.exp(-d2) / (1.0 + math.sqrt(arg))
    return BinaryBound(p_error=pe, method="helstrom_pure", priors=priors)


def truncation_dim(max_energy: float, tol: float) -> int:
    """Smallest photon number d with Poisson tail P[n >= d] below tol.

    For mean photon number S the photon distribution is Poisson(S); the
    returned d is the least d such that P[n >= d] < tol.
    """
    if not math.isfinite(max_energy) or max_energy < 0:
        raise ValueError("max_energy must be finite and nonnegative")
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    if max_energy == 0.0:
        return 1
    # P[n >= d] = pdtrc(d - 1, S); scan a window comfortably past the mean.
    hi = int(max_energy + 20.0 * math.sqrt(max_energy + 1.0) + 40.0)
    while True:
        dims = np.arange(1, hi + 1)
        tail = special.pdtrc(dims - 1, max_energy)
        hit = np.nonzero(tail < tol)[0]
        if hit.size:
            return int(dims[hit[0]])
        hi *= 2


def _gram_spectrum(c: Constellation) -> np.ndarray:
    """Eigenvalues of the Gram matrix of the 2M states, in DFT order.

    The Gram matrix <a_j|a_l> = exp(-S + S omega^(l-j)), omega = e^(i pi / M), is
    circulant, and its eigenvalues are the Poisson(S) photon distribution
    aliased onto n = 2M bins: Lambda_k = n sum_j P[N = k + j n].  They are
    nonnegative by construction, and the phase offset cancels.
    """
    n = c.n_states
    # Poisson mass tau left out of the window moves a binary p_error by at
    # most sqrt(tau) n max|w| <= 2 sqrt(tau), so a tail below
    # MODE_DROP_BOUND^2 costs at most twice the mode-drop bound.
    window = truncation_dim(c.energy, MODE_DROP_BOUND**2)
    k = np.arange(n * math.ceil(window / n))
    pmf = np.exp(special.xlogy(k, c.energy) - special.gammaln(k + 1) - c.energy)
    lam = n * pmf.reshape(-1, n).sum(axis=0)
    mass = float(lam.sum()) / n
    if abs(mass - 1.0) > SPECTRUM_MASS_TOL:
        raise AssertionError(f"Poisson window holds mass {mass}, expected 1")
    return lam


def _weighted_trace_norm(c: Constellation, weights: np.ndarray) -> "tuple[float, int]":
    """Trace norm of T = sum_j w_j |a_j><a_j| over the constellation states.

    In the DFT basis the nonzero spectrum of T is that of
    Lambda^(1/2) W Lambda^(1/2), with W_kl = ifft(w)[(k - l) mod n].  Modes
    are dropped, smallest first, while sum_dropped sqrt(Lambda_k) max|ifft(w)|
    sqrt(n) stays at or below MODE_DROP_BOUND.  Each dropped row (and column)
    of the matrix has 2-norm at most sqrt(Lambda_k) max|ifft(w)| sqrt(n),
    because sum Lambda = n, so that sum bounds the change in
    p_error = (1 - ||T||_1) / 2.  Returns the trace norm and the modes kept.
    """
    n = c.n_states
    lam = _gram_spectrum(c)
    w_hat = np.fft.ifft(weights)
    order = np.argsort(lam, kind="stable")
    cost = np.cumsum(np.sqrt(lam[order])) * float(np.max(np.abs(w_hat))) * math.sqrt(n)
    keep = np.sort(order[np.count_nonzero(cost <= MODE_DROP_BOUND):])
    root = np.sqrt(lam[keep])
    h = root[:, None] * w_hat[(keep[:, None] - keep[None, :]) % n] * root[None, :]
    return float(np.sum(np.abs(np.linalg.eigvalsh(h)))), int(keep.size)


def bit_bound(c: Constellation, p0: float = 0.5) -> BinaryBound:
    """Helstrom bound on reading the data bit without the keystream.

    The two hypotheses are the whole-constellation mixtures carrying bit 0
    and bit 1.  With scrambling active the mixtures coincide and the bound
    sits at exactly 1/2.
    """
    priors = _check_priors(p0)
    pairs = _pair_index_table(c)
    share = 1.0 / (c.m * (2 if c.osk else 1))
    weights = np.zeros(c.n_states)
    weights[pairs[1]] += priors[1] * share
    weights[pairs[0]] -= priors[0] * share
    if c.osk:
        # the scramble bit hands each bit to the other pair member
        weights[pairs[0]] += priors[1] * share
        weights[pairs[1]] -= priors[0] * share
    tn, kept = _weighted_trace_norm(c, weights)
    return BinaryBound(p_error=0.5 * (1.0 - tn), method="bit_dft", priors=priors,
                       dim_used=kept, deficit=0.0)


def updown_bound(c: Constellation) -> BinaryBound:
    """Helstrom bound on the half-plane label of a keyed transmission.

    Hypotheses: the uniform mixture of all states whose label is 1 versus
    the uniform mixture of those labeled 0, equal priors.  This is the
    per-symbol quantity an eavesdropper needs for a label-record attack,
    which only exists against the fixed (non-scrambling) pairing.
    """
    if c.osk:
        raise ValueError("the half-plane bound applies to non-scrambling constellations")
    labels = c.label(np.arange(c.n_states))
    if labels.sum() * 2 != c.n_states:
        raise AssertionError("half-plane labels failed to split the constellation")
    weights = np.where(labels == 1, 1.0, -1.0) / c.n_states
    tn, kept = _weighted_trace_norm(c, weights)
    return BinaryBound(p_error=0.5 * (1.0 - tn), method="updown_dft",
                       dim_used=kept, deficit=0.0)


def srm_mary_error(c: Constellation) -> MaryBound:
    """Square-root-measurement error for resolving all 2M states.

    For a phase-symmetric set the success probability is mean(sqrt(Lambda))^2
    over the eigenvalues Lambda of the circulant Gram matrix.
    """
    p_success = float(np.mean(np.sqrt(_gram_spectrum(c)))) ** 2
    return MaryBound(p_error=1.0 - p_success, n_states=c.n_states, method="srm_dft")


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

    Phi(-2 sqrt(S)) with the sd-1/2 quadrature convention; decays like
    exp(-2S), the square root of the Helstrom exponent.
    """
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    return float(special.ndtr(-2.0 * math.sqrt(energy)))


def nearest_phase_index(z: "complex | np.ndarray", c: Constellation,
                        decision_offset: float = 0.0) -> "int | np.ndarray":
    """Index of the constellation phase nearest to the argument of z.

    ``decision_offset`` rotates the receiver's reference grid relative to
    the transmitter's, modeling a misaligned phase reference.
    """
    rel = np.angle(np.asarray(z, dtype=np.complex128)) - c.phase_offset - decision_offset
    idx = np.round(rel / (math.pi / c.m)).astype(int) % c.n_states
    return idx if isinstance(z, np.ndarray) else int(idx)


def phase_density(phi: "float | np.ndarray", energy: float) -> "float | np.ndarray":
    """Density of the heterodyne phase error for an on-axis coherent state.

    For mean photon number S the angle of sqrt(S) + circular Gaussian noise
    (variance 1/2 per quadrature) has the closed form

        p(phi) = e^{-S}/(2 pi)
               + sqrt(S/pi) cos(phi) e^{-S sin^2 phi} Phi(sqrt(2S) cos(phi)).
    """
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    f = np.asarray(phi, dtype=float)
    s = energy
    cos = np.cos(f)
    out = (math.exp(-s) / (2.0 * math.pi)
           + math.sqrt(s / math.pi) * cos * np.exp(-s * np.sin(f) ** 2)
           * special.ndtr(math.sqrt(2.0 * s) * cos))
    return out if isinstance(phi, np.ndarray) else float(out)


def heterodyne_index_transition(c: Constellation, decision_offset: float = 0.0) -> np.ndarray:
    """Transition matrix T[sent, decided] of a nearest-phase heterodyne receiver.

    Entry (t, m) is the probability that a heterodyne measurement of state t,
    decided by the nearest point of a grid rotated by ``decision_offset``,
    lands on index m.  The matrix is circulant; each distinct wedge integral
    of the phase-error density is evaluated once.
    """
    if c.energy == 0.0:
        return np.full((c.n_states, c.n_states), 1.0 / c.n_states)
    n = c.n_states
    half = math.pi / (2 * c.m)
    q = np.empty(n)
    for d in range(n):
        # the density is 2 pi periodic, so the wedge may be integrated in place
        center = math.pi * d / c.m + decision_offset
        val, _ = integrate.quad(phase_density, center - half, center + half,
                                args=(c.energy,), limit=200)
        q[d] = val
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
