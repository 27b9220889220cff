"""The heterodyne receiver: the record the ``quantum`` regime's eavesdropper takes.

A heterodyne measurement resolves both quadratures of the intercepted
coherent state at once, at the price of variance 1/2 in each, and an
intercepting receiver decides the constellation index whose phase lies
nearest the outcome's argument.  This module holds that receiver: its
sampler (``heterodyne_sample``), its decision (``nearest_phase_index``),
the closed-form density of its phase error (``phase_density``) and the
exact transition matrix from sent to decided index
(``heterodyne_index_transition``), which the quantum regime's entropy
engine scores.

The module needs numpy and ``math`` only.  The normal cdf is
erfc(-x / sqrt 2) / 2.  The wedge integrals are composite Gauss-Legendre
sums whose panel count doubles until two estimates agree.  Each panel
takes one fixed 16-node rule, stored below as the eight positive nodes
and weights of numpy's own 16-node Gauss-Legendre rule, mirrored.  numpy
mirrors its rule exactly, so the sums are the ones it gives, bit for bit,
and no run loads numpy's polynomial subpackage or solves for the nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import Constellation, _check_energy
from .errors import RegimeCapError

# Row sums of a numerically integrated decision matrix must land this close
# to one before renormalization.
TRANSITION_ROW_TOL = 1e-9

# Above this energy the phase density's peak, about 1 / sqrt(2 S) wide, can
# fall between the wedge quadrature's nodes: with the decision grid turned
# by up to 2 pi, the row sums miss one or the panel doubling stops
# unconverged from S = 1.1e5 at M = 2, 6.3e5 at M = 4 and 5e6 at M = 16.
# The cap leaves a factor of ten below the first of these.
WEDGE_ENERGY_CAP = 1e4

# The wedge quadrature doubles its panel count until two successive
# estimates of every wedge integral agree to this absolute precision.
WEDGE_QUAD_TOL = 1e-13

# The first panel count, and the panel count past which the wedge
# quadrature gives up.
WEDGE_PANELS_START = 2
WEDGE_PANELS_CAP = 1024

# The 16-node Gauss-Legendre rule on [-1, 1], exact through degree 31: the
# positive nodes in ascending order, each with its weight.
_GL_POSITIVE = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
# all 16 nodes ascending, x[i] == -x[15 - i] and w[i] == w[15 - i]
_GL_NODES = np.array([-x for x, _ in _GL_POSITIVE[::-1]] + [x for x, _ in _GL_POSITIVE])
_GL_WEIGHTS = np.array([w for _, w in _GL_POSITIVE[::-1]] + [w for _, w in _GL_POSITIVE])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _check_wedge_energy(energy: float) -> None:
    if energy > WEDGE_ENERGY_CAP:
        raise RegimeCapError(f"the heterodyne record takes S <= {WEDGE_ENERGY_CAP}, got "
                             f"{energy}: above it the wedge quadrature misses the phase "
                             "density's peak")


def heterodyne_sample(a: complex, rng: np.random.Generator,
                      size: "int | tuple[int, ...]") -> np.ndarray:
    """An array of ``size`` heterodyne outcomes: the amplitude plus circular Gaussian noise.

    Both quadratures are resolved at once, at the price of variance 1/2 in
    each (double the homodyne figure).  The real parts are drawn first.
    """
    z, sd = complex(a), math.sqrt(0.5)
    return rng.normal(z.real, sd, size) + 1j * rng.normal(z.imag, sd, size)


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
    _check_energy(energy)
    f = np.asarray(phi, dtype=float)
    s = energy
    cos = np.cos(f)
    cdf = 0.5 * np.asarray(_ERFC(-math.sqrt(s) * cos), dtype=float)
    out = (math.exp(-s) / (2.0 * math.pi)
           + math.sqrt(s / math.pi) * cos * np.exp(-s * np.sin(f) ** 2) * cdf)
    return out if isinstance(phi, np.ndarray) else float(out)


def _wedge_integrals(c: Constellation, decision_offset: float, panels: int) -> np.ndarray:
    """Integral of the phase-error density over each of the 2M decision wedges.

    Composite Gauss-Legendre with ``panels`` equal panels per wedge, each
    taking the 16-node rule, all wedges evaluated at once.  The density is
    2 pi periodic, so each wedge is integrated in place.
    """
    width = math.pi / c.m
    h = width / panels
    offsets = ((np.arange(panels)[:, None] + 0.5 * (_GL_NODES[None, :] + 1.0)) * h).ravel()
    lower = width * (np.arange(c.n_states) - 0.5) + decision_offset
    density = phase_density(lower[:, None] + offsets[None, :], c.energy)
    return 0.5 * h * (density @ np.tile(_GL_WEIGHTS, panels))


def heterodyne_index_transition(c: Constellation, decision_offset: float = 0.0) -> np.ndarray:
    """Transition matrix T[sent, decided] of a nearest-phase heterodyne receiver.

    Entry (t, m) is the probability that a heterodyne measurement of state t,
    decided by the nearest point of a grid rotated by ``decision_offset``,
    lands on index m.  The matrix is circulant; each distinct wedge integral
    of the phase-error density is evaluated once.  The quadrature doubles
    its panel count until two successive estimates agree within
    WEDGE_QUAD_TOL, and fails past WEDGE_PANELS_CAP panels.  Energies above
    WEDGE_ENERGY_CAP raise RegimeCapError.
    """
    _check_wedge_energy(c.energy)
    if c.energy == 0.0:
        return np.full((c.n_states, c.n_states), 1.0 / c.n_states)
    n = c.n_states
    panels = WEDGE_PANELS_START
    q = _wedge_integrals(c, decision_offset, panels)
    while True:
        panels *= 2
        if panels > WEDGE_PANELS_CAP:
            raise AssertionError(f"wedge quadrature unconverged at {panels // 2} panels")
        coarse, q = q, _wedge_integrals(c, decision_offset, panels)
        if float(np.max(np.abs(q - coarse))) <= WEDGE_QUAD_TOL:
            break
    total = float(q.sum())
    if abs(total - 1.0) > TRANSITION_ROW_TOL:
        raise AssertionError(f"wedge integrals sum to {total}, expected 1")
    q /= total
    # T[sent, decided] = q[(decided - sent) mod n]
    return q[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
