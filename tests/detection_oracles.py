"""Independent routes to the constellation detection bounds, used as test oracles.

``yzero.detection`` computes ``bit_bound``, ``updown_bound`` and
``srm_mary_error`` on one route, the DFT spectrum of the circulant Gram
matrix, and takes each binary bound, at equal priors, from one real SVD of
a half-size block.  The full-matrix form of that route, one ``eigvalsh``
over every kept DFT mode, is kept here to pin it, and so is its per-call
form, which redoes the energy-independent weight spectrum at every point.
The other routes here share
none of that code: the explicit Gram matrix and its eigendecomposition, and
density matrices on a truncated Fock basis.  Both carry their own numerical
error.  The Gram route squares the state amplitudes into overlaps, so
eigenvalues below the eigensolver's noise (about n eps) are unresolvable;
it sets them to zero, since the square root of that noise would couple
into the result at the 1e-8 level near the vacuum.  Eigenvalues just above
the noise still cost up to 6.9e-9 at M = 32.  The Fock route drops the
amplitude beyond the Poisson tail tolerance, which costs about sqrt(tol).

The scipy forms the package used before it went numpy-only live here too:
the Poisson pmf from ``gammaln``, the normal cdf from ``ndtr`` and the wedge
integrals from adaptive ``quad``; the Fock route's ``pdtrc`` truncation is
``fock_oracles``'.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

import codec_oracles
import fock_oracles
from yzero import codec, detection

# Eigenvalues of a Gram matrix are clipped at zero above this; anything more
# negative indicates a broken input.
GRAM_EIG_FLOOR = -1e-8

# Poisson tail tolerance of the Fock oracle.  Its error grows like
# sqrt(tol): at 1e-14 it is 1.4e-8 off at M=32, S=9.5, at 1e-16 under 1e-9
# for M <= 32, S <= 12.
FOCK_TOL = 1e-16


def gram_matrix(amps: np.ndarray) -> np.ndarray:
    """Pairwise coherent overlaps <a_i|a_j> from amplitudes, in closed form."""
    z = np.asarray(amps, dtype=np.complex128)
    half = 0.5 * np.abs(z) ** 2
    return np.exp(-half[:, None] - half[None, :] + np.conj(z)[:, None] * z[None, :])


def gram_sqrt(gram: np.ndarray) -> np.ndarray:
    """Positive square root of a (numerically) PSD Gram matrix, noise eigenvalues zeroed."""
    g, u = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    if float(g[0]) < GRAM_EIG_FLOOR:
        raise ValueError(f"Gram matrix has eigenvalue {g[0]} far below zero")
    g = np.where(g > gram.shape[0] * np.finfo(float).eps * g[-1], g, 0.0)
    return (u * np.sqrt(g)) @ u.conj().T


def gram_trace_norm(amps: np.ndarray, weights: np.ndarray) -> float:
    """Trace norm of sum_i w_i |a_i><a_i|, via the spectrum of G^{1/2} diag(w) G^{1/2}."""
    gh = gram_sqrt(gram_matrix(amps))
    h = gh @ (np.asarray(weights, dtype=float)[:, None] * gh)
    return float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))))


def _bit_weights(c: codec.Constellation, p0: float, scramble: bool = False) -> np.ndarray:
    """p1 rho_1 - p0 rho_0 as weights on the states, from the encoder.

    With ``scramble`` each bit also mixes over a uniform scramble bit, so it
    lands on both members of every pair.
    """
    weights = np.zeros(c.n_states)
    for bit, sign, prior in ((1, 1.0, 1.0 - p0), (0, -1.0, p0)):
        members = [codec_oracles.encode(bit, basis, s, c).index
                   for basis in range(c.m) for s in ((0, 1) if scramble else (0,))]
        for j in members:
            weights[j] += sign * prior / len(members)
    return weights


def _updown_weights(c: codec.Constellation) -> np.ndarray:
    return np.array([0.5 if c.label(j) else -0.5 for j in range(c.n_states)]) / c.m


def gram_bit_bound(c: codec.Constellation) -> float:
    return 0.5 * (1.0 - gram_trace_norm(c.amplitudes(), _bit_weights(c, 0.5)))


def gram_updown_bound(c: codec.Constellation) -> float:
    return 0.5 * (1.0 - gram_trace_norm(c.amplitudes(), _updown_weights(c)))


def dft_eigvalsh_error(c: codec.Constellation, weights: np.ndarray) -> "tuple[float, int]":
    """Helstrom error and modes kept, from eigvalsh of the full kept DFT matrix.

    The same spectrum, mode-drop rule and clip as ``detection._helstrom_error``,
    without its half-turn and reflection reductions or its split per M.
    """
    n = c.n_states
    lam = detection._gram_spectrum(c)
    w_hat = np.fft.ifft(weights)
    order = np.argsort(lam, kind="stable")
    cost = np.cumsum(np.sqrt(lam[order])) * float(np.max(np.abs(w_hat))) * math.sqrt(n)
    keep = np.sort(order[np.count_nonzero(cost <= detection.MODE_DROP_BOUND):])
    root = np.sqrt(lam[keep])
    h = root[:, None] * w_hat[(keep[:, None] - keep[None, :]) % n] * root[None, :]
    p_error = 0.5 * (1.0 - float(np.sum(np.abs(np.linalg.eigvalsh(h)))))
    return min(max(0.0, p_error), 0.5), int(keep.size)


def per_call_helstrom_error(c: codec.Constellation, weights: np.ndarray,
                            lam: np.ndarray) -> "tuple[float, int]":
    """Helstrom error and modes kept, every step redone for one (weights, spectrum) pair.

    The form ``detection`` used before it split the bound into a weight
    spectrum built once per M and a per-point solve: the same float
    operations in the same association, so the two agree bit for bit.
    ``lam`` is ``detection._gram_spectrum(c)``.
    """
    n, m = c.n_states, c.m
    half, mirror = weights[:m], weights[m - 1::-1]
    symmetric = np.array_equal(mirror, half)
    if not (np.array_equal(weights[m:], -half)
            and (symmetric or np.array_equal(mirror, -half))):
        raise AssertionError("weights lack the half-turn and reflection symmetries "
                             "of equal priors")
    w_hat = np.fft.ifft(weights)
    order = np.argsort(lam, kind="stable")
    cost = np.cumsum(np.sqrt(lam[order])) * float(np.max(np.abs(w_hat))) * math.sqrt(n)
    keep = np.sort(order[np.count_nonzero(cost <= detection.MODE_DROP_BOUND):])
    g = np.exp(1j * math.pi * np.arange(n) / n) * w_hat
    g = g.imag if symmetric else g.real
    even, odd = keep[keep % 2 == 0], keep[keep % 2 == 1]
    lag = even[:, None] - odd[None, :]
    block = np.sign(lag) * g[lag]
    block *= np.sqrt(lam[even])[:, None] * np.sqrt(lam[odd])[None, :]
    trace_norm = 2.0 * float(np.sum(np.linalg.svd(block, compute_uv=False)))
    p_error = 0.5 * (1.0 - trace_norm)
    return min(max(0.0, p_error), 0.5), int(keep.size)


def per_call_bit_bound(c: codec.Constellation) -> "tuple[float, int]":
    return per_call_helstrom_error(c, _bit_weights(c, 0.5), detection._gram_spectrum(c))


def per_call_updown_bound(c: codec.Constellation) -> "tuple[float, int]":
    return per_call_helstrom_error(c, _updown_weights(c), detection._gram_spectrum(c))


def per_call_srm_error(c: codec.Constellation) -> float:
    p_success = float(np.mean(np.sqrt(detection._gram_spectrum(c)))) ** 2
    return min(max(0.0, 1.0 - p_success), 1.0)


def eigvalsh_bit_bound(c: codec.Constellation) -> "tuple[float, int]":
    return dft_eigvalsh_error(c, _bit_weights(c, 0.5))


def eigvalsh_updown_bound(c: codec.Constellation) -> "tuple[float, int]":
    return dft_eigvalsh_error(c, _updown_weights(c))


def fock_bit_bound(c: codec.Constellation, tol: float = FOCK_TOL) -> float:
    rho0, rho1, _ = fock_oracles.bit_ensembles(c, tol=tol)
    return fock_oracles.helstrom_mixed(rho0, rho1).p_error


def fock_updown_bound(c: codec.Constellation, tol: float = FOCK_TOL) -> float:
    dim = fock_oracles.pdtrc_truncation_dim(c.energy, tol)
    states = [fock_oracles.coherent_fock(a, dim) for a in c.amplitudes()]
    labels = np.array([c.label(j) for j in range(c.n_states)])
    up = fock_oracles.density_from_ensemble(states, (labels == 1) / c.m)
    down = fock_oracles.density_from_ensemble(states, (labels == 0) / c.m)
    return fock_oracles.helstrom_mixed(down, up).p_error


def pure_pair_error(a0: complex, a1: complex, p0: float = 0.5) -> float:
    """Helstrom error between two coherent states, in closed form.

    Writes 1 - 4 p0 p1 |<a0|a1>|^2 as (p0 - p1)^2 - 4 p0 p1 expm1(-|a0 - a1|^2),
    which keeps full precision when the states nearly coincide.
    """
    p1 = 1.0 - p0
    arg = (p0 - p1) ** 2 - 4.0 * p0 * p1 * math.expm1(-abs(a0 - a1) ** 2)
    return 0.5 * (1.0 - math.sqrt(arg))


def srm_mary_error_direct(c: codec.Constellation) -> detection.MaryBound:
    """Square-root-measurement error via the explicit Gram square root.

    Success probability (1/n) sum_i (G^{1/2})_{ii}^2.
    """
    diag = np.real(np.diag(gram_sqrt(gram_matrix(c.amplitudes()))))
    return detection.MaryBound(p_error=1.0 - float(np.mean(diag**2)))


def scipy_poisson_pmf(energy: float, size: int) -> np.ndarray:
    """P[N = k] for k < size, N ~ Poisson(energy), as exp(xlogy(k, S) - gammaln(k + 1) - S)."""
    k = np.arange(size)
    return np.exp(special.xlogy(k, energy) - special.gammaln(k + 1) - energy)


def ndtr_antipodal_homodyne_error(energy: float) -> float:
    return float(special.ndtr(-2.0 * math.sqrt(energy)))


def ndtr_phase_density(phi: "float | np.ndarray", energy: float) -> "float | np.ndarray":
    cos = np.cos(phi)
    return (math.exp(-energy) / (2.0 * math.pi)
            + math.sqrt(energy / math.pi) * cos * np.exp(-energy * np.sin(phi) ** 2)
            * special.ndtr(math.sqrt(2.0 * energy) * cos))


def quad_wedge_integrals(c: codec.Constellation, decision_offset: float = 0.0) -> np.ndarray:
    """Integral of the phase-error density over each decision wedge, by adaptive quad."""
    half = math.pi / (2 * c.m)
    centers = math.pi * np.arange(c.n_states) / c.m + decision_offset
    return np.array([integrate.quad(ndtr_phase_density, x - half, x + half,
                                    args=(c.energy,), limit=200)[0] for x in centers])
