"""Truncated Fock-space numerics for coherent-state ensembles, kept as a test oracle.

The package computes every constellation bound from the circulant Gram
spectrum and builds no Fock basis.  This module is the independent route:
explicit photon-number coefficients, density matrices and a Hermitian
eigensolve, down to the mixed-state Helstrom bound on the data bit.

Coherent states live in an infinite-dimensional space; every routine here
works in a finite photon-number basis whose size is chosen from the Poisson
tail of the most energetic state involved.  Overlaps are always available
in closed form, so truncation only enters when a density matrix or an
eigendecomposition is actually required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from codec_oracles import encode
from yzero.codec import Constellation
from yzero.detection import truncation_dim

# Default bound on the Poisson tail mass dropped by truncation.
TAIL_TOL = 1e-10

# A matrix handed to the Hermitian eigensolver may deviate from exact
# Hermiticity by at most this much (max absolute entry of M - M^dagger).
HERMITICITY_TOL = 1e-10

# Invariants enforced on density matrices.
DENSITY_HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-9
DENSITY_EIG_FLOOR = -1e-9


@dataclass(frozen=True)
class ComplexAmplitude:
    """Complex field amplitude of a coherent state.

    The squared modulus is the mean photon number of the state.
    """

    re: float
    im: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("amplitude components must be finite")

    @classmethod
    def from_polar(cls, modulus: float, phase: float) -> "ComplexAmplitude":
        if modulus < 0:
            raise ValueError("modulus must be nonnegative")
        return cls(modulus * math.cos(phase), modulus * math.sin(phase))

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @property
    def energy(self) -> float:
        """Mean photon number |amplitude|^2."""
        return self.re * self.re + self.im * self.im

    @property
    def phase(self) -> float:
        return math.atan2(self.im, self.re)


def _as_complex(a: "ComplexAmplitude | complex | float") -> complex:
    if isinstance(a, ComplexAmplitude):
        return a.z
    return complex(a)


def coherent_overlap(a: "ComplexAmplitude | complex", b: "ComplexAmplitude | complex") -> complex:
    """Exact inner product <a|b> of two coherent states.

    Uses exp(-|a|^2/2 - |b|^2/2 + conj(a) b), valid for any amplitudes
    without constructing Fock coefficients.
    """
    za = _as_complex(a)
    zb = _as_complex(b)
    return np.exp(-0.5 * abs(za) ** 2 - 0.5 * abs(zb) ** 2 + np.conj(za) * zb)


@dataclass(frozen=True)
class FockVector:
    """State vector in the photon-number basis."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "FockVector") -> complex:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.coeffs, other.coeffs))

    def normalized(self) -> "tuple[FockVector, float]":
        """Unit-norm copy together with the truncation deficit 1 - ||v||^2."""
        n2 = float(np.real(np.vdot(self.coeffs, self.coeffs)))
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return FockVector(self.coeffs / math.sqrt(n2)), 1.0 - n2


def coherent_fock(a: "ComplexAmplitude | complex", dim: int) -> FockVector:
    """Coherent-state coefficients c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    Built by the recurrence c_n = c_{n-1} a / sqrt(n), which stays finite
    for mean photon numbers far beyond anything used here.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    z = _as_complex(a)
    c = np.empty(dim, dtype=np.complex128)
    c[0] = math.exp(-0.5 * abs(z) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * z / math.sqrt(n)
    return FockVector(c)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on the truncated basis.

    ``deficit`` records the largest norm loss among the truncated pure
    states that entered the mixture, before renormalization.
    """

    entries: np.ndarray
    deficit: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("entries must be a square matrix")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def validate(self) -> None:
        """Check the density-matrix invariants; raise ValueError on violation."""
        m = self.entries
        if float(np.max(np.abs(m - m.conj().T))) > DENSITY_HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"trace is {tr}, expected 1 within {DENSITY_TRACE_TOL}")
        w = np.linalg.eigvalsh(m)
        if float(w[0]) < DENSITY_EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {w[0]} below floor {DENSITY_EIG_FLOOR}")


def density_from_ensemble(states: Sequence[FockVector], probs: Iterable[float]) -> DensityMatrix:
    """Mixture sum_i p_i |v_i><v_i| with renormalization of truncated states.

    Each state is renormalized to unit norm first and the worst deficit is
    recorded; the assembled matrix is then symmetrized and trace-normalized
    so the result satisfies the density invariants exactly up to rounding.
    """
    p = np.asarray(list(probs), dtype=float)
    if len(states) != p.size or p.size == 0:
        raise ValueError("states and probs must be nonempty and of equal length")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1 within 1e-12")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise ValueError("all states must share one truncated dimension")
    rho = np.zeros((dim, dim), dtype=np.complex128)
    worst = 0.0
    for s, pi in zip(states, p):
        if pi == 0.0:
            continue
        unit, deficit = s.normalized()
        worst = max(worst, deficit)
        rho += pi * np.outer(unit.coeffs, unit.coeffs.conj())
    rho = 0.5 * (rho + rho.conj().T)
    rho /= float(np.real(np.trace(rho)))
    out = DensityMatrix(rho, deficit=worst)
    out.validate()
    return out


def _as_matrix(m: "DensityMatrix | np.ndarray") -> np.ndarray:
    if isinstance(m, DensityMatrix):
        return m.entries
    return np.asarray(m, dtype=np.complex128)


def hermitian_eig(m: "DensityMatrix | np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Rejects input whose anti-Hermitian part exceeds HERMITICITY_TOL, then
    symmetrizes before calling the solver so roundoff cannot leak in.
    """
    a = _as_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix deviates from Hermitian by {dev:.3e}")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return w, v


def trace_norm(m: "DensityMatrix | np.ndarray") -> float:
    """Trace norm ||M||_1 = sum of absolute eigenvalues of a Hermitian matrix."""
    w, _ = hermitian_eig(m)
    return float(np.sum(np.abs(w)))


def bit_ensembles(c: Constellation, p0: float = 0.5, tol: float = TAIL_TOL,
                  scramble: bool = False) -> "tuple[DensityMatrix, DensityMatrix, DensityMatrix]":
    """Density matrices (rho_0, rho_1, rho_total) seen by an observer without the key.

    rho_b mixes, uniformly over bases, every constellation state that carries
    data bit b; rho_total = p0 rho_0 + (1 - p0) rho_1.  With ``scramble`` it
    also mixes over a uniform scramble bit, which flips the data bit before
    the pair member is chosen: both pair members then carry each bit and the
    two ensembles coincide.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    dim = truncation_dim(c.energy, tol)
    states = [coherent_fock(a, dim) for a in c.amplitudes()]
    weights = {0: np.zeros(c.n_states), 1: np.zeros(c.n_states)}
    scrambles = (0, 1) if scramble else (0,)
    for bit in (0, 1):
        for basis in range(c.m):
            for s in scrambles:
                rec = encode(bit, basis, s, c)
                weights[bit][rec.index] += 1.0
        weights[bit] /= weights[bit].sum()
    rho0 = density_from_ensemble(states, weights[0])
    rho1 = density_from_ensemble(states, weights[1])
    total = density_from_ensemble(states, p0 * weights[0] + (1.0 - p0) * weights[1])
    return rho0, rho1, total


@dataclass(frozen=True)
class MixedBound:
    """Helstrom error of two truncated density matrices, their basis size and worst deficit."""

    p_error: float
    dim_used: int
    deficit: float


def helstrom_mixed(rho0: DensityMatrix, rho1: DensityMatrix, p0: float = 0.5) -> MixedBound:
    """Minimum error probability between two density matrices.

    Evaluates (1 - ||p1 rho1 - p0 rho0||_1) / 2 on the common truncated basis.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("prior p0 must lie in [0, 1]")
    rho0.validate()
    rho1.validate()
    if rho0.dim != rho1.dim:
        raise ValueError("density matrices must share one truncated dimension")
    tn = trace_norm((1.0 - p0) * rho1.entries - p0 * rho0.entries)
    pe = 0.5 * (1.0 - tn)
    return MixedBound(p_error=pe, dim_used=rho0.dim, deficit=max(rho0.deficit, rho1.deficit))
