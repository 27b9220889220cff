"""Coding layer of the coherent-state stream cipher.

A constellation of 2M phases on a circle carries one data bit per symbol.
A short linear-feedback shift register expands a seed into a keystream;
each symbol consumes log2 M bits to pick a basis (an antipodal phase
pair).  The transmitted index is the pair member whose half-plane label
equals data_bit XOR (basis & 1).  Index i sits pi i / M above the
sender's axis, on which labels are read, so its label is i < M: the rule
is exact in the index and no float phase enters it.
The keystream chunks are GF(2)-linear in the register, so a seed's chunk
row is the XOR of the unit-seed rows at its set bits; ``encode_sequence``
and every analysis take the sent indices from those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Half-plane tie band: |sin(phase)| at or below this counts as lying on the
# axis line, where the sign of cos decides.  Constellation points sit
# at least sin(pi/M) from the axis, orders of magnitude above the band.
TIE_EPS = 1e-12

# Primitive feedback polynomials over GF(2), degree -> bitmask including the
# x^degree term (e.g. 0x13 = x^4 + x + 1).  Each generates the full period
# 2^degree - 1; verified by direct cycle enumeration in the test suite.
PRIMITIVE_POLYS: "dict[int, int]" = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1002D,
    17: 0x20009,
    18: 0x40081,
    19: 0x80027,
    20: 0x100009,
}


def halfplane_label(phase: "float | np.ndarray") -> "int | np.ndarray":
    """1 if the phase, taken from the axis, lies in the open half-plane above it, else 0.

    Within TIE_EPS of the axis line the sign of cos decides: a phase on the
    axis itself maps to 1, its antipode to 0.  Two antipodal phases rounded
    separately can still fall on the same side at the edge of that band, so
    a pair's labels come from one member, the other taking the complement.
    Elementwise over an array of phases (uint8 labels); an int for a scalar.
    """
    d = np.asarray(phase, dtype=float)
    s = np.sin(d)
    up = np.where(np.abs(s) > TIE_EPS, s > 0.0, np.cos(d) > 0.0)
    return int(up) if up.ndim == 0 else up.astype(np.uint8)


@dataclass(frozen=True)
class Constellation:
    """2M coherent states of one energy, state i at phase pi i / M from the label axis.

    m: number of antipodal basis pairs, a power of two so a whole number of
       keystream bits selects the basis.
    energy: mean photon number of every state.
    """

    m: int
    energy: float

    def __post_init__(self) -> None:
        _check_m(self.m)
        _check_energy(self.energy)

    @property
    def n_states(self) -> int:
        return 2 * self.m

    @property
    def bits_per_basis(self) -> int:
        return self.m.bit_length() - 1

    def amplitudes(self) -> np.ndarray:
        """All 2M amplitudes as a complex array."""
        phases = math.pi * np.arange(self.n_states) / self.m
        return math.sqrt(self.energy) * np.exp(1j * phases)

    def label(self, index: "int | np.ndarray") -> "int | np.ndarray":
        """Half-plane label of constellation points.

        Index i lies pi i / M above the axis: points 1 .. M - 1 are above it,
        point 0 is on it and counts as up, its antipode M as down.
        """
        idx = np.asarray(index)
        if np.any((idx < 0) | (idx >= self.n_states)):
            raise ValueError("index out of range")
        up = idx < self.m
        return int(up) if up.ndim == 0 else up.astype(np.uint8)


def _check_m(m: int) -> None:
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"m must be a positive power of two, got {m}")


def _check_energy(energy: float) -> None:
    if not math.isfinite(energy) or energy < 0:
        raise ValueError(f"energy must be finite and nonnegative, got {energy}")


def _check_poly(poly: int) -> None:
    if poly < 0 or poly.bit_length() < 3 or poly & 1 == 0:
        raise ValueError("polynomial must be a bitmask of degree at least 2 with a "
                         "constant term")


def _check_basis_bits(bits_per_basis: int) -> None:
    if bits_per_basis < 1:
        raise ValueError("a symbol needs at least one basis bit (m >= 2)")


def _check_seed(key_bits: int, seed: int) -> None:
    if not 0 < seed < (1 << key_bits):
        raise ValueError(f"seed must be a nonzero register value below 2^{key_bits}")


def _as_bits(bits: "np.ndarray | list[int]", name: str) -> np.ndarray:
    """``bits`` as a uint8 array; raises unless it is a 1-D sequence of 0s and 1s."""
    arr = np.asarray(bits)
    if arr.ndim != 1 or np.any((arr != 0) & (arr != 1)):
        raise ValueError(f"{name} must be a sequence of 0s and 1s")
    return arr.astype(np.uint8)


def _pair_index_table(c: Constellation) -> np.ndarray:
    """idx[bit, basis]: the member of pair {basis, basis + M} labeled bit XOR (basis & 1).

    The member with label 1 is basis itself, the one with label 0 its
    antipode basis + M.
    """
    basis = np.arange(c.m)
    return basis + c.m * (1 - (np.arange(2)[:, None] ^ (basis & 1)))


def _gf2_mul_mod(a: int, b: int, poly: int, degree: int) -> int:
    """a b mod poly over GF(2), both factors below x^degree."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> degree & 1:
            a ^= poly
    return out


def unit_keystreams(poly: int, n_symbols: int, bits_per_basis: int) -> np.ndarray:
    """Basis chunk rows of the unit seeds 2^0 .. 2^(degree-1).

    Fibonacci register: the output bits s_t of the register started at 2^b
    begin with s_t = [t = b] for t < degree and satisfy s_(t+degree) = XOR
    of s_(t+j) over the taps j, so poly is their characteristic polynomial
    and s_(t+L) = XOR of s_(t+i) over the set bits i of x^L mod poly, for
    any L.  With the first L outputs known, taking that jump at L gives
    the next L - degree + 1 of them as whole-slice XORs of known ones, so
    every unit seed's stream is built at once and the known length nearly
    doubles per step.  Since every output bit is linear over GF(2) in the
    register, the chunks of any seed are the XOR of the unit rows at its
    set bits.  A symbol's chunk is its ``bits_per_basis`` successive output
    bits, read most significant first.
    """
    _check_poly(poly)
    _check_basis_bits(bits_per_basis)
    degree = poly.bit_length() - 1
    total = n_symbols * bits_per_basis
    # bits[b, t]: output bit t of the register started at 2^b
    bits = np.zeros((degree, max(total, degree)), dtype=np.uint8)
    bits[:, :degree] = np.eye(degree, dtype=np.uint8)
    # power = x^(known - degree + 1) mod poly, so x^known = power x^(degree - 1)
    known, power = degree, 2
    while known < total:
        step = min(known - degree + 1, total - known)
        jump = _gf2_mul_mod(power, 1 << (degree - 1), poly, degree)
        dst = bits[:, known:known + step]
        for i in range(degree):
            if jump >> i & 1:
                dst ^= bits[:, i:i + step]
        known += step
        power = _gf2_mul_mod(power, power, poly, degree)
    weights = np.uint32(1) << np.arange(bits_per_basis - 1, -1, -1, dtype=np.uint32)
    return bits[:, :total].reshape(degree, n_symbols, bits_per_basis) @ weights


def encode_sequence(bits: "np.ndarray | list[int]", poly: int, seed: int,
                    c: Constellation) -> np.ndarray:
    """Transmitted constellation indices of a data bit sequence.

    The register seeded with ``seed`` gives symbol i its basis, the i-th
    keystream chunk; the sent index is the member of pair {basis, basis + M}
    whose half-plane label is bit XOR (basis & 1): the cipher's one
    bit-to-member pairing, which every label-record analysis reads.
    """
    _check_seed(poly.bit_length() - 1, seed)
    bits = _as_bits(bits, "bits")
    units = unit_keystreams(poly, bits.size, c.bits_per_basis)
    return _pair_index_table(c)[bits, _seed_row(units, seed)]


def _seed_row(units: np.ndarray, seed: "int | np.ndarray") -> np.ndarray:
    """The chunk row of a seed: the XOR of the unit rows at the seed's set bits.

    seed may be an integer array; the rows then take its shape plus the
    row axis.  They keep the unit rows' dtype.
    """
    bits = np.asarray(seed)[..., None] >> np.arange(units.shape[0]) & 1
    return np.bitwise_xor.reduce(np.where(bits[..., None] == 1, units, 0), axis=-2)


def gf2_span(units: np.ndarray) -> np.ndarray:
    """Every XOR combination of the rows of ``units``, indexed by the combining mask.

    Row s of the result is the XOR of units[b] over the set bits b of s, for
    all s < 2^len(units); row 0 is zero.  Built by doubling: rows
    [2^b, 2^(b+1)) are rows [0, 2^b) XOR units[b].
    """
    out = np.empty((1 << units.shape[0],) + units.shape[1:], dtype=units.dtype)
    out[0] = 0
    for b in range(units.shape[0]):
        np.bitwise_xor(out[:1 << b], units[b], out=out[1 << b:2 << b])
    return out
