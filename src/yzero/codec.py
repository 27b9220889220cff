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
    osk: when True, one extra keystream bit per symbol re-scrambles the
         bit-to-member assignment within the chosen pair, so each data bit
         lands on both members.  Only the detection bounds model it; the
         encoder and the label-record analyses take the fixed pairing.
    """

    m: int
    energy: float
    osk: bool = False

    def __post_init__(self) -> None:
        if self.m < 1 or (self.m & (self.m - 1)) != 0:
            raise ValueError("m must be a positive power of two")
        if not math.isfinite(self.energy) or self.energy < 0:
            raise ValueError("energy must be finite and nonnegative")

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


def _check_seed(key_bits: int, seed: int) -> None:
    if not 0 < seed < (1 << key_bits):
        raise ValueError("seed must be a nonzero register value below 2^degree")


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


def unit_keystreams(poly: int, n_symbols: int, bits_per_basis: int) -> np.ndarray:
    """Basis chunk rows of the unit seeds 2^0 .. 2^(degree-1).

    One Fibonacci register is stepped whose cells hold seed-bit masks, cell
    j starting at 2^j: each step outputs the low cell and shifts in the XOR
    of the tapped cells.  Bit b of every output mask is then the output bit
    of the register started at 2^b, and since every output bit is linear
    over GF(2) in the register, the chunks of any seed are the XOR of the
    unit rows at its set bits.  A symbol's chunk is its ``bits_per_basis``
    successive output bits, read most significant first.
    """
    degree = poly.bit_length() - 1
    if degree < 2 or poly & 1 == 0:
        raise ValueError("polynomial must have degree at least 2 and a constant term")
    if bits_per_basis < 1:
        raise ValueError("a symbol needs at least one basis bit (m >= 2)")
    taps = [j for j in range(degree) if poly >> j & 1]
    total = n_symbols * bits_per_basis
    width = (degree + 7) // 8
    masks = bytearray(total * width)
    # a ring: at step t, cell j of the register sits at cells[(t + j) % degree]
    cells = [1 << j for j in range(degree)]
    for t in range(total):
        low = t % degree
        masks[t * width:(t + 1) * width] = cells[low].to_bytes(width, "little")
        fb = 0
        for j in taps:
            fb ^= cells[(low + j) % degree]
        cells[low] = fb
    raw = np.frombuffer(masks, dtype=np.uint8).reshape(total, width)
    bits = np.unpackbits(raw, axis=1, count=degree, bitorder="little").T
    weights = np.uint32(1) << np.arange(bits_per_basis - 1, -1, -1, dtype=np.uint32)
    return bits.reshape(degree, n_symbols, bits_per_basis) @ weights


def encode_sequence(bits: "np.ndarray | list[int]", poly: int, seed: int,
                    c: Constellation) -> np.ndarray:
    """Transmitted constellation indices of a data bit sequence.

    The register seeded with ``seed`` gives symbol i its basis, the i-th
    keystream chunk; the sent index is the member of pair {basis, basis + M}
    whose half-plane label is bit XOR (basis & 1).  There is no scrambling
    bit: this is the fixed pairing every label-record analysis assumes.
    """
    _check_seed(poly.bit_length() - 1, seed)
    if c.osk:
        raise ValueError("the encoder carries no scrambling bit; use osk = False")
    bits = _as_bits(bits, "bits")
    units = unit_keystreams(poly, bits.size, c.bits_per_basis)
    return _pair_index_table(c)[bits, _seed_row(units, seed)]


def _seed_row(units: np.ndarray, seed: int) -> np.ndarray:
    """One seed's chunk row: the XOR of the unit rows at the seed's set bits."""
    set_bits = np.array([seed >> b & 1 for b in range(units.shape[0])], dtype=bool)
    return np.bitwise_xor.reduce(units[set_bits], axis=0)


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
