"""Coding layer of the coherent-state stream cipher.

A constellation of 2M phases on a circle carries one data bit per symbol.
A short linear-feedback shift register expands a seed into a keystream;
each symbol consumes ceil(log2 M) bits to pick a basis (an antipodal phase
pair) and, optionally, one further bit that scrambles which pair member
carries which data bit.  The transmitted index is the pair member whose
half-plane label equals data_bit XOR (basis & 1).  On the constellation's
own axis index i sits at phase pi i / M above it, so its label is i < M:
the rule is exact in the index and no float phase enters it, whatever the
global rotation.  The keystream chunks are GF(2)-linear in the register,
so a seed's chunk row is the XOR of the unit-seed rows at its set bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Half-plane tie band: |sin(phase - axis)| at or below this counts as lying
# on the axis line, where the sign of cos decides.  Constellation points sit
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


def halfplane_label(phase: "float | np.ndarray", axis: float) -> "int | np.ndarray":
    """1 if the phase lies in the open half-plane above the axis line, else 0.

    Within TIE_EPS of the axis line the sign of cos decides: a phase on the
    axis itself maps to 1, its antipode to 0.  Two antipodal phases rounded
    separately can still fall on the same side at the edge of that band, so
    a pair's labels come from one member, the other taking the complement.
    Elementwise over an array of phases (uint8 labels); an int for a scalar.
    """
    d = np.asarray(phase, dtype=float) - axis
    s = np.sin(d)
    up = np.where(np.abs(s) > TIE_EPS, s > 0.0, np.cos(d) > 0.0)
    return int(up) if up.ndim == 0 else up.astype(np.uint8)


@dataclass(frozen=True)
class Constellation:
    """2M coherent states equally spaced in phase on a circle of fixed energy.

    m: number of antipodal basis pairs, a power of two so a whole number of
       keystream bits selects the basis.
    energy: mean photon number of every state.
    phase_offset: global rotation, also the half-plane labeling axis.
    osk: when True, one extra keystream bit per symbol re-scrambles the
         bit-to-member assignment within the chosen pair.
    """

    m: int
    energy: float
    phase_offset: float = 0.0
    osk: bool = False

    def __post_init__(self) -> None:
        if self.m < 1 or (self.m & (self.m - 1)) != 0:
            raise ValueError("m must be a positive power of two")
        if not math.isfinite(self.energy) or self.energy < 0:
            raise ValueError("energy must be finite and nonnegative")
        if not math.isfinite(self.phase_offset):
            raise ValueError("phase_offset must be finite")

    @property
    def n_states(self) -> int:
        return 2 * self.m

    @property
    def bits_per_basis(self) -> int:
        return self.m.bit_length() - 1

    @property
    def bits_per_symbol(self) -> int:
        return self.bits_per_basis + (1 if self.osk else 0)

    def phase(self, index: int) -> float:
        if not 0 <= index < self.n_states:
            raise ValueError("index out of range")
        return self.phase_offset + math.pi * index / self.m

    def phases(self) -> np.ndarray:
        return self.phase_offset + math.pi * np.arange(self.n_states) / self.m

    def amplitudes(self) -> np.ndarray:
        """All 2M amplitudes as a complex array."""
        return math.sqrt(self.energy) * np.exp(1j * self.phases())

    def label(self, index: "int | np.ndarray") -> "int | np.ndarray":
        """Half-plane label of constellation points, measured on the native axis.

        Index i lies pi i / M above the axis: points 1 .. M - 1 are above it,
        point 0 is on it and counts as up, its antipode M as down.
        """
        idx = np.asarray(index)
        if np.any((idx < 0) | (idx >= self.n_states)):
            raise ValueError("index out of range")
        up = idx < self.m
        return int(up) if up.ndim == 0 else up.astype(np.uint8)


@dataclass(frozen=True)
class SymbolRecord:
    """One encoded symbol: keystream draw, data bit, and the resulting state index."""

    index: int
    basis: int
    bit: int
    parity: int
    osk_flip: int
    label: int


class Keystream:
    """Fibonacci linear-feedback shift register consumed in per-symbol chunks.

    The register holds ``degree`` bits; each step outputs the low bit and
    shifts in the parity of the tapped bits.  A symbol consumes
    ``bits_per_symbol`` successive output bits, assembled most significant
    first; with ``osk`` set the trailing bit of each chunk is split off as
    the scrambling bit.
    """

    def __init__(self, poly: int, register: int, bits_per_symbol: int,
                 osk: bool = False) -> None:
        degree = poly.bit_length() - 1
        if degree < 2:
            raise ValueError("polynomial degree must be at least 2")
        if poly & 1 == 0:
            raise ValueError("polynomial must have a constant term")
        if not 0 < register < (1 << degree):
            raise ValueError("register must be a nonzero value below 2^degree")
        if bits_per_symbol - (1 if osk else 0) < 1:
            raise ValueError("bits_per_symbol too small for the requested mode")
        self.poly = poly
        self.register = register
        self.bits_per_symbol = bits_per_symbol
        self.osk = osk
        self._degree = degree
        self._taps = poly & ((1 << degree) - 1)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def taps(self) -> int:
        return self._taps

    def copy(self) -> "Keystream":
        return Keystream(self.poly, self.register, self.bits_per_symbol, self.osk)

    def step(self) -> int:
        """Advance one clock; return the output bit."""
        out = self.register & 1
        fb = bin(self.register & self._taps).count("1") & 1
        self.register = (self.register >> 1) | (fb << (self._degree - 1))
        return out


def keystream_next(ks: Keystream) -> "tuple[int, int, int]":
    """Consume one symbol's worth of bits; return (basis, basis_parity, scramble_bit).

    The chunk is read most significant bit first.  On a scrambling keystream
    the trailing bit of the chunk is returned separately as the scramble
    bit; otherwise the scramble bit is 0.
    """
    nb = ks.bits_per_symbol - (1 if ks.osk else 0)
    k = 0
    for _ in range(nb):
        k = (k << 1) | ks.step()
    s = ks.step() if ks.osk else 0
    return k, k & 1, s


def _pair_member(c: Constellation, basis: "int | np.ndarray", want: "int | np.ndarray"):
    """The member of pair {basis, basis + M}, basis < M, whose half-plane label equals want."""
    return np.where(want == 1, basis, basis + c.m)


def _pair_index_table(c: Constellation) -> np.ndarray:
    """idx[bit, basis] = the index encode picks for that bit and basis, no scramble."""
    basis = np.arange(c.m)
    return _pair_member(c, basis, np.arange(2)[:, None] ^ (basis & 1))


def encode(bit: int, basis: int, scramble: int, c: Constellation) -> SymbolRecord:
    """Map one data bit and one keystream draw to a constellation index.

    The effective bit is bit XOR scramble; the transmitted index is the
    member of pair {basis, basis + M} whose half-plane label equals
    effective_bit XOR (basis & 1).
    """
    if bit not in (0, 1) or scramble not in (0, 1):
        raise ValueError("bit and scramble must be 0 or 1")
    if not 0 <= basis < c.m:
        raise ValueError("basis out of range")
    if scramble and not c.osk:
        raise ValueError("scramble bit supplied to a non-scrambling constellation")
    parity = basis & 1
    want = (bit ^ scramble) ^ parity
    return SymbolRecord(index=int(_pair_member(c, basis, want)), basis=basis, bit=bit,
                        parity=parity, osk_flip=scramble, label=want)


def encode_sequence(bits: "np.ndarray | list[int]", ks: Keystream, c: Constellation) -> "list[SymbolRecord]":
    """Encode a bit sequence, consuming the keystream in order."""
    if ks.bits_per_symbol != c.bits_per_symbol or ks.osk != c.osk:
        raise ValueError("keystream chunking does not match the constellation")
    out = []
    for b in np.asarray(bits, dtype=np.uint8):
        k, _, s = keystream_next(ks)
        out.append(encode(int(b), k, s, c))
    return out


def unit_keystreams(poly: int, n_symbols: int, bits_per_symbol: int) -> np.ndarray:
    """Basis chunk rows of the unit seeds 2^0 .. 2^(degree-1), no scrambling bit.

    Row b is stepped by the scalar Keystream from register 2^b.  Every output
    bit is linear over GF(2) in the register, so the chunks of any seed are
    the XOR of the unit rows at its set bits.
    """
    degree = poly.bit_length() - 1
    basis = np.empty((degree, n_symbols), dtype=np.uint32)
    for b in range(degree):
        ks = Keystream(poly, 1 << b, bits_per_symbol)
        for i in range(n_symbols):
            basis[b, i] = keystream_next(ks)[0]
    return basis


def _seed_row(units: np.ndarray, seed: int) -> np.ndarray:
    """One seed's chunk row: the XOR of the unit rows at the seed's set bits."""
    set_bits = ((seed >> np.arange(units.shape[0])) & 1).astype(bool)
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
