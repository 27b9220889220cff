"""The scalar coding layer, kept as an oracle for the package's array encoder.

``yzero.codec`` encodes a whole sequence at once: the basis chunks of the K
unit seeds come from one register of seed-bit masks, a seed's chunks are the
XOR of the unit rows at its set bits, and a table maps (bit, basis) to the
sent index.  This module is the stateful route it replaced: a Fibonacci
register stepped one bit at a time, chunks assembled bit by bit, and one
record per symbol.  It also keeps the OSK scrambling bit, which the package
encoder does not carry: the trailing bit of each chunk re-scrambles which
pair member carries which data bit, so each bit lands on both members and
the bit mixtures of ``fock_oracles.bit_ensembles`` coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from yzero.codec import Constellation


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
        self.degree = degree
        self.taps = poly & ((1 << degree) - 1)

    def copy(self) -> "Keystream":
        return Keystream(self.poly, self.register, self.bits_per_symbol, self.osk)

    def step(self) -> int:
        """Advance one clock; return the output bit."""
        out = self.register & 1
        fb = bin(self.register & self.taps).count("1") & 1
        self.register = (self.register >> 1) | (fb << (self.degree - 1))
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


def bits_per_symbol(c: Constellation) -> int:
    """Keystream bits one symbol consumes: the basis bits, plus the scramble bit with osk."""
    return c.bits_per_basis + (1 if c.osk else 0)


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
    # basis < M lies pi basis / M above the axis, in [0, pi): up, or on the axis
    index = basis if want == 1 else basis + c.m
    return SymbolRecord(index=index, basis=basis, bit=bit, parity=parity,
                        osk_flip=scramble, label=want)


def encode_records(bits, ks: Keystream, c: Constellation) -> "list[SymbolRecord]":
    """Encode a bit sequence symbol by symbol, consuming the keystream in order."""
    if ks.bits_per_symbol != bits_per_symbol(c) or ks.osk != c.osk:
        raise ValueError("keystream chunking does not match the constellation")
    out = []
    for b in np.asarray(bits, dtype=np.uint8):
        k, _, s = keystream_next(ks)
        out.append(encode(int(b), k, s, c))
    return out


def scalar_indices(bits, poly: int, seed: int, c: Constellation) -> np.ndarray:
    """Sent indices of an encoding, one register step and one symbol at a time."""
    ks = Keystream(poly, seed, bits_per_symbol(c), osk=c.osk)
    return np.array([rec.index for rec in encode_records(bits, ks, c)], dtype=int)


def parity_stream(poly: int, seed: int, bits_per_basis: int, n: int) -> np.ndarray:
    """Basis parity of each of n symbols, stepped by the scalar register."""
    ks = Keystream(poly, seed, bits_per_basis)
    return np.array([keystream_next(ks)[1] for _ in range(n)], dtype=np.uint8)


def unit_keystreams(poly: int, n_symbols: int, bits_per_basis: int) -> np.ndarray:
    """Basis chunk rows of the unit seeds, one scalar register per seed bit."""
    degree = poly.bit_length() - 1
    basis = np.empty((degree, n_symbols), dtype=np.uint32)
    for b in range(degree):
        ks = Keystream(poly, 1 << b, bits_per_basis)
        for i in range(n_symbols):
            basis[b, i] = keystream_next(ks)[0]
    return basis
