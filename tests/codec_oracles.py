"""The scalar coding layer, kept as an oracle for the package's array encoder.

``yzero.codec`` encodes a whole sequence at once: the basis chunks of the K
unit seeds come from one register of seed-bit masks, a seed's chunks are the
XOR of the unit rows at its set bits, and a table maps (bit, basis) to the
sent index.  This module is the stateful route it replaced: a Fibonacci
register stepped one bit at a time, chunks assembled bit by bit, and one
record per symbol.  ``encode`` also takes a scramble bit, which flips the
data bit before the pair member is chosen.  The package has no such bit;
the acceptance check C02 feeds both values to ``fock_oracles.bit_ensembles``
to show that a pairing which hands each bit to both members makes the bit
mixtures coincide.
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
    label: int


class Keystream:
    """Fibonacci linear-feedback shift register consumed in per-symbol chunks.

    The register holds ``degree`` bits; each step outputs the low bit and
    shifts in the parity of the tapped bits.  A symbol consumes
    ``bits_per_symbol`` successive output bits, assembled most significant
    first.
    """

    def __init__(self, poly: int, register: int, bits_per_symbol: int) -> None:
        degree = poly.bit_length() - 1
        if degree < 2:
            raise ValueError("polynomial degree must be at least 2")
        if poly & 1 == 0:
            raise ValueError("polynomial must have a constant term")
        if not 0 < register < (1 << degree):
            raise ValueError("register must be a nonzero value below 2^degree")
        if bits_per_symbol < 1:
            raise ValueError("bits_per_symbol must be at least 1")
        self.poly = poly
        self.register = register
        self.bits_per_symbol = bits_per_symbol
        self.degree = degree
        self.taps = poly & ((1 << degree) - 1)

    def step(self) -> int:
        """Advance one clock; return the output bit."""
        out = self.register & 1
        fb = bin(self.register & self.taps).count("1") & 1
        self.register = (self.register >> 1) | (fb << (self.degree - 1))
        return out


def keystream_next(ks: Keystream) -> "tuple[int, int]":
    """Consume one symbol's worth of bits, most significant first; return (basis, basis_parity)."""
    k = 0
    for _ in range(ks.bits_per_symbol):
        k = (k << 1) | ks.step()
    return k, k & 1


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
    parity = basis & 1
    want = (bit ^ scramble) ^ parity
    # basis < M lies pi basis / M above the axis, in [0, pi): up, or on the axis
    index = basis if want == 1 else basis + c.m
    return SymbolRecord(index=index, basis=basis, bit=bit, parity=parity, label=want)


def scalar_indices(bits, poly: int, seed: int, c: Constellation) -> np.ndarray:
    """Sent indices of an encoding, one register step and one symbol at a time."""
    ks = Keystream(poly, seed, c.bits_per_basis)
    return np.array([encode(int(b), keystream_next(ks)[0], 0, c).index
                     for b in np.asarray(bits, dtype=np.uint8)], dtype=int)


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
