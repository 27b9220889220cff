"""Walk through the coding layer: keystream, basis selection, half-plane labels.

Encodes a short bit sequence with a degree-8 register and prints every
symbol's keystream draw, chosen constellation point, and the label an
unkeyed observer would record, then checks the label identity
label = data XOR basis-parity explicitly.
"""

import numpy as np

from yzero import Constellation, encode_sequence

POLY = 0x11D
SEED = 0xB5


def main() -> None:
    c = Constellation(m=8, energy=4.0)
    degree = POLY.bit_length() - 1
    print(f"constellation: 2M = {c.n_states} phases, energy S = {c.energy}")
    print(f"keystream: degree {degree}, taps 0x{POLY & ((1 << degree) - 1):X}, "
          f"{c.bits_per_basis} bits per symbol\n")

    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 16, dtype=np.uint8)
    indices = encode_sequence(bits, POLY, SEED, c)
    # the sent index is the basis or its antipode basis + M
    bases = indices % c.m
    labels = c.label(indices)

    print(f"{'i':>3} {'bit':>4} {'basis':>6} {'parity':>7} {'index':>6} "
          f"{'phase/pi':>9} {'label':>6}")
    for i, (bit, basis, index, label) in enumerate(zip(bits, bases, indices, labels)):
        # index i sits at phase pi i / M
        print(f"{i:>3} {bit:>4} {basis:>6} {basis & 1:>7} "
              f"{index:>6} {index / c.m:>9.4f} {label:>6}")

    # all-zero data sends the parity stream itself as labels
    parities = c.label(encode_sequence(np.zeros_like(bits), POLY, SEED, c))
    assert np.array_equal(parities, bases & 1)
    assert np.array_equal(labels, bits ^ parities)
    print("\nlabel identity holds: recorded label == data XOR basis parity")
    print("a receiver holding the seed strips the parity and reads the data;")
    print("anyone else sees the data whitened by the keystream")


if __name__ == "__main__":
    main()
