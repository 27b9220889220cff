"""Replay the recorded-labels attack over the full seed space.

A 12-bit register and 64 recorded symbols: noiseless recording pins the
true seed at rank 1 with full agreement; a single recording error still
leaves the true candidate within one bit of the transmitted sequence.
"""

import numpy as np

from yzero import (AttackScenario, Constellation, PRIMITIVE_POLYS, brute_force_candidates,
                   encode_sequence, measure_labels)


def top_rows(rec, n: int, k: int) -> "list[tuple[int, float]]":
    order = np.argsort(rec.mismatches, kind="stable")[:k]
    return [(int(i) + 1, (n - int(rec.mismatches[i])) / n) for i in order]


def main() -> None:
    poly = PRIMITIVE_POLYS[12]
    c = Constellation(m=4, energy=2.0)
    true_seed = 0x6B3
    n = 64
    rng = np.random.default_rng(5)
    data = rng.integers(0, 2, n, dtype=np.uint8)
    symbols = encode_sequence(data, poly, true_seed, c)

    print(f"key space 2^12 - 1 = 4095 seeds, record length N = {n}\n")

    labels = measure_labels(symbols, c, AttackScenario(n_symbols=n))
    rec = brute_force_candidates(labels, c, poly, data, true_seed)
    print("noiseless record:")
    print(f"  true seed rank: {rec.true_key_rank}")
    print(f"  distinct candidate sequences: {rec.candidate_count}")
    print(f"  transmitted sequence among candidates: {rec.true_r_in_candidates}")
    print(f"  {'seed':>7} {'match':>7}")
    for seed, frac in top_rows(rec, n, 5):
        marker = "  <- true" if seed == true_seed else ""
        print(f"  {seed:#7x} {frac:>7.4f}{marker}")

    noisy = measure_labels(symbols, c, AttackScenario(n, [17]))
    rec2 = brute_force_candidates(noisy, c, poly, data, true_seed)
    frac_true = (n - rec2.true_seed_mismatches) / n
    print("\none recording error at position 17:")
    print(f"  true-seed candidate agreement: {frac_true:.4f} "
          f"({rec2.true_seed_mismatches} bit off)")
    print(f"  true seed rank: {rec2.true_key_rank}")

    tilted = measure_labels(symbols, c,
                            AttackScenario(n_symbols=n, misalign=0.25 * np.pi / 4),
                            np.random.default_rng(6))
    rec3 = brute_force_candidates(tilted, c, poly, data, true_seed)
    print("\nmisaligned reference (a quarter wedge):")
    print(f"  true-seed candidate agreement: "
          f"{(n - rec3.true_seed_mismatches) / n:.4f}")
    print(f"  true seed rank: {rec3.true_key_rank}")


if __name__ == "__main__":
    main()
