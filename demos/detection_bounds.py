"""Error-probability bounds versus constellation size and pulse energy.

Three quantities per grid point: the unkeyed bit bound (how well an
eavesdropper can read the data without the key), the all-state resolution
error of the square-root measurement, and the keyed half-plane bound.
Beside them, the DFT modes the bit bound kept (its ``dim_used``), which
follow the energy, not M.  The bit bound stays below 1/2 because the
cipher's fixed pairing ties each data bit to one member of every pair.
"""

from yzero import Constellation, bit_bound, srm_mary_error, updown_bound


def main() -> None:
    print("bounds over (M, S); all probabilities are per symbol\n")
    header = f"{'M':>5} {'S':>6} {'bit_bound':>11} {'srm_2M':>9} {'updown':>9} {'modes':>6}"
    print(header)
    print("-" * len(header))
    for m in (4, 16, 64, 256):
        for s in (1.0, 4.0, 16.0):
            c = Constellation(m=m, energy=s)
            pb = bit_bound(c)
            ps = srm_mary_error(c).p_error
            pu = updown_bound(c).p_error
            print(f"{m:>5} {s:>6.1f} {pb.p_error:>11.5f} {ps:>9.5f} {pu:>9.5f}"
                  f" {pb.dim_used:>6}")

    print("\nthe bit bound's modes (dim_used) stop growing with M once 2M passes the")
    print("photon-number spread, so its cost follows S, not M")
    print("reading the whole basis (srm_2M) saturates toward 1 - 1/(2M);")
    print("reading just the bit saturates toward 1/2 as M grows")
    print("a pairing that handed each bit to both members of a pair would make the two")
    print("bit mixtures identical and the bit bound exactly 1/2 (acceptance check C02)")


if __name__ == "__main__":
    main()
