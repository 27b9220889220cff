"""Key generation from the receiver gap: error curves and decay exponents.

The key holder demodulates antipodal pulses with the optimal quantum
measurement; an interceptor is scored as a homodyne receiver on the same
pair.  Both error probabilities fall exponentially in the pulse
energy, but at different rates, and the ratio of the fitted exponents is
the whole story.  A pulse that arrives with only half its energy coherent
is the same curve at S / 2.
"""

import numpy as np

from yzero import binary_entropy, exponent_fit, keygen_advantage

S_GRID = np.linspace(2.0, 6.0, 9)


def table(fraction: float) -> "tuple[list, object, object]":
    """The curve at the coherent energy fraction * S, fitted against the pulse energy S."""
    points = keygen_advantage(S_GRID * fraction)
    fit_bob = exponent_fit([(s, p.p_error_bob) for s, p in zip(S_GRID, points)])
    fit_eve = exponent_fit([(s, p.p_error_eve) for s, p in zip(S_GRID, points)])
    return points, fit_bob, fit_eve


def main() -> None:
    for fraction, label in ((1.0, "S"), (0.5, "S / 2")):
        points, fb, fe = table(fraction)
        print(f"coherent energy: {label}")
        print(f"  {'S':>5} {'Pe key holder':>14} {'Pe interceptor':>15} {'advantage':>10}")
        for s, p in list(zip(S_GRID, points))[::2]:
            print(f"  {s:>5.1f} {p.p_error_bob:>14.3e} "
                  f"{p.p_error_eve:>15.3e} {p.advantage_bits:>10.4f}")
        print(f"  fitted log-slope, key holder:   {fb.slope:+.3f}  (r^2 = {fb.r_squared:.6f})")
        print(f"  fitted log-slope, interceptor:  {fe.slope:+.3f}  (r^2 = {fe.r_squared:.6f})")
        print(f"  exponent ratio: {fb.slope / fe.slope:.3f}\n")

    pts, _, _ = table(1.0)
    at4 = next(p for p in pts if p.s == 4.0)
    print("advantage in bits is the binary-entropy gap h2(Pe_int) - h2(Pe_kh);")
    print(f"at S = 4 fully coherent that is h2({at4.p_error_eve:.3e}) - h2({at4.p_error_bob:.3e}) = "
          f"{binary_entropy(at4.p_error_eve) - binary_entropy(at4.p_error_bob):.5f}")
    print("half the coherent energy halves both exponents")
    print("while leaving their ratio, and so the distillable gap, intact.")


if __name__ == "__main__":
    main()
