"""Write the high-precision reference tables that the tests read.

Usage, from the repository root:

    python tests/make_reference_tables.py

Needs mpmath (written with 1.3.0), which neither the package nor the tests
import: the tests read only the JSON this script writes,
``tests/phase_density_refs.json``.  Run it when a table's grid or contents
change, and commit the JSON with the change.

The table holds the heterodyne phase density

    p(phi) = e^{-S}/(2 pi)
           + sqrt(S/pi) cos(phi) e^{-S sin^2 phi} erfc(-sqrt(S) cos(phi)) / 2

at S = 4, 30, 300, 700 and 1e4, each on a grid of float angles in
[0, pi] (the density is even): 33 points over [0, pi/2], 257 over
[pi/2, pi], where cos(phi) < 0 and the two terms cancel, and 21 across the
peak, 0 to 10 standard deviations 1 / sqrt(2 S) wide (up to pi).  Each value is taken
at the float angle itself, at DIGITS decimal digits, checked against a
second evaluation at DIGITS + 20, and written as a string with 20
significant digits, one (phi, density) point a line.
"""

from __future__ import annotations

import json
import math
import pathlib

import mpmath

DIGITS = 60
ENERGIES = (4.0, 30.0, 300.0, 700.0, 1e4)
OUT = pathlib.Path(__file__).with_name("phase_density_refs.json")


def phase_grid(energy: float) -> "list[float]":
    """The float angles of one energy's table, ascending and distinct."""
    quarter = [math.pi / 2 * i / 32 for i in range(33)]
    far = [math.pi / 2 + math.pi / 2 * i / 256 for i in range(257)]
    peak = [0.5 * i / math.sqrt(2.0 * energy) for i in range(21)]
    return sorted(set(quarter + far + [phi for phi in peak if phi <= math.pi]))


def density(phi: float, energy: float) -> mpmath.mpf:
    """The phase density at the float phi, at the working precision."""
    phi, s = mpmath.mpf(phi), mpmath.mpf(energy)
    cos = mpmath.cos(phi)
    return (mpmath.exp(-s) / (2 * mpmath.pi)
            + mpmath.sqrt(s / mpmath.pi) * cos * mpmath.exp(-s * mpmath.sin(phi) ** 2)
            * mpmath.erfc(-mpmath.sqrt(s) * cos) / 2)


def table(energy: float) -> dict:
    phis = phase_grid(energy)
    with mpmath.workdps(DIGITS):
        values = [density(phi, energy) for phi in phis]
    with mpmath.workdps(DIGITS + 20):
        for phi, value in zip(phis, values):
            check = density(phi, energy)
            if abs(value - check) > abs(check) * mpmath.mpf(10) ** -30:
                raise AssertionError(f"S = {energy}, phi = {phi!r}: {value} against {check}")
    return {"energy": energy,
            "points": [[phi, mpmath.nstr(value, 20, min_fixed=1, max_fixed=0)]
                       for phi, value in zip(phis, values)]}


def main() -> None:
    head = {"generator": "tests/make_reference_tables.py", "mpmath": mpmath.__version__,
            "digits": DIGITS}
    # one (phi, density) point a line
    tables = ",\n".join(
        f'  {{"energy": {json.dumps(t["energy"])}, "points": [\n'
        + ",\n".join("   " + json.dumps(point) for point in t["points"]) + "\n  ]}"
        for t in map(table, ENERGIES))
    OUT.write_text(json.dumps(head)[:-1] + ',\n "phase_density": [\n' + tables + "\n ]}\n",
                   encoding="utf-8")
    print(OUT)


if __name__ == "__main__":
    main()
