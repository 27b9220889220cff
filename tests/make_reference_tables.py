"""Write the high-precision reference tables that the tests read.

Usage, from the repository root:

    python tests/make_reference_tables.py

Needs mpmath (written with 1.3.0), which neither the package nor the tests
import: the tests read only the JSON files this script writes,
``tests/phase_density_refs.json`` and ``tests/poisson_pmf_refs.json``.  Run
it when a table's grid or contents change, and commit the JSON with the
change.

The first table holds the heterodyne phase density

    p(phi) = e^{-S}/(2 pi)
           + sqrt(S/pi) cos(phi) e^{-S sin^2 phi} erfc(-sqrt(S) cos(phi)) / 2

at S = 4, 30, 300, 700 and 1e4, each on a grid of float angles in
[0, pi] (the density is even): 33 points over [0, pi/2], 257 over
[pi/2, pi], where cos(phi) < 0 and the two terms cancel, and 21 across the
peak, 0 to 10 standard deviations 1 / sqrt(2 S) wide (up to pi).  Each value is taken
at the float angle itself, at DIGITS decimal digits, checked against a
second evaluation at DIGITS + 20, and written as a string with 20
significant digits, one (phi, density) point a line.

The second holds the Poisson pmf P[N = k] = exp(k ln S - S - ln k!) at
S = 30, 300, 1e3, 1e4 and 1e5, for the integers k within 8 standard
deviations sqrt(S) of the mean, every k up to S = 1e3 and every 4th and
8th k at 1e4 and 1e5 (the mean among them).  Its values are taken and
checked the same way, one (k, pmf) point a line.
"""

from __future__ import annotations

import json
import math
import pathlib

import mpmath

DIGITS = 60
ENERGIES = (4.0, 30.0, 300.0, 700.0, 1e4)
OUT = pathlib.Path(__file__).with_name("phase_density_refs.json")
# S, and the stride of its k grid
PMF_ENERGIES = ((30.0, 1), (300.0, 1), (1e3, 1), (1e4, 4), (1e5, 8))
PMF_OUT = pathlib.Path(__file__).with_name("poisson_pmf_refs.json")


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


def checked(f, args: list) -> "list[mpmath.mpf]":
    """f at each argument at DIGITS digits, checked against DIGITS + 20."""
    with mpmath.workdps(DIGITS):
        values = [f(*a) for a in args]
    with mpmath.workdps(DIGITS + 20):
        for a, value in zip(args, values):
            check = f(*a)
            if abs(value - check) > abs(check) * mpmath.mpf(10) ** -30:
                raise AssertionError(f"{f.__name__}{a}: {value} against {check}")
    return values


def table(energy: float) -> dict:
    phis = phase_grid(energy)
    values = checked(density, [(phi, energy) for phi in phis])
    return {"energy": energy,
            "points": [[phi, mpmath.nstr(value, 20, min_fixed=1, max_fixed=0)]
                       for phi, value in zip(phis, values)]}


def pmf_grid(energy: float, stride: int) -> "list[int]":
    """The k of one energy's pmf table: S + j stride within 8 sqrt(S) of S, k >= 0."""
    reach = int(8.0 * math.sqrt(energy)) // stride
    return [int(energy) + j * stride for j in range(-reach, reach + 1)
            if int(energy) + j * stride >= 0]


def pmf(k: int, energy: float) -> mpmath.mpf:
    """P[N = k], N ~ Poisson(energy), at the working precision."""
    s = mpmath.mpf(energy)
    return mpmath.exp(k * mpmath.log(s) - s - mpmath.loggamma(k + 1))


def pmf_table(energy: float, stride: int) -> dict:
    ks = pmf_grid(energy, stride)
    values = checked(pmf, [(k, energy) for k in ks])
    return {"energy": energy, "stride": stride,
            "points": [[k, mpmath.nstr(value, 20, min_fixed=1, max_fixed=0)]
                       for k, value in zip(ks, values)]}


def write(path: pathlib.Path, name: str, tables: "list[dict]") -> None:
    """The tables under ``name``, one point a line."""
    head = {"generator": "tests/make_reference_tables.py", "mpmath": mpmath.__version__,
            "digits": DIGITS}
    body = ",\n".join(
        "  " + json.dumps({k: v for k, v in t.items() if k != "points"})[:-1]
        + ', "points": [\n' + ",\n".join("   " + json.dumps(point) for point in t["points"])
        + "\n  ]}"
        for t in tables)
    path.write_text(json.dumps(head)[:-1] + f',\n "{name}": [\n' + body + "\n ]}\n",
                    encoding="utf-8")
    print(path)


def main() -> None:
    write(OUT, "phase_density", [table(energy) for energy in ENERGIES])
    write(PMF_OUT, "poisson_pmf", [pmf_table(energy, stride) for energy, stride in PMF_ENERGIES])


if __name__ == "__main__":
    main()
