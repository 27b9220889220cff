"""Output checks applied to every run the benchmark times.

Each checker takes one CLI run's output directory, the workload seed and the
stored references (``refs.json``) and returns a list of problems; an empty
list means the run passed.  The checks that need no reference run on every
seed.  The reference comparisons run where references exist: the bounds
grid does not depend on the seed, and the attack and entropy references are
stored for the default and the held-out workload seed.  The manifest is
never checked, since it is the one output allowed to differ between reruns.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import os
import random

# The ROADMAP plans one symmetry-reduced route for every bound in place of
# today's default.  On this grid the default (Fock) route differs from the
# Gram route by up to 2.24e-6 (bit bound at M=64, S=50), so a correct
# replacement can move p_error that far.
P_ERROR_ABS_TOL = 5e-6
# The ROADMAP plans log-domain entropy likelihoods, expected to change
# results by about 1e-12; this also admits summation-order changes.
ENTROPY_REL_TOL = 1e-9
ENTROPY_ABS_TOL = 1e-9
# rows of each attack CSV compared against the independent keystream oracle
ORACLE_SAMPLE = 400

ATTACK_HEADER = "seed_hex,match_fraction,hamming_distance,exact_match,is_true_seed"
BOUNDS_HEADER = ["m", "s", "method", "p_error", "dim_used", "truncation_deficit"]


def data_files(out_dir: str) -> "list[str]":
    """Output files of a run, manifest excluded."""
    return sorted(f for f in os.listdir(out_dir) if not f.endswith("_manifest.json"))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        cp.read_string(fh.read())
    return cp


def parity_stream(poly: int, register: int, n_symbols: int, bits_per_symbol: int) -> "list[int]":
    """Basis parity per symbol, written from the keystream spec, not from yzero.

    Fibonacci register, low bit out, feedback = parity of the tapped bits
    shifted in at the top; each symbol reads ``bits_per_symbol`` output bits
    most significant first, so its parity is the last bit of the chunk.
    """
    degree = poly.bit_length() - 1
    taps = poly & ((1 << degree) - 1)
    out = []
    for _ in range(n_symbols):
        bit = 0
        for _ in range(bits_per_symbol):
            bit = register & 1
            feedback = bin(register & taps).count("1") & 1
            register = (register >> 1) | (feedback << (degree - 1))
        out.append(bit)
    return out


def _compare(got, want, where: str, problems: "list[str]") -> None:
    """Floats within the entropy tolerance, everything else exactly."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=ENTROPY_REL_TOL, abs_tol=ENTROPY_ABS_TOL):
            problems.append(f"{where}: {got!r} differs from reference {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            problems.append(f"{where}: keys {sorted(got)} differ from {sorted(want)}")
            return
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", problems)
    elif got != want or type(got) is not type(want):
        problems.append(f"{where}: {got!r} differs from reference {want!r}")


def _expect_files(out_dir: str, names: "list[str]") -> "list[str]":
    found = data_files(out_dir)
    return [] if found == sorted(names) else [f"outputs {found}, expected {sorted(names)}"]


# ---------------------------------------------------------------------------
# attack_replay


def _check_seed_csv(path: str, stage: str, poly: int, true_seed: int, bits_per_symbol: int,
                    effective: "list[int]", target: "list[int]", record: dict,
                    workload_seed: int) -> "list[str]":
    """Row count, exact-match and true-seed counts, and sampled rows against the oracle."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    n_seeds = (1 << (poly.bit_length() - 1)) - 1
    problems = []
    if len(lines) != n_seeds + 3 or lines[-1] != b"" or lines[1].decode() != ATTACK_HEADER:
        return [f"{stage}: expected a header and {n_seeds} rows, got {len(lines) - 3}"]
    if not lines[0].startswith(b"# manifest: "):
        problems.append(f"{stage}: missing manifest reference line")
    exact = data.count(b",1,0\n") + data.count(b",1,1\n")
    if exact != record["exact_match_count"]:
        problems.append(f"{stage}: {exact} exact rows, summary says {record['exact_match_count']}")
    if data.count(b",0,1\n") + data.count(b",1,1\n") != 1:
        problems.append(f"{stage}: the true seed must be flagged exactly once")
    n = len(target)
    sample = random.Random(workload_seed).sample(range(1, n_seeds + 1),
                                                 min(ORACLE_SAMPLE, n_seeds))
    for seed in sorted(set(sample) | {1, true_seed, n_seeds}):
        parity = parity_stream(poly, seed, n, bits_per_symbol)
        matches = sum((e ^ p) == t for e, p, t in zip(effective, parity, target))
        want = (f"{seed:#x},{matches / n!r},{n - matches},{int(matches == n)},"
                f"{int(seed == true_seed)}")
        got = lines[seed + 1].decode()
        if got != want:
            problems.append(f"{stage}: row {got!r}, oracle gives {want!r}")
            break
    return problems


def check_attack(out_dir: str, ini_path: str, workload_seed: int, refs: dict) -> "list[str]":
    cp = read_ini(ini_path)
    prefix = cp["output"]["prefix"]
    names = [f"{prefix}_attack.json", f"{prefix}_attack_seeds.csv",
             f"{prefix}_attack_otp_seeds.csv"]
    problems = _expect_files(out_dir, names)
    if problems:
        return problems
    for name, digest in refs.get(str(workload_seed), {}).items():
        if sha256_file(os.path.join(out_dir, name)) != digest:
            problems.append(f"{name}: SHA-256 differs from the reference")
    with open(os.path.join(out_dir, names[0]), encoding="utf-8") as fh:
        payload = json.load(fh)
    poly = int(cp["keystream"]["poly"], 0)
    true_seed = int(cp["keystream"]["seed"], 0)
    bits_per_symbol = int(cp["constellation"]["m"]).bit_length() - 1
    main, otp = payload["record"], payload["otp_stage"]
    # the workload is noiseless: the true seed replays the data exactly (C07)
    for stage, rec in (("record", main), ("otp_stage", otp)):
        if rec["true_key_rank"] != 1 or not rec["true_r_in_candidates"]:
            problems.append(f"{stage}: the true seed does not replay the data exactly")
    if otp["notes"].get("pad_identity_noiseless") is not True:
        problems.append("otp_stage: pad identity does not hold on a noiseless record")
    problems += _check_seed_csv(
        os.path.join(out_dir, names[1]), "seeds", poly, true_seed, bits_per_symbol,
        main["measured_labels"], payload["transmitted_bits"], main, workload_seed)
    effective = [c ^ lab for c, lab in zip(otp["notes"]["ciphertext"], otp["measured_labels"])]
    problems += _check_seed_csv(
        os.path.join(out_dir, names[2]), "otp_seeds", poly, true_seed, bits_per_symbol,
        effective, otp["plaintext"], otp, workload_seed)
    return problems


# ---------------------------------------------------------------------------
# bounds_grid


def read_bounds_rows(path: str) -> "list[list[str]]":
    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()  # manifest reference line
        return list(csv.reader(fh))


def check_bounds(out_dir: str, ini_path: str, workload_seed: int, refs: dict) -> "list[str]":
    """p_error within P_ERROR_ABS_TOL of the reference, grid and method labels exact.

    dim_used and truncation_deficit describe the route that produced a row;
    the planned bounds route redefines both, so they are checked for range
    only.
    """
    prefix = read_ini(ini_path)["output"]["prefix"]
    name = f"{prefix}_bounds.csv"
    problems = _expect_files(out_dir, [name])
    if problems:
        return problems
    rows = read_bounds_rows(os.path.join(out_dir, name))
    if not rows or rows[0] != BOUNDS_HEADER:
        return [f"{name}: header {rows[:1]} differs from {BOUNDS_HEADER}"]
    rows = rows[1:]
    for row in rows:
        p, dim, deficit = float(row[3]), int(row[4]), float(row[5])
        p_max = 1.0 if row[2] == "srm_2M" else 0.5 + P_ERROR_ABS_TOL
        # 1 - trace norm can round a vanishing error to about -1e-15
        if not -P_ERROR_ABS_TOL <= p <= p_max or dim < 1 or not 0.0 <= deficit <= P_ERROR_ABS_TOL:
            problems.append(f"{name}: row {row} out of range")
    want_rows = refs.get("rows")
    if want_rows is None:
        return problems
    if len(rows) != len(want_rows):
        return problems + [f"{name}: {len(rows)} rows, reference has {len(want_rows)}"]
    for row, (m, s, method, p_ref) in zip(rows, want_rows):
        where = f"{name} m={m} s={s} {method}"
        if [int(row[0]), float(row[1]), row[2]] != [m, s, method]:
            problems.append(f"{where}: row key {row[:3]} differs")
        elif not abs(float(row[3]) - p_ref) <= P_ERROR_ABS_TOL:
            problems.append(f"{where}: p_error {row[3]} vs reference {p_ref!r}")
    return problems


# ---------------------------------------------------------------------------
# entropy_exact


def check_entropy(out_dir: str, ini_path: str, workload_seed: int, refs: dict) -> "list[str]":
    cp = read_ini(ini_path)
    prefix = cp["output"]["prefix"]
    name = f"{prefix}_entropy.json"
    problems = _expect_files(out_dir, [name])
    if problems:
        return problems
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        payload = json.load(fh)
    key_bits = payload.get("key_bits")
    if (payload.get("n_symbols") != int(cp["scenario"]["n_symbols"])
            or key_bits != int(cp["keystream"]["degree"])):
        problems.append(f"{name}: key_bits or n_symbols differ from the config")
        return problems
    co = payload.get("ciphertext_only")
    # every record channel here is symmetric, so the key posterior stays flat
    if co is not None and not abs(co["h_key_given_obs"] - key_bits) <= ENTROPY_ABS_TOL:
        problems.append(f"{name}: H(key|record) = {co['h_key_given_obs']!r}, expected {key_bits}")
    if co is not None and not co["h_data_given_obs"] >= 0.0:
        problems.append(f"{name}: negative H(data|record)")
    kp = payload.get("known_plaintext")
    if kp is not None:
        h, lo, hi = kp["h_key_given_obs_and_data"], kp["notes"]["h_min"], kp["notes"]["h_max"]
        if not -ENTROPY_ABS_TOL <= lo <= h + ENTROPY_ABS_TOL <= hi + 2 * ENTROPY_ABS_TOL \
                or hi > key_bits + ENTROPY_ABS_TOL:
            problems.append(f"{name}: known-plaintext entropies {lo}, {h}, {hi} out of order")
    want = refs.get(str(workload_seed))
    if want is not None:
        _compare(payload, want, name, problems)
    return problems


CHECKERS = {"attack": check_attack, "bounds": check_bounds, "entropy": check_entropy}
