"""Acceptance gate: ten go/no-go checks at pinned tolerances.

Each test prints exactly one [Cnn] PASS/FAIL line; the project's pytest
options surface captured output for passed tests, so every line lands in
the session log either way.
"""

import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import detection_oracles as oracles
import fock_oracles
from codec_oracles import parity_stream
import yzero
from yzero import attacks, cli, codec, detection


def _report(cid: str, ok: bool, detail: str) -> str:
    line = f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    return line


def test_c01_mixed_state_bound_matches_pure_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    dim = detection.truncation_dim(9.0, 1e-13)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        b = rng.uniform(0.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        rho0 = fock_oracles.density_from_ensemble([fock_oracles.coherent_fock(a, dim)], [1.0])
        rho1 = fock_oracles.density_from_ensemble([fock_oracles.coherent_fock(b, dim)], [1.0])
        mixed = fock_oracles.helstrom_mixed(rho0, rho1).p_error
        pure = detection.helstrom_pure(a, b).p_error
        worst = max(worst, abs(mixed - pure))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    line = _report("C01", ok,
                   f"mixed-vs-pure binary bound: max |diff| {worst:.3e} over 100 "
                   f"pairs, S <= 9 (tol 1e-9, {elapsed:.1f} s < 10 s)")
    assert ok, line


def test_c02_scrambled_pairing_makes_bit_states_identical():
    t0 = time.monotonic()
    worst_entry = 0.0
    worst_pe = 0.0
    worst_shipped = 0.0
    max_dim = 0
    for m in (4, 64, 256):
        for s in (1.0, 10.0):
            c = codec.Constellation(m=m, energy=s)
            r0, r1, _ = fock_oracles.bit_ensembles(c, tol=1e-10, scramble=True)
            worst_entry = max(worst_entry, float(np.max(np.abs(r0.entries - r1.entries))))
            pe = fock_oracles.helstrom_mixed(r0, r1).p_error
            worst_pe = max(worst_pe, abs(pe - 0.5))
            # the scrambled weights are all zero: the shipped solver drops every mode
            spectrum = detection._weight_spectrum(oracles._bit_weights(c, 0.5, scramble=True))
            b = detection._helstrom_error(spectrum, detection._mode_spectrum(c))
            worst_shipped = max(worst_shipped, abs(b.p_error - 0.5))
            max_dim = max(max_dim, b.dim_used)
    elapsed = time.monotonic() - t0
    ok = (worst_entry < 1e-12 and worst_pe < 1e-12 and worst_shipped < 1e-12
          and max_dim == 0 and elapsed < 60.0)
    line = _report("C02", ok,
                   f"scrambling collapse: max state gap {worst_entry:.3e} "
                   f"(tol 1e-12), max |p_error - 0.5| {worst_pe:.3e} Fock, "
                   f"{worst_shipped:.3e} shipped solver (tol 1e-12) with max "
                   f"{max_dim} modes kept (must be 0) "
                   f"over M in {{4,64,256}} x S in {{1,10}} ({elapsed:.1f} s < 60 s)")
    assert ok, line


def test_c03_unkeyed_bit_error_approaches_coin_flip():
    ms = (8, 16, 32, 64, 128, 256)
    vals = []
    shipped = []
    for m in ms:
        c = codec.Constellation(m=m, energy=1.0)
        r0, r1, _ = fock_oracles.bit_ensembles(c, tol=1e-10)
        vals.append(fock_oracles.helstrom_mixed(r0, r1).p_error)
        shipped.append(detection.bit_bound(c).p_error)
    monotone = [all(a <= b + 1e-12 for a, b in zip(v, v[1:])) for v in (vals, shipped)]
    ok = vals[-1] >= 0.45 and shipped[-1] >= 0.45 and all(monotone)
    line = _report("C03", ok,
                   f"unkeyed bit bound: {vals[-1]:.4f} Fock, {shipped[-1]:.4f} bit_bound "
                   f"at M=256, S=1 (>= 0.45), monotone over M in {ms}: "
                   f"{monotone[0]} Fock, {monotone[1]} bit_bound")
    assert ok, line


def test_c04_all_state_resolution_fails_at_scale():
    big = detection.srm_mary_error(codec.Constellation(m=128, energy=4.0)).p_error
    worst = 0.0
    for m in (1, 2, 4, 8):
        c = codec.Constellation(m=m, energy=4.0)
        worst = max(worst, abs(detection.srm_mary_error(c).p_error
                               - oracles.srm_mary_error_direct(c).p_error))
    ok = big >= 0.9 and worst < 1e-8
    line = _report("C04", ok,
                   f"square-root measurement: p_error {big:.4f} at M=128, S=4 "
                   f"(>= 0.9); DFT vs Gram-sqrt max |diff| {worst:.3e} for M <= 8 "
                   f"(tol 1e-8)")
    assert ok, line


def test_c05_keyed_halfplane_error_reaches_percent_scale():
    t0 = time.monotonic()
    hits = []
    for m in (256, 512):
        for s in (10.0, 16.0, 25.0, 40.0, 63.0, 100.0):
            c = codec.Constellation(m=m, energy=s)
            p = detection.updown_bound(c).p_error
            if 0.003 <= p <= 0.1:
                hits.append((m, s, p))
    elapsed = time.monotonic() - t0
    ok = len(hits) > 0 and elapsed < 600.0
    sample = f"(M={hits[0][0]}, S={hits[0][1]:g}) -> {hits[0][2]:.4f}" if hits else "none"
    line = _report("C05", ok,
                   f"half-plane bound sweep on the circulant DFT route: "
                   f"{len(hits)} grid points inside [0.003, 0.1], e.g. {sample} "
                   f"({elapsed:.1f} s < 600 s)")
    assert ok, line


def test_c06_error_exponents_and_homodyne_monte_carlo():
    t0 = time.monotonic()
    pts = detection.keygen_advantage([2.0, 3.0, 4.0, 5.0, 6.0])
    bob = detection.exponent_fit([(p.s, p.p_error_bob) for p in pts]).slope
    eve = detection.exponent_fit([(p.s, p.p_error_eve) for p in pts]).slope
    rng = np.random.default_rng(606)
    n = 1_000_000
    bits = rng.integers(0, 2, size=n)
    x = np.where(bits == 1, -2.0, 2.0) + rng.normal(0.0, 0.5, size=n)
    p_hat = float(np.mean((x < 0).astype(int) != bits))
    p = detection.antipodal_homodyne_error(4.0)
    sigma = math.sqrt(p * (1 - p) / n)
    elapsed = time.monotonic() - t0
    ok = (-4.5 <= bob <= -3.5 and -2.5 <= eve <= -1.5
          and abs(p_hat - p) <= 3 * sigma and elapsed < 60.0)
    line = _report("C06", ok,
                   f"decay exponents: keyed slope {bob:.3f} in [-4.5,-3.5], "
                   f"unkeyed slope {eve:.3f} in [-2.5,-1.5]; homodyne MC at S=4: "
                   f"|{p_hat:.3e} - {p:.3e}| <= 3 sigma ({3 * sigma:.1e}) over 1e6 "
                   f"trials ({elapsed:.1f} s < 60 s)")
    assert ok, line


def test_c07_noiseless_replay_guarantee():
    t0 = time.monotonic()
    c = codec.Constellation(m=4, energy=2.0)
    poly = codec.PRIMITIVE_POLYS[12]
    n = 64
    rng = np.random.default_rng(707)
    contained = 0
    displaced = 0
    for _ in range(20):
        true_seed = int(rng.integers(1, 1 << 12))
        r = rng.integers(0, 2, n, dtype=np.uint8)
        idx = codec.encode_sequence(r, poly, true_seed, c)
        clean = attacks.measure_labels(idx, c, attacks.AttackScenario(n_symbols=n))
        rec = attacks.brute_force_candidates(clean, c, poly, r, true_seed)
        contained += int(rec.true_r_in_candidates and rec.true_seed_mismatches == 0)
        pos = int(rng.integers(0, n))
        noisy = attacks.measure_labels(
            idx, c, attacks.AttackScenario(n, [pos]))
        candidate = noisy ^ parity_stream(poly, true_seed, c.bits_per_basis, n)
        diff = np.nonzero(candidate != r)[0]
        displaced += int(diff.tolist() == [pos])
    elapsed = time.monotonic() - t0
    ok = contained == 20 and displaced == 20 and elapsed < 60.0
    line = _report("C07", ok,
                   f"noiseless replay, |K|=12, N=64: true sequence in candidate set "
                   f"{contained}/20; one injected error displaced the true-seed "
                   f"candidate by exactly one position {displaced}/20 "
                   f"({elapsed:.1f} s < 60 s)")
    assert ok, line


def test_c08_full_randomization_kills_the_record():
    c = codec.Constellation(m=4, energy=2.0)
    poly = codec.PRIMITIVE_POLYS[8]
    sc = attacks.AttackScenario(n_symbols=16, dsr=attacks.Dsr.binary(0.5))
    rep = attacks.ciphertext_only_entropy(c, poly, sc, trials=25,
                                          rng=np.random.default_rng(808))
    mi = attacks.label_mutual_information(c, poly, 0xA7, sc, trials=10_000,
                                          rng=np.random.default_rng(809))
    ok = rep.h_key_given_obs == 8.0 and mi < 0.02
    line = _report("C08", ok,
                   f"full randomization at f=0.5, |K|=8, N=16: H(key | record) = "
                   f"{rep.h_key_given_obs} (exactly 8.0 required); empirical label-"
                   f"data information {mi:.5f} bit/symbol < 0.02 over 1e4 trials")
    assert ok, line


def test_c09_pad_transport_identity():
    c = codec.Constellation(m=4, energy=2.0)
    poly = codec.PRIMITIVE_POLYS[8]
    rng = np.random.default_rng(909)
    n = 32
    good = 0
    for _ in range(100):
        true_seed = int(rng.integers(1, 256))
        x = rng.integers(0, 2, n, dtype=np.uint8)
        sc = attacks.AttackScenario(n_symbols=n)
        rec = attacks.otp_stage_attack(x, c, poly, true_seed, sc, rng)
        cipher = np.array(rec.notes["ciphertext"], dtype=np.uint8)
        ktilde = parity_stream(poly, true_seed, c.bits_per_basis, n)
        recovered = cipher ^ rec.measured_labels ^ ktilde
        good += int(np.array_equal(recovered, x)
                    and rec.notes["pad_identity_noiseless"] is True)
    ok = good == 100
    line = _report("C09", ok,
                   f"two-stage pad transport: ciphertext XOR labels XOR true parity "
                   f"returned the plaintext bit for bit in {good}/100 noiseless "
                   f"scenarios (exact)")
    assert ok, line


ATTACK_CFG = """\
[constellation]
m = 4
energy = 2.0

[keystream]
degree = 8
seed = 0x5A

[scenario]
n_symbols = 48
otp = true
mi_trials = 300

[output]
prefix = gate
master_seed = 4242
"""

BOUNDS_CFG = """\
[constellation]
m_grid = 4, 8
energy_grid = 1.0, 4.0

[scenario]
methods = bit, srm, updown

[output]
prefix = gate
master_seed = 4242
"""


ENTROPY_CFG = """\
[constellation]
m = 16
energy = 4.0

[keystream]
degree = 10
seed = 0x2A5

[scenario]
n_symbols = 24
trials = 20
mode = both
dsr = jitter:0.2
error_positions = 5

[output]
prefix = gate
master_seed = 4242
"""


def _blas_run_data(tmp_path, family: str, text: str, blas_threads: int) -> "dict[str, bytes]":
    """Data files of one CLI run in a fresh process with the given OpenBLAS thread count."""
    cfg_path = tmp_path / f"{family}.ini"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / f"{family}_blas{blas_threads}"
    src = os.path.dirname(os.path.dirname(os.path.abspath(yzero.__file__)))
    code = "import sys, yzero.cli; sys.exit(yzero.cli.main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, family, "--config", str(cfg_path),
                    "--out-dir", str(out)], check=True, capture_output=True, timeout=300,
                   env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(blas_threads)))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if not p.name.endswith("_manifest.json")}


def test_c10_reruns_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "attack.ini"
    cfg_path.write_text(ATTACK_CFG, encoding="utf-8")
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(["attack", "--config", str(cfg_path), "--out-dir", str(d1)]) == 0
    assert cli.main(["attack", "--config", str(cfg_path), "--out-dir", str(d2)]) == 0
    data_files = ["gate_attack.json", "gate_attack_seeds.csv",
                  "gate_attack_otp_seeds.csv"]
    same = all((d1 / f).read_bytes() == (d2 / f).read_bytes() for f in data_files)
    manifest = json.loads((d1 / "gate_manifest.json").read_text())
    seed_recorded = manifest["master_seed"] == 4242

    # the BLAS thread count is the one source of parallelism left: it must not move a byte
    same_blas = {}
    for family, text in (("bounds", BOUNDS_CFG), ("entropy", ENTROPY_CFG)):
        one, two = (_blas_run_data(tmp_path, family, text, n) for n in (1, 2))
        same_blas[family] = bool(one) and one == two
    ok = same and seed_recorded and all(same_blas.values())
    line = _report("C10", ok,
                   f"determinism: attack rerun byte-identical across {len(data_files)} "
                   f"data files: {same}; data identical under 1 vs 2 OpenBLAS threads: "
                   f"{same_blas}; manifest records master_seed 4242: {seed_recorded}")
    assert ok, line


def test_c10_bounds_start_no_thread(tmp_path, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg_path = tmp_path / "bounds.ini"
    cfg_path.write_text(BOUNDS_CFG, encoding="utf-8")
    data = {}
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}"
        assert cli.main(["bounds", "--config", str(cfg_path), "--out-dir", str(out),
                         "--threads", threads]) == 0
        data[threads] = (out / "gate_bounds.csv").read_bytes()
    same = data["1"] == data["4"]
    line = _report("C10", same, f"bounds start no thread; --threads 4 (ignored) "
                                f"writes the --threads 1 CSV byte for byte: {same}")
    assert same, line


def test_c10_entropy_reruns_are_byte_identical(tmp_path):
    # jitter with one recording error exercises every stacked term, ratio bands included
    cfg_path = tmp_path / "entropy.ini"
    cfg_path.write_text(ENTROPY_CFG, encoding="utf-8")
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(["entropy", "--config", str(cfg_path), "--out-dir", str(d1)]) == 0
    assert cli.main(["entropy", "--config", str(cfg_path), "--out-dir", str(d2)]) == 0
    same = (d1 / "gate_entropy.json").read_bytes() == (d2 / "gate_entropy.json").read_bytes()
    line = _report("C10", same, f"determinism: entropy rerun byte-identical: {same}")
    assert same, line
