"""Execution of configured runs and deterministic output writing.

Every run derives its random streams from a single master seed through
numpy's SeedSequence spawning, one child per logical task, so results do
not depend on the thread count.  Data files (CSV, JSON) contain no
timestamps and use shortest-roundtrip float formatting; rerunning with the
same seed reproduces them byte for byte.  The manifest carries the clock.
"""

from __future__ import annotations

import csv
import datetime
import json
import os
import platform
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .attacks import (
    AttackScenario,
    _check_attack_caps,
    _check_entropy_caps,
    brute_force_candidates,
    ciphertext_only_entropy,
    keygen_advantage,
    known_plaintext_key_entropy,
    label_mutual_information,
    measure_labels,
    otp_stage_attack,
)
from .codec import Constellation, encode_sequence
from .detection import MODE_DROP_BOUND, bit_bound, exponent_fit, srm_mary_error, updown_bound
from .scenario import ScenarioConfig


def validate_caps(cfg: ScenarioConfig) -> None:
    """Raise RegimeCapError before any computation if the run is oversized."""
    if cfg.family == "attack":
        _check_attack_caps(cfg.key_bits, cfg.n_symbols)
    elif cfg.family == "entropy":
        _check_entropy_caps(cfg.key_bits, cfg.n_symbols)


def _record_model(cfg: ScenarioConfig) -> "tuple[Constellation, AttackScenario]":
    return (Constellation(m=cfg.m_grid[0], energy=cfg.energy_grid[0]),
            AttackScenario.with_errors(cfg.n_symbols, cfg.error_positions,
                                       misalign=cfg.misalign, dsr=cfg.dsr))


def _modeling_record(cfg: ScenarioConfig) -> "dict[str, object]":
    return {
        "label_encoding": "up=1 down=0",
        "label_tie_break": "phase on the axis counts as up, antipode as down",
        "label_axis_pair": "the basis-0 pair lies on the label axis: the tie rule fixes "
                           "its labels at zero jitter, any jitter makes each a coin flip",
        "lfsr": "fibonacci, low-bit output, msb-first per-symbol chunks",
        "eve_label_receiver": "ideal half-plane discriminator",
        "quantum_record_receiver": "heterodyne, nearest-phase decision",
        "entropy_hypothesis_space": "all 2^K register values including zero",
        "dsr": f"{cfg.dsr.kind}:{cfg.dsr.param}",
        "misalign_radians": cfg.misalign,
    }


def _manifest(cfg: ScenarioConfig, outputs: "list[str]") -> dict:
    """Reproducibility record written next to every run's data files.

    Holds the only timestamp of a run; data files reference it by name so
    identical seeds yield byte-identical data.
    """
    return {
        "tool": "yzero",
        "family": cfg.family,
        "master_seed": cfg.master_seed,
        "threads": cfg.threads,
        "config": {"path": cfg.config_path, "sha256": cfg.config_sha256},
        "outputs": outputs,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "versions": {
            "yzero": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "modeling": _modeling_record(cfg),
        "tolerances": {"mode_drop_bound": MODE_DROP_BOUND},
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _csv_writer(fh, manifest_name: str, sha256: str, header: "list[str]"):
    """Write the manifest comment line and the header row; return the row writer."""
    fh.write(f"# manifest: {manifest_name} config_sha256: {sha256}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    return writer


def _write_csv(path: str, manifest_name: str, sha256: str, header: "list[str]",
               rows: "list[list]") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = _csv_writer(fh, manifest_name, sha256, header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(cfg: ScenarioConfig, outputs: "list[str]") -> "list[str]":
    manifest_name = f"{cfg.prefix}_manifest.json"
    _write_json(os.path.join(cfg.out_dir, manifest_name), _manifest(cfg, outputs))
    return outputs + [manifest_name]


def _spawn_rngs(master_seed: int, count: int) -> "list[np.random.Generator]":
    seq = np.random.SeedSequence(master_seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


# ---------------------------------------------------------------------------
# Families


def run_bounds(cfg: ScenarioConfig) -> "list[str]":
    """Error-probability bounds over the (m, energy) grid; one CSV row per point."""
    validate_caps(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    tasks = [(m, s, method)
             for m in cfg.m_grid for s in cfg.energy_grid for method in cfg.methods]

    def compute(task):
        m, s, method = task
        c = Constellation(m=m, energy=s, osk=cfg.osk)
        if method == "bit":
            b = bit_bound(c)
            return [m, s, "helstrom_mixed_bit", b.p_error, b.dim_used, 0.0]
        if method == "srm":
            b = srm_mary_error(c)
            return [m, s, "srm_2M", b.p_error, c.n_states, 0.0]
        b = updown_bound(c)
        return [m, s, "updown", b.p_error, b.dim_used, 0.0]

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            rows = list(pool.map(compute, tasks))
    else:
        rows = [compute(t) for t in tasks]
    name = f"{cfg.prefix}_bounds.csv"
    _write_csv(os.path.join(cfg.out_dir, name), f"{cfg.prefix}_manifest.json",
               cfg.config_sha256,
               ["m", "s", "method", "p_error", "dim_used", "truncation_deficit"], rows)
    return _finish(cfg, [name])


def _attack_record_payload(rec, cfg: ScenarioConfig) -> dict:
    return {
        "measured_labels": rec.measured_labels.tolist(),
        "candidate_count": rec.candidate_count,
        "collision_count": rec.collision_count,
        "exact_match_count": rec.exact_match_count,
        "true_key_rank": rec.true_key_rank,
        "true_r_in_candidates": rec.true_r_in_candidates,
        "mutual_info_estimate": rec.mutual_info_estimate,
        "match_fraction_mean": float(rec.per_seed_match_fraction.mean()),
        "match_fraction_max": float(rec.per_seed_match_fraction.max()),
        "notes": rec.notes,
        "config_sha256": cfg.config_sha256,
        "manifest_file": f"{cfg.prefix}_manifest.json",
    }


_SEED_CSV_HEADER = ["seed_hex", "match_fraction", "hamming_distance", "exact_match",
                    "is_true_seed"]
_SEED_CSV_CHUNK = 1 << 16
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _hex_table(key_bits: int) -> np.ndarray:
    """V(3 + w) items "0x", hex digits, "," of 0 ... 2^K - 1; leading zero digits are NUL.

    w = max(1, ceil(K / 4)).  The comma that opens every row tail sits here:
    at K = 17 ... 20 and N = 64 the hex and tail items are then 8 and 16
    bytes wide, sizes numpy copies as whole words, about 3x faster than the
    7 and 17 bytes that take its general per-item copy.  The table is
    viewed as a grid with one axis per hex digit (the top axis holds only
    the 2^(K - 4 (w - 1)) values of a partial top digit), so each digit
    column is the 16 digit bytes broadcast along its axis, and the leading
    zeros of digit j are the rows whose digits 0 ... j all index 0.
    """
    width = max(1, -(-key_bits // 4))
    top = 1 << (key_bits - 4 * (width - 1))
    grid = np.empty((top,) + (16,) * (width - 1) + (3 + width,), dtype=np.uint8)
    grid[..., 0] = ord("0")
    grid[..., 1] = ord("x")
    grid[..., 2 + width] = ord(",")
    for j in range(width):
        grid[..., 2 + j] = _HEX_DIGITS[:grid.shape[j]].reshape((-1,) + (1,) * (width - 1 - j))
    # the last digit of 0 stays "0"
    for j in range(width - 1):
        grid[(0,) * (j + 1) + (..., 2 + j)] = 0
    return grid.reshape(-1).view(f"V{3 + width}")


def _write_seed_csv(path: str, manifest_name: str, sha256: str, rec,
                    n_symbols: int) -> None:
    """One row per seed hypothesis, byte for byte as _write_csv would format it.

    The record's seeds must be 1 ... 2^K - 1 in order, so a row's "0x", hex
    digits and first comma depend only on K: `_hex_table` builds them once
    per file for all 2^K values, leading zero digits stored as NUL.  Every
    match fraction is (n - h) / n for a Hamming distance h, so the rest of
    a row is one of 2 (n + 1) precomputed tails, tail h + (n + 1) [seed is
    the true seed], NUL-padded to the longest.  Each chunk of rows is one
    record array with a `hex` and a `tail` field, filled by two whole-item
    copies: a slice of the table and a `take` from the tails.  No CSV row
    holds a NUL byte, so one pass that deletes them gives the chunk's file
    bytes.  Memory is the table, at most 2^K x (3 + ceil(K / 4)) bytes
    (8.4 MB at K = 20), plus one chunk; no Python object is made per row.
    """
    seeds = rec.seeds
    key_bits = seeds.size.bit_length()
    if seeds.size + 1 != 1 << key_bits or not np.array_equal(
            seeds, np.arange(1, seeds.size + 1)):
        raise ValueError("the record's seeds are not 1 ... 2^K - 1 in order")
    frac = rec.per_seed_match_fraction
    hamming = np.rint((1.0 - frac) * n_symbols).astype(np.int64)
    if not np.array_equal(frac, (n_symbols - hamming) / n_symbols):
        raise ValueError("match fractions are not whole multiples of 1/n_symbols")
    tails = [f"{(n_symbols - h) / n_symbols!r},{h},{int(h == 0)},{true}\n".encode()
             for true in (0, 1) for h in range(n_symbols + 1)]
    tail_width = max(len(t) for t in tails)
    tail_table = np.frombuffer(b"".join(t.ljust(tail_width, b"\0") for t in tails),
                               dtype=f"V{tail_width}")
    # tail index: h, or h + n + 1 on the true seed's row
    tail = hamming
    tail[seeds == rec.true_seed] += n_symbols + 1
    # seed s is item s of the table
    hex_table = _hex_table(key_bits)[1:]
    row = np.dtype([("hex", hex_table.dtype), ("tail", tail_table.dtype)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _csv_writer(fh, manifest_name, sha256, _SEED_CSV_HEADER)
        # the header sits in the text layer's buffer; it must reach the file first
        fh.flush()
        for lo in range(0, seeds.size, _SEED_CSV_CHUNK):
            t = tail[lo:lo + _SEED_CSV_CHUNK]
            chunk = bytearray(t.size * row.itemsize)
            rows = np.frombuffer(chunk, dtype=row)
            rows["hex"] = hex_table[lo:lo + t.size]
            rows["tail"] = tail_table.take(t)
            fh.buffer.write(chunk.translate(None, b"\0"))


def run_attack(cfg: ScenarioConfig) -> "list[str]":
    """One full replay: encode, eavesdrop, exhaust the seed space, report."""
    validate_caps(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    c, scenario = _record_model(cfg)
    rng_data, rng_channel, rng_mi, rng_otp = _spawn_rngs(cfg.master_seed, 4)
    r_true = rng_data.integers(0, 2, cfg.n_symbols, dtype=np.uint8)
    labels = measure_labels(encode_sequence(r_true, cfg.poly, cfg.seed_register, c), c,
                            scenario, rng_channel)
    rec = brute_force_candidates(labels, c, cfg.poly, r_true, cfg.seed_register)
    if cfg.mi_trials > 0:
        rec.mutual_info_estimate = label_mutual_information(
            c, cfg.poly, cfg.seed_register, scenario, cfg.mi_trials, rng_mi)
    payload = {
        "family": "attack",
        "key_bits": cfg.key_bits,
        "n_symbols": cfg.n_symbols,
        "transmitted_bits": r_true.tolist(),
        "record": _attack_record_payload(rec, cfg),
    }
    outputs = []
    seeds_name = f"{cfg.prefix}_attack_seeds.csv"
    _write_seed_csv(os.path.join(cfg.out_dir, seeds_name), f"{cfg.prefix}_manifest.json",
                    cfg.config_sha256, rec, cfg.n_symbols)
    outputs.append(seeds_name)
    if cfg.otp:
        x_bits = rng_otp.integers(0, 2, cfg.n_symbols, dtype=np.uint8)
        orec = otp_stage_attack(x_bits, c, cfg.poly, cfg.seed_register, scenario, rng_otp)
        payload["otp_stage"] = _attack_record_payload(orec, cfg)
        payload["otp_stage"]["plaintext"] = x_bits.tolist()
        otp_name = f"{cfg.prefix}_attack_otp_seeds.csv"
        _write_seed_csv(os.path.join(cfg.out_dir, otp_name), f"{cfg.prefix}_manifest.json",
                        cfg.config_sha256, orec, cfg.n_symbols)
        outputs.append(otp_name)
    summary_name = f"{cfg.prefix}_attack.json"
    _write_json(os.path.join(cfg.out_dir, summary_name), payload)
    outputs.insert(0, summary_name)
    return _finish(cfg, outputs)


def run_entropy(cfg: ScenarioConfig) -> "list[str]":
    """Exact posterior-entropy accounting for the configured record model."""
    validate_caps(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    c, scenario = _record_model(cfg)
    rng_co, rng_kp = _spawn_rngs(cfg.master_seed, 2)
    payload: dict = {
        "family": "entropy",
        "key_bits": cfg.key_bits,
        "n_symbols": cfg.n_symbols,
        "trials": cfg.trials,
        "config_sha256": cfg.config_sha256,
        "manifest_file": f"{cfg.prefix}_manifest.json",
    }

    def report_dict(rep) -> dict:
        return {
            "regime": rep.regime,
            "trials": rep.trials,
            "h_key": rep.h_key,
            "h_key_given_obs": rep.h_key_given_obs,
            "h_data_given_obs": rep.h_data_given_obs,
            "h_key_given_obs_and_data": rep.h_key_given_obs_and_data,
            "exceeds_key_entropy": rep.exceeds_key_entropy,
            "notes": rep.notes,
        }

    if cfg.mode in ("ciphertext_only", "both"):
        rep = ciphertext_only_entropy(c, cfg.poly, scenario, cfg.trials, rng_co)
        payload["ciphertext_only"] = report_dict(rep)
    if cfg.mode in ("known_plaintext", "both"):
        rep = known_plaintext_key_entropy(c, cfg.poly, scenario, cfg.trials, rng_kp,
                                          regime=cfg.regime)
        payload["known_plaintext"] = report_dict(rep)
    name = f"{cfg.prefix}_entropy.json"
    _write_json(os.path.join(cfg.out_dir, name), payload)
    return _finish(cfg, [name])


def run_keygen(cfg: ScenarioConfig) -> "list[str]":
    """Advantage-versus-energy curve with decay-exponent fits when possible."""
    validate_caps(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    points = keygen_advantage(cfg.s_grid, mode=cfg.keygen_mode,
                              energy_factor=cfg.energy_factor)
    fit_pts_b = [(p.s, p.p_error_bob) for p in points if 0.0 < p.p_error_bob < 0.5]
    fit_pts_e = [(p.s, p.p_error_eve) for p in points if 0.0 < p.p_error_eve < 0.5]
    slope_b = slope_e = ratio = None
    if len(fit_pts_b) >= 4 and len(fit_pts_e) >= 4:
        fb = exponent_fit(fit_pts_b)
        fe = exponent_fit(fit_pts_e)
        slope_b, slope_e = fb.slope, fe.slope
        if fe.slope != 0.0:
            ratio = fb.slope / fe.slope
    rows = [[cfg.keygen_mode, p.s, p.p_error_bob, p.p_error_eve, p.advantage_bits,
             slope_b, slope_e, ratio] for p in points]
    name = f"{cfg.prefix}_keygen.csv"
    _write_csv(os.path.join(cfg.out_dir, name), f"{cfg.prefix}_manifest.json",
               cfg.config_sha256,
               ["mode", "s", "p_error_bob", "p_error_eve", "advantage_bits",
                "slope_bob", "slope_eve", "slope_ratio"], rows)
    return _finish(cfg, [name])


RUNNERS = {
    "bounds": run_bounds,
    "attack": run_attack,
    "entropy": run_entropy,
    "keygen": run_keygen,
}
