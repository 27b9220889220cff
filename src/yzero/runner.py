"""Execution of configured runs and deterministic output writing.

Every run derives its random streams from a single master seed through
numpy's SeedSequence spawning, one child per logical task, and computes on
the calling thread.  Data files (CSV, JSON) contain no timestamps and use
shortest-roundtrip float formatting; rerunning with the same seed
reproduces them byte for byte.  The manifest carries the clock.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import datetime
import json
import os
import platform
import shutil

import numpy as np

from . import __version__
from .attacks import (
    _SCAN_CHUNK_BITS,
    brute_force_candidates,
    ciphertext_only_entropy,
    known_plaintext_key_entropy,
    label_mutual_information,
    measure_labels,
    otp_stage_attack,
)
from .codec import Constellation, encode_sequence
from .detection import (
    MODE_DROP_BOUND,
    _bit_spectrum,
    _helstrom_error,
    _mode_spectrum,
    _srm_mary_error,
    _updown_spectrum,
    exponent_fit,
    keygen_advantage,
)
from .errors import ConfigError
from .scenario import ScenarioConfig, _record_model


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


def _manifest(cfg: ScenarioConfig, outputs: "list[str]", **facts) -> dict:
    """Reproducibility record written next to every run's data files.

    Holds the only timestamp of a run; data files reference it by name so
    identical seeds yield byte-identical data.  `facts` are a family's
    extra top-level entries.
    """
    return {
        **facts,
        "tool": "yzero",
        "family": cfg.family,
        "master_seed": cfg.master_seed,
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


def _csv_writer(fh, manifest_name: str, sha256: str, header: "list[str]"):
    """Write the manifest comment line and the header row; return the row writer."""
    fh.write(f"# manifest: {manifest_name} config_sha256: {sha256}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    return writer


@contextlib.contextmanager
def _writing(path: str):
    """Guard the writes to one output file: an OSError becomes a ConfigError naming it.

    Every data file and the manifest are written inside this block, so a
    directory at an output name or a full disk exits 2 as a configuration
    error instead of a traceback.  Files written before the failure stay in
    the output directory.
    """
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc.strerror or exc}") from None


def _write_csv(path: str, manifest_name: str, sha256: str, header: "list[str]",
               rows: "list[list]") -> None:
    with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        # the csv module writes floats by repr and None as an empty cell
        _csv_writer(fh, manifest_name, sha256, header).writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(cfg: ScenarioConfig, outputs: "list[str]", **facts) -> "list[str]":
    manifest_name = f"{cfg.prefix}_manifest.json"
    _write_json(os.path.join(cfg.out_dir, manifest_name), _manifest(cfg, outputs, **facts))
    return outputs + [manifest_name]


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc.strerror}") from None


def _spawn_rngs(master_seed: int, count: int) -> "list[np.random.Generator]":
    seq = np.random.SeedSequence(master_seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


# ---------------------------------------------------------------------------
# Families


# the binary bounds' CSV names and weight-spectrum builders
_BINARY_BOUNDS = {"bit": ("helstrom_mixed_bit", _bit_spectrum),
                  "updown": ("updown", _updown_spectrum)}


def run_bounds(cfg: ScenarioConfig) -> "list[str]":
    """Error-probability bounds over the (m, energy) grid; one CSV row per point.

    The cost splits three ways.  Per M, one weight spectrum for each binary
    bound, which does not depend on the energy.  Per point, one Gram
    spectrum and one sqrt(Lambda) ordering, shared by the point's methods.
    Per binary bound, one SVD.  The manifest's ``bounds_work`` counts each.
    """
    _make_out_dir(cfg.out_dir)
    rows = []
    work = {"gram_spectra": 0, "weight_spectra": 0, "svd_solves": 0}
    for m in cfg.m_grid:
        points = [Constellation(m=m, energy=s, osk=cfg.osk) for s in cfg.energy_grid]
        # the loader has checked the plain pairing that updown needs
        spectra = {method: _BINARY_BOUNDS[method][1](points[0])
                   for method in cfg.methods if method != "srm"}
        work["weight_spectra"] += len(spectra)
        for c in points:
            modes = _mode_spectrum(c)
            work["gram_spectra"] += 1
            for method in cfg.methods:
                if method == "srm":
                    rows.append([m, c.energy, "srm_2M", _srm_mary_error(modes).p_error,
                                 c.n_states, 0.0])
                else:
                    b = _helstrom_error(spectra[method], modes)
                    work["svd_solves"] += 1
                    rows.append([m, c.energy, _BINARY_BOUNDS[method][0], b.p_error,
                                 b.dim_used, 0.0])
    name = f"{cfg.prefix}_bounds.csv"
    _write_csv(os.path.join(cfg.out_dir, name), f"{cfg.prefix}_manifest.json",
               cfg.config_sha256,
               ["m", "s", "method", "p_error", "dim_used", "truncation_deficit"], rows)
    return _finish(cfg, [name], bounds_work=work)


def _attack_record_payload(rec, cfg: ScenarioConfig, mutual_info: "float | None") -> dict:
    return {
        "measured_labels": rec.measured_labels.tolist(),
        "candidate_count": rec.candidate_count,
        "collision_count": rec.collision_count,
        "exact_match_count": rec.exact_match_count,
        "true_key_rank": rec.true_key_rank,
        "true_r_in_candidates": rec.true_r_in_candidates,
        "mutual_info_estimate": mutual_info,
        "match_fraction_mean": rec.match_fraction_mean,
        "match_fraction_max": rec.match_fraction_max,
        "notes": rec.notes,
        "config_sha256": cfg.config_sha256,
        "manifest_file": f"{cfg.prefix}_manifest.json",
    }


_SEED_CSV_HEADER = ["seed_hex", "match_fraction", "hamming_distance", "exact_match",
                    "is_true_seed"]
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


def _write_seed_csv(path: str, manifest_name: str, sha256: str, mismatches: np.ndarray,
                    n_symbols: int, true_seed: int, hex_table: np.ndarray) -> None:
    """One row per seed hypothesis, byte for byte as _write_csv would format it.

    The rows follow `mismatches`, the integer mismatch counts h of seeds
    1 ... 2^K - 1 in order (`AttackRecord.mismatches`), in slices of one
    scan chunk (2^16 rows), so a row's "0x", hex digits and first comma are
    item s of `hex_table` (`_hex_table(K)`, built once per run; leading zero
    digits stored as NUL).  The match fraction is (n - h) / n, so the rest
    of a row is one of 2 (n + 1) precomputed tails, NUL-padded to the
    longest: tail h, or h + n + 1 on the true seed's row.  Each slice of
    rows is one record array with a `hex` and a `tail` field, filled by two
    whole-item copies: a slice of the table and a `take` from the tails.  No
    CSV row holds a NUL byte, so one pass that deletes them gives the
    slice's file bytes.  Besides the table (8.4 MB at K = 20) and the
    counts, memory is one slice of rows; no Python object is made per row.
    """
    tails = [f"{(n_symbols - h) / n_symbols!r},{h},{int(h == 0)},{true}\n".encode()
             for true in (0, 1) for h in range(n_symbols + 1)]
    tail_width = max(len(t) for t in tails)
    tail_table = np.frombuffer(b"".join(t.ljust(tail_width, b"\0") for t in tails),
                               dtype=f"V{tail_width}")
    row = np.dtype([("hex", hex_table.dtype), ("tail", tail_table.dtype)])
    with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        _csv_writer(fh, manifest_name, sha256, _SEED_CSV_HEADER)
        # the header sits in the text layer's buffer; it must reach the file first
        fh.flush()
        step = 1 << _SCAN_CHUNK_BITS
        for lo in range(0, mismatches.size, step):
            counts = mismatches[lo:lo + step]
            chunk = bytearray(counts.size * row.itemsize)
            rows = np.frombuffer(chunk, dtype=row)
            # row i is seed lo + 1 + i
            rows["hex"] = hex_table[lo + 1:lo + 1 + counts.size]
            rows["tail"] = tail_table.take(counts)
            if lo < true_seed <= lo + counts.size:
                i = true_seed - 1 - lo
                rows["tail"][i] = tail_table[int(counts[i]) + n_symbols + 1]
            fh.buffer.write(chunk.translate(None, b"\0"))


def run_attack(cfg: ScenarioConfig) -> "list[str]":
    """One full replay: encode, eavesdrop, exhaust the seed space, report.

    Without deliberate signal randomization (dsr) each label error depends
    only on the basis, the misalignment and the fixed recording errors, so
    the pad cancels from the pad stage's syndrome: its mismatch counts, and
    so its seed CSV, equal the plain stage's.  When the counts agree the run
    copies the plain stage's file instead of formatting it again; the
    manifest's "seed_csv_copied_from" maps each copy to its source.
    """
    _make_out_dir(cfg.out_dir)
    c, scenario = _record_model(cfg)
    rng_data, rng_channel, rng_mi, rng_otp = _spawn_rngs(cfg.master_seed, 4)
    r_true = rng_data.integers(0, 2, cfg.n_symbols, dtype=np.uint8)
    labels = measure_labels(encode_sequence(r_true, cfg.poly, cfg.seed_register, c), c,
                            scenario, rng_channel)
    rec = brute_force_candidates(labels, c, cfg.poly, r_true, cfg.seed_register)
    mutual_info = (label_mutual_information(c, cfg.poly, cfg.seed_register, scenario,
                                            cfg.mi_trials, rng_mi)
                   if cfg.mi_trials > 0 else None)
    payload = {
        "family": "attack",
        "key_bits": cfg.key_bits,
        "n_symbols": cfg.n_symbols,
        "transmitted_bits": r_true.tolist(),
        "record": _attack_record_payload(rec, cfg, mutual_info),
    }
    outputs = [f"{cfg.prefix}_attack.json"]
    copied: "dict[str, str]" = {}
    hex_table = _hex_table(cfg.key_bits)

    def write_seeds(name: str, mismatches: np.ndarray) -> None:
        _write_seed_csv(os.path.join(cfg.out_dir, name), f"{cfg.prefix}_manifest.json",
                        cfg.config_sha256, mismatches, cfg.n_symbols, cfg.seed_register,
                        hex_table)
        outputs.append(name)

    plain = f"{cfg.prefix}_attack_seeds.csv"
    write_seeds(plain, rec.mismatches)
    if cfg.otp:
        x_bits = rng_otp.integers(0, 2, cfg.n_symbols, dtype=np.uint8)
        orec = otp_stage_attack(x_bits, c, cfg.poly, cfg.seed_register, scenario, rng_otp)
        payload["otp_stage"] = _attack_record_payload(orec, cfg, None)
        payload["otp_stage"]["plaintext"] = x_bits.tolist()
        name = f"{cfg.prefix}_attack_otp_seeds.csv"
        if np.array_equal(orec.mismatches, rec.mismatches):
            # both files name the same manifest and config SHA-256 in their
            # header and share N and the true seed: equal counts, equal bytes
            path = os.path.join(cfg.out_dir, name)
            with _writing(path):
                shutil.copyfile(os.path.join(cfg.out_dir, plain), path)
            outputs.append(name)
            copied[name] = plain
        else:
            write_seeds(name, orec.mismatches)
    _write_json(os.path.join(cfg.out_dir, outputs[0]), payload)
    return _finish(cfg, outputs, seed_csv_copied_from=copied)


def run_entropy(cfg: ScenarioConfig) -> "list[str]":
    """Exact posterior-entropy accounting for the configured record model."""
    _make_out_dir(cfg.out_dir)
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
    if cfg.mode in ("ciphertext_only", "both"):
        rep = ciphertext_only_entropy(c, cfg.poly, scenario, cfg.trials, rng_co)
        payload["ciphertext_only"] = dataclasses.asdict(rep)
    if cfg.mode in ("known_plaintext", "both"):
        rep = known_plaintext_key_entropy(c, cfg.poly, scenario, cfg.trials, rng_kp,
                                          regime=cfg.regime)
        payload["known_plaintext"] = dataclasses.asdict(rep)
    name = f"{cfg.prefix}_entropy.json"
    _write_json(os.path.join(cfg.out_dir, name), payload)
    return _finish(cfg, [name])


def run_keygen(cfg: ScenarioConfig) -> "list[str]":
    """Advantage-versus-energy curve with decay-exponent fits when possible."""
    _make_out_dir(cfg.out_dir)
    points = keygen_advantage(cfg.s_grid)
    fit_pts_b = [(p.s, p.p_error_bob) for p in points if 0.0 < p.p_error_bob < 0.5]
    fit_pts_e = [(p.s, p.p_error_eve) for p in points if 0.0 < p.p_error_eve < 0.5]
    slope_b = slope_e = ratio = None
    if len(fit_pts_b) >= 4 and len(fit_pts_e) >= 4:
        fb = exponent_fit(fit_pts_b)
        fe = exponent_fit(fit_pts_e)
        slope_b, slope_e = fb.slope, fe.slope
        if fe.slope != 0.0:
            ratio = fb.slope / fe.slope
    rows = [["ideal", p.s, p.p_error_bob, p.p_error_eve, p.advantage_bits,
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
