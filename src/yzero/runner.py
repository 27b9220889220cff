"""Execution of configured runs and deterministic output writing.

The runner reads a loaded config, calls the library's engines and writes
their results.  An attack or entropy run scores the ``Constellation`` and
``AttackScenario`` the loader built (``cfg.constellation``,
``cfg.attack_scenario``) and builds no other.  What a run computes, how it
shares work, which record model it scored and which points a fit takes
are the engines' own (``detection.bound_grid``, ``attacks.modeling_notes``,
``detection.keygen_curve``).  It imports no private name of any ``yzero``
module.

Every run derives its random streams from a single master seed through
numpy's SeedSequence spawning, one child per logical task, and computes on
the calling thread.  Data files (CSV, JSON) contain no timestamps and use
shortest-roundtrip float formatting; rerunning with the same seed
reproduces them byte for byte.  The manifest carries the clock.

Each family's runner imports the library modules it runs, so a process
loads only its own family's code; the config loader has imported them by
then (``scenario``), with the numpy subpackages numpy loads on first use
(``numpy.random`` for attack and entropy, ``numpy.fft`` for bounds), so a
run's compute pays no import.  An attack or entropy run never loads
``detection``; the quantum regime's record loads ``heterodyne``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import datetime
import json
import os
import shutil
import sys

import numpy as np

from . import __version__
from .codec import encode_sequence
from .errors import ConfigError
from .scenario import ScenarioConfig


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


def _peak_rss_kb() -> "int | None":
    """The process's own peak RSS so far (``VmHWM``, kB), or None where Linux's /proc has none."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _finish(cfg: ScenarioConfig, outputs: "list[str]", **facts) -> "list[str]":
    """Write the manifest, the reproducibility record next to a run's data files.

    It holds the only timestamp of a run, and the process's peak RSS as it
    writes (``telemetry``); data files reference it by name so
    identical seeds yield byte-identical data.  `facts` are a family's
    extra top-level entries: bounds' "tolerances" and "bounds_work", and
    the record model ("modeling") of attack and entropy runs.  Returns
    every output name, the manifest's last.
    """
    manifest_name = f"{cfg.prefix}_manifest.json"
    _write_json(os.path.join(cfg.out_dir, manifest_name), {
        **facts,
        "tool": "yzero",
        "family": cfg.family,
        "master_seed": cfg.master_seed,
        "config": {"path": cfg.config_path, "sha256": cfg.config_sha256},
        "outputs": outputs,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "telemetry": {"peak_rss_kb": _peak_rss_kb()},
        "versions": {
            "yzero": __version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
        },
    })
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


# the bounds CSV's name of each method
_BOUND_LABELS = {"bit": "helstrom_mixed_bit", "srm": "srm_2M", "updown": "updown"}


def run_bounds(cfg: ScenarioConfig) -> "list[str]":
    """Error-probability bounds over the (m, energy) grid; one CSV row per point and method.

    ``detection.bound_grid`` computes the rows, sharing the work per M and
    per point; its work counts go into the manifest as ``bounds_work``.
    """
    from .detection import MODE_DROP_BOUND, bound_grid

    _make_out_dir(cfg.out_dir)
    rows, work = bound_grid(cfg.m_grid, cfg.energy_grid, cfg.methods)
    name = f"{cfg.prefix}_bounds.csv"
    _write_csv(os.path.join(cfg.out_dir, name), f"{cfg.prefix}_manifest.json",
               cfg.config_sha256,
               ["m", "s", "method", "p_error", "dim_used", "truncation_deficit"],
               [[m, s, _BOUND_LABELS[method], p_error, dim_used, 0.0]
                for m, s, method, p_error, dim_used in rows])
    return _finish(cfg, [name], bounds_work=work,
                   tolerances={"mode_drop_bound": MODE_DROP_BOUND})


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
# Seeds per chunk of the seed CSV writer: a power of two, at least 4096, so
# every chunk starts at a multiple of 4096
_SEED_CSV_CHUNK_ROWS = 1 << 16


def _hex_words(first: int, digits: int, strip: bool) -> np.ndarray:
    """uint64 words holding the hex digits of 0 ... 16^digits - 1 from byte `first` on.

    Every other byte is NUL, and so, with `strip`, is every leading zero digit.
    """
    values = np.arange(16 ** digits)[:, None] >> 4 * np.arange(digits - 1, -1, -1)
    words = np.zeros((values.shape[0], 8), dtype=np.uint8)
    words[:, first:first + digits] = np.where(strip & (values == 0), 0, _HEX_DIGITS[values & 15])
    return words.view(np.uint64)[:, 0]


def _write_seed_csv(path: str, manifest_name: str, sha256: str, mismatches: np.ndarray,
                    n_symbols: int, true_seed: int) -> None:
    """One row per seed hypothesis, byte for byte as _write_csv would format it.

    The rows follow `mismatches`, the integer mismatch counts h of seeds
    1 ... 2^K - 1 in order (`AttackRecord.mismatches`), in chunks of
    `_SEED_CSV_CHUNK_ROWS` seeds, the writer's own size: the bytes do not
    depend on it, nor on how the scan chunked its counts.  Each chunk
    starts at a multiple of 4096, and the first chunk's row 0 is seed 0,
    which is blanked.  A row's "0x", hex digits and first comma are one
    8-byte word, the OR of a word from each of two small tables: the two
    digits of seed >> 12 (leading zeros NUL) and the three of seed & 0xfff,
    whose leading zeros are NUL only where the high part is zero.  Within a
    chunk the high words are a slice of their 256-entry table, each
    repeated over the low words from the table's start (K <= 20,
    ATTACK_KEY_BITS_CAP, so two high digits suffice).  The match fraction
    is (n - h) / n, so the rest of a row is one of 2 (n + 1) precomputed
    tails, NUL-padded to the longest: tail h, or h + n + 1 on the true
    seed's row.  Each chunk of rows is one record array with a `hex` and a
    `tail` field in one buffer reused across chunks: one OR fills the hex
    words, a `take` the tails.  From seed 0x10000 on a hex word has five
    digits and no NUL, so a row's file length is 8 plus its tail's, from an
    (n + 1)-entry table by h; one `cumsum` gives each row's offset, and one
    integer-array store puts every whole record at its offset in a second
    buffer of one chunk, in ascending order, so that each row's NUL padding
    is overwritten by the next row.  Below seed 0x10000 stripped leading
    zero digits leave NULs inside the hex words, so a chunk that starts
    there goes through one pass that deletes the NUL bytes instead (no CSV
    row holds one).  Besides the counts, memory is two chunks of rows and
    their offsets; no Python object is made per row and no table has 2^K
    rows.
    """
    tails = [f"{(n_symbols - h) / n_symbols!r},{h},{int(h == 0)},{true}\n".encode()
             for true in (0, 1) for h in range(n_symbols + 1)]
    tail_width = max(len(t) for t in tails)
    tail_table = np.frombuffer(b"".join(t.ljust(tail_width, b"\0") for t in tails),
                               dtype=f"V{tail_width}")
    # a row's file length by count h: its 8-byte hex word and tail h.  The
    # true seed's tail differs only in its last digit, so has the same length
    row_length = np.array([8 + len(t) for t in tails[:n_symbols + 1]], dtype=np.intp)
    step = min(mismatches.size + 1, _SEED_CSV_CHUNK_ROWS)
    row = np.dtype([("hex", np.uint64), ("tail", tail_table.dtype)])
    chunk = bytearray(step * row.itemsize)
    rows = np.frombuffer(chunk, dtype=row)
    records = rows.view(f"V{row.itemsize}")
    # the file bytes of a chunk of seeds >= 0x10000; offsets[i] is where row i
    # starts and offsets[-1] the chunk's length
    out = bytearray(len(chunk))
    offsets = np.zeros(step + 1, dtype=np.intp)
    # one record starting at every byte of `out`
    placed = np.ndarray(len(out) - row.itemsize + 1, dtype=records.dtype, buffer=out,
                        strides=(1,))
    # one row of the grid per high part, one column per low part
    grid = rows["hex"].reshape(-1, min(step, 1 << 12))
    # a seed's hex word: "0x", the digits of seed >> 12 and of seed & 0xfff, ","
    high = _hex_words(2, 2, True) | np.frombuffer(b"0x\0\0\0\0\0,", dtype=np.uint64)
    low, low_stripped = (_hex_words(4, 3, strip)[:grid.shape[1]] for strip in (False, True))
    with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        _csv_writer(fh, manifest_name, sha256, _SEED_CSV_HEADER)
        # the header sits in the text layer's buffer; it must reach the file first
        fh.flush()
        for lo in range(0, mismatches.size + 1, step):
            # row i is seed lo + i
            np.bitwise_or(high[lo >> 12:(lo >> 12) + len(grid), None], low, out=grid)
            first = max(lo, 1)
            rows["tail"][first - lo:] = tail_table.take(mismatches[first - 1:lo + step - 1])
            if lo == 0:
                grid[0] = high[0] | low_stripped
                chunk[:row.itemsize] = bytes(row.itemsize)
            if lo <= true_seed < lo + step:
                rows["tail"][true_seed - lo] = tail_table[
                    int(mismatches[true_seed - 1]) + n_symbols + 1]
            if lo < 0x10000:
                # the hex words of seeds below 0x10000 hold NULs
                fh.buffer.write(chunk.translate(None, b"\0"))
                continue
            row_length.take(mismatches[lo - 1:lo + step - 1], out=offsets[1:])
            np.cumsum(offsets, out=offsets)
            # whole records in ascending order: each row's NUL padding is
            # overwritten by the next row, so the bytes rely on that order
            placed[offsets[:-1]] = records
            fh.buffer.write(memoryview(out)[:offsets[-1]])


def run_attack(cfg: ScenarioConfig) -> "list[str]":
    """One full replay: encode, eavesdrop, exhaust the seed space, report.

    Without deliberate signal randomization (dsr) each label error depends
    only on the basis, the misalignment and the fixed recording errors, so
    the pad cancels from the pad stage's syndrome: its flip word (effective
    labels XOR reference) equals the plain stage's.  The scan then hands
    the pad stage the plain stage's counts, the same array, without a
    second pass (`attacks._stage_counts`), and the run copies the plain
    stage's seed CSV instead of formatting it again; the manifest's
    "seed_csv_copied_from" maps each copy to its source.
    """
    from .attacks import (brute_force_candidates, label_mutual_information, measure_labels,
                          modeling_notes, otp_stage_attack)

    _make_out_dir(cfg.out_dir)
    c, scenario = cfg.constellation, cfg.attack_scenario
    rng_data, rng_channel, rng_mi, rng_otp = _spawn_rngs(cfg.master_seed, 4)
    r_true = rng_data.integers(0, 2, scenario.n_symbols, dtype=np.uint8)
    labels = measure_labels(encode_sequence(r_true, cfg.poly, cfg.seed_register, c), c,
                            scenario, rng_channel)
    rec = brute_force_candidates(labels, c, cfg.poly, r_true, cfg.seed_register)
    mutual_info = (label_mutual_information(c, cfg.poly, cfg.seed_register, scenario,
                                            cfg.mi_trials, rng_mi)
                   if cfg.mi_trials > 0 else None)
    payload = {
        "family": "attack",
        "key_bits": cfg.key_bits,
        "n_symbols": scenario.n_symbols,
        "transmitted_bits": r_true.tolist(),
        "record": _attack_record_payload(rec, cfg, mutual_info),
    }
    outputs = [f"{cfg.prefix}_attack.json"]
    copied: "dict[str, str]" = {}

    def write_seeds(name: str, mismatches: np.ndarray) -> None:
        _write_seed_csv(os.path.join(cfg.out_dir, name), f"{cfg.prefix}_manifest.json",
                        cfg.config_sha256, mismatches, scenario.n_symbols, cfg.seed_register)
        outputs.append(name)

    plain = f"{cfg.prefix}_attack_seeds.csv"
    write_seeds(plain, rec.mismatches)
    if cfg.otp:
        x_bits = rng_otp.integers(0, 2, scenario.n_symbols, dtype=np.uint8)
        orec = otp_stage_attack(x_bits, c, cfg.poly, cfg.seed_register, scenario, rng_otp)
        payload["otp_stage"] = _attack_record_payload(orec, cfg, None)
        payload["otp_stage"]["plaintext"] = x_bits.tolist()
        name = f"{cfg.prefix}_attack_otp_seeds.csv"
        if orec.mismatches is rec.mismatches:
            # the stages' flip words agree.  Both files name the same
            # manifest and config SHA-256 in their header and share N and
            # the true seed: equal counts, equal bytes
            path = os.path.join(cfg.out_dir, name)
            with _writing(path):
                shutil.copyfile(os.path.join(cfg.out_dir, plain), path)
            outputs.append(name)
            copied[name] = plain
        else:
            write_seeds(name, orec.mismatches)
    _write_json(os.path.join(cfg.out_dir, outputs[0]), payload)
    # the pad stage and the mutual-information estimate score the same label record
    return _finish(cfg, outputs, modeling=modeling_notes(scenario, [rec]),
                   seed_csv_copied_from=copied)


def run_entropy(cfg: ScenarioConfig) -> "list[str]":
    """Exact posterior-entropy accounting for the configured record model."""
    from .attacks import ciphertext_only_entropy, known_plaintext_key_entropy, modeling_notes

    _make_out_dir(cfg.out_dir)
    c, scenario = cfg.constellation, cfg.attack_scenario
    rng_co, rng_kp = _spawn_rngs(cfg.master_seed, 2)
    reports = {}
    if cfg.mode in ("ciphertext_only", "both"):
        reports["ciphertext_only"] = ciphertext_only_entropy(c, cfg.poly, scenario, cfg.trials,
                                                             rng_co)
    if cfg.mode in ("known_plaintext", "both"):
        reports["known_plaintext"] = known_plaintext_key_entropy(
            c, cfg.poly, scenario, cfg.trials, rng_kp, regime=cfg.regime)
    payload = {
        "family": "entropy",
        "key_bits": cfg.key_bits,
        "n_symbols": scenario.n_symbols,
        "trials": cfg.trials,
        "config_sha256": cfg.config_sha256,
        "manifest_file": f"{cfg.prefix}_manifest.json",
        **{mode: dataclasses.asdict(rep) for mode, rep in reports.items()},
    }
    name = f"{cfg.prefix}_entropy.json"
    _write_json(os.path.join(cfg.out_dir, name), payload)
    return _finish(cfg, [name], modeling=modeling_notes(scenario, list(reports.values())))


def run_keygen(cfg: ScenarioConfig) -> "list[str]":
    """Advantage-versus-energy curve; one CSV row per point.

    ``detection.keygen_curve`` computes the points and decides whether the
    decay exponents are fitted; every row repeats its slopes and ratio,
    empty where it fitted none.
    """
    from .detection import keygen_curve

    _make_out_dir(cfg.out_dir)
    points, fit_bob, fit_eve, ratio = keygen_curve(cfg.s_grid)
    slopes = [fit.slope if fit else None for fit in (fit_bob, fit_eve)]
    name = f"{cfg.prefix}_keygen.csv"
    _write_csv(os.path.join(cfg.out_dir, name), f"{cfg.prefix}_manifest.json",
               cfg.config_sha256,
               ["mode", "s", "p_error_bob", "p_error_eve", "advantage_bits",
                "slope_bob", "slope_eve", "slope_ratio"],
               [[cfg.mode, p.s, p.p_error_bob, p.p_error_eve, p.advantage_bits, *slopes, ratio]
                for p in points])
    return _finish(cfg, [name])


RUNNERS = {
    "bounds": run_bounds,
    "attack": run_attack,
    "entropy": run_entropy,
    "keygen": run_keygen,
}
