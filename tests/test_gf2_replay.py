"""The GF(2)-linear seed replay and the per-seed CSV writer against direct oracles."""

import hashlib
import pathlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import codec_oracles as scalar
import entropy_oracles as oracle
import replay_oracles
from yzero import attacks, cli, codec, runner
from yzero.scenario import load_config


SEED_CSV_HEADER = ["seed_hex", "match_fraction", "hamming_distance", "exact_match",
                   "is_true_seed"]
ATTACK_REPLAY_INI = pathlib.Path(__file__).parents[1] / "perfbench/workloads/attack_replay.ini"
# perfbench/refs.json: both seed CSVs of attack_replay, master seeds 1 and 2
ATTACK_REPLAY_SEEDS_SHA256 = "4e08540cbdbb3e1e892314b9d5b80c4fdeaa7b2e655bdd53b43e2a0719e794ec"


def candidate_scan(effective_labels: np.ndarray, parity: np.ndarray,
                   target: np.ndarray) -> "tuple[np.ndarray, int]":
    """Unpacked reference scan: (mismatches per seed, distinct candidates by sorting)."""
    cand = np.bitwise_xor(effective_labels[None, :], parity)
    mismatches = np.sum(cand != target[None, :], axis=1)
    distinct = np.unique(np.packbits(cand, axis=1), axis=0).shape[0]
    return mismatches, int(distinct)


def per_seed_rows(rec, n_symbols: int) -> "list[list]":
    """Reference rows of the per-seed CSV, one Python row per seed."""
    return [[format(seed, "#x"), (n_symbols - h) / n_symbols, h, int(h == 0),
             int(seed == rec.true_seed)]
            for seed, h in enumerate(rec.mismatches.tolist(), start=1)]


def write_seed_csv(path, rec, n_symbols: int, hex_table: np.ndarray) -> None:
    """The package's seed CSV of one record, under the reference file's manifest and hash."""
    runner._write_seed_csv(str(path), "m.json", "abc", rec.mismatches, n_symbols,
                           rec.true_seed, hex_table)


def replay_record(degree: int, n: int, true_seed: int, noisy: bool, rng_seed: int = 0):
    """A plain-stage record; without noise the true seed is an exact match."""
    poly = codec.PRIMITIVE_POLYS[degree]
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(rng_seed)
    if noisy:
        scenario = attacks.AttackScenario.with_errors(
            n, [int(rng.integers(0, n))], dsr=attacks.Dsr.jitter(0.3))
    else:
        scenario = attacks.AttackScenario(n_symbols=n)
    r = rng.integers(0, 2, n, dtype=np.uint8)
    labels = attacks.measure_labels(codec.encode_sequence(r, poly, true_seed, c), c,
                                    scenario, rng)
    return attacks.brute_force_candidates(labels, c, poly, r, true_seed)


def scalar_chunks(poly: int, seed: int, n: int, bits_per_symbol: int,
                  osk: bool) -> "list[tuple[int, int, int]]":
    ks = scalar.Keystream(poly, seed, bits_per_symbol, osk=osk)
    return [scalar.keystream_next(ks) for _ in range(n)]


@st.composite
def keystream_cases(draw):
    degree = draw(st.integers(2, 16))
    osk = draw(st.booleans())
    bits = draw(st.integers(2 if osk else 1, 4))
    n = draw(st.integers(1, 40))
    top = (1 << degree) - 1
    if degree <= 10 and draw(st.booleans()):
        seeds = None
        picks = [1, top] + draw(st.lists(st.integers(1, top), max_size=6))
    else:
        seeds = np.array(draw(st.lists(st.integers(1, top), min_size=1, max_size=8)),
                         dtype=np.uint32)
        picks = seeds.tolist()
    return codec.PRIMITIVE_POLYS[degree], n, bits, osk, seeds, picks


@settings(max_examples=60, deadline=None)
@given(keystream_cases())
def test_linear_keystream_table_matches_scalar_stepping(case):
    poly, n, bits, osk, seeds, picks = case
    basis, parity, scramble = oracle.keystream_table(poly, n, bits, seeds=seeds, osk=osk)
    n_rows = (1 << (poly.bit_length() - 1)) - 1 if seeds is None else seeds.size
    assert basis.shape == parity.shape == scramble.shape == (n_rows, n)
    for i, seed in enumerate(picks):
        row = seed - 1 if seeds is None else i
        want = np.array(scalar_chunks(poly, seed, n, bits, osk), dtype=np.int64).T
        npt.assert_array_equal(basis[row], want[0])
        npt.assert_array_equal(parity[row], want[1])
        npt.assert_array_equal(scramble[row], want[2])


@st.composite
def replay_cases(draw):
    degree = draw(st.integers(2, 16))
    m = draw(st.sampled_from([2, 4, 8, 16]))
    # N < K gives a rank-deficient parity map; N > 64 spans two packed words
    n = draw(st.integers(1, 80))
    true_seed = draw(st.integers(1, (1 << degree) - 1))
    noise = draw(st.sampled_from(["none", "jitter", "binary", "misalign"]))
    errors = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    otp = draw(st.booleans())
    rng_seed = draw(st.integers(0, 2**32 - 1))
    return degree, m, n, true_seed, noise, errors, otp, rng_seed


@settings(max_examples=60, deadline=None)
@given(replay_cases())
def test_replay_counts_match_the_unpacked_scan(case):
    degree, m, n, true_seed, noise, errors, otp, rng_seed = case
    poly = codec.PRIMITIVE_POLYS[degree]
    c = codec.Constellation(m=m, energy=2.0)
    dsr = {"jitter": attacks.Dsr.jitter(0.3),
           "binary": attacks.Dsr.binary(0.2)}.get(noise, attacks.Dsr())
    scenario = attacks.AttackScenario.with_errors(
        n, errors, misalign=0.4 if noise == "misalign" else 0.0, dsr=dsr)
    rng = np.random.default_rng(rng_seed)
    target = rng.integers(0, 2, n, dtype=np.uint8)
    if otp:
        rec = attacks.otp_stage_attack(target, c, poly, true_seed, scenario, rng)
        effective = np.array(rec.notes["ciphertext"], dtype=np.uint8) ^ rec.measured_labels
    else:
        labels = attacks.measure_labels(codec.encode_sequence(target, poly, true_seed, c), c,
                                        scenario, rng)
        rec = attacks.brute_force_candidates(labels, c, poly, target, true_seed)
        effective = labels
    _, parity, _ = oracle.keystream_table(poly, n, c.bits_per_basis)
    mismatches, distinct = candidate_scan(effective, parity, target)
    npt.assert_array_equal(rec.mismatches, mismatches)
    npt.assert_array_equal(rec.mismatch_histogram, np.bincount(mismatches, minlength=n + 1))
    assert rec.true_seed_mismatches == mismatches[true_seed - 1]
    assert rec.candidate_count == distinct
    assert rec.collision_count == (1 << degree) - 1 - distinct
    assert rec.exact_match_count == int(np.sum(mismatches == 0))
    assert rec.true_key_rank == 1 + int(np.sum(mismatches < mismatches[true_seed - 1]))
    if otp:
        assert rec.true_r_in_candidates == bool(mismatches[true_seed - 1] == 0)
    else:
        assert rec.true_r_in_candidates == bool(np.any(mismatches == 0))


@st.composite
def scan_cases(draw):
    degree = draw(st.integers(2, 12))
    # N up to 130 spans three packed words
    n = draw(st.integers(1, 130))
    chunk_bits = draw(st.sampled_from([2, 3]))
    true_seed = draw(st.integers(1, (1 << degree) - 1))
    rng_seed = draw(st.integers(0, 2**32 - 1))
    return degree, n, chunk_bits, true_seed, rng_seed


@settings(max_examples=80, deadline=None)
@given(scan_cases())
@example((5, 48, 3, 7, 0))  # the last seed of the first chunk, which has no seed 0
@example((5, 48, 3, 8, 1))  # the first seed of the second chunk
@example((7, 64, 2, 127, 2))  # 2^K - 1, the last seed of the last chunk
@example((17, 64, 16, 65536, 3))  # the real chunk size: 2^16 is the second chunk's first
# the counts' dtype is the smallest that holds N: uint8 at N = 255, uint16 at 256
@example((9, 255, 3, 0x1A5, 4))
@example((9, 256, 3, 0x1A5, 5))
def test_chunked_scan_matches_the_whole_array_scan(case):
    degree, n, chunk_bits, true_seed, rng_seed = case
    rng = np.random.default_rng(rng_seed)
    # random unit rows, so rank-deficient spans occur too
    basis_units = rng.integers(0, 4, (degree, n))
    target = rng.integers(0, 2, n, dtype=np.uint8)
    # the true seed's candidate misses the target in about a tenth of the positions
    effective = (target ^ (codec._seed_row(basis_units, true_seed) & 1)
                 ^ (rng.random(n) < 0.1)).astype(np.uint8)
    want = replay_oracles.whole_array_scan(effective, target, basis_units, true_seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attacks, "_SCAN_CHUNK_BITS", chunk_bits)
        rec = attacks._seed_scan(effective, effective, target, basis_units, true_seed)
    assert rec.mismatches.dtype == np.min_scalar_type(n)
    npt.assert_array_equal(rec.mismatches, want.mismatches)
    npt.assert_array_equal(rec.mismatch_histogram, want.histogram)
    # seed 0 is not a hypothesis
    assert rec.mismatch_histogram.sum() == (1 << degree) - 1
    assert rec.true_seed_mismatches == want.true_seed_mismatches
    assert rec.true_key_rank == want.true_key_rank
    assert rec.exact_match_count == want.exact_match_count
    assert rec.match_fraction_max == want.match_fraction_max
    if n & (n - 1) == 0:
        # every fraction is a multiple of 1/n: the float sum is exact
        assert rec.match_fraction_mean == want.match_fraction_mean
    else:
        # np.mean sums 2^K - 1 rounded fractions pairwise, in leaves of up to 128
        npt.assert_allclose(rec.match_fraction_mean, want.match_fraction_mean,
                            rtol=64 * np.finfo(float).eps)


@settings(max_examples=20, deadline=None)
# K = 2 ... 12: hex widths 1 to 3 and every K mod 4, so partial top digits too
@given(degree=st.integers(2, 12), n=st.integers(2, 70),
       seed_frac=st.floats(0.0, 1.0, exclude_max=True), rng_seed=st.integers(0, 2**32 - 1))
@example(degree=17, n=40, seed_frac=0.9, rng_seed=3)  # true seed in the second row chunk
@example(degree=9, n=40, seed_frac=0.0, rng_seed=0)  # true seed 1, the first row
@example(degree=17, n=40, seed_frac=0.999999, rng_seed=0)  # 2^17 - 1, the last row
# uint8 counts at N = 255, uint16 at 256; the true seed's tail index h + N + 1 passes 255
@example(degree=9, n=255, seed_frac=0.5, rng_seed=1)
@example(degree=9, n=256, seed_frac=0.5, rng_seed=1)
def test_seed_csv_writer_matches_the_csv_module(tmp_path_factory, degree, n, seed_frac,
                                                 rng_seed):
    # jitter plus one recording error: fractions vary and the true seed misses
    true_seed = 1 + int(seed_frac * ((1 << degree) - 1))
    rec = replay_record(degree, n, true_seed, noisy=True, rng_seed=rng_seed)
    assume(rec.true_seed_mismatches > 0)
    assume(np.count_nonzero(rec.mismatch_histogram) > 2)
    out = tmp_path_factory.mktemp("csv")
    write_seed_csv(out / "fast.csv", rec, n, runner._hex_table(degree))
    runner._write_csv(str(out / "ref.csv"), "m.json", "abc", SEED_CSV_HEADER,
                      per_seed_rows(rec, n))
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


# slices of 2^0, 2^2, 2^6 and 2^16 rows; at 2^17 - 1 rows, single-row or 4-row
# slices take seconds, and 2^6 and 2^16 both split at row 65536 (seed 65537)
ALL_CHUNK_BITS = (0, 2, 6, 16)
BOUNDARY_CHUNK_BITS = (6, 16)


@pytest.mark.parametrize("degree, n, true_seed, noisy, chunk_bits", [
    (5, 12, 7, False, ALL_CHUNK_BITS),          # the true seed's row ends ",1.0,0,1,1"
    (9, 64, 0x1A5, True, ALL_CHUNK_BITS),       # hex widths 1 to 3; the true seed misses
    (17, 40, 65535, False, BOUNDARY_CHUNK_BITS),  # the true seed at row 65534 ... 65537,
    (17, 40, 65536, False, BOUNDARY_CHUNK_BITS),  # seed 65535 ... 65538: the last two rows
    (17, 40, 65537, False, BOUNDARY_CHUNK_BITS),  # of the first 2^16-row slice and the
    (17, 40, 65538, False, BOUNDARY_CHUNK_BITS),  # first two of the next
], ids=["exact-match", "jitter-and-error", "row-65534", "row-65535", "row-65536",
        "row-65537"])
def test_seed_csv_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, degree, n,
                                                        true_seed, noisy, chunk_bits):
    rec = replay_record(degree, n, true_seed, noisy)
    assert (rec.true_seed_mismatches == 0) != noisy
    runner._write_csv(str(tmp_path / "ref.csv"), "m.json", "abc", SEED_CSV_HEADER,
                      per_seed_rows(rec, n))
    want = (tmp_path / "ref.csv").read_bytes()
    hex_table = runner._hex_table(degree)
    for bits in chunk_bits:
        monkeypatch.setattr(runner, "_SCAN_CHUNK_BITS", bits)
        write_seed_csv(tmp_path / "fast.csv", rec, n, hex_table)
        assert (tmp_path / "fast.csv").read_bytes() == want, bits


def test_run_attack_scans_each_stage_once(tmp_path, monkeypatch):
    # the record keeps the counts, so the seed CSV writers do not rescan
    calls = []

    def counting(*args):
        calls.append(args)
        return scan(*args)

    scan = attacks._scan_counts
    monkeypatch.setattr(attacks, "_scan_counts", counting)
    runner.run_attack(load_config(str(ATTACK_REPLAY_INI), "attack", out_dir=str(tmp_path)))
    # the plain stage and the pad stage
    assert len(calls) == 2


def test_attack_replay_run_peaks_below_16_mb_traced(tmp_path):
    # 8.4 MB of it is the K = 20 hex table; a whole-array scan peaked at 52 MB
    cfg = load_config(str(ATTACK_REPLAY_INI), "attack", out_dir=str(tmp_path))
    tracemalloc.start()
    try:
        runner.run_attack(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_attack_replay_workload_seed_csvs_match_the_benchmark_refs(tmp_path):
    # K = 20 covers hex widths 1 to 5; otp = true writes the pad stage's file too
    argv = ["attack", "--config", str(ATTACK_REPLAY_INI), "--out-dir", str(tmp_path),
            "--seed", "1"]
    assert cli.main(argv) == 0
    for name in ("attack_replay_attack_seeds.csv", "attack_replay_attack_otp_seeds.csv"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == ATTACK_REPLAY_SEEDS_SHA256, name
