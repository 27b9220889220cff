"""The GF(2)-linear seed replay and the per-seed CSV writer against direct oracles."""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import codec_oracles as scalar
import data_pins
import entropy_oracles as oracle
import replay_oracles
from yzero import attacks, cli, codec, runner
from yzero.scenario import load_config


SEED_CSV_HEADER = ["seed_hex", "match_fraction", "hamming_distance", "exact_match",
                   "is_true_seed"]
ATTACK_REPLAY_INI = pathlib.Path(__file__).parents[1] / "perfbench/workloads/attack_replay.ini"


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


def write_seed_csv(path, rec, n_symbols: int) -> None:
    """The package's seed CSV of one record, under the reference file's manifest and hash."""
    runner._write_seed_csv(str(path), "m.json", "abc", rec.mismatches, n_symbols,
                           rec.true_seed)


def replay_record(degree: int, n: int, true_seed: int, noisy: bool, rng_seed: int = 0):
    """A plain-stage record; without noise the true seed is an exact match."""
    poly = codec.PRIMITIVE_POLYS[degree]
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(rng_seed)
    if noisy:
        scenario = attacks.AttackScenario(
            n, [int(rng.integers(0, n))], dsr=attacks.Dsr.jitter(0.3))
    else:
        scenario = attacks.AttackScenario(n_symbols=n)
    r = rng.integers(0, 2, n, dtype=np.uint8)
    labels = attacks.measure_labels(codec.encode_sequence(r, poly, true_seed, c), c,
                                    scenario, rng)
    return attacks.brute_force_candidates(labels, c, poly, r, true_seed)


def scalar_chunks(poly: int, seed: int, n: int, bits_per_symbol: int) -> "list[tuple[int, int]]":
    ks = scalar.Keystream(poly, seed, bits_per_symbol)
    return [scalar.keystream_next(ks) for _ in range(n)]


@st.composite
def keystream_cases(draw):
    degree = draw(st.integers(2, 16))
    bits = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    top = (1 << degree) - 1
    if degree <= 10 and draw(st.booleans()):
        seeds = None
        picks = [1, top] + draw(st.lists(st.integers(1, top), max_size=6))
    else:
        seeds = np.array(draw(st.lists(st.integers(1, top), min_size=1, max_size=8)),
                         dtype=np.uint32)
        picks = seeds.tolist()
    return codec.PRIMITIVE_POLYS[degree], n, bits, seeds, picks


@settings(max_examples=60, deadline=None)
@given(keystream_cases())
def test_linear_keystream_table_matches_scalar_stepping(case):
    poly, n, bits, seeds, picks = case
    basis, parity = oracle.keystream_table(poly, n, bits, seeds=seeds)
    n_rows = (1 << (poly.bit_length() - 1)) - 1 if seeds is None else seeds.size
    assert basis.shape == parity.shape == (n_rows, n)
    for i, seed in enumerate(picks):
        row = seed - 1 if seeds is None else i
        want = np.array(scalar_chunks(poly, seed, n, bits), dtype=np.int64).T
        npt.assert_array_equal(basis[row], want[0])
        npt.assert_array_equal(parity[row], want[1])


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
    scenario = attacks.AttackScenario(
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
    _, parity = oracle.keystream_table(poly, n, c.bits_per_basis)
    mismatches, distinct = candidate_scan(effective, parity, target)
    npt.assert_array_equal(rec.mismatches, mismatches)
    npt.assert_array_equal(rec.mismatch_histogram, np.bincount(mismatches, minlength=n + 1))
    assert rec.true_seed_mismatches == mismatches[true_seed - 1]
    assert rec.candidate_count == distinct
    assert rec.collision_count == (1 << degree) - 1 - distinct
    assert rec.exact_match_count == int(np.sum(mismatches == 0))
    assert rec.true_key_rank == 1 + int(np.sum(mismatches < mismatches[true_seed - 1]))
    # both stages: some seed's candidate is the reference exactly
    assert rec.true_r_in_candidates == bool(np.any(mismatches == 0))


@st.composite
def pad_cases(draw):
    degree = draw(st.integers(2, 12))
    m = draw(st.sampled_from([2, 4, 8, 16]))
    n = draw(st.integers(2, 64))
    true_seed = draw(st.integers(1, (1 << degree) - 1))
    misalign = draw(st.floats(-2 * math.pi, 2 * math.pi))
    errors = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    # the data, the plaintext and the pad
    rng_seed = draw(st.integers(0, 2**32 - 1))
    return degree, m, n, true_seed, misalign, errors, rng_seed


@settings(max_examples=200, deadline=None)
@given(case=pad_cases(), dsr=st.just(attacks.Dsr()))
# randomization draws fresh label errors per stage: the counts must then differ
@example(case=(12, 8, 64, 0x5A5, 0.3, [7], 0), dsr=attacks.Dsr.binary(0.5))
def test_without_dsr_the_pad_stage_counts_equal_the_plain_stage_counts(case, dsr):
    # label XOR sent bit depends only on the basis, the misalignment and the
    # recording errors, so the pad cancels from C XOR labels XOR X
    degree, m, n, true_seed, misalign, errors, rng_seed = case
    poly = codec.PRIMITIVE_POLYS[degree]
    c = codec.Constellation(m=m, energy=2.0)
    scenario = attacks.AttackScenario(n, errors, misalign=misalign, dsr=dsr)
    rng = np.random.default_rng(rng_seed)
    r, x = rng.integers(0, 2, (2, n), dtype=np.uint8)
    labels = attacks.measure_labels(codec.encode_sequence(r, poly, true_seed, c), c,
                                    scenario, rng)
    plain = attacks.brute_force_candidates(labels, c, poly, r, true_seed)
    pad = attacks.otp_stage_attack(x, c, poly, true_seed, scenario, rng)
    same = np.array_equal(pad.mismatches, plain.mismatches)
    assert same == (dsr.kind == "none")
    # equal flip words: the pad stage took the plain stage's counts, unscanned
    assert (pad.mismatches is plain.mismatches) == same


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
    # a repeated case would take its counts from the last scan's memo
    attacks._stage_counts.cache_clear()
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
# K = 17: the rows of seeds 65536 on are placed at their offsets.  At N = 63
# tails run from 10 to 28 bytes, so a row's padding spans more than a word;
# at N = 1 every tail has 10; at N = 255 the true seed 0x18000 is placed
@example(degree=17, n=63, seed_frac=0.7, rng_seed=0)
@example(degree=17, n=1, seed_frac=0.6, rng_seed=0)
@example(degree=17, n=255, seed_frac=0.75, rng_seed=0)
def test_seed_csv_writer_matches_the_csv_module(tmp_path_factory, degree, n, seed_frac,
                                                 rng_seed):
    # jitter plus one recording error: fractions vary and the true seed misses
    true_seed = 1 + int(seed_frac * ((1 << degree) - 1))
    rec = replay_record(degree, n, true_seed, noisy=True, rng_seed=rng_seed)
    assume(rec.true_seed_mismatches > 0)
    # N = 1 has two counts, 0 and 1; it needs both
    assume(np.count_nonzero(rec.mismatch_histogram) > min(2, n))
    out = tmp_path_factory.mktemp("csv")
    write_seed_csv(out / "fast.csv", rec, n)
    runner._write_csv(str(out / "ref.csv"), "m.json", "abc", SEED_CSV_HEADER,
                      per_seed_rows(rec, n))
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


# scan chunks of 2^0, 2^2, 2^6 and 2^16 seeds; at 2^17 - 1 seeds, 1- or 4-seed
# chunks take seconds, and 2^6 and 2^16 both split at seed 65536
ALL_SCAN_BITS = (0, 2, 6, 16)
BOUNDARY_SCAN_BITS = (6, 16)
# writer chunks of 2^12, 2^16 and 2^20 rows: at K = 17 the first two split at
# row 65536 (seed 65536) and the last writes one chunk
WRITER_CHUNK_ROWS = (1 << 12, 1 << 16, 1 << 20)


@pytest.mark.parametrize("degree, n, true_seed, noisy, scan_bits", [
    (5, 12, 7, False, ALL_SCAN_BITS),          # the true seed's row ends ",1.0,0,1,1"
    (9, 64, 0x1A5, True, ALL_SCAN_BITS),       # hex widths 1 to 3; the true seed misses
    (17, 40, 65535, False, BOUNDARY_SCAN_BITS),  # the true seed at row 65534 ... 65537,
    (17, 40, 65536, False, BOUNDARY_SCAN_BITS),  # seed 65535 ... 65538: the last two rows
    (17, 40, 65537, False, BOUNDARY_SCAN_BITS),  # of the first 2^16-row chunk and the
    (17, 40, 65538, False, BOUNDARY_SCAN_BITS),  # first two of the next
], ids=["exact-match", "jitter-and-error", "row-65534", "row-65535", "row-65536",
        "row-65537"])
def test_seed_csv_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, degree, n,
                                                        true_seed, noisy, scan_bits):
    rec = replay_record(degree, n, true_seed, noisy)
    assert (rec.true_seed_mismatches == 0) != noisy
    runner._write_csv(str(tmp_path / "ref.csv"), "m.json", "abc", SEED_CSV_HEADER,
                      per_seed_rows(rec, n))
    want = (tmp_path / "ref.csv").read_bytes()
    # the scan and the writer each chunk the seeds their own way
    for bits in scan_bits:
        monkeypatch.setattr(attacks, "_SCAN_CHUNK_BITS", bits)
        # the memo would hand back the last scan's counts
        attacks._stage_counts.cache_clear()
        rec = replay_record(degree, n, true_seed, noisy)
        for rows in WRITER_CHUNK_ROWS:
            monkeypatch.setattr(runner, "_SEED_CSV_CHUNK_ROWS", rows)
            write_seed_csv(tmp_path / "fast.csv", rec, n)
            assert (tmp_path / "fast.csv").read_bytes() == want, (bits, rows)


# a pad-stage run whose randomization gives the two stages different counts
RANDOMIZED_PAD_INI = """\
[constellation]
m = 8
energy = 4.0
[keystream]
degree = 10
seed = 0x2A5
[scenario]
n_symbols = 40
dsr = binary:0.1
otp = true
[output]
prefix = rand
"""


# one- to five-digit seeds, every edge between the high and low digit
# tables and the writer's first chunk boundary (65535 | 65536); the test
# adds each K's last seed, 2^K - 1
HEX_BOUNDARY_SEEDS = (1, 15, 16, 255, 256, 4095, 4096, 65535, 65536, 65537)


def test_seed_csv_hex_column_is_format_hex_at_every_key_size(tmp_path):
    # all K = 1 ... 20 take about 0.3 s; every seed is checked up to K = 12
    for degree in range(1, 21):
        path = tmp_path / f"k{degree}.csv"
        mismatches = np.zeros((1 << degree) - 1, dtype=np.uint8)
        runner._write_seed_csv(str(path), "m.json", "abc", mismatches, 1, 1)
        # the manifest comment and the header come first: seed s is line s + 1
        lines = path.read_bytes().split(b"\n")
        assert len(lines) == (1 << degree) + 2, degree
        seeds = range(1, 1 << degree) if degree <= 12 else HEX_BOUNDARY_SEEDS
        for seed in [s for s in seeds if s < 1 << degree] + [(1 << degree) - 1]:
            assert lines[seed + 1].split(b",")[0] == format(seed, "#x").encode(), (degree, seed)
        path.unlink()


def count_calls(monkeypatch, module, name: str) -> "list[tuple]":
    """Arguments of every later call of module.name, which still runs."""
    calls = []

    def counting(*args):
        calls.append(args)
        return function(*args)

    function = getattr(module, name)
    monkeypatch.setattr(module, name, counting)
    return calls


def count_scans(monkeypatch) -> "list[tuple]":
    """Every 2^K scan pass from here on; the memo of an earlier run's last scan is dropped."""
    attacks._stage_counts.cache_clear()
    return count_calls(monkeypatch, attacks, "_scan_counts")


def test_run_attack_copies_the_pad_stage_csv_when_the_counts_agree(tmp_path, monkeypatch):
    scans = count_scans(monkeypatch)
    calls = count_calls(monkeypatch, runner, "_write_seed_csv")
    runner.run_attack(load_config(str(ATTACK_REPLAY_INI), "attack", out_dir=str(tmp_path)))
    # the pad cancels: the pad stage hands the scan the plain stage's flip
    # word and takes its counts, and its file is a copy of the plain stage's
    assert len(scans) == 1
    assert len(calls) == 1
    manifest = json.loads((tmp_path / "attack_replay_manifest.json").read_bytes())
    assert manifest["seed_csv_copied_from"] == {
        "attack_replay_attack_otp_seeds.csv": "attack_replay_attack_seeds.csv"}


def test_run_attack_formats_the_pad_stage_csv_when_the_counts_differ(tmp_path, monkeypatch):
    scans = count_scans(monkeypatch)
    calls = count_calls(monkeypatch, runner, "_write_seed_csv")
    records = []

    def recording(*args):
        records.append(otp_stage_attack(*args))
        return records[-1]

    # run_attack imports the stage from attacks when it runs
    otp_stage_attack = attacks.otp_stage_attack
    monkeypatch.setattr(attacks, "otp_stage_attack", recording)
    ini = tmp_path / "rand.ini"
    ini.write_text(RANDOMIZED_PAD_INI, encoding="utf-8")
    cfg = load_config(str(ini), "attack", out_dir=str(tmp_path))
    runner.run_attack(cfg)
    # fresh flips in the pad stage: its own scan and its own file
    assert len(scans) == 2
    assert len(calls) == 2
    manifest = json.loads((tmp_path / "rand_manifest.json").read_bytes())
    assert manifest["seed_csv_copied_from"] == {}
    runner._write_csv(str(tmp_path / "ref.csv"), "rand_manifest.json", cfg.config_sha256,
                      SEED_CSV_HEADER, per_seed_rows(records[0], cfg.attack_scenario.n_symbols))
    pad = (tmp_path / "rand_attack_otp_seeds.csv").read_bytes()
    assert pad == (tmp_path / "ref.csv").read_bytes()
    assert pad != (tmp_path / "rand_attack_seeds.csv").read_bytes()


def test_attack_replay_run_peaks_below_8_mb_traced(tmp_path):
    # no table has 2^K rows: the peak holds the 1 MiB of counts the two
    # stages share and the writer's 2^16-row chunk of CSV rows, its output
    # buffer of the same size and the chunk's row offsets.  A whole-array
    # scan peaked at 52 MB, and the writer's 2^K-row hex table, now gone,
    # took 8.4 MB more.
    cfg = load_config(str(ATTACK_REPLAY_INI), "attack", out_dir=str(tmp_path))
    # the plain stage scans as in a fresh process
    attacks._stage_counts.cache_clear()
    tracemalloc.start()
    try:
        runner.run_attack(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_attack_replay_workload_seed_csvs_match_the_benchmark_refs(tmp_path):
    # K = 20 covers hex widths 1 to 5; otp = true writes the pad stage's file
    # too.  The data JSON is pinned as well, so with the bounds and entropy
    # pins every data file of the benchmark's workloads at both master seeds
    # is pinned in the tests
    for seed in (1, 2):
        out = tmp_path / str(seed)
        argv = ["attack", "--config", str(ATTACK_REPLAY_INI), "--out-dir", str(out),
                "--seed", str(seed)]
        assert cli.main(argv) == 0
        data_pins.assert_pinned(out, "attack_replay", seed)

