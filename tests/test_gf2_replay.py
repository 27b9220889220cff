"""The GF(2)-linear seed replay and the per-seed CSV writer against direct oracles."""

import hashlib
import pathlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import codec_oracles as scalar
import entropy_oracles as oracle
from yzero import attacks, cli, codec, runner


SEED_CSV_HEADER = ["seed_hex", "match_fraction", "hamming_distance", "exact_match",
                   "is_true_seed"]
ATTACK_REPLAY_INI = pathlib.Path(__file__).parents[1] / "perfbench/workloads/attack_replay.ini"
# perfbench/refs.json: both seed CSVs of attack_replay, master seeds 1 and 2
ATTACK_REPLAY_SEEDS_SHA256 = "4e08540cbdbb3e1e892314b9d5b80c4fdeaa7b2e655bdd53b43e2a0719e794ec"


def candidate_scan(effective_labels: np.ndarray, parity: np.ndarray,
                   target: np.ndarray) -> "tuple[np.ndarray, int]":
    """Unpacked reference scan: (match fraction per seed, distinct candidates by sorting)."""
    cand = np.bitwise_xor(effective_labels[None, :], parity)
    frac = np.mean(cand == target[None, :], axis=1)
    distinct = np.unique(np.packbits(cand, axis=1), axis=0).shape[0]
    return frac, int(distinct)


def per_seed_rows(rec, n_symbols: int) -> "list[list]":
    """Reference rows of the per-seed CSV, one Python row per seed."""
    rows = []
    frac = rec.per_seed_match_fraction
    for i, seed in enumerate(rec.seeds):
        hamming = int(round((1.0 - frac[i]) * n_symbols))
        rows.append([format(int(seed), "#x"), float(frac[i]), hamming,
                     int(frac[i] == 1.0), int(int(seed) == rec.true_seed)])
    return rows


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
    frac, distinct = candidate_scan(effective, parity, target)
    npt.assert_array_equal(rec.per_seed_match_fraction, frac)
    npt.assert_array_equal(rec.seeds, np.arange(1, 1 << degree))
    assert rec.candidate_count == distinct
    assert rec.collision_count == (1 << degree) - 1 - distinct
    assert rec.exact_match_count == int(np.sum(frac == 1.0))
    assert rec.true_key_rank == 1 + int(np.sum(frac > frac[true_seed - 1]))
    if otp:
        assert rec.true_r_in_candidates == bool(frac[true_seed - 1] == 1.0)
    else:
        assert rec.true_r_in_candidates == bool(np.any(frac == 1.0))


@settings(max_examples=20, deadline=None)
# K = 2 ... 12: hex widths 1 to 3 and every K mod 4, so partial top digits too
@given(degree=st.integers(2, 12), n=st.integers(2, 70),
       seed_frac=st.floats(0.0, 1.0, exclude_max=True), rng_seed=st.integers(0, 2**32 - 1))
@example(degree=17, n=40, seed_frac=0.9, rng_seed=3)  # true seed in the second row chunk
@example(degree=9, n=40, seed_frac=0.0, rng_seed=0)  # true seed 1, the first row
@example(degree=17, n=40, seed_frac=0.999999, rng_seed=0)  # 2^17 - 1, the last row
def test_seed_csv_writer_matches_the_csv_module(tmp_path_factory, degree, n, seed_frac,
                                                 rng_seed):
    # jitter plus one recording error: fractions vary and the true seed misses
    true_seed = 1 + int(seed_frac * ((1 << degree) - 1))
    rec = replay_record(degree, n, true_seed, noisy=True, rng_seed=rng_seed)
    assume(rec.per_seed_match_fraction[true_seed - 1] < 1.0)
    assume(np.unique(rec.per_seed_match_fraction).size > 2)
    out = tmp_path_factory.mktemp("csv")
    runner._write_seed_csv(str(out / "fast.csv"), "m.json", "abc", rec, n)
    runner._write_csv(str(out / "ref.csv"), "m.json", "abc", SEED_CSV_HEADER,
                      per_seed_rows(rec, n))
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


ALL_CHUNKS = (1, 3, 64, 1 << 16)
# at 2^17 - 1 rows, chunks of 1 or 3 rows take seconds; 64 and 2^16 both split at row 65536
BOUNDARY_CHUNKS = (64, 1 << 16)


@pytest.mark.parametrize("degree, n, true_seed, noisy, chunks", [
    (5, 12, 7, False, ALL_CHUNKS),          # the true seed's row ends ",1.0,0,1,1"
    (9, 64, 0x1A5, True, ALL_CHUNKS),       # hex widths 1 to 3; the true seed misses
    (17, 40, 65536, False, BOUNDARY_CHUNKS),  # the true seed at row 65535, 65536 or
    (17, 40, 65537, False, BOUNDARY_CHUNKS),  # 65537: the last row of the first 2^16
    (17, 40, 65538, False, BOUNDARY_CHUNKS),  # chunk, the first and second of the next
], ids=["exact-match", "jitter-and-error", "row-65535", "row-65536", "row-65537"])
def test_seed_csv_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, degree, n,
                                                        true_seed, noisy, chunks):
    rec = replay_record(degree, n, true_seed, noisy)
    assert (rec.per_seed_match_fraction[true_seed - 1] == 1.0) != noisy
    runner._write_csv(str(tmp_path / "ref.csv"), "m.json", "abc", SEED_CSV_HEADER,
                      per_seed_rows(rec, n))
    want = (tmp_path / "ref.csv").read_bytes()
    for chunk in chunks:
        monkeypatch.setattr(runner, "_SEED_CSV_CHUNK", chunk)
        runner._write_seed_csv(str(tmp_path / "fast.csv"), "m.json", "abc", rec, n)
        assert (tmp_path / "fast.csv").read_bytes() == want, chunk


def test_seed_csv_rejects_a_fraction_off_the_one_over_n_grid(tmp_path):
    rec = replay_record(6, 10, 5, noisy=True)
    frac = rec.per_seed_match_fraction.copy()
    frac[17] = np.nextafter(frac[17], 2.0)
    rec.per_seed_match_fraction = frac
    with pytest.raises(ValueError, match="whole multiples"):
        runner._write_seed_csv(str(tmp_path / "seeds.csv"), "m.json", "abc", rec, 10)
    assert not (tmp_path / "seeds.csv").exists()


@pytest.mark.parametrize("mutate", [
    lambda s: s[::-1],
    lambda s: s[:-1],
    lambda s: s - 1,
    lambda s: np.where(s == 5, 6, s),
], ids=["reversed", "last-seed-missing", "starts-at-zero", "seed-5-twice"])
def test_seed_csv_rejects_seeds_other_than_one_to_two_to_the_k(tmp_path, mutate):
    # the hex column comes from a table indexed by row, so it must be seed s at row s
    rec = replay_record(6, 10, 5, noisy=True)
    rec.seeds = mutate(rec.seeds)
    rec.per_seed_match_fraction = rec.per_seed_match_fraction[:rec.seeds.size]
    with pytest.raises(ValueError, match="not 1 ... 2\\^K - 1"):
        runner._write_seed_csv(str(tmp_path / "seeds.csv"), "m.json", "abc", rec, 10)
    assert not (tmp_path / "seeds.csv").exists()


def test_attack_replay_workload_seed_csvs_match_the_benchmark_refs(tmp_path):
    # K = 20 covers hex widths 1 to 5; otp = true writes the pad stage's file too
    argv = ["attack", "--config", str(ATTACK_REPLAY_INI), "--out-dir", str(tmp_path),
            "--seed", "1"]
    assert cli.main(argv) == 0
    for name in ("attack_replay_attack_seeds.csv", "attack_replay_attack_otp_seeds.csv"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == ATTACK_REPLAY_SEEDS_SHA256, name
