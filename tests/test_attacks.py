"""Replay attacks and exact posterior entropies."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codec_oracles import parity_stream
from yzero import attacks, codec, detection
from yzero.errors import RegimeCapError


POLY8 = 0x11D
POLY4 = 0x13


def gf2_rank(rows: "list[int]") -> int:
    basis: "dict[int, int]" = {}
    rank = 0
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top in basis:
                v ^= basis[top]
            else:
                basis[top] = v
                rank += 1
                break
    return rank


def parity_map_rank(poly: int, bits_per_basis: int, n: int, key_bits: int) -> int:
    """GF(2) rank of the linear map from seed bits to the parity stream."""
    cols = [parity_stream(poly, 1 << b, bits_per_basis, n) for b in range(key_bits)]
    rows = []
    for i in range(n):
        rows.append(sum(int(cols[b][i]) << b for b in range(key_bits)))
    return gf2_rank(rows)


def test_parity_stream_is_linear_in_the_seed():
    # premise behind the rank oracles used below
    rng = np.random.default_rng(3)
    for _ in range(10):
        s1, s2 = rng.integers(1, 256, size=2)
        if s1 == s2:
            continue
        a = parity_stream(POLY8, int(s1), 2, 20)
        b = parity_stream(POLY8, int(s2), 2, 20)
        both = parity_stream(POLY8, int(s1 ^ s2) or 1, 2, 20)
        if s1 ^ s2:
            npt.assert_array_equal(a ^ b, both)


def test_dsr_constructors_and_validation():
    assert attacks.Dsr().kind == "none"
    assert attacks.Dsr.binary(0.3).param == 0.3
    assert attacks.Dsr.jitter(0.5).kind == "jitter"
    with pytest.raises(ValueError):
        attacks.Dsr("binary", 1.5)
    with pytest.raises(ValueError):
        attacks.Dsr("jitter", math.pi)
    with pytest.raises(ValueError):
        attacks.Dsr("gauss", 0.1)
    for param in (5.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="no parameter"):
            attacks.Dsr("none", param)


def test_attack_scenario_validation():
    with pytest.raises(ValueError):
        attacks.AttackScenario(n_symbols=0)
    sc = attacks.AttackScenario(6, [4, 1])
    assert sc.error_positions == (1, 4)
    npt.assert_array_equal(sc.error_seq, [0, 1, 0, 0, 1, 0])
    assert sc.error_seq is sc.error_seq and not sc.error_seq.flags.writeable
    assert attacks.AttackScenario(n_symbols=3).error_seq.sum() == 0


@pytest.mark.parametrize("positions, text", [([-1], "outside"), ([6], "outside"),
                                             ([2, 2], "distinct")])
def test_attack_scenario_rejects_positions_outside_or_repeated(positions, text):
    # -1 would wrap to the last symbol and a repeat would merge into one error
    with pytest.raises(ValueError, match=text):
        attacks.AttackScenario(6, positions)


def test_attack_scenarios_with_equal_inputs_compare_and_hash_equal():
    assert attacks.AttackScenario(n_symbols=4) == attacks.AttackScenario(n_symbols=4)
    assert hash(attacks.AttackScenario(n_symbols=4)) == hash(attacks.AttackScenario(n_symbols=4))
    a = attacks.AttackScenario(8, [5, 2], misalign=0.3, dsr=attacks.Dsr.binary(0.1))
    b = attacks.AttackScenario(8, (2, 5), misalign=0.3, dsr=attacks.Dsr.binary(0.1))
    # reading the derived array changes neither equality nor the hash
    a.error_seq
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "error_seq" not in repr(a)
    assert a != attacks.AttackScenario(8, [2, 6], misalign=0.3, dsr=attacks.Dsr.binary(0.1))


def test_measure_labels_noiseless_reads_data_xor_parity():
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(17)
    r = rng.integers(0, 2, 40, dtype=np.uint8)
    idx = codec.encode_sequence(r, POLY8, 0x5A, c)
    labels = attacks.measure_labels(idx, c, attacks.AttackScenario(n_symbols=40))
    npt.assert_array_equal(labels, r ^ parity_stream(POLY8, 0x5A, 2, 40))


def test_measure_labels_recording_error_flips_one_position():
    c = codec.Constellation(m=4, energy=2.0)
    r = np.zeros(12, dtype=np.uint8)
    idx = codec.encode_sequence(r, POLY8, 0x21, c)
    clean = attacks.measure_labels(idx, c, attacks.AttackScenario(n_symbols=12))
    noisy = attacks.measure_labels(
        idx, c, attacks.AttackScenario(12, [5]))
    diff = np.nonzero(clean != noisy)[0]
    npt.assert_array_equal(diff, [5])


def test_measure_labels_misalignment_flips_only_near_axis_states():
    # a reference offset below one wedge moves exactly the two on-axis states
    m = 8
    c = codec.Constellation(m=m, energy=2.0)
    delta = 0.3 * math.pi / m
    native = np.array([c.label(j) for j in range(2 * m)], dtype=np.uint8)
    sc = attacks.AttackScenario(n_symbols=2 * m, misalign=delta)
    measured = attacks.measure_labels(np.arange(2 * m), c, sc)
    flipped = np.nonzero(measured != native)[0]
    npt.assert_array_equal(flipped, [0, m])


def test_measure_labels_binary_flip_extremes():
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(4)
    idx = np.arange(8)
    native = np.array([c.label(j) for j in idx], dtype=np.uint8)
    all_flip = attacks.measure_labels(
        idx, c, attacks.AttackScenario(n_symbols=8, dsr=attacks.Dsr.binary(1.0)), rng)
    npt.assert_array_equal(all_flip, native ^ 1)
    none_flip = attacks.measure_labels(
        idx, c, attacks.AttackScenario(n_symbols=8, dsr=attacks.Dsr.binary(0.0)))
    npt.assert_array_equal(none_flip, native)


def test_measure_labels_requires_rng_for_randomized_scenarios():
    c = codec.Constellation(m=4, energy=2.0)
    sc = attacks.AttackScenario(n_symbols=4, dsr=attacks.Dsr.binary(0.5))
    with pytest.raises(ValueError):
        attacks.measure_labels(np.zeros(4, dtype=int), c, sc)
    with pytest.raises(ValueError):
        attacks.measure_labels(np.zeros(3, dtype=int), c,
                               attacks.AttackScenario(n_symbols=4))
    with pytest.raises(ValueError):
        attacks.measure_labels(np.array([99]), c, attacks.AttackScenario(n_symbols=1))
    # a float index would be truncated to a neighbouring state
    with pytest.raises(ValueError, match="integers"):
        attacks.measure_labels(np.array([1.5]), c, attacks.AttackScenario(n_symbols=1))


def test_index_label_table_matches_monte_carlo():
    c = codec.Constellation(m=4, energy=2.0)
    sc = attacks.AttackScenario(n_symbols=5000, misalign=0.2,
                                dsr=attacks.Dsr.jitter(0.8))
    p1 = attacks._label_channel(c, sc)[:, 1]
    rng = np.random.default_rng(99)
    for j in (0, 1, 3, 5, 6):
        labels = attacks.measure_labels(np.full(5000, j), c, sc, rng)
        p_hat = labels.mean()
        sd = math.sqrt(max(p1[j] * (1 - p1[j]), 1e-4) / 5000)
        assert abs(p_hat - p1[j]) < 4 * sd


def test_jitter_up_fraction_reduces_to_label_at_zero_width():
    # zero jitter reads the half-plane label; a vanishing window tends to it
    c = codec.Constellation(m=4, energy=1.0)
    sc = attacks.AttackScenario(n_symbols=1, dsr=attacks.Dsr.jitter(0.0))
    npt.assert_array_equal(attacks._label_channel(c, sc)[:, 1], c.label(np.arange(8)))
    assert attacks._up_fraction(0.5, 1e-300) == 1.0
    assert attacks._up_fraction(-0.5, 1e-300) == 0.0
    # a full-half-plane jitter window on the axis splits evenly
    npt.assert_allclose(attacks._up_fraction(0.0, math.pi / 2), 0.5, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(phase=st.floats(-20.0, 20.0),
       w=st.one_of(st.floats(1e-12, 1e-6),
                   st.floats(1e-12, math.pi, exclude_min=True, exclude_max=True)))
@example(phase=math.pi / 2, w=1e-9)  # M=2: 1.00000008 from differenced measures
@example(phase=12 * math.pi / 16, w=0.2)  # the jitter workload: 1 + 9e-16
def test_up_fraction_is_a_probability(phase, w):
    p = attacks._up_fraction(phase, w)
    assert 0.0 <= p <= 1.0
    # a window inside one half-plane lands there with certainty
    r = phase % (2.0 * math.pi)
    if w <= r <= math.pi - w:
        assert p == 1.0
    if math.pi + w <= r <= 2.0 * math.pi - w:
        assert p == 0.0
    # the antipode's window covers the complement, up to the rounding of the
    # phases relative to the width
    slack = 8.0 * np.finfo(float).eps * (abs(phase) + 2.0 * math.pi) / w
    assert abs(p + attacks._up_fraction(phase + math.pi, w) - 1.0) <= slack + 1e-15


def test_axis_pair_label_jumps_to_a_coin_flip_at_any_jitter():
    # the basis-0 pair lies on the label axis: the tie rule fixes its labels
    # at zero jitter, and any jitter at all makes each a coin flip
    c = codec.Constellation(m=2, energy=4.0)
    sharp = attacks._label_channel(c, attacks.AttackScenario(n_symbols=16))[:, 1]
    npt.assert_array_equal(sharp, [1.0, 1.0, 0.0, 0.0])
    h_data = {}
    for w in (0.0, 1e-9, 1e-6, 1e-3):
        sc = attacks.AttackScenario(n_symbols=16, dsr=attacks.Dsr.jitter(w))
        if w > 0.0:
            p1 = attacks._label_channel(c, sc)[:, 1]
            npt.assert_allclose(p1[[0, 2]], 0.5, atol=1e-6)
            npt.assert_allclose(p1[[1, 3]], [1.0, 0.0], atol=1e-6)
        rep = attacks.ciphertext_only_entropy(c, POLY8, sc, trials=10,
                                              rng=np.random.default_rng(3))
        h_data[w] = rep.h_data_given_obs
    assert h_data[0.0] == 8.0
    # about half the symbols sit on the axis pair, so the data entropy jumps by
    # bits the record can no longer resolve, and by the same amount for every width
    assert h_data[1e-9] > 8.0 + 3.0
    npt.assert_allclose([h_data[1e-6], h_data[1e-3]], h_data[1e-9], atol=1e-6)


def test_brute_force_agrees_with_scalar_enumeration():
    c = codec.Constellation(m=2, energy=1.0)
    rng = np.random.default_rng(8)
    n, true_seed = 10, 9
    r = rng.integers(0, 2, n, dtype=np.uint8)
    idx = codec.encode_sequence(r, POLY4, true_seed, c)
    measured = attacks.measure_labels(idx, c, attacks.AttackScenario(n_symbols=n))
    rec = attacks.brute_force_candidates(measured, c, POLY4, r, true_seed)
    hams, cands = [], set()
    for seed in range(1, 16):
        cand = measured ^ parity_stream(POLY4, seed, 1, n)
        hams.append(int(np.sum(cand != r)))
        cands.add(tuple(cand.tolist()))
    npt.assert_array_equal(rec.mismatches, hams)
    npt.assert_array_equal(rec.mismatch_histogram, np.bincount(hams, minlength=n + 1))
    assert rec.candidate_count == len(cands)
    assert rec.collision_count == 15 - len(cands)
    assert rec.true_key_rank == 1 + sum(h < hams[true_seed - 1] for h in hams)
    assert rec.true_r_in_candidates
    assert rec.notes["seed_space"] == 15


def test_brute_force_noiseless_recovery_and_single_error():
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(21)
    n = 48
    for true_seed in rng.integers(1, 256, size=5):
        r = rng.integers(0, 2, n, dtype=np.uint8)
        idx = codec.encode_sequence(r, POLY8, int(true_seed), c)
        clean = attacks.measure_labels(idx, c, attacks.AttackScenario(n_symbols=n))
        rec = attacks.brute_force_candidates(clean, c, POLY8, r, int(true_seed))
        assert rec.true_seed_mismatches == 0
        assert rec.true_key_rank == 1
        # one recording error displaces the true candidate by exactly one bit
        noisy = attacks.measure_labels(
            idx, c, attacks.AttackScenario(n, [7]))
        rec2 = attacks.brute_force_candidates(noisy, c, POLY8, r, int(true_seed))
        assert rec2.true_seed_mismatches == 1


def test_brute_force_binary_dsr_match_law():
    # expected agreement (1-f)(1-d/N) + f d/N for a seed at parity distance d
    c = codec.Constellation(m=4, energy=2.0)
    f, n, true_seed, probe_seed = 0.3, 48, 0xB7, 0x1C
    sc = attacks.AttackScenario(n_symbols=n, dsr=attacks.Dsr.binary(f))
    rng = np.random.default_rng(31)
    r = rng.integers(0, 2, n, dtype=np.uint8)
    idx = codec.encode_sequence(r, POLY8, true_seed, c)
    d = int(np.sum(parity_stream(POLY8, true_seed, 2, n)
                   != parity_stream(POLY8, probe_seed, 2, n)))
    trials = 200
    sums = np.zeros(2)
    for _ in range(trials):
        measured = attacks.measure_labels(idx, c, sc, rng)
        rec = attacks.brute_force_candidates(measured, c, POLY8, r, true_seed)
        probe_h = rec.mismatches[probe_seed - 1]
        sums[0] += (n - rec.true_seed_mismatches) / n
        sums[1] += (n - probe_h) / n
    got_true, got_probe = sums / trials
    sd = math.sqrt(0.25 / (n * trials))
    assert abs(got_true - (1 - f)) < 4 * sd
    want_probe = (1 - f) * (1 - d / n) + f * d / n
    assert abs(got_probe - want_probe) < 4 * sd


def test_brute_force_caps_and_flag_checks():
    c = codec.Constellation(m=4, energy=1.0)
    with pytest.raises(RegimeCapError):
        attacks.brute_force_candidates(np.zeros(4, dtype=np.uint8), c,
                                       (1 << 21) | 0b11, np.zeros(4, dtype=np.uint8), 1)
    with pytest.raises(RegimeCapError):
        attacks.brute_force_candidates(np.zeros(128, dtype=np.uint8), c,
                                       codec.PRIMITIVE_POLYS[20],
                                       np.zeros(128, dtype=np.uint8), 1)
    with pytest.raises(ValueError):
        attacks.brute_force_candidates(np.zeros(4, dtype=np.uint8), c, POLY8,
                                       np.zeros(4, dtype=np.uint8), 0)


def test_otp_stage_noiseless_identity():
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(42)
    n, true_seed = 32, 0x9D
    x = rng.integers(0, 2, n, dtype=np.uint8)
    sc = attacks.AttackScenario(n_symbols=n)
    rec = attacks.otp_stage_attack(x, c, POLY8, true_seed, sc, rng)
    assert rec.notes["pad_identity_noiseless"] is True
    assert rec.true_seed_mismatches == 0
    assert rec.true_key_rank == 1
    assert len(rec.notes["ciphertext"]) == n


@pytest.mark.parametrize("dsr", [attacks.Dsr(), attacks.Dsr("binary", 0.0),
                                 attacks.Dsr("jitter", 0.0)], ids=["none", "binary0", "jitter0"])
def test_otp_stage_noiseless_identity_at_every_dsr_that_draws_nothing(dsr):
    # the sampler draws nothing at parameter 0, so the record is noiseless
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(42)
    x = rng.integers(0, 2, 32, dtype=np.uint8)
    sc = attacks.AttackScenario(n_symbols=32, dsr=dsr)
    rec = attacks.otp_stage_attack(x, c, POLY8, 0x9D, sc, rng)
    assert rec.notes["pad_identity_noiseless"] is True
    assert rec.true_seed_mismatches == 0


def test_otp_stage_flags_an_exact_match_by_another_seed_as_the_plain_stage_does():
    # the recording error leaves the true seed one mismatch off, while seed 4
    # reproduces the plaintext; the pad stage once read the flag from the
    # true seed alone and wrote an exact match with the flag false
    c = codec.Constellation(m=2, energy=1.0)
    sc = attacks.AttackScenario(2, [0])
    rec = attacks.otp_stage_attack(np.zeros(2, dtype=np.uint8), c, codec.PRIMITIVE_POLYS[3], 1,
                                   sc, np.random.default_rng(0))
    assert rec.true_seed_mismatches == 1
    assert rec.exact_match_count == 1
    assert rec.true_r_in_candidates


def test_replays_reject_records_that_are_not_bits():
    # a 2 or a 7 would be scored as a 1, and an all-2 plaintext would match the replay
    c = codec.Constellation(m=4, energy=2.0)
    bits = np.zeros(8, dtype=np.uint8)
    sc = attacks.AttackScenario(n_symbols=8)
    for bad in (np.array([0, 2, 1, 0, 0, 1, 0, 0]), np.full(8, 7), np.full(8, 2),
                np.zeros((2, 4), dtype=np.uint8)):
        with pytest.raises(ValueError, match="0s and 1s"):
            attacks.brute_force_candidates(bad, c, POLY8, bits, 1)
        with pytest.raises(ValueError, match="0s and 1s"):
            attacks.brute_force_candidates(bits, c, POLY8, bad, 1)
        with pytest.raises(ValueError, match="0s and 1s"):
            attacks.otp_stage_attack(bad, c, POLY8, 1, sc, np.random.default_rng(0))


def test_replays_reject_an_empty_record():
    # N = 0 once gave 0 / 0 = NaN match fractions for every seed
    c = codec.Constellation(m=4, energy=2.0)
    empty = np.zeros(0, dtype=np.uint8)
    with pytest.raises(ValueError, match="n_symbols must be positive"):
        attacks.brute_force_candidates(empty, c, POLY8, empty, 1)
    with pytest.raises(ValueError, match="n_symbols must be positive"):
        attacks.otp_stage_attack(empty, c, POLY8, 1, attacks.AttackScenario(n_symbols=8),
                                 np.random.default_rng(0))


REPLAYS = {
    "brute_force_candidates": lambda c, seed, sc, rng: attacks.brute_force_candidates(
        np.zeros(8, dtype=np.uint8), c, POLY8, np.zeros(8, dtype=np.uint8), seed),
    "otp_stage_attack": lambda c, seed, sc, rng: attacks.otp_stage_attack(
        np.zeros(8, dtype=np.uint8), c, POLY8, seed, sc, rng),
    "label_mutual_information": lambda c, seed, sc, rng: attacks.label_mutual_information(
        c, POLY8, seed, sc, 10, rng),
}


@pytest.mark.parametrize("seed", [0, 1 << 8])
@pytest.mark.parametrize("replay", sorted(REPLAYS))
def test_replays_reject_seeds_outside_the_register(replay, seed):
    # seed 0 once scored against seed 2^K - 1 in the pad stage; 2^K indexed past the end
    c = codec.Constellation(m=4, energy=2.0)
    with pytest.raises(ValueError, match="nonzero register value"):
        REPLAYS[replay](c, seed, attacks.AttackScenario(n_symbols=8),
                        np.random.default_rng(1))


def test_otp_stage_full_randomization_breaks_recovery():
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(77)
    n = 64
    x = rng.integers(0, 2, n, dtype=np.uint8)
    sc = attacks.AttackScenario(n_symbols=n, dsr=attacks.Dsr.binary(0.5))
    rec = attacks.otp_stage_attack(x, c, POLY8, 0x9D, sc, rng)
    frac = (n - rec.true_seed_mismatches) / n
    assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / n)
    assert rec.notes["pad_identity_noiseless"] is None


def test_ciphertext_entropy_fully_randomized_is_information_free():
    c = codec.Constellation(m=4, energy=2.0)
    sc = attacks.AttackScenario(n_symbols=16, dsr=attacks.Dsr.binary(0.5))
    rng = np.random.default_rng(5)
    rep = attacks.ciphertext_only_entropy(c, POLY8, sc, trials=10, rng=rng)
    assert rep.h_key_given_obs == 8.0
    assert rep.h_data_given_obs == 16.0
    assert rep.exceeds_key_entropy is True
    assert rep.notes["h_key_given_obs_min"] == 8.0
    assert rep.notes["h_key_given_obs_max"] == 8.0


def test_ciphertext_entropy_noiseless_key_posterior_stays_flat():
    # each key hypothesis explains exactly one data sequence, so the record
    # alone never narrows the key: H(key | record) is the full key width
    c = codec.Constellation(m=4, energy=2.0)
    sc = attacks.AttackScenario(n_symbols=16)
    rng = np.random.default_rng(6)
    rep = attacks.ciphertext_only_entropy(c, POLY8, sc, trials=10, rng=rng)
    assert rep.h_key_given_obs == 8.0
    rank = parity_map_rank(POLY8, 2, 16, 8)
    assert rep.h_data_given_obs == float(rank)
    assert rep.exceeds_key_entropy is False


def test_ciphertext_entropy_noiseless_short_record_rank_oracle():
    c = codec.Constellation(m=4, energy=2.0)
    for n in (4, 10):
        sc = attacks.AttackScenario(n_symbols=n)
        rng = np.random.default_rng(n)
        rep = attacks.ciphertext_only_entropy(c, POLY8, sc, trials=6, rng=rng)
        assert rep.h_key_given_obs == 8.0
        assert rep.h_data_given_obs == float(parity_map_rank(POLY8, 2, n, 8))


def test_ciphertext_entropy_single_error_exceeds_key_width():
    # with one recording error at an undisclosed position the data posterior
    # widens by log2(N) whenever no two error positions are confusable
    c = codec.Constellation(m=4, energy=2.0)
    n, key_bits = 16, 8
    rank = parity_map_rank(POLY8, 2, n, key_bits)
    assert rank == key_bits
    streams = {tuple((parity_stream(POLY8, s, 2, n)).tolist()) for s in range(1, 256)}
    streams.add(tuple([0] * n))
    for p in range(1, n):
        pattern = np.zeros(n, dtype=np.uint8)
        pattern[0], pattern[p] = 1, 1
        base = parity_stream(POLY8, 1, 2, n)
        assert tuple((base ^ pattern).tolist()) not in streams
    sc = attacks.AttackScenario(n, [3])
    rng = np.random.default_rng(12)
    rep = attacks.ciphertext_only_entropy(c, POLY8, sc, trials=8, rng=rng)
    assert rep.h_key_given_obs == 8.0
    assert rep.h_data_given_obs == key_bits + math.log2(n)
    assert rep.exceeds_key_entropy is True
    assert rep.notes["error_weight"] == 1


def test_ciphertext_entropy_key_posterior_flat_for_any_symmetric_channel():
    # pair members are antipodal, so misalignment, jitter, and binary flips
    # all keep P(up | member 0) + P(up | member 1) = 1; the marginalized
    # record likelihood is then seed-independent and the key posterior flat
    # (pinned bit for bit by test_ciphertext_key_posterior_is_flat_bit_for_bit);
    # here, what the same channels leave of the data
    c = codec.Constellation(m=4, energy=2.0)
    scenarios = [
        (attacks.AttackScenario(n_symbols=16, misalign=0.4 * math.pi / 4), False),
        (attacks.AttackScenario(n_symbols=16, dsr=attacks.Dsr.jitter(0.6)), True),
        (attacks.AttackScenario(n_symbols=16, misalign=0.2,
                                dsr=attacks.Dsr.jitter(0.6)), True),
        (attacks.AttackScenario(n_symbols=16, dsr=attacks.Dsr.binary(0.2)), True),
    ]
    for i, (sc, stochastic) in enumerate(scenarios):
        rep = attacks.ciphertext_only_entropy(c, POLY8, sc, trials=6,
                                              rng=np.random.default_rng(13 + i))
        if stochastic:
            # a partly informative record pins the data below the full
            # n_symbols but above the floor set by the keystream's rank
            assert 8.0 < rep.h_data_given_obs < 16.0
        else:
            # deterministic relabeling: same data posterior as noiseless
            assert rep.h_data_given_obs == 8.0


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 4, 16]), degree=st.integers(2, 12), n=st.integers(1, 32),
       misalign=st.floats(-math.pi, math.pi),
       kind=st.sampled_from(["none", "binary", "jitter"]), param=st.floats(0.0, 1.0),
       error=st.booleans(), seed=st.integers(0, 2**32 - 1))
# a subnormal flip probability puts the recording-error ratio 1/flip past float range
@example(m=4, degree=7, n=9, misalign=0.1, kind="binary", param=5e-324, error=True, seed=3)
# an axis turned to the edge of the tie band: each pair must still split
@example(m=2, degree=2, n=4, misalign=1e-12, kind="none", param=0.0, error=False, seed=0)
@example(m=2, degree=2, n=8, misalign=9.999e-13, kind="none", param=0.0, error=False, seed=0)
# a jitter window inside the tie band: the model gives label 0, so the record must too
@example(m=2, degree=2, n=1, misalign=1e-13, kind="jitter", param=2.2250738585e-313,
         error=False, seed=1)
# a turn below pi's rounding: the antipode's own phase rounded onto the axis and
# read up, where the model gives it the complement of its partner
@example(m=2, degree=2, n=3, misalign=-1.367260604581746e-91, kind="jitter",
         param=4.314662437577604e-226, error=False, seed=0)
def test_ciphertext_key_posterior_is_flat_bit_for_bit(m, degree, n, misalign, kind, param,
                                                      error, seed):
    # the README claim, on every drawn symmetric channel: H(key | record) = K
    dsr = {"none": attacks.Dsr(), "binary": attacks.Dsr.binary(param),
           "jitter": attacks.Dsr.jitter(3.0 * param)}[kind]
    c = codec.Constellation(m=m, energy=1.0)
    poly = codec.PRIMITIVE_POLYS[degree]
    sc = attacks.AttackScenario(n, [n // 2] if error else [], misalign=misalign, dsr=dsr)
    rep = attacks.ciphertext_only_entropy(c, poly, sc, trials=2,
                                          rng=np.random.default_rng(seed))
    assert rep.h_key_given_obs == float(degree)
    assert rep.notes["h_key_given_obs_min"] == float(degree)
    # the engine writes K down; the transform route scores the per-basis data
    # marginal and must read 2^-n for every key of every record
    record, table = attacks._record_channel(c, sc, "classical")
    up = 0.5 * (table[0, :, 1] + table[1, :, 1])
    marginal = np.broadcast_to(np.stack([1.0 - up, up], axis=1), (2, m, 2))
    for keys, log_marg in attacks._record_likelihoods(c, poly, sc, 2,
                                                      np.random.default_rng(seed), record,
                                                      marginal, int(error)):
        assert np.array_equal(keys, np.arange(1 << degree))
        assert (log_marg == -float(n)).all()


def test_ciphertext_entropy_refuses_a_channel_whose_pairs_do_not_split(monkeypatch):
    # the flat posterior is written down, not computed, so a channel that
    # breaks its premise must stop the engine
    def lopsided(c, scenario):
        return np.tile([0.7, 0.3], (c.n_states, 1))

    monkeypatch.setattr(attacks, "_label_channel", lopsided)
    with pytest.raises(AssertionError, match="does not split"):
        attacks.ciphertext_only_entropy(codec.Constellation(m=4, energy=2.0), POLY8,
                                        attacks.AttackScenario(n_symbols=8), trials=1,
                                        rng=np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 4, 16]), degree=st.integers(2, 12), n=st.integers(1, 32),
       seed=st.integers(0, 2**32 - 1))
def test_known_plaintext_residual_is_key_bits_minus_the_replay_rank(m, degree, n, seed):
    # noiseless known data leaves the true seed plus the kernel of the parity
    # map, 2^(K - rank) keys, where rank is the one the replay counts by
    c = codec.Constellation(m=m, energy=1.0)
    poly = codec.PRIMITIVE_POLYS[degree]
    units = codec.unit_keystreams(poly, n, c.bits_per_basis)
    rank = attacks._gf2_rank(attacks._pack_words((units & 1).astype(np.uint8)))
    zeros = np.zeros(n, dtype=np.uint8)
    replay = attacks.brute_force_candidates(zeros, c, poly, zeros, 1)
    assert replay.candidate_count == (2**degree - 1 if rank == degree else 2**rank)
    rep = attacks.known_plaintext_key_entropy(c, poly, attacks.AttackScenario(n_symbols=n),
                                              trials=2, rng=np.random.default_rng(seed))
    assert rep.h_key_given_obs_and_data == float(degree - rank)
    assert rep.notes["h_min"] == rep.notes["h_max"] == float(degree - rank)


def test_ciphertext_entropy_caps_and_validation():
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(0)
    with pytest.raises(RegimeCapError):
        attacks.ciphertext_only_entropy(
            c, 0x1002D, attacks.AttackScenario(n_symbols=8), trials=1, rng=rng)
    with pytest.raises(RegimeCapError):
        attacks.ciphertext_only_entropy(
            c, POLY8, attacks.AttackScenario(n_symbols=33), trials=1, rng=rng)
    with pytest.raises(ValueError):
        attacks.ciphertext_only_entropy(
            c, POLY8, attacks.AttackScenario(n_symbols=8), trials=0, rng=rng)
    with pytest.raises(ValueError):
        attacks.ciphertext_only_entropy(
            c, POLY8, attacks.AttackScenario(8, [1, 2]), trials=1, rng=rng)


def test_known_plaintext_classical_rank_oracle():
    # disclosed data turns the record into rank(A) linear constraints, so
    # the residual key entropy is exactly key_bits - rank for every trial
    c = codec.Constellation(m=4, energy=2.0)
    for n in (4, 10, 16):
        rank = parity_map_rank(POLY8, 2, n, 8)
        rng = np.random.default_rng(n + 1)
        rep = attacks.known_plaintext_key_entropy(
            c, POLY8, attacks.AttackScenario(n_symbols=n), trials=8, rng=rng)
        assert rep.h_key_given_obs_and_data == float(8 - rank)
        assert rep.notes["h_min"] == rep.notes["h_max"]
        assert rep.regime == "known_plaintext_classical"


def test_known_plaintext_full_randomization_hides_the_key():
    c = codec.Constellation(m=4, energy=2.0)
    sc = attacks.AttackScenario(n_symbols=16, dsr=attacks.Dsr.binary(0.5))
    rng = np.random.default_rng(15)
    rep = attacks.known_plaintext_key_entropy(c, POLY8, sc, trials=6, rng=rng)
    assert rep.h_key_given_obs_and_data == 8.0


def test_known_plaintext_quantum_residual_shrinks_with_energy():
    c = codec.Constellation(m=4, energy=0.5)
    sc = attacks.AttackScenario(n_symbols=16)
    rng = np.random.default_rng(16)
    weak = attacks.known_plaintext_key_entropy(c, POLY8, sc, trials=6, rng=rng,
                                               regime="quantum")
    strong = attacks.known_plaintext_key_entropy(
        codec.Constellation(m=4, energy=9.0), POLY8, sc, trials=6,
        rng=np.random.default_rng(16), regime="quantum")
    assert weak.regime == "known_plaintext_quantum"
    assert weak.h_key_given_obs_and_data > 0.5
    assert strong.h_key_given_obs_and_data < 0.1
    assert weak.h_key_given_obs_and_data > strong.h_key_given_obs_and_data
    assert weak.notes["residual_positive"] is True


def test_known_plaintext_quantum_model_restrictions():
    c = codec.Constellation(m=4, energy=1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        attacks.known_plaintext_key_entropy(
            c, POLY8, attacks.AttackScenario(n_symbols=8, dsr=attacks.Dsr.jitter(0.1)),
            trials=1, rng=rng, regime="quantum")
    with pytest.raises(ValueError):
        attacks.known_plaintext_key_entropy(
            c, POLY8, attacks.AttackScenario(8, [2]),
            trials=1, rng=rng, regime="quantum")
    with pytest.raises(ValueError):
        attacks.known_plaintext_key_entropy(
            c, POLY8, attacks.AttackScenario(n_symbols=8), trials=1, rng=rng,
            regime="heterodyne")


def test_label_mutual_information_tracks_binary_randomization():
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(19)
    clean = attacks.label_mutual_information(
        c, POLY8, 0x4E, attacks.AttackScenario(n_symbols=8), trials=4000, rng=rng)
    assert abs(clean - 1.0) < 0.01
    hidden = attacks.label_mutual_information(
        c, POLY8, 0x4E,
        attacks.AttackScenario(n_symbols=8, dsr=attacks.Dsr.binary(0.5)),
        trials=10_000, rng=rng)
    assert hidden < 0.02
    partial = attacks.label_mutual_information(
        c, POLY8, 0x4E,
        attacks.AttackScenario(n_symbols=8, dsr=attacks.Dsr.binary(0.25)),
        trials=20_000, rng=rng)
    assert abs(partial - (1.0 - detection.binary_entropy(0.25))) < 0.02


def test_label_mutual_information_validation():
    c = codec.Constellation(m=4, energy=2.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        attacks.label_mutual_information(
            c, POLY8, 0, attacks.AttackScenario(n_symbols=4), trials=10, rng=rng)
    with pytest.raises(ValueError):
        attacks.label_mutual_information(
            c, POLY8, 1, attacks.AttackScenario(n_symbols=4), trials=1, rng=rng)


def test_label_mutual_information_enumerates_no_seed_and_skips_the_replay_caps():
    # 2^20 seeds x 80 symbols is past the replay's table cap, but no seed is scored
    c = codec.Constellation(m=4, energy=2.0)
    mi = attacks.label_mutual_information(
        c, codec.PRIMITIVE_POLYS[20], 0x9D, attacks.AttackScenario(n_symbols=80), trials=10,
        rng=np.random.default_rng(3))
    assert 0.0 <= mi <= 1.0
