"""The shared record-channel scorer and the array half-plane rule against per-element oracles."""

import dataclasses
import math
import pathlib
import tracemalloc
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import codec_oracles as scalar
import entropy_oracles as oracle
from yzero import attacks, codec, runner
from yzero.scenario import load_config

WORKLOADS = pathlib.Path(__file__).parents[1] / "perfbench/workloads"


# The engines sum log2 likelihoods by Walsh-Hadamard transforms, the oracles
# multiply gathered probabilities, so the two differ by rounding alone.  A
# transform's rounding is relative to the magnitudes it sums, so a log2
# likelihood, and every figure built from it, is off by a multiple of eps
# times the record's log mass B = N (1 + max |log2 f|) over the nonzero table
# entries (heterodyne entries reach 1e-134, B = 14000 at N = 32).  The worst
# multiples seen over 20000 drawn cases each were 3.2 on a report figure
# (2.5e-14 on h_data = 6.38 at B = 34.6) and 25 on a single key's likelihood
# (2.4e-14 relative at B = 4.3, N = 1, where the fixed rounding of log2 and
# exp2 outweighs B); LOG_MASS_ULPS is a safety factor of 10 over the latter.
LOG_MASS_ULPS = 256


def log2_tolerance(c, sc, regime) -> float:
    """LOG_MASS_ULPS eps B for the tables the engines score in ``regime``."""
    _, tables, _ = record_model(c, sc, regime)
    top = max(float(np.abs(np.log2(t[t > 0.0])).max(initial=0.0)) for t in tables)
    return LOG_MASS_ULPS * np.finfo(float).eps * sc.n_symbols * (1.0 + top)


def assert_outcomes_close(new, old, c, sc, regime):
    """Report floats within ``log2_tolerance``; all else, Generator state included, exact."""
    if isinstance(new[0], type) or isinstance(old[0], type):
        assert new == old
        return
    assert new[1] == old[1]
    figures_new, figures_old = dataclasses.asdict(new[0]), dataclasses.asdict(old[0])
    figures_new.update(figures_new.pop("notes"))
    figures_old.update(figures_old.pop("notes"))
    assert figures_new.keys() == figures_old.keys()
    tol = log2_tolerance(c, sc, regime)
    for name, value in figures_old.items():
        if isinstance(value, float):
            assert math.isclose(figures_new[name], value, rel_tol=0.0, abs_tol=tol), \
                (name, figures_new[name], value, tol)
        else:
            assert figures_new[name] == value, name


def outcome(engine, *args, **kw):
    """The engine's report and the Generator state after it, or the error it raised."""
    rng = np.random.default_rng(kw.pop("seed"))
    try:
        return engine(*args, rng=rng, **kw), rng.bit_generator.state
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@st.composite
def entropy_cases(draw):
    degree = draw(st.integers(2, 8))
    n = draw(st.integers(1, 16))
    m = draw(st.sampled_from([1, 2, 4, 16]))
    c = codec.Constellation(m=m, energy=draw(st.floats(0.0, 6.0)))
    regime = draw(st.sampled_from(["ciphertext_only", "classical", "quantum"]))
    # 0.0 and multiples of pi / M put constellation points on Eve's axis
    misalign = draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi),
                              st.integers(-2 * m, 2 * m).map(lambda k: k * math.pi / m)))
    kinds = ["none", "binary"] if regime == "quantum" else ["none", "binary", "jitter"]
    kind = draw(st.sampled_from(kinds))
    if kind == "binary":
        dsr = attacks.Dsr.binary(draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    elif kind == "jitter":
        dsr = attacks.Dsr.jitter(draw(st.one_of(st.just(0.0), st.floats(1e-9, 3.0))))
    else:
        dsr = attacks.Dsr()
    errors = [] if regime == "quantum" else draw(
        st.lists(st.integers(0, n - 1), max_size=1))
    sc = attacks.AttackScenario.with_errors(n, errors, misalign=misalign, dsr=dsr)
    return c, codec.PRIMITIVE_POLYS[degree], sc, regime, draw(st.integers(1, 3)), \
        draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(entropy_cases())
@example((codec.Constellation(m=16, energy=4.0), codec.PRIMITIVE_POLYS[8],
          attacks.AttackScenario(n_symbols=16, dsr=attacks.Dsr.binary(0.1)),
          "quantum", 3, 5))
@example((codec.Constellation(m=2, energy=1.0), codec.PRIMITIVE_POLYS[6],
          attacks.AttackScenario.with_errors(12, [3], misalign=0.3,
                                             dsr=attacks.Dsr.jitter(0.2)),
          "ciphertext_only", 3, 9))
# a label probability that rounds to 1.6e-16 instead of 0 puts a ratio f'/f
# of 6e15 beside ratios near 1
@example((codec.Constellation(m=2, energy=1.0), codec.PRIMITIVE_POLYS[2],
          attacks.AttackScenario.with_errors(2, [0], misalign=1.4131403079886078,
                                             dsr=attacks.Dsr.jitter(1.4131403079886078)),
          "ciphertext_only", 3, 1))
# a 2e-9 jitter window turns a 1e-16 rounding of the relative phase into 5e-8
# in a label probability, so both sides must take it as pi i / M - misalign
@example((codec.Constellation(m=16, energy=0.0), codec.PRIMITIVE_POLYS[2],
          attacks.AttackScenario.with_errors(1, [0], misalign=27 * math.pi / 16,
                                             dsr=attacks.Dsr.jitter(1e-9)),
          "ciphertext_only", 1, 0))
def test_entropy_engines_match_per_regime_oracles(case):
    c, poly, sc, regime, trials, seed = case
    if regime == "ciphertext_only":
        new = outcome(attacks.ciphertext_only_entropy, c, poly, sc, trials, seed=seed)
        old = outcome(oracle.ciphertext_only_entropy, c, poly, sc, trials, seed=seed)
    else:
        new = outcome(attacks.known_plaintext_key_entropy, c, poly, sc, trials,
                      regime=regime, seed=seed)
        old = outcome(oracle.known_plaintext_key_entropy, c, poly, sc, trials,
                      regime=regime, seed=seed)
    assert_outcomes_close(new, old, c, sc, regime)


def record_model(c, sc, regime):
    """(record, tables, weight) for one regime: the engines' table, and for labels
    first the per-basis data marginal, which only the tests score."""
    if regime == "quantum":
        record, table = attacks._record_channel(c, sc, "quantum")
        return record, [table], 0
    record, table = attacks._record_channel(c, sc, "classical")
    up = 0.5 * (table[0, :, 1] + table[1, :, 1])
    marginal = np.broadcast_to(np.stack([1.0 - up, up], axis=1), (2, c.m, 2))
    return record, [marginal, table], int(sc.error_seq.sum())


@settings(max_examples=60, deadline=None)
@given(entropy_cases())
@example((codec.Constellation(m=2, energy=1.0), codec.PRIMITIVE_POLYS[2],
          attacks.AttackScenario.with_errors(1, [0], misalign=1.4131403079886078,
                                             dsr=attacks.Dsr.jitter(1.4131403079886078)),
          "ciphertext_only", 3, 1))
# 1 - flip rounds to 1, so the label table holds 1, flip and 0; with one
# recording error the ratios f'/f are then 1/flip, past the largest float,
# and flip itself, and each must reach the transform scaled
@example((codec.Constellation(m=4, energy=1.0), codec.PRIMITIVE_POLYS[6],
          attacks.AttackScenario.with_errors(8, [3], dsr=attacks.Dsr.binary(5e-324)),
          "ciphertext_only", 2, 5))
@example((codec.Constellation(m=4, energy=1.0), codec.PRIMITIVE_POLYS[6],
          attacks.AttackScenario.with_errors(8, [3], dsr=attacks.Dsr.binary(2.2e-308)),
          "classical", 2, 5))
def test_walsh_scorer_matches_gathered_likelihoods_key_by_key(case):
    c, poly, sc, regime, trials, seed = case
    assume(c.m > 1)
    record, tables, weight = record_model(c, sc, regime)
    tol = log2_tolerance(c, sc, regime)
    tiny = np.finfo(float).tiny
    # one call per table; the same seed gives each call the same draws
    for table in tables:
        new = attacks._record_likelihoods(c, poly, sc, trials, np.random.default_rng(seed),
                                          record, table, weight)
        old = oracle.gathered_likelihoods(c, poly, sc, trials, np.random.default_rng(seed),
                                          record, table, weight)
        for log_like, like in zip(new, old):
            # a zero likelihood is exact; elsewhere each key is held to its own
            # size where the gathered product is normal, and below the normal
            # range where that product lost its digits or underflowed to 0
            zero = np.isneginf(log_like)
            assert not like[zero].any()
            live = like >= tiny
            npt.assert_allclose(np.exp2(log_like[live]), like[live], rtol=tol)
            assert (log_like[~zero & ~live] < math.log2(tiny) + tol).all()


@settings(max_examples=100, deadline=None)
@given(entropy_cases())
# the flip probabilities of the key-by-key examples above
@example((codec.Constellation(m=4, energy=1.0), codec.PRIMITIVE_POLYS[6],
          attacks.AttackScenario.with_errors(8, [3], dsr=attacks.Dsr.binary(5e-324)),
          "ciphertext_only", 2, 5))
@example((codec.Constellation(m=4, energy=1.0), codec.PRIMITIVE_POLYS[6],
          attacks.AttackScenario.with_errors(8, [3], dsr=attacks.Dsr.binary(2.2e-308)),
          "classical", 2, 5))
# (1 - f) / f lies just below 32, and its log2 rounds to 5: a band exponent
# taken from that log2 made the band's value 1 - 1.1e-16
@example((codec.Constellation(m=4, energy=1.0), codec.PRIMITIVE_POLYS[6],
          attacks.AttackScenario.with_errors(8, [3],
                                             dsr=attacks.Dsr.binary(0.030303030303030307)),
          "classical", 2, 5))
def test_every_nonzero_band_value_lies_in_one_to_two_to_the_band_bits_plus_one(case):
    # the premise of reading a band's presence from its sum: a key's band sum
    # is 0 or at least 1, so a 0.5 threshold separates the two past rounding
    c, poly, sc, regime, trials, seed = case
    _, tables, _ = record_model(c, sc, regime)
    for tab in tables:
        terms, (_, e) = attacks._symbol_terms(tab, 1)
        values = np.array(terms[2:]).reshape(len(e), -1)
        # no band term is 0 on the whole table, so the scorer never skips one
        assert values.any(axis=1).all()
        nonzero = values[values != 0.0]
        assert (nonzero >= 1.0).all() and (nonzero < 2.0 ** (attacks.RATIO_BAND_BITS + 1)).all()


# a key's band sum is 0 (no symbol in the band), a rounding residue in
# (0, 0.5] or at least 1
BAND_SUMS = st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True),
                      st.floats(1.0, 2.0 ** 20))


@st.composite
def likelihood_sums(draw):
    """(lam, zeros, band_sums, bands, n) as ``_record_likelihoods`` passes them."""
    keys = draw(st.integers(2, 64))
    lam = draw(hnp.arrays(float, keys, elements=st.floats(-5000.0, 0.0)))
    # at most one zero factor at every key, as on a table without zeros, or a mix
    counts = draw(st.sampled_from([[0.0], [0.0, 1.0], [0.0, 1.0, 2.0, 7.0]]))
    zeros = draw(hnp.arrays(float, keys, elements=st.sampled_from(counts)))
    if draw(st.booleans()):
        return lam, zeros, np.zeros((0, keys)), None, draw(st.integers(1, 64))
    n_bands = draw(st.integers(0, 12))
    # band exponents over +-1000 octaves, as 1/f reaches past the float range
    e = draw(hnp.arrays(np.int32, (n_bands, 1), elements=st.integers(-1000, 1000)))
    band_sums = draw(hnp.arrays(float, (n_bands, keys), elements=BAND_SUMS))
    return lam, zeros, band_sums, (draw(st.integers(0, n_bands)), e), draw(st.integers(1, 64))


@settings(max_examples=400, deadline=None)
@given(likelihood_sums())
# one zero factor: only the last band, past the ratio bands, counts for key 1
@example((np.array([-3.0, -5.0, -1.0]), np.array([0.0, 1.0, 2.0]),
          np.array([[2.0, 3.0, 4.0], [0.0, 6.0, 1.0]]), (1, np.array([[-2], [7]], np.int32)), 4))
# nine bands of one key: added in order they sum to 21, pairwise to 21 + 4e-15
@example((np.array([0.0, 0.0]), np.array([0.0, 2.0]),
          np.array([[1.0 + k / 3, 1.0] for k in range(9)]), (9, np.zeros((9, 1), np.int32)), 21))
# every key a candidate, as on a table without zeros
@example((np.array([-1.0, -2.0, -4.0]), np.array([0.0, 1.0, 0.0]),
          np.array([[3.0, 0.0, 0.25], [0.0, 5.0, 2.0]]), (1, np.array([[3], [-900]], np.int32)),
          5))
@example((np.array([-1.0, -2.0]), np.array([1.0, 1.0]), np.zeros((0, 2)),
          (0, np.zeros((0, 1), np.int32)), 2))
def test_live_key_assembly_is_bitwise_the_whole_array_assembly(case):
    # every key, -inf included, must carry the whole-array assembly's exact bits
    lam, zeros, band_sums, bands, n = case
    old = oracle.log2_likelihood(lam, zeros, band_sums, bands, n).view(np.int64)
    banded = bands is not None and len(bands[1]) > 0
    if not banded or not zeros.any():
        # the per-trial path takes bands only on tables without zeros
        new = attacks._log2_likelihood(lam, zeros, band_sums, bands, n)
        assert np.array_equal(new.view(np.int64), old)
    if banded:
        # the block path gathers the keys with at most one zero factor, of
        # two trials here, assembles their concatenation and scatters it back
        keys = np.flatnonzero(zeros <= 1)
        both = np.concatenate([keys, keys[::-1]])
        live = attacks._band_log2(lam[both], zeros[both], band_sums[:, both], bands, n)
        for part in (live[:keys.size], live[keys.size:][::-1]):
            new = np.full(lam.shape, -math.inf)
            new[keys] = part
            assert np.array_equal(new.view(np.int64), old)


@pytest.mark.parametrize("regime", ["ciphertext_only", "classical", "quantum"])
def test_record_samplers_are_built_once_per_run(monkeypatch, regime):
    # the label table and the amplitudes a record reads are built once per
    # run, so their builders' call counts do not grow with the trials
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    label = counted("halfplane_label", codec.halfplane_label)
    monkeypatch.setattr(codec, "halfplane_label", label)
    monkeypatch.setattr(attacks, "halfplane_label", label)
    monkeypatch.setattr(codec.Constellation, "amplitudes",
                        counted("amplitudes", codec.Constellation.amplitudes))
    c, poly = codec.Constellation(m=4, energy=2.0), codec.PRIMITIVE_POLYS[6]
    # binary flips on the heterodyne record, as the benchmark's quantum run
    dsr = attacks.Dsr.binary(0.1) if regime == "quantum" else attacks.Dsr()
    sc = attacks.AttackScenario(n_symbols=8, misalign=0.3, dsr=dsr)

    def counts(trials):
        calls.clear()
        rng = np.random.default_rng(11)
        if regime == "ciphertext_only":
            attacks.ciphertext_only_entropy(c, poly, sc, trials, rng)
        else:
            attacks.known_plaintext_key_entropy(c, poly, sc, trials, rng, regime=regime)
        return dict(calls)

    one, many = counts(1), counts(50)
    assert many == one
    # the classical channel and the sampler each read the labels once; the
    # heterodyne sampler reads the amplitudes once
    assert one == ({"amplitudes": 1} if regime == "quantum" else {"halfplane_label": 2})


@pytest.mark.parametrize("regime, errors", [("classical", []), ("classical", [5]),
                                            ("quantum", [])])
def test_a_term_zero_on_its_whole_table_is_skipped_without_changing_likelihoods(regime,
                                                                              errors):
    # misaligned noiseless labels are 0 or 1, so log2 f is 0 on the whole
    # label table; the data marginal and the heterodyne table have no zero,
    # so the zero indicator is 0 on the whole table.  The scorer skips such
    # terms, and every key must still match the gathered products
    c, poly = codec.Constellation(m=4, energy=2.0), codec.PRIMITIVE_POLYS[8]
    sc = attacks.AttackScenario.with_errors(12, errors, misalign=0.3)
    record, tables, weight = record_model(c, sc, regime)
    dead = [[not t.any() for t in attacks._symbol_terms(tab, weight)[0][:2]] for tab in tables]
    assert dead == ([[False, True]] if regime == "quantum" else [[False, True], [True, False]])
    tol = log2_tolerance(c, sc, regime)
    for table in tables:
        # every trial is kept before any is compared: no yielded array may
        # share memory with the buffers the next trial's transform writes
        new = list(attacks._record_likelihoods(c, poly, sc, 4, np.random.default_rng(7),
                                               record, table, weight))
        old = oracle.gathered_likelihoods(c, poly, sc, 4, np.random.default_rng(7), record,
                                          table, weight)
        for log_like, like in zip(new, old):
            npt.assert_allclose(np.exp2(log_like), like, rtol=tol)


# record models of the blocked-scorer tests: (regime, dsr, misalign, M)
RECORDS = {
    "none": ("classical", attacks.Dsr(), 0.0, 16),
    "binary": ("classical", attacks.Dsr.binary(0.1), 0.0, 16),
    "jitter": ("classical", attacks.Dsr.jitter(0.2), 0.0, 16),
    "misalign": ("classical", attacks.Dsr(), 0.3, 16),
    "quantum_none": ("quantum", attacks.Dsr(), 0.0, 16),
    "quantum_binary": ("quantum", attacks.Dsr.binary(0.1), 0.0, 16),
    # 256 observations: a uint8 data bit times the observation count would
    # overflow the coefficient row index
    "quantum_m128": ("quantum", attacks.Dsr.binary(0.1), 0.0, 128),
}
BLOCK = attacks._TRIAL_BLOCK


@pytest.mark.parametrize("trials", [1, BLOCK - 1, BLOCK, BLOCK + 1, 200])
@pytest.mark.parametrize("record, errors", [(name, []) for name in RECORDS]
                         + [(name, [5]) for name in ("none", "binary", "jitter", "misalign")])
def test_blocked_scorer_is_bitwise_the_per_trial_loop(record, errors, trials):
    # the benchmark's sizes (K = 12, N = 32, M = 16 but once); records, basis
    # coefficients and band sums are built per block, and every key of every
    # trial, -inf included, must carry the per-trial loop's exact bits
    regime, dsr, misalign, m = RECORDS[record]
    c, poly = codec.Constellation(m=m, energy=4.0), codec.PRIMITIVE_POLYS[12]
    sc = attacks.AttackScenario.with_errors(32, errors, misalign=misalign, dsr=dsr)
    sampler, table = attacks._record_channel(c, sc, regime)
    # with an error, S is assembled per block where the table has zeros; the
    # binary flip's table has none, so every key is a candidate, per trial
    assert (table == 0.0).any() == (record in ("none", "jitter", "misalign"))
    rng_new, rng_old = np.random.default_rng(trials), np.random.default_rng(trials)
    new = list(attacks._record_likelihoods(c, poly, sc, trials, rng_new, sampler, table,
                                           len(errors)))
    old = list(oracle.record_likelihoods(c, poly, sc, trials, rng_old, sampler, table,
                                         len(errors)))
    assert len(new) == len(old) == trials
    for t, (log_like, want) in enumerate(zip(new, old)):
        assert np.array_equal(log_like.view(np.int64), want.view(np.int64)), t
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("kind", ["binary", "jitter", "misalign", "heterodyne",
                                  "heterodyne_binary"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_draws_give_one_apply_the_records_of_per_row_calls(kind, seed):
    c = codec.Constellation(m=16, energy=4.0)
    rows, n = 7, 12
    dsr = {"binary": attacks.Dsr.binary(0.3), "jitter": attacks.Dsr.jitter(0.7),
           "heterodyne_binary": attacks.Dsr.binary(0.1)}.get(kind, attacks.Dsr())
    sc = attacks.AttackScenario(n_symbols=n, misalign=0.3 if kind == "misalign" else 0.0,
                                dsr=dsr)
    build = attacks._heterodyne_sampler if kind.startswith("heterodyne") else \
        attacks._label_sampler
    sampler = build(c, sc)
    data = np.random.default_rng(seed + 100)
    indices = data.integers(0, c.n_states, (rows, n))
    error_vec = (data.random((rows, n)) < 0.2).astype(np.uint8)
    rng_block, rng_rows = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = [sampler.draw(rng_block, (n,)) for _ in range(rows)]
    block = sampler.apply(indices, attacks._stack_draws(draws), error_vec)
    per_row = np.stack([sampler.record(indices[t], rng_rows, error_vec[t])
                        for t in range(rows)])
    assert block.dtype == per_row.dtype
    npt.assert_array_equal(block, per_row)
    assert rng_block.bit_generator.state == rng_rows.bit_generator.state


# tracemalloc peaks of one warm ``run_entropy`` of each workload with the
# per-trial loop, which held one trial's coefficients
PER_TRIAL_PEAK = {"entropy_jitter": 857_905, "entropy_quantum": 361_190}


@pytest.mark.parametrize("workload", sorted(PER_TRIAL_PEAK))
def test_blocked_entropy_run_peaks_within_half_a_megabyte_of_the_per_trial_loop(tmp_path,
                                                                             workload):
    # a block's basis coefficients take 320 KB on the jitter run; a block of
    # 32 trials, or a block's worth of 4096-key likelihood arrays, passes 0.5 MB
    cfg = load_config(str(WORKLOADS / f"{workload}.ini"), "entropy", out_dir=str(tmp_path))
    runner.run_entropy(cfg)
    tracemalloc.start()
    try:
        runner.run_entropy(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PER_TRIAL_PEAK[workload] + 2**19, peak


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(1e-30, 0.5))
@example(delta=1e-30)
@example(delta=1e-18)
@example(delta=0.5)
def test_two_key_posterior_entropy_is_the_binary_entropy(delta):
    h = attacks._posterior_entropy_bits(np.array([0.0, math.log2(delta / (1.0 - delta))]))
    ref = (-delta * math.log(delta) - (1.0 - delta) * math.log1p(-delta)) / math.log(2.0)
    assert math.isclose(h, ref, rel_tol=1e-12)


@pytest.mark.parametrize("errors", [[], [17]])
def test_scorer_stays_finite_where_every_gathered_product_underflows(errors):
    # 64 symbols, past ENTROPY_SYMBOL_CAP: a noiseless label table scaled by
    # 2^-20 leaves every posterior as it was, but the product over the record
    # is 2^-1280 or less, which is 0 in float for every key
    c = codec.Constellation(m=4, energy=1.0)
    poly, n = codec.PRIMITIVE_POLYS[8], 64
    sc = attacks.AttackScenario.with_errors(n, errors)
    record, table = attacks._record_channel(c, sc, "classical")
    table = table * 2.0 ** -20
    gathered = next(oracle.gathered_likelihoods(c, poly, sc, 1, np.random.default_rng(3),
                                                record, table, len(errors)))
    assert not gathered.any()
    true_seed = int(np.random.default_rng(3).integers(1, 256))
    log_like = next(attacks._record_likelihoods(c, poly, sc, 1, np.random.default_rng(3),
                                                record, table, len(errors)))
    assert log_like[true_seed] == log_like.max() == -20.0 * n - math.log2(n) * len(errors)
    assert attacks._posterior_entropy_bits(log_like) == 0.0


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 4, 16]), n=st.integers(1, 12), trials=st.integers(1, 6),
       kind=st.sampled_from(["none", "binary", "jitter"]), seed=st.integers(0, 2**32 - 1),
       misalign=st.floats(-1.0, 1.0), error=st.booleans())
def test_batched_label_measurement_matches_per_trial_loop(m, n, trials, kind, seed,
                                                          misalign, error):
    c = codec.Constellation(m=m, energy=1.0)
    dsr = {"none": attacks.Dsr(), "binary": attacks.Dsr.binary(0.3),
           "jitter": attacks.Dsr.jitter(0.7)}[kind]
    sc = attacks.AttackScenario.with_errors(n, [n - 1] if error else [], misalign=misalign,
                                            dsr=dsr)
    poly, true_seed = codec.PRIMITIVE_POLYS[5], 0x13
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    data = rng_new.integers(0, 2, (trials, n), dtype=np.uint8)
    basis = codec._seed_row(codec.unit_keystreams(poly, n, c.bits_per_basis), true_seed)
    labels = attacks._label_sampler(c, sc).record(codec._pair_index_table(c)[data, basis],
                                                  rng_new, sc.error_seq)
    data_old, labels_old = oracle.label_mutual_information_labels(c, poly, true_seed, sc,
                                                                  trials, rng_old)
    npt.assert_array_equal(data, data_old)
    npt.assert_array_equal(labels, labels_old)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    if trials > 1:
        # one count over all positions, bit for bit the per-position estimator
        mi = attacks.label_mutual_information(c, poly, true_seed, sc, trials,
                                              np.random.default_rng(seed))
        assert mi == oracle.plugin_mutual_information(data_old, labels_old)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 2, 4, 16, 512]), degree=st.integers(2, 20),
       taps=st.integers(0, 2**19 - 1), seed=st.integers(1, 2**20 - 1), n=st.integers(1, 64),
       data_seed=st.integers(0, 2**32 - 1))
def test_pair_index_table_matches_encode(m, degree, taps, seed, n, data_seed):
    # the oracle reads float phases
    c = codec.Constellation(m=m, energy=1.0)
    table = oracle.pair_index_table(c)
    npt.assert_array_equal(codec._pair_index_table(c), table)
    for bit in (0, 1):
        for basis in range(m):
            assert scalar.encode(bit, basis, 0, c).index == table[bit, basis]
    if m == 1:
        return  # no keystream bit selects a basis
    # the sent indices come from the unit rows, not from stepping the seed
    poly = (1 << degree) | (taps % (1 << (degree - 1))) << 1 | 1
    seed = 1 + seed % ((1 << degree) - 1)
    r = np.random.default_rng(data_seed).integers(0, 2, n, dtype=np.uint8)
    npt.assert_array_equal(codec.encode_sequence(r, poly, seed, c),
                           scalar.scalar_indices(r, poly, seed, c))


# misalignments at the edge of the tie band, where a point and its antipode
# rounded separately once fell on the same side
tie_edges = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                      st.floats(codec.TIE_EPS * (1 - 1e-3), codec.TIE_EPS * (1 + 1e-3)))


@settings(max_examples=100, deadline=None)
@given(m=st.sampled_from([1, 2, 4, 16, 512]),
       misalign=st.one_of(tie_edges, st.floats(-math.pi, math.pi)), turn=st.integers(0, 3))
@example(m=2, misalign=1e-12, turn=0)
@example(m=2, misalign=9.999e-13, turn=0)
def test_labels_read_data_xor_parity_and_every_pair_splits(m, misalign, turn):
    # the paper's l_i = r_i XOR k_i: the sent index's label is data XOR basis parity
    c = codec.Constellation(m=m, energy=1.0)
    basis = np.arange(m)
    npt.assert_array_equal(c.label(codec._pair_index_table(c)),
                           np.arange(2)[:, None] ^ (basis & 1))
    # an eavesdropper's axis near a constellation point still splits every pair;
    # at m = 1 and 2 a turn can pass the full turn the scenario takes
    turned = misalign + turn * math.pi / m
    assume(abs(turned) <= 2 * math.pi)
    sc = attacks.AttackScenario(n_symbols=2 * m, misalign=turned)
    labels = attacks._label_sampler(c, sc).record(np.arange(2 * m), None,
                                                  np.zeros(2 * m, np.uint8))
    npt.assert_array_equal(labels[:m] ^ labels[m:], 1)
    p1 = attacks._label_channel(c, sc)[:, 1]
    npt.assert_array_equal(p1[:m] + p1[m:], 1.0)


# phases on the axis line itself, k pi, and the constellation points pi j / M, some on it
TIE_POINTS = np.concatenate([math.pi * np.arange(-6, 7)]
                            + [math.pi * np.arange(2 * m) / m for m in (1, 2, 4, 16)])


@settings(max_examples=100, deadline=None)
@given(phases=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
@example(phases=[0.0, math.pi, -math.pi, 2 * math.pi, 1e-13, -1e-13, 1e-11])
def test_array_halfplane_label_matches_scalar_rule(phases):
    arr = np.concatenate([np.array(phases), TIE_POINTS])
    labels = codec.halfplane_label(arr)
    assert labels.dtype == np.uint8
    expected = [oracle.scalar_halfplane_label(float(p), 0.0) for p in arr]
    npt.assert_array_equal(labels, expected)
    scalar = codec.halfplane_label(float(arr[0]))
    assert type(scalar) is int and scalar == expected[0]
