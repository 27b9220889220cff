"""The shared record-channel scorer and the array half-plane rule against per-element oracles."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import codec_oracles as scalar
import entropy_oracles as oracle
from yzero import attacks, codec, detection


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
    """(record, tables, weight) as the engines build them for one regime."""
    idx = codec._pair_index_table(c)
    if regime == "quantum":
        f = sc.dsr.param if sc.dsr.kind == "binary" else 0.0
        trans = detection.heterodyne_index_transition(c, decision_offset=sc.misalign)
        chan = (1.0 - f) * trans + f * np.roll(trans, -c.m, axis=0)
        return attacks._heterodyne_indices, [chan[idx]], 0
    chan = attacks._label_channel(c, sc)
    up = 0.5 * (chan[idx[0], 1] + chan[idx[1], 1])
    marginal = np.broadcast_to(np.stack([1.0 - up, up], axis=1), (2, c.m, 2))
    return attacks._measure_indices, [marginal, chan[idx]], int(sc.error_vector().sum())


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
    new = attacks._record_likelihoods(c, poly, sc, trials, np.random.default_rng(seed),
                                      record, tables, weight)
    old = oracle.gathered_likelihoods(c, poly, sc, trials, np.random.default_rng(seed),
                                      record, tables, weight)
    tol = log2_tolerance(c, sc, regime)
    tiny = np.finfo(float).tiny
    for log_likes, likes in zip(new, old):
        for log_like, like in zip(log_likes, likes):
            # a zero likelihood is exact; elsewhere each key is held to its own
            # size where the gathered product is normal, and below the normal
            # range where that product lost its digits or underflowed to 0
            zero = np.isneginf(log_like)
            assert not like[zero].any()
            live = like >= tiny
            npt.assert_allclose(np.exp2(log_like[live]), like[live], rtol=tol)
            assert (log_like[~zero & ~live] < math.log2(tiny) + tol).all()


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
    tables = [attacks._label_channel(c, sc)[codec._pair_index_table(c)] * 2.0 ** -20]
    gathered, = next(oracle.gathered_likelihoods(c, poly, sc, 1, np.random.default_rng(3),
                                                 attacks._measure_indices, tables, len(errors)))
    assert not gathered.any()
    true_seed = int(np.random.default_rng(3).integers(1, 256))
    log_like, = next(attacks._record_likelihoods(c, poly, sc, 1, np.random.default_rng(3),
                                                 attacks._measure_indices, tables, len(errors)))
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
    labels = attacks._measure_indices(codec._pair_index_table(c)[data, basis], c, sc,
                                      rng_new, sc.error_vector())
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
    # an eavesdropper's axis near a constellation point still splits every pair
    sc = attacks.AttackScenario(n_symbols=2 * m, misalign=misalign + turn * math.pi / m)
    labels = attacks._measure_indices(np.arange(2 * m), c, sc, None, np.zeros(2 * m, np.uint8))
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
