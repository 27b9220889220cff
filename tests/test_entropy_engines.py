"""The shared record-channel scorer and the array half-plane rule against per-element oracles."""

import math

import numpy as np
import numpy.testing as npt
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entropy_oracles as oracle
from yzero import attacks, codec


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
    c = codec.Constellation(m=m, energy=draw(st.floats(0.0, 6.0)),
                            phase_offset=draw(st.sampled_from([0.0, 0.4])))
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
        dsr = attacks.Dsr.none()
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
    assert new == old


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 4, 16]), n=st.integers(1, 12), trials=st.integers(1, 6),
       kind=st.sampled_from(["none", "binary", "jitter"]), seed=st.integers(0, 2**32 - 1),
       misalign=st.floats(-1.0, 1.0), error=st.booleans())
def test_batched_label_measurement_matches_per_trial_loop(m, n, trials, kind, seed,
                                                          misalign, error):
    c = codec.Constellation(m=m, energy=1.0)
    dsr = {"none": attacks.Dsr.none(), "binary": attacks.Dsr.binary(0.3),
           "jitter": attacks.Dsr.jitter(0.7)}[kind]
    sc = attacks.AttackScenario.with_errors(n, [n - 1] if error else [], misalign=misalign,
                                            dsr=dsr)
    poly, true_seed = codec.PRIMITIVE_POLYS[5], 0x13
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    data = rng_new.integers(0, 2, (trials, n), dtype=np.uint8)
    basis = codec.keystream_table(poly, n, c.bits_per_symbol,
                                  seeds=np.array([true_seed], dtype=np.uint32))[0]
    labels = attacks._measure_indices(codec._pair_index_table(c)[data, basis[0]], c, sc,
                                      rng_new, sc.error_vector())
    data_old, labels_old = oracle.label_mutual_information_labels(c, poly, true_seed, sc,
                                                                  trials, rng_old)
    npt.assert_array_equal(data, data_old)
    npt.assert_array_equal(labels, labels_old)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_pair_index_table_matches_encode():
    for m in (1, 2, 4, 16):
        for offset in (0.0, 0.4, -2.9):
            c = codec.Constellation(m=m, energy=1.0, phase_offset=offset)
            npt.assert_array_equal(codec._pair_index_table(c), oracle.pair_index_table(c))


def tie_points(axis: float) -> np.ndarray:
    """Phases on the axis line itself: axis + k pi, and constellation points on it."""
    on_line = axis + math.pi * np.arange(-6, 7)
    const = np.concatenate([codec.Constellation(m=m, energy=1.0, phase_offset=axis).phases()
                            for m in (1, 2, 4, 16)])
    return np.concatenate([on_line, const])


@settings(max_examples=100, deadline=None)
@given(phases=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
       axis=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))
@example(phases=[0.0, math.pi, -math.pi, 2 * math.pi, 1e-13, -1e-13, 1e-11], axis=0.0)
def test_array_halfplane_label_matches_scalar_rule(phases, axis):
    arr = np.concatenate([np.array(phases), tie_points(axis)])
    labels = codec.halfplane_label(arr, axis)
    assert labels.dtype == np.uint8
    expected = [oracle.scalar_halfplane_label(float(p), axis) for p in arr]
    npt.assert_array_equal(labels, expected)
    scalar = codec.halfplane_label(float(arr[0]), axis)
    assert type(scalar) is int and scalar == expected[0]
