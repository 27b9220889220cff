"""Reference entropy engines: one trial loop per record model, scored symbol by symbol.

These are the per-regime loops the package used before the entropy engines
shared one record-channel scorer, kept as oracles.  Each draws the seed, the
data, the error position and the record in the same order as the package
and builds every per-symbol likelihood with its own formula: label records
through ``symbol_likelihoods``, heterodyne index records through the
transition matrix inline.  Labels come from the scalar half-plane rule, one
phase at a time.  Sequence likelihoods are products over a 2^K-row basis
table (``sequence_likelihood``), scored by the package's entropy function
on their log2, so a comparison with the public engines isolates the
Walsh-Hadamard scorer.  ``gathered_likelihoods`` is that scorer's gather
form: the same trial loop, one product per key, and ``log2_likelihood``
its likelihood assembly as the package ran it over all 2^K keys before it
gathered the keys with at most one zero factor.  ``record_likelihoods`` is
the Walsh-Hadamard scorer as the package ran it one trial at a time, before
it drew records, gathered basis coefficients and assembled likelihoods a
block of trials at once: the blocked scorer must match it bit for bit.
``label_mutual_information_labels`` is the per-trial measurement loop that
``label_mutual_information`` now runs as one batch, and
``plugin_mutual_information`` its per-position estimator.  ``keystream_table``
builds the chunk rows of many seeds, scrambling bits included, from the
scalar Keystream of ``codec_oracles``; ``pair_index_table`` picks pair
members by the scalar half-plane rule on float phases.
"""

from __future__ import annotations

import math

import numpy as np

from yzero.attacks import (
    AttackScenario,
    EntropyReport,
    _check_entropy_caps,
    _entropy_error_weight,
    _posterior_entropy_bits,
    _require_plain_pairing,
    _seed_characters,
    _symbol_terms,
    _up_fraction,
    _walsh,
)
from codec_oracles import Keystream, keystream_next
from yzero.codec import TIE_EPS, Constellation, _pair_index_table, gf2_span, unit_keystreams
from yzero.detection import heterodyne_index_transition, heterodyne_sample, nearest_phase_index


def sequence_likelihood(q: np.ndarray, q_flipped: "np.ndarray | None",
                        error_weight: int) -> np.ndarray:
    """Per-seed sequence likelihood, marginalizing the error position if any."""
    if error_weight == 0:
        return q.prod(axis=1)
    n = q.shape[1]
    pre = np.ones((q.shape[0], n + 1))
    pre[:, 1:] = np.cumprod(q, axis=1)
    suf = np.ones((q.shape[0], n + 1))
    suf[:, :n] = np.cumprod(q[:, ::-1], axis=1)[:, ::-1]
    terms = pre[:, :n] * suf[:, 1:] * q_flipped
    return terms.sum(axis=1) / n


def entropy_bits(likelihood: np.ndarray) -> float:
    """The package's posterior entropy of likelihoods given directly, not as log2."""
    with np.errstate(divide="ignore"):
        return _posterior_entropy_bits(np.log2(likelihood))


def gathered_likelihoods(c: Constellation, poly: int, scenario: AttackScenario, trials: int,
                         rng: np.random.Generator, sampler, table: np.ndarray, weight: int):
    """Per trial, the sequence likelihood of every register value under ``table``.

    The same draws as ``attacks._record_likelihoods``; one gather from the
    2^K-row basis table scores every register value, and a recording error
    is marginalized over its position.  Yields one likelihood array per
    trial.
    """
    key_bits = poly.bit_length() - 1
    n = scenario.n_symbols
    idx_table = _pair_index_table(c)
    basis = gf2_span(unit_keystreams(poly, n, c.bits_per_basis))
    for _ in range(trials):
        true_seed = int(rng.integers(1, 1 << key_bits))
        r = rng.integers(0, 2, n, dtype=np.uint8)
        error_vec = np.zeros(n, dtype=np.uint8)
        if weight == 1:
            error_vec[int(rng.integers(0, n))] = 1
        obs = sampler.record(idx_table[r, basis[true_seed]], rng, error_vec)
        yield sequence_likelihood(table[r, basis, obs],
                                  table[r, basis, obs ^ 1] if weight else None, weight)


def log2_likelihood(lam: np.ndarray, zeros: np.ndarray, band_sums: np.ndarray, bands,
                    n: int) -> np.ndarray:
    """The scorer's log2-likelihood assembly on the whole key array, every band at every key."""
    zeros = np.rint(zeros)
    if bands is None:
        return np.where(zeros == 0, lam, -math.inf)
    n_ratio, e = bands
    if not len(e):
        return np.full(lam.shape, -math.inf)
    present = band_sums > 0.5
    present[:n_ratio] &= zeros == 0
    top = np.where(present, e, e.min()).max(axis=0)
    s = np.where(present, np.ldexp(band_sums, np.minimum(e - top, 0)), 0.0).sum(axis=0)
    live = (zeros <= 1) & (s > 0.0)
    return np.where(live, lam + (top + np.log2(np.where(live, s, 1.0) / n)), -math.inf)


def record_likelihoods(c: Constellation, poly: int, scenario: AttackScenario, trials: int,
                       rng: np.random.Generator, sampler, table: np.ndarray, weight: int):
    """``attacks._record_likelihoods`` one trial at a time: per-trial records and coefficients.

    Each trial draws its record through ``sampler.record``, gathers its
    symbols' terms and expands them over the basis characters with its own
    matrix product, and assembles its likelihood over every key with
    ``log2_likelihood``.
    """
    key_bits = poly.bit_length() - 1
    n = scenario.n_symbols
    idx_table = _pair_index_table(c)
    units = unit_keystreams(poly, n, c.bits_per_basis)
    basis = gf2_span(units)
    chars = _seed_characters(units, c.m)
    terms, bands = _symbol_terms(table, weight)
    head = [k for k in (0, 1) if terms[k].any()]
    stacked = np.stack([terms[k] for k in head] + terms[2:])
    n_live = len(stacked)
    sums = np.zeros((n_live + 1, 1 << key_bits))
    lam, zeros = (sums[head.index(k)] if k in head else sums[-1] for k in (0, 1))
    band_sums = sums[len(head):-1]
    slots = (chars + (np.arange(n_live) << key_bits)[:, None, None]).ravel()
    h_basis = _walsh(c.m) / c.m
    half = key_bits // 2
    h_hi, h_lo = _walsh(1 << half), _walsh(1 << (key_bits - half))
    coef = np.empty((n_live, n, c.m))
    mid = np.empty((n_live, len(h_hi), len(h_lo)))
    transformed = sums[:-1].reshape(mid.shape)
    bases = np.arange(c.m)
    for _ in range(trials):
        true_seed = int(rng.integers(1, 1 << key_bits))
        r = rng.integers(0, 2, n, dtype=np.uint8)
        error_vec = np.zeros(n, dtype=np.uint8)
        if weight == 1:
            error_vec[int(rng.integers(0, n))] = 1
        obs = sampler.record(idx_table[r, basis[true_seed]], rng, error_vec)
        np.matmul(stacked[:, r[:, None], bases, obs[:, None]], h_basis, out=coef)
        spec = np.bincount(slots, weights=coef.ravel(), minlength=n_live << key_bits)
        np.matmul(h_hi, spec.reshape(mid.shape), out=mid)
        np.matmul(mid, h_lo, out=transformed)
        yield log2_likelihood(lam, zeros, band_sums, bands, n)


def scalar_halfplane_label(phase: float, axis: float) -> int:
    """1 if the phase lies in the open half-plane above the axis line, else 0."""
    d = phase - axis
    s = math.sin(d)
    if abs(s) > TIE_EPS:
        return 1 if s > 0.0 else 0
    return 1 if math.cos(d) > 0.0 else 0


def keystream_table(poly: int, n_symbols: int, bits_per_symbol: int,
                    seeds: "np.ndarray | None" = None,
                    osk: bool = False) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Keystream chunks for many seeds at once.

    Returns (basis, parity, scramble) arrays of shape (n_seeds, n_symbols),
    one row per seed.  With seeds=None every nonzero register value of the
    polynomial's degree is enumerated in increasing order.  The unit seeds
    are stepped by the scalar Keystream and every other row is an XOR
    combination of theirs.
    """
    degree = poly.bit_length() - 1
    if degree < 2 or degree > 24:
        raise ValueError("polynomial degree must lie in [2, 24] for table enumeration")
    if seeds is not None:
        reg = np.asarray(seeds, dtype=np.uint32)
        if reg.ndim != 1 or reg.size == 0:
            raise ValueError("seeds must be a nonempty 1-d array")
        if np.any(reg == 0) or np.any(reg >= (1 << degree)):
            raise ValueError("seeds must be nonzero values below 2^degree")
    chunks = np.empty((degree, n_symbols, 3), dtype=np.uint32)
    for b in range(degree):
        ks = Keystream(poly, 1 << b, bits_per_symbol, osk=osk)
        for i in range(n_symbols):
            chunks[b, i] = keystream_next(ks)
    basis_units, scram_units = chunks[..., 0], chunks[..., 2].astype(np.uint8)
    if seeds is None:
        basis = gf2_span(basis_units)[1:]
        scram = gf2_span(scram_units)[1:]
    else:
        basis = np.zeros((reg.size, n_symbols), dtype=np.uint32)
        scram = np.zeros((reg.size, n_symbols), dtype=np.uint8)
        for b in range(degree):
            bit = ((reg >> b) & 1)[:, None]
            basis ^= bit * basis_units[b]
            scram ^= bit.astype(np.uint8) * scram_units[b]
    parity = (basis & 1).astype(np.uint8)
    return basis, parity, scram


def pair_index_table(c: Constellation) -> np.ndarray:
    """idx[bit, basis] = the pair member whose float phase reads bit XOR parity on the axis."""
    table = np.empty((2, c.m), dtype=int)
    for basis in range(c.m):
        for bit in (0, 1):
            want = bit ^ (basis & 1)
            table[bit, basis] = next(j for j in (basis, basis + c.m)
                                     if scalar_halfplane_label(math.pi * j / c.m, 0.0) == want)
    return table


def index_label_prob(c: Constellation, scenario: AttackScenario) -> np.ndarray:
    """P(recorded label = 1 | transmitted index), before recording errors."""
    # index i lies pi i / M - misalign above Eve's axis;
    # the engine rounds it so, and any other rounding (about 1e-16) becomes
    # 5e-8 in the probability under a jitter window of 2e-9.
    rel = math.pi * np.arange(c.m) / c.m - scenario.misalign
    # the antipode reads the other half-plane: 1 - p, one index at a time.
    # Under jitter, taking both from _up_fraction would carry the rounding of
    # a float phase near 0 or pi (up to 4e-16) divided by the window 2w,
    # 2e-7 at w = 1e-9, into the comparison; without it, two separately
    # rounded phases at the edge of the tie band can read the same side.
    p1 = np.empty(c.n_states)
    for i in range(c.m):
        if scenario.dsr.kind == "jitter" and scenario.dsr.param > 0.0:
            p1[i] = _up_fraction(float(rel[i]), scenario.dsr.param)
        else:
            p1[i] = float(scalar_halfplane_label(float(rel[i]), 0.0))
        p1[i + c.m] = 1.0 - p1[i]
    if scenario.dsr.kind == "binary":
        f = scenario.dsr.param
        p1 = p1 * (1.0 - f) + (1.0 - p1) * f
    return p1


def measure_indices(indices: np.ndarray, c: Constellation, scenario: AttackScenario,
                    rng: "np.random.Generator | None",
                    error_vec: np.ndarray) -> np.ndarray:
    """Label pipeline for one 1-d index sequence, one phase at a time."""
    idx = np.asarray(indices, dtype=int).copy()
    needs_rng = scenario.dsr.kind in ("binary", "jitter") and scenario.dsr.param > 0.0
    if needs_rng and rng is None:
        raise ValueError("this scenario randomizes the signal; pass a Generator")
    if scenario.dsr.kind == "binary" and scenario.dsr.param > 0.0:
        flips = rng.random(idx.size) < scenario.dsr.param
        idx = np.where(flips, (idx + c.m) % c.n_states, idx)
    # phases relative to Eve's axis, rounded as the engine rounds them
    if scenario.dsr.kind == "jitter" and scenario.dsr.param > 0.0:
        rel = math.pi * (idx % c.m) / c.m - scenario.misalign
        rel = rel + rng.uniform(-scenario.dsr.param, scenario.dsr.param, idx.size)
        # a jittered phase has no tie band: the open upper half-plane decides,
        # and an antipode reads the complement under the same draw
        labels = [(1 if math.sin(float(r)) > 0.0 else 0) ^ (j >= c.m)
                  for r, j in zip(rel, idx.tolist())]
    else:
        # an antipode reads the complement of its partner's label
        labels = [scalar_halfplane_label(math.pi * (j % c.m) / c.m, scenario.misalign)
                  ^ (j >= c.m) for j in idx.tolist()]
    return np.array(labels, dtype=np.uint8) ^ error_vec


def symbol_likelihoods(p1_by_index: np.ndarray, idx_table: np.ndarray,
                       basis: np.ndarray, labels: np.ndarray,
                       r_bits: "np.ndarray | None") -> np.ndarray:
    """P(label_i | seed_j) for every seed row; data marginalized when r_bits is None."""
    p_r0 = p1_by_index[idx_table[0, basis]]
    p_r1 = p1_by_index[idx_table[1, basis]]
    if r_bits is None:
        p1 = 0.5 * (p_r0 + p_r1)
    else:
        p1 = np.where(r_bits.astype(bool)[None, :], p_r1, p_r0)
    up = labels.astype(bool)[None, :]
    return np.where(up, p1, 1.0 - p1)


def ciphertext_only_entropy(c: Constellation, poly: int, scenario: AttackScenario,
                            trials: int, rng: np.random.Generator) -> EntropyReport:
    """Exact H(key | record) and H(data | record) from label records alone."""
    _require_plain_pairing(c)
    key_bits = poly.bit_length() - 1
    n = scenario.n_symbols
    _check_entropy_caps(key_bits, n, c.m)
    if trials < 1:
        raise ValueError("trials must be positive")
    weight = _entropy_error_weight(scenario, "classical")
    p1 = index_label_prob(c, scenario)
    idx_table = pair_index_table(c)
    basis = gf2_span(unit_keystreams(poly, n, c.bits_per_basis))
    h_key_vals = np.empty(trials)
    surprisals = np.empty(trials)
    for t in range(trials):
        true_seed = int(rng.integers(1, 1 << key_bits))
        r = rng.integers(0, 2, n, dtype=np.uint8)
        error_vec = np.zeros(n, dtype=np.uint8)
        if weight == 1:
            error_vec[int(rng.integers(0, n))] = 1
        indices = idx_table[r, basis[true_seed]]
        labels = measure_indices(indices, c, scenario, rng, error_vec)
        q_marg = symbol_likelihoods(p1, idx_table, basis, labels, None)
        qf_marg = symbol_likelihoods(p1, idx_table, basis, labels ^ 1, None)
        like_marg = sequence_likelihood(q_marg, qf_marg, weight)
        h_key_vals[t] = entropy_bits(like_marg)
        q_cond = symbol_likelihoods(p1, idx_table, basis, labels, r)
        qf_cond = symbol_likelihoods(p1, idx_table, basis, labels ^ 1, r)
        like_cond = sequence_likelihood(q_cond, qf_cond, weight)
        surprisals[t] = n - math.log2(float(like_cond.sum())) + math.log2(float(like_marg.sum()))
    h_key_mean = float(h_key_vals.mean())
    h_data_mean = float(surprisals.mean())
    return EntropyReport(
        regime="ciphertext_only",
        trials=trials,
        h_key=float(key_bits),
        h_key_given_obs=h_key_mean,
        h_data_given_obs=h_data_mean,
        exceeds_key_entropy=bool(h_data_mean > key_bits),
        notes={
            "h_key_given_obs_min": float(h_key_vals.min()),
            "h_key_given_obs_max": float(h_key_vals.max()),
            "h_data_given_obs_std": float(surprisals.std()),
            "error_weight": weight,
        },
    )


def known_plaintext_key_entropy(c: Constellation, poly: int, scenario: AttackScenario,
                                trials: int, rng: np.random.Generator,
                                regime: str = "classical") -> EntropyReport:
    """Exact H(key | record, data): one loop for label records, one for index records."""
    _require_plain_pairing(c)
    if regime not in ("classical", "quantum"):
        raise ValueError("regime must be 'classical' or 'quantum'")
    key_bits = poly.bit_length() - 1
    n = scenario.n_symbols
    _check_entropy_caps(key_bits, n, c.m)
    if trials < 1:
        raise ValueError("trials must be positive")
    idx_table = pair_index_table(c)
    basis = gf2_span(unit_keystreams(poly, n, c.bits_per_basis))
    h_vals = np.empty(trials)
    if regime == "classical":
        weight = _entropy_error_weight(scenario, "classical")
        p1 = index_label_prob(c, scenario)
        for t in range(trials):
            true_seed = int(rng.integers(1, 1 << key_bits))
            r = rng.integers(0, 2, n, dtype=np.uint8)
            error_vec = np.zeros(n, dtype=np.uint8)
            if weight == 1:
                error_vec[int(rng.integers(0, n))] = 1
            indices = idx_table[r, basis[true_seed]]
            labels = measure_indices(indices, c, scenario, rng, error_vec)
            q = symbol_likelihoods(p1, idx_table, basis, labels, r)
            qf = symbol_likelihoods(p1, idx_table, basis, labels ^ 1, r)
            h_vals[t] = entropy_bits(sequence_likelihood(q, qf, weight))
    else:
        if scenario.dsr.kind == "jitter":
            raise ValueError("the quantum record model supports dsr 'none' or 'binary'")
        if scenario.error_seq.any():
            raise ValueError("recording errors apply to label records, not index records")
        f = scenario.dsr.param if scenario.dsr.kind == "binary" else 0.0
        trans = heterodyne_index_transition(c, decision_offset=scenario.misalign)
        amps = c.amplitudes()
        for t in range(trials):
            true_seed = int(rng.integers(1, 1 << key_bits))
            r = rng.integers(0, 2, n, dtype=np.uint8)
            sent = idx_table[r, basis[true_seed]]
            if f > 0.0:
                flips = rng.random(n) < f
                sent = np.where(flips, (sent + c.m) % c.n_states, sent)
            z = heterodyne_sample(0j, rng, size=n) + amps[sent]
            decided = nearest_phase_index(z, c, decision_offset=scenario.misalign)
            like_match = trans[idx_table[r, basis], decided[None, :]]
            if f > 0.0:
                like_flip = trans[idx_table[1 - r, basis], decided[None, :]]
                per_symbol = (1.0 - f) * like_match + f * like_flip
            else:
                per_symbol = like_match
            h_vals[t] = entropy_bits(per_symbol.prod(axis=1))
    h_mean = float(h_vals.mean())
    return EntropyReport(
        regime=f"known_plaintext_{regime}",
        trials=trials,
        h_key=float(key_bits),
        h_key_given_obs_and_data=h_mean,
        notes={
            "h_min": float(h_vals.min()),
            "h_max": float(h_vals.max()),
            "residual_positive": bool(h_vals.min() > 0.0),
        },
    )


def label_mutual_information_labels(c: Constellation, poly: int, true_seed: int,
                                    scenario: AttackScenario, trials: int,
                                    rng: np.random.Generator) -> "tuple[np.ndarray, np.ndarray]":
    """(data, labels) of the mutual-information trials, measured one trial at a time."""
    n = scenario.n_symbols
    basis, _, _ = keystream_table(poly, n, c.bits_per_basis,
                                  seeds=np.array([true_seed], dtype=np.uint32))
    idx_table = pair_index_table(c)
    labels = np.empty((trials, n), dtype=np.uint8)
    data = rng.integers(0, 2, (trials, n), dtype=np.uint8)
    for t in range(trials):
        indices = idx_table[data[t], basis[0]]
        labels[t] = measure_indices(indices, c, scenario, rng, scenario.error_seq)
    return data, labels


def plugin_mutual_information(data: np.ndarray, labels: np.ndarray) -> float:
    """Plug-in I(label; data bit) per position from (trials, n) arrays, averaged over positions."""
    trials, n = data.shape
    mi_sum = 0.0
    for i in range(n):
        joint = np.zeros((2, 2))
        np.add.at(joint, (data[:, i], labels[:, i]), 1.0)
        joint /= trials
        px = joint.sum(axis=1, keepdims=True)
        py = joint.sum(axis=0, keepdims=True)
        mask = joint > 0.0
        mi_sum += float((joint[mask] * np.log2(joint[mask] / (px @ py)[mask])).sum())
    return mi_sum / n
