"""Eavesdropper replays and information-theoretic accounting.

Everything here treats the eavesdropper generously: she holds a perfect copy
of the transmitted state, knows the constellation, the feedback polynomial,
and the protocol, and is limited only by measurement physics and by the
secrecy of the short seed.  The module answers three kinds of question at
desk scale:

* replay: given recorded half-plane labels, what does exhaustive search over
  every seed actually recover, and how do injected measurement errors or
  deliberate randomization degrade it;
* entropy: exact posterior entropies of the seed and of the data sequence
  given the eavesdropper's record, computed by marginalizing over every
  seed rather than by bound: the basis chunks are GF(2)-linear in the seed,
  so one Walsh-Hadamard transform per trial gives the log2 likelihood of
  all 2^K seeds at once;
* key generation: the error-probability gap between an optimal quantum
  receiver and an intercepting one, as a function of pulse energy.

Exhaustive enumeration is capped to sizes a laptop handles in seconds; the
caps raise RegimeCapError rather than silently subsampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    Constellation,
    _as_bits,
    _check_seed,
    _pair_index_table,
    _seed_row,
    gf2_span,
    halfplane_label,
    unit_keystreams,
)
from .detection import (
    antipodal_homodyne_error,
    helstrom_pure,
    heterodyne_index_transition,
    heterodyne_sample,
    nearest_phase_index,
)
from .errors import RegimeCapError

# Exhaustive-search ceilings.  Replays enumerate every nonzero seed; the
# entropy engines transform per-symbol terms over all 2^K seeds per trial.
ATTACK_KEY_BITS_CAP = 20
ATTACK_TABLE_CAP = 1 << 26
ENTROPY_KEY_BITS_CAP = 12
ENTROPY_SYMBOL_CAP = 32
# Widest span, in octaves, of the recording-error ratios f'/f summed by one transform.
RATIO_BAND_BITS = 8


@dataclass(frozen=True)
class Dsr:
    """Deliberate signal randomization applied by the sender.

    kind 'binary' flips the transmitted pair member with probability
    ``param``; kind 'jitter' adds phase noise uniform on (-param, param).
    """

    kind: str = "none"
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "binary", "jitter"):
            raise ValueError("dsr kind must be 'none', 'binary' or 'jitter'")
        if self.kind == "none" and self.param != 0.0:
            raise ValueError("dsr 'none' takes no parameter")
        if self.kind == "binary" and not 0.0 <= self.param <= 1.0:
            raise ValueError("binary flip probability must lie in [0, 1]")
        if self.kind == "jitter" and not 0.0 <= self.param < math.pi:
            raise ValueError("jitter half-width must lie in [0, pi)")

    @classmethod
    def binary(cls, flip_prob: float) -> "Dsr":
        return cls("binary", flip_prob)

    @classmethod
    def jitter(cls, half_width: float) -> "Dsr":
        return cls("jitter", half_width)


@dataclass(frozen=True)
class AttackScenario:
    """Channel and adversary model for one replay or entropy run.

    error_seq marks positions where the eavesdropper's label record is
    flipped after measurement (recording errors); misalign rotates her
    phase reference relative to the sender's; dsr is the sender's deliberate
    randomization.
    """

    n_symbols: int
    error_seq: "np.ndarray | None" = None
    misalign: float = 0.0
    dsr: Dsr = Dsr()

    def __post_init__(self) -> None:
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be positive")
        if not math.isfinite(self.misalign):
            raise ValueError("misalign must be finite")
        if self.error_seq is not None:
            e = _as_bits(self.error_seq, "error_seq")
            if e.size != self.n_symbols:
                raise ValueError("error_seq must have one entry per symbol")
            object.__setattr__(self, "error_seq", e)

    def error_vector(self) -> np.ndarray:
        if self.error_seq is None:
            return np.zeros(self.n_symbols, dtype=np.uint8)
        return self.error_seq

    @classmethod
    def with_errors(cls, n_symbols: int, positions: "list[int]", **kw) -> "AttackScenario":
        """A scenario with recording errors at the given distinct positions in [0, n_symbols)."""
        e = np.zeros(n_symbols, dtype=np.uint8)
        for p in positions:
            if not 0 <= p < n_symbols:
                raise ValueError(f"error position {p} outside [0, {n_symbols})")
            if e[p]:
                raise ValueError("error positions must be distinct")
            e[p] = 1
        return cls(n_symbols=n_symbols, error_seq=e, **kw)


@dataclass
class AttackRecord:
    """Outcome of one exhaustive replay over the seed space."""

    measured_labels: np.ndarray
    candidate_count: int
    true_key_rank: "int | None"
    true_r_in_candidates: bool
    per_seed_match_fraction: np.ndarray
    mutual_info_estimate: "float | None" = None
    seeds: "np.ndarray | None" = None
    true_seed: "int | None" = None
    exact_match_count: int = 0
    collision_count: int = 0
    notes: dict = field(default_factory=dict)


@dataclass
class EntropyReport:
    """Posterior entropies averaged over independently generated trials."""

    regime: str
    trials: int
    key_bits: int
    n_symbols: int
    h_key: float
    h_key_given_obs: "float | None" = None
    h_data_given_obs: "float | None" = None
    h_key_given_obs_and_data: "float | None" = None
    exceeds_key_entropy: "bool | None" = None
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KeygenPoint:
    """One energy point of the key-generation advantage curve."""

    s: float
    p_error_bob: float
    p_error_eve: float
    advantage_bits: float


def binary_entropy(p: float) -> float:
    """h2(p) in bits, with the 0 log 0 = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def _binary_capacity(p: float) -> float:
    """1 - h2(p) in bits, without cancellation as p approaches 1/2.

    With q = |1 - 2p| it equals (2 q atanh(q) + log1p(-q^2)) / (2 ln 2),
    whose two terms are of size q^2 and add without cancellation; away from
    1/2 the difference 1 - h2(p) loses nothing.
    """
    q = abs(1.0 - 2.0 * p)
    if q > 0.5:
        return 1.0 - binary_entropy(p)
    return (2.0 * q * math.atanh(q) + math.log1p(-q * q)) / (2.0 * math.log(2.0))


def _require_plain_pairing(c: Constellation) -> None:
    if c.osk:
        raise ValueError(
            "label-record attacks assume the fixed bit-to-member pairing; "
            "disable the scrambling bit for this analysis")


def _check_attack_caps(key_bits: int, n_symbols: int) -> None:
    """Raise unless the record is nonempty and the seed table is within the caps."""
    if n_symbols < 1:
        raise ValueError("an attack needs a record of at least one symbol")
    if key_bits > ATTACK_KEY_BITS_CAP:
        raise RegimeCapError(
            f"replay enumerates 2^{key_bits} seeds; cap is 2^{ATTACK_KEY_BITS_CAP}")
    if (1 << key_bits) * n_symbols > ATTACK_TABLE_CAP:
        raise RegimeCapError(
            f"seed table of 2^{key_bits} x {n_symbols} symbols exceeds the "
            f"{ATTACK_TABLE_CAP}-entry cap")


def _check_entropy_caps(key_bits: int, n_symbols: int) -> None:
    if key_bits > ENTROPY_KEY_BITS_CAP:
        raise RegimeCapError(
            f"exact posteriors enumerate 2^{key_bits} seeds; cap is "
            f"2^{ENTROPY_KEY_BITS_CAP}")
    if n_symbols > ENTROPY_SYMBOL_CAP:
        raise RegimeCapError(
            f"exact posteriors over {n_symbols} symbols exceed the "
            f"{ENTROPY_SYMBOL_CAP}-symbol cap")


# ---------------------------------------------------------------------------
# Label measurement pipeline


def _up_fraction(rel_phase: float, w: float) -> float:
    """Probability that rel_phase + U(-w, w), 0 < w < pi, lands in the open upper half-plane.

    There is no tie band; ``_measure_indices`` records jittered phases by
    the same rule.
    """
    r = rel_phase % (2.0 * math.pi)
    # The window [r - w, r + w] lies in (-pi, 3 pi), which meets the up set
    # (0, pi) mod 2 pi only in (0, pi) and (2 pi, 3 pi).  Each overlap is
    # taken in offsets from r, so a window inside one half-plane covers
    # exactly 2w or 0.
    up = sum(max(0.0, min(w, start + math.pi - r) - max(-w, start - r))
             for start in (0.0, 2.0 * math.pi))
    return min(1.0, up / (2.0 * w))


def _label_up(c: Constellation, misalign: float, half_width: float = 0.0) -> np.ndarray:
    """P(label 1 | index) for all 2M indices on an axis turned by misalign, before flips.

    Index i < M lies pi i / M - misalign above that axis, so its label (or,
    under phase jitter of half-width w, its up-probability) is taken from
    that relative phase.
    Index i + M is index i turned by pi and takes 1 - p: each pair splits,
    and its two values sum to exactly 1.
    """
    rel = math.pi * np.arange(c.m) / c.m - misalign
    if half_width > 0.0:
        up = np.array([_up_fraction(float(r), half_width) for r in rel])
    else:
        up = halfplane_label(rel).astype(float)
    return np.concatenate([up, 1.0 - up])


def _label_channel(c: Constellation, scenario: AttackScenario) -> np.ndarray:
    """chan[index, label] = P(recorded label | transmitted index), before recording errors.

    Folds reference misalignment, phase jitter, and the binary flip into one
    table over the 2M indices.
    """
    jitter = scenario.dsr.param if scenario.dsr.kind == "jitter" else 0.0
    p1 = _label_up(c, scenario.misalign, jitter)
    if scenario.dsr.kind == "binary":
        f = scenario.dsr.param
        p1 = p1 * (1.0 - f) + (1.0 - p1) * f
    return np.stack([1.0 - p1, p1], axis=1)


def _flip_members(idx: np.ndarray, c: Constellation, scenario: AttackScenario,
                  rng: "np.random.Generator | None") -> np.ndarray:
    """Binary randomization: each index moves to its antipode with the flip probability."""
    if scenario.dsr.kind == "binary" and scenario.dsr.param > 0.0:
        flips = rng.random(idx.shape) < scenario.dsr.param
        idx = np.where(flips, (idx + c.m) % c.n_states, idx)
    return idx


def _measure_indices(indices: np.ndarray, c: Constellation, scenario: AttackScenario,
                     rng: "np.random.Generator | None",
                     error_vec: np.ndarray) -> np.ndarray:
    """Physical label pipeline: deliberate flip, jitter, half-plane decision, recording errors.

    Indices of any shape; each randomization draws one array, the same stream
    as one call per row.
    """
    idx = np.asarray(indices, dtype=int)
    needs_rng = scenario.dsr.kind in ("binary", "jitter") and scenario.dsr.param > 0.0
    if needs_rng and rng is None:
        raise ValueError("this scenario randomizes the signal; pass a Generator")
    idx = _flip_members(idx, c, scenario, rng)
    if scenario.dsr.kind == "jitter" and scenario.dsr.param > 0.0:
        # phases relative to Eve's axis, as _up_fraction takes them.  A jittered
        # phase has no tie band: a window inside it would read 1 where the
        # model gives 0.
        w = scenario.dsr.param
        rel = math.pi * idx / c.m - scenario.misalign + rng.uniform(-w, w, idx.shape)
        labels = (np.sin(rel) > 0.0).astype(np.uint8)
    else:
        labels = _label_up(c, scenario.misalign)[idx].astype(np.uint8)
    return labels ^ error_vec


def _heterodyne_indices(indices: np.ndarray, c: Constellation, scenario: AttackScenario,
                        rng: np.random.Generator, error_vec: np.ndarray) -> np.ndarray:
    """Index record of a nearest-phase heterodyne receiver; binary flips only, no recording errors."""
    sent = _flip_members(np.asarray(indices, dtype=int), c, scenario, rng)
    z = heterodyne_sample(0j, rng, size=sent.size) + c.amplitudes()[sent]
    return nearest_phase_index(z, c, decision_offset=scenario.misalign)


def measure_labels(indices: np.ndarray, c: Constellation, scenario: AttackScenario,
                   rng: "np.random.Generator | None" = None) -> np.ndarray:
    """Half-plane labels an eavesdropper records for a sequence of sent state indices.

    The rng is only consulted when the scenario contains a stochastic element.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.size != scenario.n_symbols:
        raise ValueError("symbol count does not match the scenario")
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValueError("state indices must be integers")
    if np.any(indices < 0) or np.any(indices >= c.n_states):
        raise ValueError("state index out of range")
    return _measure_indices(indices, c, scenario, rng, scenario.error_vector())


# ---------------------------------------------------------------------------
# Exhaustive replay


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a 0/1 array into ceil(n / 64) uint64 words, zero-padded."""
    n = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (64 * -(-n // 64),), dtype=np.uint8)
    padded[..., :n] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view(np.uint64)


def _gf2_rank(rows: np.ndarray) -> int:
    """Rank over GF(2) of packed bit rows."""
    pivots: "dict[int, int]" = {}
    for row in rows:
        v = int.from_bytes(row.tobytes(), "little")
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def _seed_scan(measured_labels: np.ndarray, effective_labels: np.ndarray,
               target: np.ndarray, basis_units: np.ndarray,
               true_seed: int) -> AttackRecord:
    """Score the candidates effective_labels XOR parity_j of every nonzero seed j.

    The parity stream is GF(2)-linear in the seed, so the packed streams of
    all seeds are XOR combinations of the unit-seed streams and the number
    of distinct candidates follows from the rank of the unit streams: with
    full rank K every nonzero seed gives its own candidate (2^K - 1),
    otherwise the nonzero seeds cover the whole 2^rank image.  basis_units
    holds the K unit seeds' basis chunk rows.
    """
    key_bits = basis_units.shape[0]
    n = target.size
    units = _pack_words((basis_units & 1).astype(np.uint8))
    streams = gf2_span(units)[1:]
    mismatches = np.bitwise_count(streams ^ _pack_words(effective_labels ^ target)).sum(
        axis=1, dtype=np.int64)
    frac = (n - mismatches) / n
    rank = _gf2_rank(units)
    distinct = (1 << key_bits) - 1 if rank == key_bits else 1 << rank
    seeds = np.arange(1, 1 << key_bits, dtype=np.uint32)
    exact = int(np.count_nonzero(mismatches == 0))
    # ties resolved optimistically for the attacker
    true_rank = 1 + int(np.count_nonzero(mismatches < mismatches[true_seed - 1]))
    return AttackRecord(
        measured_labels=measured_labels,
        candidate_count=distinct,
        true_key_rank=true_rank,
        true_r_in_candidates=exact > 0,
        per_seed_match_fraction=frac,
        seeds=seeds,
        true_seed=int(true_seed),
        exact_match_count=exact,
        collision_count=int(seeds.size - distinct),
        notes={"seed_space": int(seeds.size)},
    )


def brute_force_candidates(measured: np.ndarray, c: Constellation, poly: int,
                           r_true: np.ndarray, true_seed: int) -> AttackRecord:
    """Replay of the classic recorded-labels attack over every nonzero seed.

    Each seed hypothesis j turns the label record into a candidate data
    sequence by XOR with that seed's basis-parity stream.  The record keeps
    the full per-seed agreement profile with the actually transmitted
    sequence, the rank of the true seed (ties resolved optimistically for
    the attacker), and the number of distinct candidate sequences.
    """
    _require_plain_pairing(c)
    key_bits = poly.bit_length() - 1
    measured = _as_bits(measured, "measured labels")
    r_true = _as_bits(r_true, "reference bits")
    n = measured.size
    _check_attack_caps(key_bits, n)
    if r_true.shape != measured.shape:
        raise ValueError("label record and reference sequence differ in length")
    _check_seed(key_bits, true_seed)
    rec = _seed_scan(measured, measured, r_true, unit_keystreams(poly, n, c.bits_per_basis),
                     true_seed)
    # a candidate with match fraction 1 is the transmitted sequence itself
    rec.notes["data_space_log2"] = float(n)
    return rec


def otp_stage_attack(x_bits: np.ndarray, c: Constellation, poly: int, true_seed: int,
                     scenario: AttackScenario,
                     rng: np.random.Generator) -> AttackRecord:
    """Replay against the two-stage construction: the cipher carries a pad.

    The sender draws a uniform pad R, publishes ciphertext C = X XOR R, and
    transmits R through the keyed constellation.  The eavesdropper's
    candidate plaintexts are C XOR labels XOR parity_j; on a noiseless
    record the true seed reproduces X exactly, bit for bit.
    """
    _require_plain_pairing(c)
    key_bits = poly.bit_length() - 1
    x_bits = _as_bits(x_bits, "plaintext bits")
    n = x_bits.size
    _check_attack_caps(key_bits, n)
    _check_seed(key_bits, true_seed)
    if scenario.n_symbols != n:
        raise ValueError("scenario length does not match the plaintext")
    pad = rng.integers(0, 2, n, dtype=np.uint8)
    cipher = x_bits ^ pad
    units = unit_keystreams(poly, n, c.bits_per_basis)
    basis_true = _seed_row(units, true_seed)
    labels = _measure_indices(_pair_index_table(c)[pad, basis_true], c, scenario, rng,
                              scenario.error_vector())
    rec = _seed_scan(labels, cipher ^ labels, x_bits, units, true_seed)
    rec.true_r_in_candidates = bool(rec.per_seed_match_fraction[true_seed - 1] == 1.0)
    noiseless = (scenario.dsr.kind == "none" and scenario.misalign == 0.0
                 and not scenario.error_vector().any())
    identity = bool(np.all((cipher ^ labels ^ (basis_true & 1)) == x_bits)) if noiseless else None
    rec.notes["pad_identity_noiseless"] = identity
    rec.notes["ciphertext"] = cipher.tolist()
    return rec


# ---------------------------------------------------------------------------
# Exact posterior entropies


def _log2_top(log2_like: np.ndarray) -> int:
    """Index of the most likely key; fails when every likelihood is zero."""
    top = int(np.argmax(log2_like))
    if not log2_like[top] > -math.inf:
        raise AssertionError("posterior has no support; model inconsistent with data")
    return top


def _log2_sum(log2_like: np.ndarray) -> float:
    """log2 of the summed likelihoods, taken relative to the largest term."""
    top = log2_like[_log2_top(log2_like)]
    return float(top + math.log2(float(np.exp2(log2_like - top).sum())))


def _posterior_entropy_bits(log2_like: np.ndarray) -> float:
    """Entropy of the posterior over all keys from their log2 likelihoods.

    With s* the most likely key, d_s = l_s - l_max and R the sum of 2^d_s
    over the other keys, H = log2(1 + R) - sum_{s != s*} p_s d_s: both
    terms are nonnegative, and the first keeps the most likely key's share
    of H where its probability rounds to 1.  Clipped to [0, log2(#keys)].
    """
    top = _log2_top(log2_like)
    d = log2_like - log2_like[top]
    d[top] = -math.inf
    d = d[d > -math.inf]
    w = np.exp2(d)
    r = float(w.sum())
    lead = math.log2(1.0 + r) if r >= 1.0 else math.log1p(r) / math.log(2.0)
    h = lead - float(w @ d) / (1.0 + r)
    # max(0.0, -0.0) is +0.0: the zero argument comes first
    return min(max(0.0, h), math.log2(log2_like.size))


def _entropy_error_weight(scenario: AttackScenario, regime: str) -> int:
    """Recording errors the ``regime`` engine marginalizes: at most one, none on index records."""
    w = int(scenario.error_vector().sum())
    if regime == "quantum" and w:
        raise ValueError("recording errors apply to label records, not index records")
    if w > 1:
        raise ValueError(
            "posterior marginalization supports at most one unknown-position "
            "recording error")
    return w


def _check_record_dsr(dsr: Dsr, regime: str) -> None:
    if regime == "quantum" and dsr.kind == "jitter":
        raise ValueError("the quantum record model supports dsr 'none' or 'binary'")


def _check_entropy_run(c: Constellation, poly: int, scenario: AttackScenario,
                       trials: int, regime: str) -> "tuple[int, int]":
    """Checks shared by the entropy engines; returns the key width and the error weight."""
    _require_plain_pairing(c)
    key_bits = poly.bit_length() - 1
    _check_entropy_caps(key_bits, scenario.n_symbols)
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_record_dsr(scenario.dsr, regime)
    return key_bits, _entropy_error_weight(scenario, regime)


def _walsh(n: int) -> np.ndarray:
    """The n x n Sylvester-Hadamard matrix: entry (x, y) is (-1)^parity(x & y)."""
    i = np.arange(n)
    return 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)


def _seed_characters(units: np.ndarray, m: int) -> np.ndarray:
    """u[i, y], the seed mask with parity(y & basis_i(s)) = parity(u[i, y] & s) for all s.

    units[b, i] is symbol i's basis chunk for the unit seed 2^b, so bit b of
    u[i, y] is parity(y & units[b, i]).
    """
    par = np.bitwise_count(units[:, :, None] & np.arange(m, dtype=units.dtype)) & 1
    return (par.astype(np.int64) << np.arange(units.shape[0])[:, None, None]).sum(axis=0)


def _bands(num: np.ndarray, den: np.ndarray, present: np.ndarray):
    """Split the quotients num/den > 0 at ``present`` into bands; yields (e, values, indicator).

    Each band spans less than 2^RATIO_BAND_BITS, and its values are the
    quotients divided by 2^e, e the integer below the band's lower edge in
    log2, so they lie in [1, 2^(RATIO_BAND_BITS + 1)).  Working from the
    exponents of num and den, no quotient overflows or leaves normal range,
    however far apart the two are.
    """
    mant_num, exp_num = np.frexp(np.where(present, num, 1.0))
    mant_den, exp_den = np.frexp(np.where(present, den, 1.0))
    mant, exp = mant_num / mant_den, exp_num - exp_den
    log2_q = np.log2(mant) + exp
    rest = present.copy()
    while rest.any():
        lo = float(log2_q[rest].min())
        band = rest & (log2_q < lo + RATIO_BAND_BITS)
        e = math.floor(lo)
        yield e, np.where(band, np.ldexp(mant, np.where(band, exp - e, 0)), 0.0), band.astype(float)
        rest &= ~band


def _symbol_terms(tab: np.ndarray, weight: int):
    """Per-symbol summands of one table, indexed like it by [data bit, basis, observation].

    log2 f with zero factors counted as 1, and the zero indicator [f = 0].
    With one recording error, f' being the entry of the flipped observation,
    also the ratios f'/f where f > 0 and then the values f' where f = 0,
    each group split by ``_bands`` and every band followed by its indicator.
    A transform's rounding is relative to the largest value it sums, so an
    unsplit sum of ratios near 1/f_min (1e16 where a label probability
    rounds to 1e-16 instead of 0) would bury a key's sum of ratios near 1.
    Returns the terms and, with one error, the number of ratio bands and
    every band's exponent.
    """
    zero = tab == 0.0
    safe = np.where(zero, 1.0, tab)
    terms = [np.log2(safe), zero.astype(float)]
    if not weight:
        return terms, None
    flipped = tab[..., np.arange(tab.shape[-1]) ^ 1]
    ratio_bands = list(_bands(flipped, safe, ~zero & (flipped > 0.0)))
    bands = ratio_bands + list(_bands(flipped, safe, zero & (flipped > 0.0)))
    terms += [t for _, values, indicator in bands for t in (values, indicator)]
    return terms, (len(ratio_bands), np.array([[e] for e, _, _ in bands], dtype=np.int32))


def _log2_likelihood(sums: np.ndarray, bands, n: int) -> np.ndarray:
    """Per-key log2 likelihood from the seed-space sums of one table's terms."""
    zeros = np.rint(sums[1])
    if bands is None:
        return np.where(zeros == 0, sums[0], -math.inf)
    n_ratio, e = bands
    if not len(e):
        return np.full(sums.shape[1], -math.inf)
    # S sums f'/f over a key with no zero factor, f' at its one zero factor;
    # a band no symbol of the key falls in contributes exactly nothing
    present = sums[3::2] > 0.5
    present[:n_ratio] &= zeros == 0
    # scaled by the key's largest present band, so no band overflows
    top = np.where(present, e, e.min()).max(axis=0)
    s = np.where(present, np.ldexp(sums[2::2], np.minimum(e - top, 0)), 0.0).sum(axis=0)
    live = (zeros <= 1) & (s > 0.0)
    return np.where(live, sums[0] + (top + np.log2(np.where(live, s, 1.0) / n)), -math.inf)


def _record_likelihoods(c: Constellation, poly: int, scenario: AttackScenario, trials: int,
                        rng: np.random.Generator, record, tables: "list[np.ndarray]",
                        weight: int):
    """Per trial, the log2 sequence likelihood of every register value under each table.

    A trial draws a seed, data, the position of a declared recording error
    and the record (``record`` maps sent indices to observations), in that
    order.  Tables are indexed [data bit, basis, observation].  Symbol i's
    basis is GF(2)-linear in the seed, so a sum over symbols of per-symbol
    terms g_i(basis) is, over all 2^K register values at once, one
    Walsh-Hadamard transform: expand each g_i over the basis bits, move
    character y to the seed character u[i, y] and transform in seed space.
    That gives Lambda = sum log2 f and Z = #{f = 0}, exact because its
    coefficients are dyadic, and L = 0 where Z > 0.  A recording error at
    an unknown position is marginalized as L = 2^Lambda S / N, with S the
    sum of f'/f where Z = 0 and of [f = 0] f' where Z = 1; L = 0 where
    Z > 1.  The zero register never occurs, but the accounting runs over
    every possible key.  Yields one log2-likelihood array per table.
    """
    key_bits = poly.bit_length() - 1
    n = scenario.n_symbols
    idx_table = _pair_index_table(c)
    units = unit_keystreams(poly, n, c.bits_per_basis)
    chars = _seed_characters(units, c.m)
    per_table = [_symbol_terms(tab, weight) for tab in tables]
    terms = np.stack([t for table_terms, _ in per_table for t in table_terms])
    edges = np.cumsum([0] + [len(table_terms) for table_terms, _ in per_table])
    # one bincount scatters every stacked term into its own block of seed space
    slots = (chars + (np.arange(len(terms)) << key_bits)[:, None, None]).ravel()
    h_basis = _walsh(c.m) / c.m
    half = key_bits // 2
    h_hi, h_lo = _walsh(1 << half), _walsh(1 << (key_bits - half))
    bases = np.arange(c.m)
    for _ in range(trials):
        true_seed = int(rng.integers(1, 1 << key_bits))
        r = rng.integers(0, 2, n, dtype=np.uint8)
        error_vec = np.zeros(n, dtype=np.uint8)
        if weight == 1:
            error_vec[int(rng.integers(0, n))] = 1
        obs = record(idx_table[r, _seed_row(units, true_seed)], c, scenario, rng, error_vec)
        coef = terms[:, r[:, None], bases, obs[:, None]] @ h_basis
        spec = np.bincount(slots, weights=coef.ravel(), minlength=len(terms) << key_bits)
        sums = (h_hi @ spec.reshape(len(terms), len(h_hi), len(h_lo)) @ h_lo).reshape(
            len(terms), -1)
        yield [_log2_likelihood(sums[lo:hi], bands, n)
               for lo, hi, (_, bands) in zip(edges[:-1], edges[1:], per_table)]


def ciphertext_only_entropy(c: Constellation, poly: int, scenario: AttackScenario,
                            trials: int, rng: np.random.Generator) -> EntropyReport:
    """Exact H(key | record) and H(data | record) from label records alone.

    Each trial draws a fresh seed, data sequence, and channel noise, then
    computes the eavesdropper's full posterior over all 2^K keys (data
    marginalized) and the exact surprisal of the transmitted sequence.  A
    declared recording error contributes its weight, not its position, to
    the posterior; weights above one are not supported.
    """
    key_bits, weight = _check_entropy_run(c, poly, scenario, trials, "classical")
    n = scenario.n_symbols
    chan = _label_channel(c, scenario)
    idx_table = _pair_index_table(c)
    # data unknown: each basis reads label 1 with the mean over its pair
    up = 0.5 * (chan[idx_table[0], 1] + chan[idx_table[1], 1])
    marginal = np.broadcast_to(np.stack([1.0 - up, up], axis=1), (2, c.m, 2))
    h_key_vals = np.empty(trials)
    surprisals = np.empty(trials)
    trial_likes = _record_likelihoods(c, poly, scenario, trials, rng, _measure_indices,
                                      [marginal, chan[idx_table]], weight)
    for t, (log_marg, log_cond) in enumerate(trial_likes):
        h_key_vals[t] = _posterior_entropy_bits(log_marg)
        # P(data | record) = 2^-n sum_j L(record | j, data) / sum_j L(record | j)
        surprisals[t] = n - _log2_sum(log_cond) + _log2_sum(log_marg)
    h_key_mean = float(h_key_vals.mean())
    h_data_mean = float(surprisals.mean())
    return EntropyReport(
        regime="ciphertext_only",
        trials=trials,
        key_bits=key_bits,
        n_symbols=n,
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
    """Exact H(key | record, data) when the data sequence is disclosed.

    regime 'classical' scores the half-plane label record; 'quantum' scores
    a heterodyne receiver's nearest-phase index record through the exact
    per-symbol transition matrix.  In both cases the posterior runs over
    all 2^K keys.
    """
    if regime not in ("classical", "quantum"):
        raise ValueError("regime must be 'classical' or 'quantum'")
    key_bits, weight = _check_entropy_run(c, poly, scenario, trials, regime)
    if regime == "classical":
        record, chan = _measure_indices, _label_channel(c, scenario)
    else:
        f = scenario.dsr.param if scenario.dsr.kind == "binary" else 0.0
        trans = heterodyne_index_transition(c, decision_offset=scenario.misalign)
        # chan[index, decided]: the sent member, or its antipode after a flip
        record, chan = _heterodyne_indices, (1.0 - f) * trans + f * np.roll(trans, -c.m, axis=0)
    trial_likes = _record_likelihoods(c, poly, scenario, trials, rng, record,
                                      [chan[_pair_index_table(c)]], weight)
    h_vals = np.array([_posterior_entropy_bits(log_like) for log_like, in trial_likes])
    h_mean = float(h_vals.mean())
    return EntropyReport(
        regime=f"known_plaintext_{regime}",
        trials=trials,
        key_bits=key_bits,
        n_symbols=scenario.n_symbols,
        h_key=float(key_bits),
        h_key_given_obs_and_data=h_mean,
        notes={
            "h_min": float(h_vals.min()),
            "h_max": float(h_vals.max()),
            "residual_positive": bool(h_vals.min() > 0.0),
        },
    )


def label_mutual_information(c: Constellation, poly: int, true_seed: int,
                             scenario: AttackScenario, trials: int,
                             rng: np.random.Generator) -> float:
    """Empirical I(recorded label; data bit) in bits per symbol, fixed keystream.

    Estimated position by position with a plug-in 2x2 estimator over
    ``trials`` independently drawn data sequences, then averaged across
    positions.  With effective deliberate randomization this collapses to
    zero up to estimator noise of order 1/trials.
    """
    _require_plain_pairing(c)
    key_bits = poly.bit_length() - 1
    n = scenario.n_symbols
    _check_attack_caps(key_bits, n)
    if trials < 2:
        raise ValueError("need at least two trials")
    _check_seed(key_bits, true_seed)
    basis = _seed_row(unit_keystreams(poly, n, c.bits_per_basis), true_seed)
    data = rng.integers(0, 2, (trials, n), dtype=np.uint8)
    labels = _measure_indices(_pair_index_table(c)[data, basis], c, scenario, rng,
                              scenario.error_vector())
    # joint[i, bit, label]: every trial's (position, data bit, label) cell in one count
    cells = np.bincount((4 * np.arange(n) + 2 * data + labels).ravel(), minlength=4 * n)
    joint = cells.reshape(n, 2, 2) / trials
    indep = joint.sum(axis=2, keepdims=True) * joint.sum(axis=1, keepdims=True)
    # an empty cell has ratio 1 and adds 0
    terms = joint * np.log2(np.divide(joint, indep, out=np.ones_like(joint), where=joint > 0.0))
    # a running total adds the positions left to right
    return float(np.cumsum(terms.reshape(n, 4).sum(axis=1))[-1]) / n


def keygen_advantage(s_values: "np.ndarray | list[float]", mode: str = "ideal",
                     energy_factor: float = 0.5) -> "list[KeygenPoint]":
    """Per-pulse error gap between the key holder and an intercepting receiver.

    Antipodal signaling at mean photon number S: the key holder reaches the
    quantum-optimal error (decaying like e^{-4S}) while the interceptor,
    without the phase reference the key provides, is scored as a homodyne
    receiver (decaying like e^{-2S}).  The advantage is the difference of
    binary entropies of the two error rates, formed as the difference of
    the capacities 1 - h2 so that it does not cancel as S -> 0.

    mode 'randomized' treats each input value as a per-pulse energy budget
    of which only ``energy_factor`` arrives coherently, halving both decay
    exponents at the default factor.
    """
    if mode not in ("ideal", "randomized"):
        raise ValueError("mode must be 'ideal' or 'randomized'")
    if not 0.0 < energy_factor <= 1.0:
        raise ValueError("energy_factor must lie in (0, 1]")
    out = []
    for s in np.asarray(s_values, dtype=float):
        if s < 0 or not math.isfinite(s):
            raise ValueError("energies must be finite and nonnegative")
        s_eff = s * energy_factor if mode == "randomized" else s
        a = math.sqrt(s_eff)
        pe_bob = helstrom_pure(a, -a).p_error
        pe_eve = antipodal_homodyne_error(s_eff)
        out.append(KeygenPoint(
            s=float(s),
            p_error_bob=pe_bob,
            p_error_eve=pe_eve,
            advantage_bits=_binary_capacity(pe_bob) - _binary_capacity(pe_eve),
        ))
    return out
