"""Eavesdropper replays and information-theoretic accounting.

Everything here treats the eavesdropper generously: she holds a perfect copy
of the transmitted state, knows the constellation, the feedback polynomial,
and the protocol, and is limited only by measurement physics and by the
secrecy of the short seed.  The module answers two kinds of question at
desk scale:

* replay: given recorded half-plane labels, what does exhaustive search over
  every seed actually recover, and how do injected measurement errors or
  deliberate randomization degrade it;
* entropy: exact posterior entropies of the seed and of the data sequence
  given the eavesdropper's record, computed by marginalizing over every
  seed rather than by bound: the basis chunks are GF(2)-linear in the seed,
  so one Walsh-Hadamard transform per trial, over only the per-symbol terms
  that can differ between keys, gives the log2 likelihood of all 2^K seeds
  at once; with the data unknown every pair splits, so the key posterior
  is flat and is written down rather than transformed.

Exhaustive enumeration is capped to sizes a laptop handles in seconds; the
caps raise RegimeCapError rather than silently subsampling.

Only the quantum regime's heterodyne record reads :mod:`yzero.heterodyne`;
its two builders import it, so a label-record run never loads it.  No
entropy or attack run reads :mod:`yzero.detection`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
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
from .errors import RegimeCapError

# Exhaustive-search ceilings.  Replays enumerate every nonzero seed; the
# entropy engines transform per-symbol terms over all 2^K seeds per trial
# and build M x M tables per run (the Walsh matrix, the basis coefficients;
# the quantum regime's transition matrix is 2M x 2M).
ATTACK_KEY_BITS_CAP = 20
ATTACK_TABLE_CAP = 1 << 26
ENTROPY_KEY_BITS_CAP = 12
ENTROPY_SYMBOL_CAP = 32
ENTROPY_M_CAP = 1024
# Trial x symbol cells of one mutual-information estimate, which holds whole
# (trials, N) arrays: at most 34 bytes a cell under binary or jitter
# randomization (traced at M = 8, K = 20, N = 64), 136 MiB at the cap.
MI_CELL_CAP = 1 << 22
# Widest span, in octaves, of the recording-error ratios f'/f summed by one transform.
RATIO_BAND_BITS = 8
# How far above K bits H(data | record) must read to exceed the key entropy.
# The transforms put a few eps times the record's log mass into a surprisal,
# below 1e-11 bits at the caps; a record whose exact entropy is K (every
# noiseless record of full rank) must not read as exceeding it by rounding.
ENTROPY_TIE_BITS = 1e-9


@dataclass(frozen=True)
class Dsr:
    """Deliberate signal randomization applied by the sender.

    kind 'binary' flips the transmitted pair member with probability
    ``param``; kind 'jitter' adds phase noise uniform on (-param, param).
    'none' takes param 0, so the signal is randomized exactly when param > 0:
    ``binary:0`` and ``jitter:0`` draw nothing and record as 'none' does.
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

    error_positions are the distinct symbol positions in [0, n_symbols) where
    the eavesdropper's label record is flipped after measurement (recording
    errors), kept sorted; misalign rotates her phase reference relative to
    the sender's, by at most a full turn either way; dsr is the sender's
    deliberate randomization.  Scenarios with equal inputs compare and hash
    equal.  error_seq, the read-only 0/1 array of the errors the engines
    read, is derived from the positions on first read, so building a
    scenario allocates nothing per symbol.
    """

    n_symbols: int
    error_positions: "tuple[int, ...]" = ()
    misalign: float = 0.0
    dsr: Dsr = Dsr()

    def __post_init__(self) -> None:
        _check_n_symbols(self.n_symbols)
        _check_misalign(self.misalign)
        seen: "set[int]" = set()
        for p in self.error_positions:
            if not 0 <= p < self.n_symbols:
                raise ValueError(f"error position {p} outside [0, {self.n_symbols})")
            if p in seen:
                raise ValueError("error positions must be distinct")
            seen.add(p)
        object.__setattr__(self, "error_positions", tuple(sorted(seen)))

    @functools.cached_property
    def error_seq(self) -> np.ndarray:
        e = np.zeros(self.n_symbols, dtype=np.uint8)
        e[list(self.error_positions)] = 1
        e.flags.writeable = False
        return e


def _check_n_symbols(n_symbols: int) -> None:
    if n_symbols < 1:
        raise ValueError("n_symbols must be positive")


def _check_misalign(misalign: float) -> None:
    # a turn either way reaches every reference; far past one, the phases
    # pi i / M - misalign lose their digits
    if not abs(misalign) <= 2.0 * math.pi:
        raise ValueError(f"misalign must lie in [-2 pi, 2 pi], got {misalign}")


@dataclass
class AttackRecord:
    """Outcome of one exhaustive replay over the seed space.

    Seed j's candidate misses the reference in h_j of the N positions (match
    fraction (N - h_j) / N); `mismatches[j - 1]` holds h_j in the smallest
    unsigned dtype that holds N (uint8 up to N = 255: 1 MiB at K = 20).
    `mismatch_histogram[h]` counts the nonzero seeds with h_j = h (N + 1
    bins summing to 2^K - 1); the rank, exact-match count and match-fraction
    summaries are read from it, the mean as the exact integer total of
    N - h_j divided by N, then by 2^K - 1.  In both replay stages
    `true_r_in_candidates` says whether some seed's candidate is the
    reference exactly: `exact_match_count > 0`.  Both arrays are read-only: a
    replay whose unit rows and flip word repeat the previous replay's
    shares its arrays.
    """

    measured_labels: np.ndarray
    candidate_count: int
    true_key_rank: int
    true_r_in_candidates: bool
    mismatches: np.ndarray
    mismatch_histogram: np.ndarray
    true_seed_mismatches: int
    match_fraction_mean: float
    match_fraction_max: float
    true_seed: "int | None" = None
    exact_match_count: int = 0
    collision_count: int = 0
    notes: dict = field(default_factory=dict)
    # the record model a replay scores, half-plane labels; a class attribute, not a field
    record = "classical"


@dataclass
class EntropyReport:
    """Posterior entropies averaged over independently generated trials."""

    regime: str
    trials: int
    h_key: float
    h_key_given_obs: "float | None" = None
    h_data_given_obs: "float | None" = None
    h_key_given_obs_and_data: "float | None" = None
    exceeds_key_entropy: "bool | None" = None
    notes: dict = field(default_factory=dict)

    @property
    def record(self) -> str:
        """The record model scored: 'quantum' heterodyne indices or 'classical' labels."""
        return "quantum" if self.regime == "known_plaintext_quantum" else "classical"


def _check_attack_caps(key_bits: int, n_symbols: int) -> None:
    """Raise unless the record is nonempty and the replay is within the caps.

    The replay compares each of the 2^K seeds' parity streams with the
    record, 2^K x N symbol comparisons in all; both the seed count and that
    product are capped.
    """
    _check_n_symbols(n_symbols)
    if key_bits > ATTACK_KEY_BITS_CAP:
        raise RegimeCapError(
            f"replay enumerates 2^{key_bits} seeds; cap is 2^{ATTACK_KEY_BITS_CAP}")
    if (1 << key_bits) * n_symbols > ATTACK_TABLE_CAP:
        raise RegimeCapError(
            f"replay of 2^{key_bits} seeds x {n_symbols} symbols exceeds the cap of "
            f"{ATTACK_TABLE_CAP} symbol comparisons")


def _check_replay_run(poly: int, n_symbols: int, true_seed: int) -> None:
    """Checks shared by the replay engines."""
    key_bits = poly.bit_length() - 1
    _check_attack_caps(key_bits, n_symbols)
    _check_seed(key_bits, true_seed)


def _check_entropy_caps(key_bits: int, n_symbols: int, m: int) -> None:
    if key_bits > ENTROPY_KEY_BITS_CAP:
        raise RegimeCapError(
            f"exact posteriors enumerate 2^{key_bits} seeds; cap is "
            f"2^{ENTROPY_KEY_BITS_CAP}")
    if n_symbols > ENTROPY_SYMBOL_CAP:
        raise RegimeCapError(
            f"exact posteriors over {n_symbols} symbols exceed the "
            f"{ENTROPY_SYMBOL_CAP}-symbol cap")
    if m > ENTROPY_M_CAP:
        raise RegimeCapError(f"exact posteriors build {m} x {m} tables; cap is M = {ENTROPY_M_CAP}")


# ---------------------------------------------------------------------------
# Label measurement pipeline


def _up_fraction(rel_phase: float, w: float) -> float:
    """Probability that rel_phase + U(-w, w), 0 < w < pi, lands in the open upper half-plane.

    There is no tie band; ``_label_sampler`` records jittered phases by
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
    table over the 2M indices.  Under a flip at rate f both columns are
    mixed from the unflipped (1 - p1, p1): a member that reads 1 reads 0
    with probability f itself, not 1 - (1 - f), which rounds to 0 for
    f <= 2^-54.
    """
    jitter = scenario.dsr.param if scenario.dsr.kind == "jitter" else 0.0
    p1 = _label_up(c, scenario.misalign, jitter)
    chan = np.stack([1.0 - p1, p1], axis=1)
    if scenario.dsr.kind == "binary":
        f = scenario.dsr.param
        chan = chan * (1.0 - f) + chan[:, ::-1] * f
    return chan


@dataclass(frozen=True)
class _Sampler:
    """A record model split into its randomness and its physics.

    ``draw(rng, shape)`` takes every random number that records of sent
    indices of that shape need, in the order the record uses them, as a
    tuple of arrays of that shape: ``()`` when the record draws nothing.
    ``apply(indices, draws, error_vec)`` maps the indices through the
    channel with them; every operation after the draws is elementwise, so
    the draws of B rows, stacked part by part (``_stack_draws``), give one
    apply the records of B separate calls.  ``record`` is the one pipeline
    that chains the two.
    """

    draw: Callable
    apply: Callable

    def record(self, indices: np.ndarray, rng: "np.random.Generator | None",
               error_vec: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=int)
        return self.apply(idx, self.draw(rng, idx.shape), error_vec)


def _label_sampler(c: Constellation, scenario: AttackScenario) -> _Sampler:
    """The label pipeline of one scenario, for indices of any shape.

    Without jitter a record reads the unflipped label of each index from
    the 0/1 column that ``_label_channel`` also builds, XORs in the binary
    flip where its uniform is below the rate, then the recording errors:
    an antipode's label is the complement, so this is the label of the
    flipped member.  Jitter draws one phase offset per symbol and takes the
    half-plane decision of the offset phase, then the recording errors.
    The column is built here once, so a run's records share it.
    """
    kind, param = scenario.dsr.kind, scenario.dsr.param
    randomized = param > 0.0
    up = _label_up(c, scenario.misalign).astype(np.uint8)

    def draw(rng: "np.random.Generator | None", shape: tuple) -> tuple:
        if not randomized:
            return ()
        if rng is None:
            raise ValueError("this scenario randomizes the signal; pass a Generator")
        return (rng.random(shape) if kind == "binary" else rng.uniform(-param, param, shape),)

    def apply(indices: np.ndarray, draws: tuple, error_vec: np.ndarray) -> np.ndarray:
        if not draws:
            return up[indices] ^ error_vec
        (u,) = draws
        if kind == "binary":
            return up[indices] ^ (u < param) ^ error_vec
        # phases relative to Eve's axis, as _up_fraction takes them.  A
        # jittered phase has no tie band: a window inside it would read 1
        # where the model gives 0.  An antipode reads the complement of its
        # partner under the same draw, as the model pairs them; its own
        # phase, pi + rel, rounds onto the axis when misalign is below
        # pi's rounding.
        rel = math.pi * (indices % c.m) / c.m - scenario.misalign + u
        return ((np.sin(rel) > 0.0) ^ (indices >= c.m)).astype(np.uint8) ^ error_vec

    return _Sampler(draw, apply)


def _heterodyne_sampler(c: Constellation, scenario: AttackScenario) -> _Sampler:
    """A nearest-phase heterodyne receiver's index record.

    Binary flips only, no recording errors (error_vec is not read).  The
    draws are the flip uniforms, if the sender flips, then the noise of
    ``heterodyne_sample``; the constellation amplitudes are built here once
    per run.
    """
    from .heterodyne import heterodyne_sample, nearest_phase_index

    amplitudes = c.amplitudes()
    f = scenario.dsr.param if scenario.dsr.kind == "binary" else 0.0

    def draw(rng: np.random.Generator, shape: tuple) -> tuple:
        flips = (rng.random(shape),) if f > 0.0 else ()
        return flips + (heterodyne_sample(0j, rng, size=math.prod(shape)).reshape(shape),)

    def apply(indices: np.ndarray, draws: tuple, error_vec: np.ndarray) -> np.ndarray:
        *flips, noise = draws
        if flips:
            # a flipped member is sent as its antipode
            indices = np.where(flips[0] < f, (indices + c.m) % c.n_states, indices)
        return nearest_phase_index(noise + amplitudes[indices], c,
                                   decision_offset=scenario.misalign)

    return _Sampler(draw, apply)


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
    return _label_sampler(c, scenario).record(indices, rng, scenario.error_seq)


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


# Seeds per scan chunk, as a power of two: at N <= 64 a chunk's span block
# takes 0.5 MB, so the replay's working memory does not grow with K.
_SCAN_CHUNK_BITS = 16


def _scan_counts(units: np.ndarray, flip: np.ndarray,
                 n_symbols: int) -> "tuple[np.ndarray, np.ndarray]":
    """Mismatch counts popcount(span_j XOR flip) of the nonzero seeds j, and their histogram.

    units holds the K unit seeds' packed parity rows and flip the packed
    effective labels XOR reference.  The parity stream is GF(2)-linear in
    the seed, so with B = min(K, _SCAN_CHUNK_BITS) the span of the low B
    unit rows, XORed with flip once, serves every chunk: chunk c covers
    seeds c 2^B ... (c + 1) 2^B - 1 and XORs in one prefix, the span of the
    high K - B rows at c, into a buffer reused across chunks, and writes
    its counts, in the smallest unsigned dtype that holds N, into one array
    of all 2^K seeds and into the (N + 1)-bin histogram.  Seed j's count is
    at index j - 1; seed 0 is left out.  Besides the counts, memory is three
    2^B-row blocks (span, buffer, popcounts), whatever K is.  The replay
    calls it through `_stage_counts`, so a stage whose unit rows and flip
    equal the previous stage's takes that stage's result instead.
    """
    low_bits = min(units.shape[0], _SCAN_CHUNK_BITS)
    low = gf2_span(units[:low_bits])
    low ^= flip
    buf = np.empty_like(low)
    counts = np.empty(1 << units.shape[0], dtype=np.min_scalar_type(n_symbols))
    hist = np.zeros(n_symbols + 1, dtype=np.int64)
    for c, prefix in enumerate(gf2_span(units[low_bits:])):
        np.bitwise_xor(low, prefix, out=buf)
        chunk = counts[c * len(low):(c + 1) * len(low)]
        np.bitwise_count(buf).sum(axis=1, dtype=counts.dtype, out=chunk)
        hist += np.bincount(chunk, minlength=n_symbols + 1)
    # seed 0 is not a hypothesis
    hist[counts[0]] -= 1
    return counts[1:], hist


@functools.lru_cache(maxsize=1)
def _stage_counts(units: bytes, flip: bytes, key_bits: int,
                  n_symbols: int) -> "tuple[np.ndarray, np.ndarray]":
    """`_scan_counts` of packed rows given as bytes, kept for the next stage; read-only.

    The counts are a pure function of the unit rows and the flip word.
    Without a randomizing dsr the pad cancels, so a run's pad stage hands
    this one-entry memo the plain stage's flip and takes the plain stage's
    arrays, the same objects, without a second 2^K pass.
    """
    counts, hist = _scan_counts(np.frombuffer(units, np.uint64).reshape(key_bits, -1),
                                np.frombuffer(flip, np.uint64), n_symbols)
    counts.flags.writeable = hist.flags.writeable = False
    return counts, hist


def _seed_scan(measured_labels: np.ndarray, effective_labels: np.ndarray,
               target: np.ndarray, basis_units: np.ndarray,
               true_seed: int) -> AttackRecord:
    """Score the candidates effective_labels XOR parity_j of every nonzero seed j.

    One `_scan_counts` pass gives every nonzero seed's mismatch count and
    their (N + 1)-bin histogram, unless the previous stage scanned the same
    unit rows and flip word (`_stage_counts`); the true seed's count is
    read from the counts.  The number of distinct candidates follows from
    the GF(2) rank of the unit streams: with full rank K every nonzero seed
    gives its own candidate (2^K - 1), otherwise the nonzero seeds cover
    the whole 2^rank image.  basis_units holds the K unit seeds' basis
    chunk rows.
    """
    key_bits = basis_units.shape[0]
    n = target.size
    units = _pack_words((basis_units & 1).astype(np.uint8))
    mismatches, hist = _stage_counts(units.tobytes(),
                                     _pack_words(effective_labels ^ target).tobytes(),
                                     key_bits, n)
    true_h = int(mismatches[true_seed - 1])
    seed_space = (1 << key_bits) - 1
    rank = _gf2_rank(units)
    distinct = seed_space if rank == key_bits else 1 << rank
    exact = int(hist[0])
    matches = int(np.dot(n - np.arange(n + 1), hist))
    return AttackRecord(
        measured_labels=measured_labels,
        candidate_count=distinct,
        # ties resolved optimistically for the attacker
        true_key_rank=1 + int(hist[:true_h].sum()),
        true_r_in_candidates=exact > 0,
        mismatches=mismatches,
        mismatch_histogram=hist,
        true_seed_mismatches=true_h,
        match_fraction_mean=matches / n / seed_space,
        match_fraction_max=(n - int(np.flatnonzero(hist)[0])) / n,
        true_seed=int(true_seed),
        exact_match_count=exact,
        collision_count=seed_space - distinct,
        notes={"seed_space": seed_space},
    )


def brute_force_candidates(measured: np.ndarray, c: Constellation, poly: int,
                           r_true: np.ndarray, true_seed: int) -> AttackRecord:
    """Replay of the classic recorded-labels attack over every nonzero seed.

    Each seed hypothesis j turns the label record into a candidate data
    sequence by XOR with that seed's basis-parity stream.  The record keeps
    every candidate's mismatch count with the actually transmitted
    sequence and their histogram, the rank of the true seed (ties resolved
    optimistically for the attacker), and the number of distinct candidate
    sequences.
    """
    measured = _as_bits(measured, "measured labels")
    r_true = _as_bits(r_true, "reference bits")
    n = measured.size
    _check_replay_run(poly, n, true_seed)
    if r_true.shape != measured.shape:
        raise ValueError("label record and reference sequence differ in length")
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
    x_bits = _as_bits(x_bits, "plaintext bits")
    n = x_bits.size
    _check_replay_run(poly, n, true_seed)
    if scenario.n_symbols != n:
        raise ValueError("scenario length does not match the plaintext")
    pad = rng.integers(0, 2, n, dtype=np.uint8)
    cipher = x_bits ^ pad
    units = unit_keystreams(poly, n, c.bits_per_basis)
    basis_true = _seed_row(units, true_seed)
    labels = _label_sampler(c, scenario).record(_pair_index_table(c)[pad, basis_true], rng,
                                                scenario.error_seq)
    rec = _seed_scan(labels, cipher ^ labels, x_bits, units, true_seed)
    noiseless = (scenario.dsr.param == 0.0 and scenario.misalign == 0.0
                 and not scenario.error_positions)
    identity = bool(np.all((cipher ^ labels ^ (basis_true & 1)) == x_bits)) if noiseless else None
    rec.notes["pad_identity_noiseless"] = identity
    rec.notes["ciphertext"] = cipher.tolist()
    return rec


# ---------------------------------------------------------------------------
# Exact posterior entropies


def _log2_top(log2_like: np.ndarray) -> int:
    """Index of the most likely live key; fails when no key is live."""
    if not log2_like.size:
        raise AssertionError("posterior has no support; model inconsistent with data")
    return int(np.argmax(log2_like))


def _log2_sum(keys: np.ndarray, log2_like: np.ndarray, key_bits: int) -> float:
    """log2 of the summed likelihoods of the live keys, taken relative to the largest term.

    The terms are summed as a 2^K array with +0.0 at every dead key, which
    is what exp2 gives a dead key's -inf.  numpy's pairwise sum then adds
    the array it would add over every key, in the same order, so the bits
    do not depend on how many keys are live.
    """
    top = log2_like[_log2_top(log2_like)]
    w = np.zeros(1 << key_bits)
    w[keys] = np.exp2(log2_like - top)
    return float(top + math.log2(float(w.sum())))


def _posterior_entropy_bits(log2_like: np.ndarray, key_bits: int) -> float:
    """Entropy of the posterior over 2^K keys from the live keys' log2 likelihoods.

    With s* the most likely key, d_s = l_s - l_max and R the sum of 2^d_s
    over the other keys, H = log2(1 + R) - sum_{s != s*} p_s d_s: both
    terms are nonnegative, and the first keeps the most likely key's share
    of H where its probability rounds to 1.  A dead key adds nothing to
    either term.  Clipped to [0, K].
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
    return min(max(0.0, h), float(key_bits))


def _entropy_error_weight(scenario: AttackScenario, regime: str) -> int:
    """Recording errors the ``regime`` engine marginalizes: at most one, none on index records."""
    w = len(scenario.error_positions)
    if regime == "quantum" and w:
        raise ValueError("recording errors apply to label records, not index records")
    if w > 1:
        raise ValueError(
            "posterior marginalization supports at most one unknown-position "
            "recording error")
    return w


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be positive")


def _check_mi_trials(trials: int, n_symbols: int) -> None:
    if trials < 2:
        raise ValueError("need at least two trials")
    if trials * n_symbols > MI_CELL_CAP:
        raise RegimeCapError(
            f"a mutual-information estimate of {trials} trials x {n_symbols} symbols "
            f"exceeds the cap of {MI_CELL_CAP} cells")


def _check_regime(regime: str) -> None:
    if regime not in ("classical", "quantum"):
        raise ValueError("regime must be 'classical' or 'quantum'")


def _check_record_dsr(dsr: Dsr, regime: str) -> None:
    if regime == "quantum" and dsr.kind == "jitter" and dsr.param > 0.0:
        raise ValueError("the quantum record model supports dsr 'none' or 'binary'")


def _check_entropy_run(c: Constellation, poly: int, scenario: AttackScenario,
                       trials: int, regime: str) -> "tuple[int, int]":
    """Checks shared by the entropy engines; returns the key width and the error weight."""
    key_bits = poly.bit_length() - 1
    _check_entropy_caps(key_bits, scenario.n_symbols, c.m)
    _check_trials(trials)
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
    """Split the quotients num/den > 0 at ``present`` into bands; yields (e, values).

    Each band spans less than 2^RATIO_BAND_BITS, and its values are the
    quotients divided by 2^e, e = floor(log2) of the band's smallest
    quotient, so they lie in [1, 2^(RATIO_BAND_BITS + 1)) and are 0 off the
    band.  Working from the exponents of num and den, no quotient overflows
    or leaves normal range, however far apart the two are.
    """
    mant_num, exp_num = np.frexp(np.where(present, num, 1.0))
    mant_den, exp_den = np.frexp(np.where(present, den, 1.0))
    mant, exp = mant_num / mant_den, exp_num - exp_den
    log2_q = np.log2(mant) + exp
    # floor(log2) of each quotient mant 2^exp, exact where log2_q rounds up
    # to an integer; log2_q >= floor_q, so a band's floors stay below e + 1
    # + RATIO_BAND_BITS
    floor_q = exp - (mant < 1.0)
    rest = present.copy()
    while rest.any():
        lo = float(log2_q[rest].min())
        e = int(floor_q[rest].min())
        band = rest & (log2_q < lo + RATIO_BAND_BITS)
        yield e, np.where(band, np.ldexp(mant, np.where(band, exp - e, 0)), 0.0)
        rest &= ~band


def _symbol_terms(tab: np.ndarray, weight: int):
    """Per-symbol summands of one table, indexed like it by [data bit, basis, observation].

    log2 f with zero factors counted as 1, and the zero indicator [f = 0].
    With one recording error, f' being the entry of the flipped observation,
    also the ratios f'/f where f > 0 and then the values f' where f = 0,
    each group split by ``_bands``.  A transform's rounding is relative to
    the largest value it sums, so an unsplit sum of ratios near 1/f_min
    (1e16 where a label probability rounds to 1e-16 instead of 0) would
    bury a key's sum of ratios near 1.  Every nonzero band value is at
    least 1, so a key's band sum is 0 or at least 1 and says by itself
    whether any of the key's symbols falls in the band.  A positive entry
    whose flipped entry is positive is in a ratio band, one whose flipped
    entry is 0 puts that entry in a zero band, so every table has a band.
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
    terms += [values for _, values in bands]
    return terms, (len(ratio_bands), np.array([[e] for e, _ in bands], dtype=np.int32))


def _band_log2(lam: np.ndarray, zeros: np.ndarray, key_sums: np.ndarray, bands,
               n: int) -> np.ndarray:
    """log2 L = Lambda + log2(S / N) at candidate keys, one column per key.

    S is read from the keys' band sums.  Every operation is per key, so the
    keys of several trials, concatenated, give each key the bits it gets
    alone.
    """
    n_ratio, e = bands
    # S sums f'/f over a key with no zero factor, f' at its one zero factor;
    # a band no symbol of the key falls in sums to 0 up to rounding, any
    # other to at least 1, and contributes exactly nothing
    present = key_sums > 0.5
    present[:n_ratio] &= zeros == 0
    # scaled by the key's largest present band, so no band overflows
    top = np.where(present, e, e.min()).max(axis=0)
    # the bands are added in order, row by row: from 8 rows on, numpy adds
    # the rows of a single gathered key pairwise
    s = sum(np.where(present, np.ldexp(key_sums, np.minimum(e - top, 0)), 0.0))
    live = s > 0.0
    return np.where(live, lam + (top + np.log2(np.where(live, s, 1.0) / n)), -math.inf)


def _record_channel(c: Constellation, scenario: AttackScenario,
                    regime: str) -> "tuple[_Sampler, np.ndarray]":
    """A regime's record model: its sampler and its table [data bit, basis, observation].

    'classical' records half-plane labels through ``_label_channel``;
    'quantum' records a heterodyne receiver's nearest-phase index through
    the exact transition matrix, mixed with its antipode row at the binary
    flip rate.  The table holds P(observation | sent index) at the index
    each data bit and basis send.  The sampler is built here once per run,
    with the label table or the amplitudes it reads.
    """
    if regime == "classical":
        sampler, chan = _label_sampler(c, scenario), _label_channel(c, scenario)
    else:
        from .heterodyne import heterodyne_index_transition

        f = scenario.dsr.param if scenario.dsr.kind == "binary" else 0.0
        trans = heterodyne_index_transition(c, decision_offset=scenario.misalign)
        sampler = _heterodyne_sampler(c, scenario)
        # chan[index, decided]: the sent member, or its antipode after a flip
        chan = (1.0 - f) * trans + f * np.roll(trans, -c.m, axis=0)
    return sampler, chan[_pair_index_table(c)]


# The conventions of each regime's record model, as a run's manifest notes them
_RECORD_NOTES = {
    "classical": {
        "label_encoding": "up=1 down=0",
        "label_tie_break": "phase on the axis counts as up, antipode as down",
        "label_axis_pair": "the basis-0 pair lies on the label axis: the tie rule fixes "
                           "its labels at zero jitter, any jitter makes each a coin flip",
        "eve_label_receiver": "ideal half-plane discriminator",
    },
    "quantum": {"quantum_record_receiver": "heterodyne, nearest-phase decision"},
}


def modeling_notes(scenario: AttackScenario, results: list) -> "dict[str, object]":
    """The record model of a run, as its manifest notes it, from what its engines returned.

    Every record notes the keystream, the dsr and the misalignment.  Each
    result, an ``AttackRecord`` or ``EntropyReport``, adds the conventions of
    the record model it scored (its ``record``); an entropy report also adds
    the seed hypotheses.
    """
    notes: "dict[str, object]" = {
        "lfsr": "fibonacci, low-bit output, msb-first per-symbol chunks",
        "dsr": f"{scenario.dsr.kind}:{scenario.dsr.param}",
        "misalign_radians": scenario.misalign,
    }
    for result in results:
        notes.update(_RECORD_NOTES[result.record])
        if isinstance(result, EntropyReport):
            notes["entropy_hypothesis_space"] = "all 2^K register values including zero"
    return notes


def _stack_draws(draws: list) -> tuple:
    """Per-trial sampler draws, tuples of arrays, stacked part by part along a new first axis."""
    return tuple(np.stack(parts) for parts in zip(*draws))


def _distinct_terms(terms: list) -> "tuple[list[int], list[int]]":
    """The terms a run transforms, and the row of the transformed sums each term reads.

    A term that is 0 on its whole table (log2 f on a table of 0s and 1s,
    [f = 0] on a table without zeros) sums to exactly 0 for every key, so it
    is not transformed and reads row -1, which stays 0.  A term equal to an
    earlier one is not transformed either and reads that term's row: its
    coefficients, its scatter and its slice of the batched transform would
    take the same input, so they would give the same bits.  On a classical
    label table f' = 1 - 0 = 1 wherever f = 0, so the zero band is [f = 0].
    Returns the indices of the transformed terms, in order, and each term's
    row.
    """
    distinct, rows = [], []
    for k, term in enumerate(terms):
        if not term.any():
            rows.append(-1)
            continue
        row = next((row for row, j in enumerate(distinct) if np.array_equal(terms[j], term)),
                   len(distinct))
        if row == len(distinct):
            distinct.append(k)
        rows.append(row)
    return distinct, rows


# Trials per block of the entropy engines.  At the caps (N = 32) and M = 16
# a block's basis coefficients take 64 KB per transformed term, 256 KB on a
# run that transforms four (jitter with one recording error); its draws,
# seed rows and records take a few KB.
_TRIAL_BLOCK = 16


def _record_likelihoods(c: Constellation, poly: int, scenario: AttackScenario, trials: int,
                        rng: np.random.Generator, sampler: _Sampler, table: np.ndarray,
                        weight: int):
    """Per trial, the live register values and their log2 sequence likelihoods under ``table``.

    A trial draws a seed, data, the position of a declared recording error
    and the record's randomness (``sampler.draw``), in that order.  The
    table is indexed [data bit, basis, observation].  Symbol i's basis is
    GF(2)-linear in the seed, so a sum over symbols of per-symbol terms
    g_i(basis) is, over all 2^K register values at once, one Walsh-Hadamard
    transform: expand each g_i over the basis bits, move character y to the
    seed character u[i, y] and transform in seed space.  That gives
    Lambda = sum log2 f and Z = #{f = 0}, an exact integer because its
    coefficients are dyadic, and L = 0 where Z > 0.  A recording error at an
    unknown position is marginalized as L = 2^Lambda S / N, with S the sum
    of f'/f where Z = 0 and of [f = 0] f' where Z = 1; L = 0 where Z > 1, so
    S is assembled only at the keys with Z <= 1.  Only the distinct terms
    that are not 0 on the whole table are transformed (``_distinct_terms``).
    The zero register never occurs, but the accounting runs over every
    possible key.

    Trials run in blocks of ``_TRIAL_BLOCK``.  The draws stay per trial and
    in trial order; then one call each builds the block's seed rows, its
    records (``sampler.apply``) and its basis coefficients.  A term's
    coefficients over the basis characters depend only on the symbol's data
    bit and observation, so they are gathered from one table per run.  Per
    trial remain the scatter into seed space and the two transform factors.
    The rest turns on one fact of the table, whether it has zeros.  With
    zeros, each trial keeps the sums of its keys with Z <= the error weight,
    and the likelihoods are assembled once per block over all of them;
    without zeros every key is live, and each trial assembles every key.

    Yields per trial the live keys, ascending, and their log2 likelihoods,
    all finite: the keys with Z = 0 without an error; with one, the kept
    keys whose S is positive, or every key on a table without zeros, where
    each symbol puts a band value of at least 1 into S.  A key left out has
    likelihood 0.  The transform buffers are allocated once per run and no
    yielded likelihood array shares memory with them or with another
    trial's; the keys of a table without zeros are one read-only array.
    """
    key_bits = poly.bit_length() - 1
    n = scenario.n_symbols
    idx_table = _pair_index_table(c)
    units = unit_keystreams(poly, n, c.bits_per_basis)
    chars = _seed_characters(units, c.m)
    terms, bands = _symbol_terms(table, weight)
    distinct, sum_rows = _distinct_terms(terms)
    stacked = np.stack([terms[k] for k in distinct])
    n_live = len(stacked)
    # row (l, bit, obs) of basis_coef is stacked[l, bit, :, obs] @ h_basis,
    # the coefficients of term l over the basis characters
    n_obs = stacked.shape[-1]
    basis_coef = (np.ascontiguousarray(np.moveaxis(stacked, -1, 2)) @ (_walsh(c.m) / c.m)
                  ).reshape(-1, c.m)
    term_rows = (2 * n_obs * np.arange(n_live))[:, None]
    # each transformed term's seed-space sum has its own row of ``sums``; the
    # last row stays 0
    sums = np.zeros((n_live + 1, 1 << key_bits))
    lam_row, zeros_row, band_rows = sum_rows[0], sum_rows[1], sum_rows[2:]
    zeros = sums[zeros_row]
    has_zeros = terms[1].any()

    def assemble(key_sums: np.ndarray) -> np.ndarray:
        """log2 L at the keys whose sums are the columns of key_sums, in a new array."""
        if bands is None:
            return key_sums[lam_row].copy()
        return _band_log2(key_sums[lam_row], key_sums[zeros_row], key_sums[band_rows],
                          bands, n)

    # without zeros every key is live, and every trial yields this one array
    every_key = np.arange(1 << key_bits)
    every_key.flags.writeable = False
    # one bincount scatters every transformed term into its own block of seed space
    slots = (chars + (np.arange(n_live) << key_bits)[:, None, None]).ravel()
    half = key_bits // 2
    h_hi, h_lo = _walsh(1 << half), _walsh(1 << (key_bits - half))
    mid = np.empty((n_live, len(h_hi), len(h_lo)))
    transformed = sums[:-1].reshape(mid.shape)
    coef_block = np.empty((min(trials, _TRIAL_BLOCK), n_live, n, c.m))
    for start in range(0, trials, _TRIAL_BLOCK):
        size = min(_TRIAL_BLOCK, trials - start)
        seeds = np.empty(size, dtype=np.int64)
        r = np.empty((size, n), dtype=np.uint8)
        error_vec = np.zeros((size, n), dtype=np.uint8)
        draws = []
        for t in range(size):
            seeds[t] = rng.integers(1, 1 << key_bits)
            r[t] = rng.integers(0, 2, n, dtype=np.uint8)
            if weight == 1:
                error_vec[t, rng.integers(0, n)] = 1
            draws.append(sampler.draw(rng, (n,)))
        obs = sampler.apply(idx_table[r, _seed_row(units, seeds)], _stack_draws(draws),
                            error_vec)
        # coef[t, l, i] is row (l, r[t, i], obs[t, i]), in the order of ``slots``;
        # every row index is in range, and mode "raise" would buffer the output
        rows = term_rows + (n_obs * r.astype(np.intp) + obs)[:, None]
        coef = basis_coef.take(rows, axis=0, out=coef_block[:size], mode="clip")
        kept = []
        for t in range(size):
            spec = np.bincount(slots, weights=coef[t].ravel(), minlength=n_live << key_bits)
            np.matmul(h_hi, spec.reshape(mid.shape), out=mid)
            np.matmul(mid, h_lo, out=transformed)
            if has_zeros:
                keys = np.flatnonzero(zeros <= weight)
                kept.append((keys, sums[:, keys]))
            else:
                yield every_key, assemble(sums)
        if has_zeros:
            log2_like = assemble(np.concatenate([s for _, s in kept], axis=1))
            live = log2_like > -math.inf
            at = 0
            for keys, _ in kept:
                part = slice(at, at + len(keys))
                finite = live[part]
                yield keys[finite], log2_like[part][finite]
                at += len(keys)


def ciphertext_only_entropy(c: Constellation, poly: int, scenario: AttackScenario,
                            trials: int, rng: np.random.Generator) -> EntropyReport:
    """Exact H(key | record) and H(data | record) from label records alone.

    Each trial draws a fresh seed, data sequence, and channel noise, then
    computes the eavesdropper's full posterior over all 2^K keys (data
    marginalized) and the exact surprisal of the transmitted sequence.  A
    declared recording error contributes its weight, not its position, to
    the posterior; weights above one are not supported.  With the data
    unknown, each basis reads label 1 with the mean over its pair, and
    every pair splits, so that mean is exactly 1/2: every key's record
    likelihood is 2^-n, H(key | record) = K and the likelihoods sum to
    2^(K - n), with no transform.
    """
    key_bits, weight = _check_entropy_run(c, poly, scenario, trials, "classical")
    n = scenario.n_symbols
    sampler, table = _record_channel(c, scenario, "classical")
    if not (0.5 * (table[0, :, 1] + table[1, :, 1]) == 0.5).all():
        raise AssertionError("a label pair does not split; the key posterior is not flat")
    log2_marginal = float(key_bits - n)
    trial_likes = _record_likelihoods(c, poly, scenario, trials, rng, sampler, table, weight)
    # P(data | record) = 2^-n sum_j L(record | j, data) / sum_j L(record | j)
    surprisals = np.array([n - _log2_sum(keys, log_cond, key_bits) + log2_marginal
                           for keys, log_cond in trial_likes])
    h_data_mean = float(surprisals.mean())
    return EntropyReport(
        regime="ciphertext_only",
        trials=trials,
        h_key=float(key_bits),
        h_key_given_obs=float(key_bits),
        h_data_given_obs=h_data_mean,
        exceeds_key_entropy=bool(h_data_mean > key_bits + ENTROPY_TIE_BITS),
        notes={
            "h_key_given_obs_min": float(key_bits),
            "h_key_given_obs_max": float(key_bits),
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
    _check_regime(regime)
    key_bits, weight = _check_entropy_run(c, poly, scenario, trials, regime)
    sampler, table = _record_channel(c, scenario, regime)
    trial_likes = _record_likelihoods(c, poly, scenario, trials, rng, sampler, table, weight)
    h_vals = np.array([_posterior_entropy_bits(log_like, key_bits)
                       for _, log_like in trial_likes])
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


def label_mutual_information(c: Constellation, poly: int, true_seed: int,
                             scenario: AttackScenario, trials: int,
                             rng: np.random.Generator) -> float:
    """Empirical I(recorded label; data bit) in bits per symbol, fixed keystream.

    Estimated position by position with a plug-in 2x2 estimator over
    ``trials`` independently drawn data sequences, then averaged across
    positions.  With effective deliberate randomization this collapses to
    zero up to estimator noise of order 1/trials.
    """
    n = scenario.n_symbols
    # no seed is enumerated, so the replay's caps do not apply
    _check_seed(poly.bit_length() - 1, true_seed)
    _check_mi_trials(trials, n)
    basis = _seed_row(unit_keystreams(poly, n, c.bits_per_basis), true_seed)
    data = rng.integers(0, 2, (trials, n), dtype=np.uint8)
    labels = _label_sampler(c, scenario).record(_pair_index_table(c)[data, basis], rng,
                                                scenario.error_seq)
    # joint[i, bit, label]: every trial's (position, data bit, label) cell in one count
    cells = np.bincount((4 * np.arange(n) + 2 * data + labels).ravel(), minlength=4 * n)
    joint = cells.reshape(n, 2, 2) / trials
    indep = joint.sum(axis=2, keepdims=True) * joint.sum(axis=1, keepdims=True)
    # an empty cell has ratio 1 and adds 0
    terms = joint * np.log2(np.divide(joint, indep, out=np.ones_like(joint), where=joint > 0.0))
    # a running total adds the positions left to right
    return float(np.cumsum(terms.reshape(n, 4).sum(axis=1))[-1]) / n
