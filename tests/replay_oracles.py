"""The whole-array replay scan, kept as an oracle for the package's chunked scan.

``yzero.attacks._seed_scan`` streams integer mismatch counts over the seeds
in chunks and keeps only their histogram.  This module is the scan it
replaced: the packed parity streams of all 2^K - 1 nonzero seeds built at
once, one float match fraction and one seed number per seed, and every
summary read from those arrays, the mean by ``np.mean``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from yzero.attacks import _pack_words
from yzero.codec import gf2_span


@dataclass
class WholeScan:
    """Per-seed arrays of one replay, seeds 1 ... 2^K - 1 in order, and their summaries."""

    n_symbols: int
    seeds: np.ndarray
    mismatches: np.ndarray
    per_seed_match_fraction: np.ndarray
    true_seed: int

    @property
    def histogram(self) -> np.ndarray:
        return np.bincount(self.mismatches, minlength=self.n_symbols + 1)

    @property
    def true_seed_mismatches(self) -> int:
        return int(self.mismatches[self.true_seed - 1])

    @property
    def true_key_rank(self) -> int:
        # ties resolved optimistically for the attacker
        return 1 + int(np.count_nonzero(self.mismatches < self.true_seed_mismatches))

    @property
    def exact_match_count(self) -> int:
        return int(np.count_nonzero(self.mismatches == 0))

    @property
    def match_fraction_mean(self) -> float:
        return float(self.per_seed_match_fraction.mean())

    @property
    def match_fraction_max(self) -> float:
        return float(self.per_seed_match_fraction.max())


def whole_array_scan(effective_labels: np.ndarray, target: np.ndarray,
                     basis_units: np.ndarray, true_seed: int) -> WholeScan:
    """Score effective_labels XOR parity_j against target for every nonzero seed j at once."""
    key_bits = basis_units.shape[0]
    n = target.size
    streams = gf2_span(_pack_words((basis_units & 1).astype(np.uint8)))[1:]
    mismatches = np.bitwise_count(streams ^ _pack_words(effective_labels ^ target)).sum(
        axis=1, dtype=np.int64)
    return WholeScan(n_symbols=n,
                     seeds=np.arange(1, 1 << key_bits, dtype=np.uint32),
                     mismatches=mismatches,
                     per_seed_match_fraction=(n - mismatches) / n,
                     true_seed=int(true_seed))
