"""Desk-scale simulator and analysis toolkit for the coherent-state stream cipher.

The package splits into three layers: the keyed phase-constellation coding
layer (:mod:`yzero.codec`), receiver error bounds and the key-generation
curve they give (:mod:`yzero.detection`), and eavesdropper replays with exact information accounting
(:mod:`yzero.attacks`).  Configured runs are driven by :mod:`yzero.runner`
and the ``yzero`` command.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .attacks import (
    AttackRecord,
    AttackScenario,
    Dsr,
    EntropyReport,
    brute_force_candidates,
    ciphertext_only_entropy,
    known_plaintext_key_entropy,
    label_mutual_information,
    measure_labels,
    otp_stage_attack,
)
from .codec import (
    Constellation,
    PRIMITIVE_POLYS,
    encode_sequence,
    halfplane_label,
)
from .detection import (
    BinaryBound,
    ExponentFit,
    KeygenPoint,
    MaryBound,
    antipodal_homodyne_error,
    binary_entropy,
    bit_bound,
    exponent_fit,
    helstrom_pure,
    heterodyne_index_transition,
    heterodyne_sample,
    keygen_advantage,
    nearest_phase_index,
    phase_density,
    srm_mary_error,
    truncation_dim,
    updown_bound,
)
from .errors import ConfigError, RegimeCapError
from .scenario import ScenarioConfig, load_config

__all__ = [
    "AttackRecord", "AttackScenario", "BinaryBound", "ConfigError", "Constellation",
    "Dsr", "EntropyReport", "ExponentFit", "KeygenPoint", "MaryBound",
    "PRIMITIVE_POLYS", "RegimeCapError", "ScenarioConfig",
    "antipodal_homodyne_error", "binary_entropy", "bit_bound",
    "brute_force_candidates", "ciphertext_only_entropy", "encode_sequence",
    "exponent_fit", "halfplane_label", "helstrom_pure",
    "heterodyne_index_transition", "heterodyne_sample", "keygen_advantage",
    "known_plaintext_key_entropy", "label_mutual_information", "load_config",
    "measure_labels", "nearest_phase_index", "otp_stage_attack", "phase_density",
    "srm_mary_error", "truncation_dim", "updown_bound",
]
