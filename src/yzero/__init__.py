"""Desk-scale simulator and analysis toolkit for the coherent-state stream cipher.

The package splits into three layers: the keyed phase-constellation coding
layer (:mod:`yzero.codec`); the receivers, as error bounds and the
key-generation curve they give (:mod:`yzero.detection`) and as the
heterodyne receiver the ``quantum`` regime records with
(:mod:`yzero.heterodyne`); and eavesdropper replays with exact information
accounting (:mod:`yzero.attacks`).  Configured runs are driven by
:mod:`yzero.runner` and the ``yzero`` command.

The top-level names are resolved on first use (PEP 562), so ``import yzero``
loads no numpy and a submodule only when one of its names is read: the
``yzero`` command loads just the modules its family runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_SOURCES = {
    "attacks": ("AttackRecord", "AttackScenario", "Dsr", "EntropyReport",
                "brute_force_candidates", "ciphertext_only_entropy",
                "known_plaintext_key_entropy", "label_mutual_information", "measure_labels",
                "otp_stage_attack"),
    "codec": ("Constellation", "PRIMITIVE_POLYS", "encode_sequence", "halfplane_label"),
    "detection": ("BinaryBound", "ExponentFit", "KeygenPoint", "MaryBound",
                  "antipodal_homodyne_error", "binary_entropy", "bit_bound", "exponent_fit",
                  "helstrom_pure", "keygen_advantage", "srm_mary_error", "updown_bound"),
    "errors": ("ConfigError", "RegimeCapError"),
    "heterodyne": ("heterodyne_index_transition", "heterodyne_sample", "nearest_phase_index",
                   "phase_density"),
    "scenario": ("ScenarioConfig", "load_config"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__))
