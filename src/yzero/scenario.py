"""Scenario configuration files.

Runs are driven by small INI files with four sections: [constellation],
[keystream], [scenario], [output].  Parsing is strict, and each family's
reader is its whole schema: it reads every key through ``_Source.get``
(parse, check at the key's line, or keep the default), which records the
key and needs its section.  So a family accepts exactly the keys it reads,
any other being an unknown key at its line, and requires every section it
reads but [output]: ``bounds`` reads ``m_grid`` and ``energy_grid``,
``attack`` and ``entropy`` read ``m`` and ``energy``.  A reader ends with
the checks that span its keys and with its caps.  Of several faults the
first in reading order is reported: an unknown section, the family's keys
and end checks as its reader meets them, [output], then a key left unread.
The loader keeps the rules of the file format: sections and keys, which
keys are present, method and mode names, which mode reads ``regime``,
``prefix`` and ``master_seed``.  Every value rule is the library's: the
loader builds the objects a run uses and calls the checks its engines
run, and reports their ValueError as a ConfigError at the line of the key
it concerns.  An attack or entropy run's ``Constellation`` and
``AttackScenario`` are built once, as their keys are read, and kept on
the config (``constellation``, ``attack_scenario``); the run scores those
objects.  A run past a cap (the bounds and heterodyne energy caps, the
enumeration caps or the entropy engines' M cap) raises RegimeCapError at
load time, before any output directory or record exists.  Nothing is
computed: no keystream, spectrum or transition matrix.

The loader imports the library modules a family runs as it reads that
family's keys, and only those: ``attacks`` for attack and entropy,
``detection`` for bounds and keygen, ``heterodyne`` for the quantum
regime's record, and the numpy subpackages that numpy loads on first use
with the family that uses them: ``numpy.random`` for attack and entropy
and ``numpy.fft`` for bounds (the weight spectra).  So a bounds process
never loads ``attacks``, no attack or entropy run loads ``detection``, a
label record never loads ``heterodyne``, and every import a run needs is
paid before ``load_config`` returns, as set-up, not inside the run's
compute.

``config_sha256`` is the SHA-256 of the file's UTF-8 text, taken from the
hash CPython builds in (``_sha2``, or ``_sha256`` before 3.12), with
``hashlib`` only as a fallback: ``hashlib`` maps OpenSSL into the process,
which no CLI run otherwise loads (``yzero.cli`` blocks it where this
built-in hash exists).
"""

from __future__ import annotations

import configparser
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

# the built-in SHA-256 first, as random.py takes its sha512; see the docstring
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import codec
from .errors import ConfigError

if TYPE_CHECKING:
    from . import attacks

# the file format's sections; which of their keys a family takes is its reader
_SECTIONS = ("constellation", "keystream", "scenario", "output")


@dataclass
class ScenarioConfig:
    """Validated parameters for one run of any family."""

    family: str
    # bounds only
    m_grid: "list[int]" = field(default_factory=list)
    energy_grid: "list[float]" = field(default_factory=list)
    methods: "list[str]" = field(default_factory=lambda: ["bit", "srm", "updown"])
    # attack and entropy only: the keystream, and the record model the loader
    # builds and the run scores
    poly: "int | None" = None
    # the replay's true seed; entropy reads it only to check it
    seed_register: "int | None" = None
    constellation: "codec.Constellation | None" = None
    attack_scenario: "attacks.AttackScenario | None" = None
    # attack only
    otp: bool = False
    mi_trials: int = 0
    # entropy only, but for mode, which keygen reads too
    trials: int = 200
    mode: str = "ciphertext_only"
    regime: str = "classical"
    # keygen only
    s_grid: "list[float]" = field(default_factory=list)
    # every family
    out_dir: str = "."
    prefix: str = ""
    master_seed: int = 0
    config_sha256: str = ""
    config_path: str = ""

    @property
    def key_bits(self) -> int:
        return 0 if self.poly is None else self.poly.bit_length() - 1


_REQUIRED = object()


class _Source:
    """Raw config text with line lookup for error messages, its parsed keys and those read."""

    def __init__(self, path: str, text: str, cp: configparser.ConfigParser, family: str) -> None:
        self.path = path
        self.lines = text.splitlines()
        self.cp = cp
        self.family = family
        self.read: "set[tuple[str, str]]" = set()

    def line_of(self, section: str, key: "str | None" = None) -> "int | None":
        """The line of ``[section]``'s header, or of ``key`` inside that section."""
        inside = False
        for i, line in enumerate(self.lines, start=1):
            if header := re.match(r"\s*\[(.+)\]", line):
                inside = header[1] == section
                if inside and key is None:
                    return i
            elif inside and re.match(rf"\s*{re.escape(key)}\s*[=:]", line):
                return i
        return None

    def fail(self, message: str, section: "str | None" = None,
             key: "str | None" = None) -> "ConfigError":
        """A ConfigError at ``key``'s line in [section], or at the section's header.

        A key set in [DEFAULT] is every section's, so its line is looked up there
        too.
        """
        lineno = None
        if section is not None:
            lineno = self.line_of(section, key)
            if lineno is None and key is not None:
                lineno = self.line_of(self.cp.default_section, key)
        where = f"{self.path}:{lineno}" if lineno else self.path
        return ConfigError(f"{where}: {message}")

    @contextmanager
    def at(self, section: str, key: str):
        """Report a ValueError as a ConfigError at ``key``'s line in [section]."""
        try:
            yield
        except ValueError as exc:
            raise self.fail(str(exc), section, key) from None

    def get(self, section: str, key: str, parse=None, check=None, default=_REQUIRED,
            many: bool = False):
        """``key`` of [section], parsed by ``parse(key, raw)`` and checked by ``check``.

        An absent key gives ``default``, or an error at the section's line;
        an absent section but [output] is an error whatever the default.
        With ``many`` the value is a nonempty comma-separated list, parsed
        and checked item by item.  A ValueError of the parser or the check
        names the key's line in [section].
        """
        self.read.add((section, key))
        if section != "output" and not self.cp.has_section(section):
            raise self.fail(f"family '{self.family}' requires a [{section}] section")
        if not self.cp.has_option(section, key):
            if default is _REQUIRED:
                raise self.fail(f"missing '{key}' in [{section}]", section)
            return default
        raw = self.cp.get(section, key)
        items = [p.strip() for p in raw.split(",") if p.strip()] if many else [raw]
        with self.at(section, key):
            if not items:
                raise ValueError(f"'{key}' must be a nonempty comma-separated list")
            values = [parse(key, item) if parse else item for item in items]
            if check is not None:
                for v in values:
                    check(v)
        return values if many else values[0]


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"expected an integer for '{key}', got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"expected a number for '{key}', got {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"'{key}' must be finite")
    return v


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean for '{key}', got {raw!r}") from None


def _parse_word(names: "tuple[str, ...]", message: str):
    """A parser of one of ``names``, in any case; ``message`` may cite the word as {name!r}."""
    def parse(key: str, raw: str) -> str:
        if (name := raw.lower()) not in names:
            raise ValueError(message.format(name=name))
        return name
    return parse


def _parse_degree(key: str, raw: str) -> int:
    degree = _parse_int(key, raw)
    if degree not in codec.PRIMITIVE_POLYS:
        raise ValueError(f"no built-in primitive polynomial of degree {degree}; "
                         f"available degrees are {sorted(codec.PRIMITIVE_POLYS)}")
    return codec.PRIMITIVE_POLYS[degree]


def _parse_dsr(key: str, raw: str) -> "attacks.Dsr":
    from . import attacks

    parts = raw.strip().split(":")
    kind = parts[0].strip().lower()
    if kind == "none" and len(parts) == 1:
        return attacks.Dsr()
    if kind in ("binary", "jitter") and len(parts) == 2:
        return attacks.Dsr(kind, float(parts[1]))
    raise ValueError("dsr must be 'none', 'binary:<flip_prob>' or 'jitter:<half_width>'")


def _check_prefix(prefix: str) -> None:
    if not re.fullmatch(r"[A-Za-z0-9._-]+", prefix):
        raise ValueError("prefix may contain only letters, digits, '.', '_' and '-'")


def load_config(path: str, family: str,
                out_dir: "str | None" = None,
                master_seed: "int | None" = None,
                threads: "int | None" = None) -> ScenarioConfig:
    """Parse and fully validate a scenario file for the given family.

    Command-line overrides for the output directory and master seed take
    precedence over the [output] section; ``threads`` must be at least 1 and
    is otherwise ignored: no family starts threads, and BLAS takes its count
    from ``OPENBLAS_NUM_THREADS``, which importing ``yzero.cli`` sets to 1
    unless it is set.  Every check, cap and import of the run is done here,
    before any output or record exists.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    src = _Source(path, text, cp, family)
    for section in cp.sections():
        if section not in _SECTIONS:
            raise src.fail(f"unknown section [{section}]", section)

    cfg = ScenarioConfig(family=family, prefix=family, config_path=path,
                         config_sha256=sha256(text.encode("utf-8")).hexdigest())
    _READERS[family](src, cfg)
    # out_dir is read under the override too: a key left unread is unknown
    cfg.out_dir = src.get("output", "out_dir", default=cfg.out_dir)
    cfg.prefix = src.get("output", "prefix", check=_check_prefix, default=cfg.prefix)
    cfg.master_seed = src.get("output", "master_seed", _parse_int, default=cfg.master_seed)
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in src.read:
                raise src.fail(f"unknown key '{key}' in [{section}] for family '{family}'",
                               section, key)
    if out_dir is not None:
        cfg.out_dir = out_dir
    if master_seed is not None:
        cfg.master_seed = master_seed
    if threads is not None and threads < 1:
        raise src.fail("threads must be positive")
    # a value from the file names its line, a command-line override does not;
    # the seed is a U64, as the CLI's --seed says
    if not 0 <= cfg.master_seed < 2**64:
        raise src.fail("master_seed must be a nonnegative integer below 2^64",
                       "output" if master_seed is None else None, "master_seed")
    return cfg


def _read_record(src: _Source, cfg: ScenarioConfig) -> None:
    """The constellation, keystream and record model that attack and entropy share.

    The run's ``Constellation`` and ``AttackScenario`` are built here, once;
    a bad error position is reported at its key's line.  The scenario
    derives its per-symbol error array only when an engine reads it, so an
    oversized N allocates nothing before the caps reject it.  Their runs
    spawn their generators from ``numpy.random``, which numpy loads on
    first use; it is imported here, with ``attacks``, as set-up.
    """
    import numpy.random

    from . import attacks

    m = src.get("constellation", "m", _parse_int, codec._check_m)
    energy = src.get("constellation", "energy", _parse_float, codec._check_energy)
    cfg.constellation = codec.Constellation(m, energy)
    with src.at("constellation", "m"):
        codec._check_basis_bits(cfg.constellation.bits_per_basis)
    if src.cp.has_option("keystream", "poly") and src.cp.has_option("keystream", "degree"):
        raise src.fail("give either 'poly' or 'degree', not both", "keystream", "degree")
    degree_poly = src.get("keystream", "degree", _parse_degree, default=None)
    cfg.poly = src.get("keystream", "poly", _parse_int, codec._check_poly, default=degree_poly)
    if cfg.poly is None:
        raise src.fail("missing 'poly' (or 'degree') in [keystream]", "keystream")
    # each entropy trial draws its own seed, so entropy needs none
    cfg.seed_register = src.get("keystream", "seed", _parse_int,
                                lambda seed: codec._check_seed(cfg.key_bits, seed),
                                default=None if cfg.family == "entropy" else _REQUIRED)
    n_symbols = src.get("scenario", "n_symbols", _parse_int, attacks._check_n_symbols)
    positions = src.get("scenario", "error_positions", _parse_int, default=(), many=True)
    misalign = src.get("scenario", "misalign", _parse_float, attacks._check_misalign,
                       default=0.0)
    dsr = src.get("scenario", "dsr", _parse_dsr, default=attacks.Dsr())
    with src.at("scenario", "error_positions"):
        cfg.attack_scenario = attacks.AttackScenario(n_symbols, positions, misalign, dsr)


def _read_bounds(src: _Source, cfg: ScenarioConfig) -> None:
    """[constellation] and [scenario] of a bounds run, and each energy's Gram cap.

    Its weight spectra are DFTs from ``numpy.fft``, which numpy loads on
    first use; it is imported here as set-up, with ``detection``.
    """
    import numpy.fft

    from . import detection

    cfg.m_grid = src.get("constellation", "m_grid", _parse_int, codec._check_m, many=True)
    cfg.energy_grid = src.get("constellation", "energy_grid", _parse_float, codec._check_energy,
                              many=True)
    cfg.methods = src.get("scenario", "methods",
                          _parse_word(("bit", "srm", "updown"), "unknown bound method {name!r}"),
                          default=cfg.methods, many=True)
    for s in cfg.energy_grid:
        detection._check_gram_energy(s)


def _read_attack(src: _Source, cfg: ScenarioConfig) -> None:
    from . import attacks

    _read_record(src, cfg)
    cfg.otp = src.get("scenario", "otp", _parse_bool, default=cfg.otp)
    # 0 skips the estimate
    cfg.mi_trials = src.get(
        "scenario", "mi_trials", _parse_int,
        lambda trials: (attacks._check_mi_trials(trials, cfg.attack_scenario.n_symbols)
                        if trials else None),
        default=cfg.mi_trials)
    # the caps bound N, so no oversized record is ever built
    attacks._check_attack_caps(cfg.key_bits, cfg.attack_scenario.n_symbols)


def _read_entropy(src: _Source, cfg: ScenarioConfig) -> None:
    from . import attacks

    _read_record(src, cfg)
    cfg.trials = src.get("scenario", "trials", _parse_int, attacks._check_trials,
                         default=cfg.trials)
    cfg.mode = src.get("scenario", "mode",
                       _parse_word(("ciphertext_only", "known_plaintext", "both"),
                                   "mode must be 'ciphertext_only', 'known_plaintext' or 'both'"),
                       default=cfg.mode)
    cfg.regime = src.get("scenario", "regime", lambda key, raw: raw.lower(),
                         attacks._check_regime, default=cfg.regime)
    # only the known-plaintext engine reads the regime
    if cfg.regime == "quantum" and cfg.mode == "ciphertext_only":
        raise src.fail("regime 'quantum' needs mode 'known_plaintext' or 'both'; "
                       "the ciphertext-only engine scores label records", "scenario", "regime")
    # the caps bound N and M, so no oversized record is ever built
    c, scenario = cfg.constellation, cfg.attack_scenario
    attacks._check_entropy_caps(cfg.key_bits, scenario.n_symbols, c.m)
    # the engines' own checks; with mode 'both' the known-plaintext one is stricter
    with src.at("scenario", "error_positions"):
        attacks._entropy_error_weight(scenario, cfg.regime)
    with src.at("scenario", "dsr"):
        attacks._check_record_dsr(scenario.dsr, cfg.regime)
    if cfg.regime == "quantum":
        from . import heterodyne

        heterodyne._check_wedge_energy(c.energy)


def _read_keygen(src: _Source, cfg: ScenarioConfig) -> None:
    cfg.s_grid = src.get("scenario", "s_grid", _parse_float, codec._check_energy, many=True)
    # keygen computes one curve, which the CSV's mode column names
    cfg.mode = src.get("scenario", "mode", _parse_word(("ideal",), "keygen mode must be 'ideal'"),
                       default="ideal")
    # keygen checks nothing more; the import is its run's, paid as set-up
    from . import detection


_READERS = {"bounds": _read_bounds, "attack": _read_attack, "entropy": _read_entropy,
            "keygen": _read_keygen}
FAMILIES = tuple(_READERS)
