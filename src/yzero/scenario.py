"""Scenario configuration files.

Runs are driven by small INI files with four sections: [constellation],
[keystream], [scenario], [output].  Parsing is strict: each family
accepts only the keys it reads, so the family fixes scalar versus grid:
``bounds`` reads ``m_grid`` and ``energy_grid``, ``attack`` and ``entropy``
read ``m`` and ``energy``.  The loader keeps the rules of the file format:
sections and keys, which keys are present, method and mode names, which
mode reads ``regime``, ``prefix`` and ``master_seed``.
Every value rule is the library's: the loader builds the objects a run
uses and calls the checks its engines run, and reports their ValueError as
a ConfigError at the line of the key it concerns.  A run past a cap (the
bounds and heterodyne energy caps, the enumeration caps or the entropy
engines' M cap) raises RegimeCapError at load time, before any output
directory or record exists.  Nothing is computed: no keystream, spectrum
or transition matrix.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import attacks, codec, detection
from .errors import ConfigError

_SECTIONS = ("constellation", "keystream", "scenario", "output")

# bounds runs a grid of constellations, attack and entropy one
_GRID_KEYS = frozenset({"m_grid", "energy_grid", "osk"})
_POINT_KEYS = frozenset({"m", "energy", "osk"})
_KEYSTREAM_KEYS = frozenset({"poly", "degree", "seed"})
_RECORD_KEYS = frozenset({"n_symbols", "error_positions", "misalign", "dsr"})
_OUTPUT_KEYS = frozenset({"out_dir", "prefix", "master_seed"})

# the keys each family reads, by section; any other key is an error, and every
# section listed but [output] is required
_FAMILY_KEYS = {
    "bounds": {"constellation": _GRID_KEYS, "scenario": frozenset({"methods"}),
               "output": _OUTPUT_KEYS},
    "attack": {"constellation": _POINT_KEYS, "keystream": _KEYSTREAM_KEYS,
               "scenario": _RECORD_KEYS | {"otp", "mi_trials"}, "output": _OUTPUT_KEYS},
    "entropy": {"constellation": _POINT_KEYS, "keystream": _KEYSTREAM_KEYS,
                "scenario": _RECORD_KEYS | {"trials", "mode", "regime"},
                "output": _OUTPUT_KEYS},
    "keygen": {"scenario": frozenset({"s_grid", "mode"}), "output": _OUTPUT_KEYS},
}

FAMILIES = tuple(_FAMILY_KEYS)


@dataclass
class ScenarioConfig:
    """Validated parameters for one run of any family."""

    family: str
    m_grid: "list[int]" = field(default_factory=list)
    energy_grid: "list[float]" = field(default_factory=list)
    osk: bool = False
    poly: "int | None" = None
    seed_register: "int | None" = None
    methods: "list[str]" = field(default_factory=lambda: ["bit", "srm", "updown"])
    n_symbols: int = 0
    error_positions: "list[int]" = field(default_factory=list)
    misalign: float = 0.0
    dsr: attacks.Dsr = field(default_factory=attacks.Dsr)
    otp: bool = False
    trials: int = 200
    mi_trials: int = 0
    mode: str = "ciphertext_only"
    regime: str = "classical"
    s_grid: "list[float]" = field(default_factory=list)
    out_dir: str = "."
    prefix: str = ""
    master_seed: int = 0
    config_sha256: str = ""
    config_path: str = ""

    @property
    def key_bits(self) -> int:
        if self.poly is None:
            return 0
        return self.poly.bit_length() - 1


class _Source:
    """Raw config text with line lookup for error messages."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.lines = text.splitlines()

    def line_of(self, pattern: str) -> "int | None":
        rx = re.compile(pattern)
        for i, line in enumerate(self.lines, start=1):
            if rx.match(line):
                return i
        return None

    def fail(self, message: str, key: "str | None" = None,
             section: "str | None" = None) -> "ConfigError":
        lineno = None
        if key is not None:
            lineno = self.line_of(rf"\s*{re.escape(key)}\s*[=:]")
        elif section is not None:
            lineno = self.line_of(rf"\s*\[{re.escape(section)}\]")
        where = f"{self.path}:{lineno}" if lineno else self.path
        return ConfigError(f"{where}: {message}")

    @contextmanager
    def at(self, key: str):
        """Report a library check's ValueError as a ConfigError at ``key``'s line."""
        try:
            yield
        except ValueError as exc:
            raise self.fail(str(exc), key=key) from None


def _parse_int(src: _Source, key: str, raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise src.fail(f"expected an integer for '{key}', got {raw!r}", key=key) from None


def _parse_float(src: _Source, key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise src.fail(f"expected a number for '{key}', got {raw!r}", key=key) from None
    if not math.isfinite(v):
        raise src.fail(f"'{key}' must be finite", key=key)
    return v


def _parse_bool(src: _Source, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise src.fail(f"expected a boolean for '{key}', got {raw!r}", key=key)


def _parse_list(src: _Source, key: str, raw: str, conv) -> list:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    if not items:
        raise src.fail(f"'{key}' must be a nonempty comma-separated list", key=key)
    return [conv(src, key, p) for p in items]


def _parse_dsr(src: _Source, raw: str) -> attacks.Dsr:
    parts = raw.strip().split(":")
    kind = parts[0].strip().lower()
    if kind == "none" and len(parts) == 1:
        return attacks.Dsr()
    if kind in ("binary", "jitter") and len(parts) == 2:
        with src.at("dsr"):
            return attacks.Dsr(kind, float(parts[1]))
    raise src.fail("dsr must be 'none', 'binary:<flip_prob>' or 'jitter:<half_width>'",
                   key="dsr")


def load_config(path: str, family: str,
                out_dir: "str | None" = None,
                master_seed: "int | None" = None,
                threads: "int | None" = None) -> ScenarioConfig:
    """Parse and fully validate a scenario file for the given family.

    Command-line overrides for the output directory and master seed take
    precedence over the [output] section; ``threads`` must be at least 1 and
    is otherwise ignored, as no family starts threads.  All structural
    checks happen here, before any computation starts, and so do the caps:
    a run past them raises RegimeCapError before any output or record exists.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    src = _Source(path, text)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    family_keys = _FAMILY_KEYS[family]
    for section in cp.sections():
        if section not in _SECTIONS:
            raise src.fail(f"unknown section [{section}]", section=section)
        for key in cp.options(section):
            if key not in family_keys.get(section, ()):
                raise src.fail(f"unknown key '{key}' in [{section}] for family '{family}'",
                               key=key)
    for section in family_keys:
        if section != "output" and not cp.has_section(section):
            raise ConfigError(f"{path}: family '{family}' requires a [{section}] section")

    cfg = ScenarioConfig(family=family, prefix=family)
    cfg.config_path = path
    cfg.config_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()

    if "constellation" in family_keys:
        _load_constellation(src, cp, cfg)
    if "keystream" in family_keys:
        _load_keystream(src, cp, cfg)
    _load_scenario(src, cp, cfg)
    if cp.has_section("output"):
        _load_output(src, cp, cfg)
    if out_dir is not None:
        cfg.out_dir = out_dir
    if master_seed is not None:
        cfg.master_seed = master_seed
    if threads is not None and threads < 1:
        raise src.fail("threads must be positive")
    # a value from the file names its line, a command-line override does not
    if cfg.master_seed < 0:
        raise src.fail("master_seed must be a nonnegative integer",
                       key="master_seed" if master_seed is None else None)
    _validate_family(src, cfg)
    return cfg


def _load_constellation(src: _Source, cp: configparser.ConfigParser,
                        cfg: ScenarioConfig) -> None:
    sec = cp["constellation"]
    grid = cfg.family == "bounds"
    points = []
    for name, parse, check in (("m", _parse_int, codec._check_m),
                               ("energy", _parse_float, codec._check_energy)):
        key = f"{name}_grid" if grid else name
        if key not in sec:
            raise src.fail(f"missing '{key}' in [constellation]", section="constellation")
        values = _parse_list(src, key, sec[key], parse) if grid else [parse(src, key, sec[key])]
        with src.at(key):
            for v in values:
                check(v)
        points.append(values)
    cfg.m_grid, cfg.energy_grid = points
    if "osk" in sec:
        cfg.osk = _parse_bool(src, "osk", sec["osk"])


def _load_keystream(src: _Source, cp: configparser.ConfigParser,
                    cfg: ScenarioConfig) -> None:
    sec = cp["keystream"]
    if "poly" in sec and "degree" in sec:
        raise src.fail("give either 'poly' or 'degree', not both", key="degree")
    if "poly" in sec:
        cfg.poly = _parse_int(src, "poly", sec["poly"])
        with src.at("poly"):
            codec._check_poly(cfg.poly)
    elif "degree" in sec:
        degree = _parse_int(src, "degree", sec["degree"])
        if degree not in codec.PRIMITIVE_POLYS:
            raise src.fail(
                f"no built-in primitive polynomial of degree {degree}; "
                f"available degrees are {sorted(codec.PRIMITIVE_POLYS)}", key="degree")
        cfg.poly = codec.PRIMITIVE_POLYS[degree]
    else:
        raise src.fail("missing 'poly' (or 'degree') in [keystream]", section="keystream")
    if "seed" not in sec:
        raise src.fail("missing 'seed' in [keystream]", section="keystream")
    cfg.seed_register = _parse_int(src, "seed", sec["seed"])
    with src.at("seed"):
        codec._check_seed(cfg.key_bits, cfg.seed_register)


def _load_scenario(src: _Source, cp: configparser.ConfigParser,
                   cfg: ScenarioConfig) -> None:
    sec = cp["scenario"]
    if "methods" in sec:
        cfg.methods = [m.strip().lower() for m in sec["methods"].split(",") if m.strip()]
        for m in cfg.methods:
            if m not in ("bit", "srm", "updown"):
                raise src.fail(f"unknown bound method {m!r}", key="methods")
    if "n_symbols" in sec:
        cfg.n_symbols = _parse_int(src, "n_symbols", sec["n_symbols"])
        with src.at("n_symbols"):
            attacks._check_n_symbols(cfg.n_symbols)
    if "error_positions" in sec:
        cfg.error_positions = _parse_list(src, "error_positions",
                                          sec["error_positions"], _parse_int)
    if "misalign" in sec:
        cfg.misalign = _parse_float(src, "misalign", sec["misalign"])
        with src.at("misalign"):
            attacks._check_misalign(cfg.misalign)
    if "dsr" in sec:
        cfg.dsr = _parse_dsr(src, sec["dsr"])
    if "otp" in sec:
        cfg.otp = _parse_bool(src, "otp", sec["otp"])
    if "trials" in sec:
        cfg.trials = _parse_int(src, "trials", sec["trials"])
        with src.at("trials"):
            attacks._check_trials(cfg.trials)
    if "mi_trials" in sec:
        cfg.mi_trials = _parse_int(src, "mi_trials", sec["mi_trials"])
        if cfg.mi_trials:  # 0 skips the estimate
            with src.at("mi_trials"):
                attacks._check_mi_trials(cfg.mi_trials, cfg.n_symbols)
    if "mode" in sec:
        cfg.mode = sec["mode"].strip().lower()
        if cfg.family == "keygen":
            # keygen computes one curve, which the CSV's mode column names
            if cfg.mode != "ideal":
                raise src.fail("keygen mode must be 'ideal'", key="mode")
        elif cfg.mode not in ("ciphertext_only", "known_plaintext", "both"):
            raise src.fail("mode must be 'ciphertext_only', 'known_plaintext' or 'both'",
                           key="mode")
    if "regime" in sec:
        cfg.regime = sec["regime"].strip().lower()
        with src.at("regime"):
            attacks._check_regime(cfg.regime)
        # only the known-plaintext engine reads the regime
        if cfg.regime == "quantum" and cfg.mode == "ciphertext_only":
            raise src.fail("regime 'quantum' needs mode 'known_plaintext' or 'both'; "
                           "the ciphertext-only engine scores label records", key="regime")
    if "s_grid" in sec:
        cfg.s_grid = _parse_list(src, "s_grid", sec["s_grid"], _parse_float)
        with src.at("s_grid"):
            for s in cfg.s_grid:
                codec._check_energy(s)


def _load_output(src: _Source, cp: configparser.ConfigParser, cfg: ScenarioConfig) -> None:
    sec = cp["output"]
    if "out_dir" in sec:
        cfg.out_dir = sec["out_dir"].strip()
    if "prefix" in sec:
        prefix = sec["prefix"].strip()
        if not re.fullmatch(r"[A-Za-z0-9._-]+", prefix):
            raise src.fail("prefix may contain only letters, digits, '.', '_' and '-'",
                           key="prefix")
        cfg.prefix = prefix
    if "master_seed" in sec:
        cfg.master_seed = _parse_int(src, "master_seed", sec["master_seed"])


def _record_model(cfg: ScenarioConfig) -> "tuple[codec.Constellation, attacks.AttackScenario]":
    """The constellation and scenario of an attack or entropy run, as its engines take them."""
    return (codec.Constellation(m=cfg.m_grid[0], energy=cfg.energy_grid[0], osk=cfg.osk),
            attacks.AttackScenario.with_errors(cfg.n_symbols, cfg.error_positions,
                                       misalign=cfg.misalign, dsr=cfg.dsr))


def _validate_family(src: _Source, cfg: ScenarioConfig) -> None:
    if cfg.family == "bounds":
        if not cfg.methods:
            raise src.fail("bounds needs a nonempty 'methods' list", key="methods")
        if "updown" in cfg.methods:
            c = codec.Constellation(cfg.m_grid[0], cfg.energy_grid[0], cfg.osk)
            with src.at("osk"):
                codec._require_plain_pairing(c)
        for s in cfg.energy_grid:
            detection._check_gram_energy(s)
    elif cfg.family in ("attack", "entropy"):
        if cfg.n_symbols < 1:
            raise src.fail("this family requires 'n_symbols' in [scenario]",
                           section="scenario")
        # the caps bound N, and M for entropy, so no oversized record is ever built
        if cfg.family == "attack":
            attacks._check_attack_caps(cfg.key_bits, cfg.n_symbols)
        else:
            attacks._check_entropy_caps(cfg.key_bits, cfg.n_symbols, cfg.m_grid[0])
        with src.at("error_positions"):
            c, scenario = _record_model(cfg)
        with src.at("osk"):
            codec._require_plain_pairing(c)
        with src.at("m"):
            codec._check_basis_bits(c.bits_per_basis)
        if cfg.family == "entropy":
            # the engines' own checks; with mode 'both' the known-plaintext one is stricter
            with src.at("error_positions"):
                attacks._entropy_error_weight(scenario, cfg.regime)
            with src.at("dsr"):
                attacks._check_record_dsr(cfg.dsr, cfg.regime)
            if cfg.regime == "quantum":
                detection._check_wedge_energy(c.energy)
    elif cfg.family == "keygen":
        if len(cfg.s_grid) < 1:
            raise src.fail("keygen requires 's_grid' in [scenario]", section="scenario")
