"""Scenario configuration files.

Runs are driven by small INI files with four sections: [constellation],
[keystream], [scenario], [output].  Parsing is strict: unknown sections or
keys, malformed values, and cross-field inconsistencies all raise
ConfigError with the offending line where one can be located.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field

from .attacks import AttackScenario, Dsr, _check_record_dsr, _entropy_error_weight
from .codec import PRIMITIVE_POLYS
from .errors import ConfigError

FAMILIES = ("bounds", "attack", "entropy", "keygen")

_SECTION_KEYS = {
    "constellation": {"m", "m_grid", "energy", "energy_grid", "osk"},
    "keystream": {"poly", "degree", "seed"},
    "scenario": {"methods", "n_symbols", "error_positions", "misalign",
                 "dsr", "otp", "mi_trials", "trials", "mode", "regime",
                 "s_grid", "energy_factor"},
    "output": {"out_dir", "prefix", "master_seed", "threads"},
}

# which sections a family must provide
_REQUIRED_SECTIONS = {
    "bounds": ("constellation", "scenario"),
    "attack": ("constellation", "keystream", "scenario"),
    "entropy": ("constellation", "keystream", "scenario"),
    "keygen": ("scenario",),
}


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
    dsr: Dsr = field(default_factory=Dsr)
    otp: bool = False
    trials: int = 200
    mi_trials: int = 0
    mode: str = "ciphertext_only"
    regime: str = "classical"
    s_grid: "list[float]" = field(default_factory=list)
    keygen_mode: str = "ideal"
    energy_factor: float = 0.5
    out_dir: str = "."
    prefix: str = ""
    master_seed: int = 0
    threads: int = 1
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


def _parse_dsr(src: _Source, raw: str) -> Dsr:
    parts = raw.strip().split(":")
    kind = parts[0].strip().lower()
    if kind == "none" and len(parts) == 1:
        return Dsr()
    if kind in ("binary", "jitter") and len(parts) == 2:
        try:
            return Dsr(kind, float(parts[1]))
        except ValueError as exc:
            raise src.fail(f"bad dsr value: {exc}", key="dsr") from None
    raise src.fail("dsr must be 'none', 'binary:<flip_prob>' or 'jitter:<half_width>'",
                   key="dsr")


def load_config(path: str, family: str,
                out_dir: "str | None" = None,
                master_seed: "int | None" = None,
                threads: "int | None" = None) -> ScenarioConfig:
    """Parse and fully validate a scenario file for the given family.

    Command-line overrides for the output directory, master seed, and thread
    count take precedence over the [output] section.  All structural checks
    happen here, before any computation starts.
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

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise src.fail(f"unknown section [{section}]", section=section)
        for key in cp.options(section):
            if key not in _SECTION_KEYS[section]:
                raise src.fail(f"unknown key '{key}' in [{section}]", key=key)
    for section in _REQUIRED_SECTIONS[family]:
        if not cp.has_section(section):
            raise ConfigError(f"{path}: family '{family}' requires a [{section}] section")

    cfg = ScenarioConfig(family=family, prefix=family)
    cfg.config_path = path
    cfg.config_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()

    if cp.has_section("constellation"):
        _load_constellation(src, cp, cfg)
    if cp.has_section("keystream"):
        _load_keystream(src, cp, cfg)
    _load_scenario(src, cp, cfg)
    if cp.has_section("output"):
        _load_output(src, cp, cfg)
    if out_dir is not None:
        cfg.out_dir = out_dir
    if master_seed is not None:
        cfg.master_seed = master_seed
    if threads is not None:
        cfg.threads = threads
    # a value from the file names its line, a command-line override does not
    if cfg.threads < 1:
        raise src.fail("threads must be positive", key="threads" if threads is None else None)
    if cfg.master_seed < 0:
        raise src.fail("master_seed must be a nonnegative integer",
                       key="master_seed" if master_seed is None else None)
    _validate_family(src, cfg)
    return cfg


def _load_constellation(src: _Source, cp: configparser.ConfigParser,
                        cfg: ScenarioConfig) -> None:
    sec = cp["constellation"]
    if "m" in sec and "m_grid" in sec:
        raise src.fail("give either 'm' or 'm_grid', not both", key="m_grid")
    if "m" in sec:
        cfg.m_grid = [_parse_int(src, "m", sec["m"])]
    elif "m_grid" in sec:
        cfg.m_grid = _parse_list(src, "m_grid", sec["m_grid"], _parse_int)
    else:
        raise src.fail("missing 'm' (or 'm_grid') in [constellation]",
                       section="constellation")
    for m in cfg.m_grid:
        if m < 1 or (m & (m - 1)) != 0:
            raise src.fail(f"m values must be powers of two, got {m}",
                           key="m" if "m" in sec else "m_grid")
    if "energy" in sec and "energy_grid" in sec:
        raise src.fail("give either 'energy' or 'energy_grid', not both",
                       key="energy_grid")
    if "energy" in sec:
        cfg.energy_grid = [_parse_float(src, "energy", sec["energy"])]
    elif "energy_grid" in sec:
        cfg.energy_grid = _parse_list(src, "energy_grid", sec["energy_grid"], _parse_float)
    else:
        raise src.fail("missing 'energy' (or 'energy_grid') in [constellation]",
                       section="constellation")
    for s in cfg.energy_grid:
        if s < 0:
            raise src.fail("energies must be nonnegative",
                           key="energy" if "energy" in sec else "energy_grid")
    if "osk" in sec:
        cfg.osk = _parse_bool(src, "osk", sec["osk"])


def _load_keystream(src: _Source, cp: configparser.ConfigParser,
                    cfg: ScenarioConfig) -> None:
    sec = cp["keystream"]
    if "poly" in sec and "degree" in sec:
        raise src.fail("give either 'poly' or 'degree', not both", key="degree")
    if "poly" in sec:
        cfg.poly = _parse_int(src, "poly", sec["poly"])
        if cfg.poly.bit_length() - 1 < 2 or (cfg.poly & 1) == 0:
            raise src.fail("poly must be a degree>=2 bitmask with a constant term",
                           key="poly")
    elif "degree" in sec:
        degree = _parse_int(src, "degree", sec["degree"])
        if degree not in PRIMITIVE_POLYS:
            raise src.fail(
                f"no built-in primitive polynomial of degree {degree}; "
                f"available degrees are {sorted(PRIMITIVE_POLYS)}", key="degree")
        cfg.poly = PRIMITIVE_POLYS[degree]
    else:
        raise src.fail("missing 'poly' (or 'degree') in [keystream]", section="keystream")
    if "seed" not in sec:
        raise src.fail("missing 'seed' in [keystream]", section="keystream")
    cfg.seed_register = _parse_int(src, "seed", sec["seed"])
    if not 0 < cfg.seed_register < (1 << cfg.key_bits):
        raise src.fail(
            f"seed must be a nonzero register value below 2^{cfg.key_bits}", key="seed")


def _load_scenario(src: _Source, cp: configparser.ConfigParser,
                   cfg: ScenarioConfig) -> None:
    sec = cp["scenario"] if cp.has_section("scenario") else {}
    if "methods" in sec:
        cfg.methods = [m.strip().lower() for m in sec["methods"].split(",") if m.strip()]
        for m in cfg.methods:
            if m not in ("bit", "srm", "updown"):
                raise src.fail(f"unknown bound method {m!r}", key="methods")
    if "n_symbols" in sec:
        cfg.n_symbols = _parse_int(src, "n_symbols", sec["n_symbols"])
        if cfg.n_symbols < 1:
            raise src.fail("n_symbols must be positive", key="n_symbols")
    if "error_positions" in sec:
        cfg.error_positions = _parse_list(src, "error_positions",
                                          sec["error_positions"], _parse_int)
    if "misalign" in sec:
        cfg.misalign = _parse_float(src, "misalign", sec["misalign"])
    if "dsr" in sec:
        cfg.dsr = _parse_dsr(src, sec["dsr"])
    if "otp" in sec:
        cfg.otp = _parse_bool(src, "otp", sec["otp"])
    if "trials" in sec:
        cfg.trials = _parse_int(src, "trials", sec["trials"])
        if cfg.trials < 1:
            raise src.fail("trials must be positive", key="trials")
    if "mi_trials" in sec:
        cfg.mi_trials = _parse_int(src, "mi_trials", sec["mi_trials"])
        # the plug-in estimator needs two trials; 0 skips it
        if cfg.mi_trials < 0 or cfg.mi_trials == 1:
            raise src.fail("mi_trials must be 0 or at least 2", key="mi_trials")
    if "mode" in sec:
        val = sec["mode"].strip().lower()
        if cfg.family == "keygen":
            if val not in ("ideal", "randomized"):
                raise src.fail("keygen mode must be 'ideal' or 'randomized'", key="mode")
            cfg.keygen_mode = val
        else:
            if val not in ("ciphertext_only", "known_plaintext", "both"):
                raise src.fail(
                    "mode must be 'ciphertext_only', 'known_plaintext' or 'both'",
                    key="mode")
            cfg.mode = val
    if "regime" in sec:
        cfg.regime = sec["regime"].strip().lower()
        if cfg.regime not in ("classical", "quantum"):
            raise src.fail("regime must be 'classical' or 'quantum'", key="regime")
    if "s_grid" in sec:
        cfg.s_grid = _parse_list(src, "s_grid", sec["s_grid"], _parse_float)
        for s in cfg.s_grid:
            if s < 0:
                raise src.fail("s_grid energies must be nonnegative", key="s_grid")
    if "energy_factor" in sec:
        cfg.energy_factor = _parse_float(src, "energy_factor", sec["energy_factor"])
        if not 0.0 < cfg.energy_factor <= 1.0:
            raise src.fail("energy_factor must lie in (0, 1]", key="energy_factor")


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
    if "threads" in sec:
        cfg.threads = _parse_int(src, "threads", sec["threads"])


def _validate_family(src: _Source, cfg: ScenarioConfig) -> None:
    if cfg.family == "bounds":
        if not cfg.methods:
            raise src.fail("bounds needs a nonempty 'methods' list", key="methods")
        if cfg.osk and "updown" in cfg.methods:
            raise src.fail("the updown bound assumes the fixed pairing; set osk = false "
                           "or drop updown from 'methods'", key="osk")
    elif cfg.family in ("attack", "entropy"):
        if cfg.n_symbols < 1:
            raise src.fail("this family requires 'n_symbols' in [scenario]",
                           section="scenario")
        if len(cfg.m_grid) != 1 or len(cfg.energy_grid) != 1:
            raise src.fail("this family takes a single 'm' and 'energy', not grids",
                           section="constellation")
        if cfg.osk:
            raise src.fail(
                "label-record analyses assume the fixed pairing; set osk = false",
                key="osk")
        if cfg.m_grid[0] < 2:
            raise src.fail("label-record analyses need m >= 2: at m = 1 no keystream "
                           "bit selects a basis", key="m")
        try:
            scenario = AttackScenario.with_errors(cfg.n_symbols, cfg.error_positions)
        except ValueError as exc:
            raise src.fail(str(exc), key="error_positions") from None
        if cfg.family == "entropy":
            # the engines' own checks; with mode 'both' the known-plaintext one is stricter
            regime = "classical" if cfg.mode == "ciphertext_only" else cfg.regime
            for key, check, arg in (("error_positions", _entropy_error_weight, scenario),
                                    ("dsr", _check_record_dsr, cfg.dsr)):
                try:
                    check(arg, regime)
                except ValueError as exc:
                    raise src.fail(str(exc), key=key) from None
    elif cfg.family == "keygen":
        if len(cfg.s_grid) < 1:
            raise src.fail("keygen requires 's_grid' in [scenario]", section="scenario")
