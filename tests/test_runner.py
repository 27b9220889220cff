"""Config loading, the four run families, output formats, and the CLI."""

import ast
import configparser
import contextlib
import csv
import hashlib
import hmac
import importlib.util
import io
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import data_pins
import detection_oracles
import yzero
from yzero import attacks, cli, codec, detection, runner
from yzero.errors import ConfigError, RegimeCapError
from yzero.scenario import FAMILIES, load_config


BOUNDS_CFG = """\
[constellation]
m_grid = 4, 8
energy_grid = 1.0, 4.0

[scenario]
methods = bit, srm, updown

[output]
prefix = demo
master_seed = 11
"""

ATTACK_CFG = """\
[constellation]
m = 4
energy = 2.0

[keystream]
degree = 8
seed = 0x5A

[scenario]
n_symbols = 48
dsr = none
otp = true
mi_trials = 400

[output]
prefix = run
master_seed = 7
"""

ENTROPY_CFG = """\
[constellation]
m = 4
energy = 2.0

[keystream]
degree = 8
seed = 0x5A

[scenario]
n_symbols = 12
trials = 5
mode = both
regime = classical
dsr = binary:0.5

[output]
prefix = ent
master_seed = 3
"""

KEYGEN_CFG = """\
[scenario]
s_grid = 2.0, 3.0, 4.0, 5.0, 6.0
mode = ideal

[output]
prefix = kg
master_seed = 1
"""

BASE_CFGS = {"bounds": BOUNDS_CFG, "attack": ATTACK_CFG, "entropy": ENTROPY_CFG,
             "keygen": KEYGEN_CFG}

# each family's whole schema, pinned: the keys its reader reads, by section.  A
# family takes exactly these keys and needs every section here but [output]
OUTPUT_KEYS = ("out_dir", "prefix", "master_seed")
SCHEMA = {
    "bounds": {"constellation": ("m_grid", "energy_grid"), "scenario": ("methods",),
               "output": OUTPUT_KEYS},
    "attack": {"constellation": ("m", "energy"), "keystream": ("poly", "degree", "seed"),
               "scenario": ("n_symbols", "error_positions", "misalign", "dsr", "otp",
                            "mi_trials"),
               "output": OUTPUT_KEYS},
    "entropy": {"constellation": ("m", "energy"), "keystream": ("poly", "degree", "seed"),
                "scenario": ("n_symbols", "error_positions", "misalign", "dsr", "trials",
                             "mode", "regime"),
                "output": OUTPUT_KEYS},
    "keygen": {"scenario": ("s_grid", "mode"), "output": OUTPUT_KEYS},
}
ACCEPTED = {family: [(section, key) for section, keys in table.items() for key in keys]
            for family, table in SCHEMA.items()}
# every (section, key) some family reads, in reading order
EVERY_KEY = list(dict.fromkeys(pair for pairs in ACCEPTED.values() for pair in pairs))
# a value for every key, which each family that reads the key takes
SAMPLE = {"m": "4", "energy": "2.0", "m_grid": "4", "energy_grid": "1.0", "poly": "0x11D",
          "degree": "8", "seed": "0x5A", "methods": "bit", "n_symbols": "12",
          "error_positions": "3", "misalign": "0.5", "dsr": "none", "otp": "true",
          "mi_trials": "5", "trials": "5", "mode": "both", "regime": "classical",
          "s_grid": "1.0", "out_dir": "elsewhere", "prefix": "p", "master_seed": "1"}


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_file(tmp_path, name) -> bytes:
    with open(os.path.join(str(tmp_path), name), "rb") as fh:
        return fh.read()


def load_csv(tmp_path, name):
    text = read_file(tmp_path, name).decode("utf-8").splitlines()
    assert text[0].startswith("# manifest: ")
    rows = list(csv.reader(text[1:]))
    return text[0], rows[0], rows[1:]


# a comment outside ASCII: the digest is of the file's UTF-8 bytes
UNICODE_BOUNDS_CFG = "# S \u2264 300 \u2014 \u00fc\n" + BOUNDS_CFG


def test_load_config_happy_path(tmp_path):
    cfg = load_config(write_cfg(tmp_path, UNICODE_BOUNDS_CFG), "bounds")
    assert cfg.family == "bounds"
    assert cfg.m_grid == [4, 8]
    assert cfg.energy_grid == [1.0, 4.0]
    assert cfg.methods == ["bit", "srm", "updown"]
    assert cfg.prefix == "demo"
    assert cfg.master_seed == 11
    assert cfg.config_sha256 == hashlib.sha256(UNICODE_BOUNDS_CFG.encode("utf-8")).hexdigest()


def test_config_sha256_falls_back_to_hashlib(tmp_path):
    # without the interpreter's built-in SHA-256 modules the loader takes
    # hashlib's, and the digest is the same
    src = os.path.dirname(os.path.dirname(os.path.abspath(yzero.__file__)))
    path = write_cfg(tmp_path, UNICODE_BOUNDS_CFG)
    code = ("import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from yzero import scenario\n"
            "cfg = scenario.load_config(sys.argv[1], 'bounds')\n"
            "print(json.dumps([cfg.config_sha256, 'hashlib' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code, path], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    digest = hashlib.sha256(UNICODE_BOUNDS_CFG.encode("utf-8")).hexdigest()
    assert json.loads(out.splitlines()[-1]) == [digest, True]


def test_load_config_attack_fields(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ATTACK_CFG), "attack")
    assert cfg.poly == 0x11D
    assert cfg.key_bits == 8
    assert cfg.seed_register == 0x5A
    assert cfg.attack_scenario.n_symbols == 48
    assert cfg.otp is True
    assert cfg.mi_trials == 400


def test_load_config_overrides(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BOUNDS_CFG), "bounds",
                      out_dir="/tmp/elsewhere", master_seed=99, threads=4)
    assert cfg.out_dir == "/tmp/elsewhere"
    assert cfg.master_seed == 99


def test_unknown_key_is_reported_with_line_number(tmp_path):
    for key, after, line in (("wavelength = 1550", "updown\n", 7),
                             ("impl = auto", "updown\n", 7),
                             # keygen's coherent fraction f is the curve at f S: no knob
                             ("energy_factor = 0.5", "updown\n", 7),
                             # no family starts threads: the pool's key is gone
                             ("threads = 2", "master_seed = 11\n", 11),
                             # the constellation frame is the sender's: no global rotation
                             ("phase_offset = 0.7", "[constellation]\n", 2)):
        text = BOUNDS_CFG.replace(after, f"{after}{key}\n")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text), "bounds")
        assert f":{line}:" in str(err.value)
        assert f"unknown key '{key.split()[0]}'" in str(err.value)


# keys of one family in another's config, which the loader used to accept and ignore:
# (family, text the key follows, text ending in the key's "name = value", its line)
FOREIGN_KEYS = [
    ("bounds", "updown\n", "mi_trials = 5", 7),
    ("bounds", "updown\n", "otp = true", 7),
    ("bounds", "updown\n", "dsr = binary:0.5", 7),
    ("bounds", "updown\n", "s_grid = 1.0", 7),
    ("bounds", "updown\n", "mode = both", 7),
    ("attack", "mi_trials = 400\n", "mode = both", 14),
    ("attack", "mi_trials = 400\n", "trials = 5", 14),
    ("attack", "mi_trials = 400\n", "regime = quantum", 14),
    ("entropy", "dsr = binary:0.5\n", "otp = true", 15),
    ("entropy", "dsr = binary:0.5\n", "methods = bit", 15),
    ("keygen", "mode = ideal\n", "n_symbols = 8", 4),
    # keygen reads no constellation; "" puts the section first
    ("keygen", "", "[constellation]\nm = 4", 2),
    # each family reads one spelling of the constellation
    ("bounds", "energy_grid = 1.0, 4.0\n", "m = 4", 4),
    ("bounds", "energy_grid = 1.0, 4.0\n", "energy = 1.0", 4),
    ("attack", "energy = 2.0\n", "m_grid = 4", 4),
    ("attack", "energy = 2.0\n", "energy_grid = 2.0", 4),
    ("entropy", "energy = 2.0\n", "m_grid = 4", 4),
    ("entropy", "energy = 2.0\n", "energy_grid = 2.0", 4),
    # a key keygen reads in [scenario], set again in [output]: the error names
    # the [output] line, not the first line that sets the name
    ("keygen", "prefix = kg\n", "mode = ideal", 7),
]


def _foreign_row(family, section, key):
    """A row that adds ``key`` to the family's base config, first in its [section]."""
    base, header = BASE_CFGS[family], f"[{section}]\n"
    entry = f"{key} = {SAMPLE[key]}"
    if header in base:
        return family, header, entry, base[:base.index(header)].count("\n") + 2
    return family, "", header + entry, 2


# the schema's cross product: every key some family reads, in every family that
# does not read it, beyond the (family, key) pairs above
_COVERED = {(case[0], case[2].split()[-3]) for case in FOREIGN_KEYS}
FOREIGN_KEYS += [_foreign_row(family, section, key) for family in SCHEMA
                 for section, key in EVERY_KEY
                 if (section, key) not in ACCEPTED[family] and (family, key) not in _COVERED]


@pytest.mark.parametrize("family, after, key, line", FOREIGN_KEYS,
                         ids=[f"{case[0]}-{case[2].split()[-3]}" for case in FOREIGN_KEYS])
def test_keys_the_family_never_reads_are_rejected(tmp_path, capsys, family, after, key, line):
    text = BASE_CFGS[family].replace(after, f"{after}{key}\n", 1)
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([family, "--config", path, "--out-dir", str(out)]) == 2
    name = key.split()[-3]
    # the key's section is the last one opened above its line
    section = re.findall(r"^\[(\w+)\]$", "\n".join(text.splitlines()[:line]), re.M)[-1]
    assert capsys.readouterr().err == (f"config error: {path}:{line}: unknown key '{name}' "
                                       f"in [{section}] for family '{family}'\n")
    assert not out.exists()


@pytest.mark.parametrize("family, section, key",
                         [(family, *pair) for family, pairs in ACCEPTED.items() for pair in pairs],
                         ids=lambda value: value)
def test_keys_the_family_reads_load(tmp_path, family, section, key):
    # the other half of the schema's cross product: each key in the family's
    # table loads, set by its base config or added to it
    text = BASE_CFGS[family]
    if key == "poly":
        # poly and degree spell one key; a config gives one of them
        text = text.replace("degree = 8\n", "")
    if not re.search(rf"^{key} = ", text, re.M):
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {SAMPLE[key]}\n")
    cfg = load_config(write_cfg(tmp_path, text), family)
    assert cfg.family == family


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, BOUNDS_CFG + "\n[laser]\npower = 1\n"),
                    "bounds")
    assert "[laser]" in str(err.value)


BAD_VALUES = [
    ("m", "attack", "m = 4", "m = 12", 2, "a positive power of two, got 12"),
    ("energy", "attack", "energy = 2.0", "energy = -2.0", 3, "nonnegative"),
    ("energy_grid", "bounds", "energy_grid = 1.0, 4.0", "energy_grid = 1.0, -4.0", 3,
     "nonnegative"),
    ("master_seed", "bounds", "master_seed = 11", "master_seed = -1", 10, "nonnegative"),
    # --seed and the file's key are a U64; 2^64 ran
    ("master_seed_u64", "bounds", "master_seed = 11", "master_seed = 18446744073709551616", 10,
     "nonnegative integer below 2^64"),
    # one trial passed the loader and then crashed the estimator
    ("mi_trials", "attack", "mi_trials = 400", "mi_trials = 1", 13, "at least two trials"),
    ("poly", "attack", "degree = 8", "poly = 0x11C", 6, "with a constant term"),
    # a negative mask has a bit length and a constant term, and the keystream's
    # GF(2) products never ended on it
    ("poly_negative", "attack", "degree = 8", "poly = -0x11D", 6, "must be a bitmask"),
    ("seed", "attack", "seed = 0x5A", "seed = 0x100", 7, "nonzero register value below 2^8"),
    # entropy needs no seed, but a given one is checked
    ("seed_entropy", "entropy", "seed = 0x5A", "seed = 0x100", 7,
     "nonzero register value below 2^8"),
    ("n_symbols", "entropy", "n_symbols = 12", "n_symbols = 0", 10, "n_symbols must be positive"),
    ("trials", "entropy", "trials = 5", "trials = 0", 11, "trials must be positive"),
    ("regime", "entropy", "regime = classical", "regime = coherent", 13,
     "regime must be 'classical' or 'quantum'"),
    ("s_grid", "keygen", "s_grid = 2.0, 3.0", "s_grid = 2.0, -3.0", 2, "nonnegative, got -3.0"),
    ("keygen_mode", "keygen", "mode = ideal", "mode = randomized", 3,
     "keygen mode must be 'ideal'"),
    # the cipher has one bit-to-member pairing; no family reads a scrambling flag
    ("osk", "attack", "m = 4", "m = 4\nosk = true", 3,
     "unknown key 'osk' in [constellation] for family 'attack'"),
    ("osk_updown", "bounds", "energy_grid = 1.0, 4.0", "energy_grid = 1.0, 4.0\nosk = true", 4,
     "unknown key 'osk' in [constellation] for family 'bounds'"),
    ("osk_entropy", "entropy", "m = 4", "m = 4\nosk = true", 3,
     "unknown key 'osk' in [constellation] for family 'entropy'"),
    ("osk_keygen", "keygen", "[output]", "[constellation]\nosk = true\n\n[output]", 6,
     "unknown key 'osk' in [constellation] for family 'keygen'"),
    # 1e7 rad left the wedge quadrature unconverged; 1e300 left a jittered record
    # without support
    ("misalign", "entropy", "dsr = binary:0.5", "dsr = binary:0.5\nmisalign = 6.3", 15,
     "misalign must lie in [-2 pi, 2 pi], got 6.3"),
    # these passed the loader and then crashed an entropy engine
    ("error_positions", "entropy", "dsr = binary:0.5", "dsr = binary:0.5\nerror_positions = 1, 2",
     15, "at most one"),
    # the scenario's own position check, at the key's line
    ("error_positions_outside", "attack", "n_symbols = 48",
     "n_symbols = 48\nerror_positions = 3, 99", 11, "error position 99 outside [0, 48)"),
    ("error_positions_repeated", "attack", "n_symbols = 48",
     "n_symbols = 48\nerror_positions = 3, 3", 11, "error positions must be distinct"),
    ("quantum_dsr", "entropy", "regime = classical\ndsr = binary:0.5",
     "regime = quantum\ndsr = jitter:0.2", 14, "supports dsr 'none' or 'binary'"),
    ("quantum_error_positions", "entropy", "regime = classical",
     "regime = quantum\nerror_positions = 3", 14, "not index records"),
    # the ciphertext-only engine, also the default mode's, ran classical labels
    ("quantum_ciphertext_only", "entropy", "mode = both\nregime = classical",
     "mode = ciphertext_only\nregime = quantum", 13, "regime 'quantum' needs mode"),
    ("quantum_default_mode", "entropy", "mode = both\nregime = classical",
     "regime = quantum", 12, "regime 'quantum' needs mode"),
    # a missing required key and an empty list read the same for every key
    ("n_symbols_missing", "entropy", "n_symbols = 12\n", "", 9,
     "missing 'n_symbols' in [scenario]"),
    ("seed_missing", "attack", "seed = 0x5A\n", "", 5, "missing 'seed' in [keystream]"),
    ("s_grid_missing", "keygen", "s_grid = 2.0, 3.0, 4.0, 5.0, 6.0\n", "", 1,
     "missing 's_grid' in [scenario]"),
    ("methods_empty", "bounds", "methods = bit, srm, updown", "methods =", 6,
     "'methods' must be a nonempty comma-separated list"),
]


@pytest.mark.parametrize("key, family, old, new, line, text", BAD_VALUES,
                         ids=[case[0] for case in BAD_VALUES])
def test_bad_value_reports_the_offending_line(tmp_path, key, family, old, new, line, text):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, BASE_CFGS[family].replace(old, new)), family)
    assert f"cfg.ini:{line}: " in str(err.value)
    assert text in str(err.value)


@pytest.mark.parametrize("raw", sorted(configparser.ConfigParser.BOOLEAN_STATES))
def test_boolean_keys_take_the_configparser_spellings_in_any_case(tmp_path, raw):
    for spelling in (raw, raw.upper()):
        text = ATTACK_CFG.replace("otp = true", f"otp = {spelling}")
        cfg = load_config(write_cfg(tmp_path, text), "attack")
        assert cfg.otp is configparser.ConfigParser.BOOLEAN_STATES[raw]


def test_csv_cells_are_the_csv_modules_own_text(tmp_path):
    # floats by repr, numpy scalars as their Python values, None as an empty cell
    path = tmp_path / "rows.csv"
    runner._write_csv(str(path), "m.json", "0" * 64, ["a", "b", "c"],
                      [[np.float64(0.1), np.int64(3), None], [5e-324, 7, "x"]])
    assert path.read_text(encoding="utf-8").splitlines()[1:] == ["a,b,c", "0.1,3,", "5e-324,7,x"]


def _without(text, section):
    return re.sub(rf"\[{section}\]\n(?:.+\n)*\n?", "", text)


# (family, config text, the error it gives or None); each is loaded with an
# out_dir override, as the CLI's --out-dir gives one
MISSING_SECTIONS = {
    f"{family}-{section}": (family, _without(BASE_CFGS[family], section),
                            f"family '{family}' requires a [{section}] section")
    for family, table in SCHEMA.items() for section in table if section != "output"}
# [output] is not required, and its out_dir is read, not unknown, under the override
MISSING_SECTIONS["bounds-out_dir_overridden"] = (
    "bounds", BOUNDS_CFG.replace("[output]\n", "[output]\nout_dir = elsewhere\n"), None)
# two faults: the unknown key comes first in the file, but the reader meets the
# missing section first, and an unread key is reported only once it returns
MISSING_SECTIONS["attack-keystream_before_unknown_key"] = (
    "attack",
    _without(ATTACK_CFG, "keystream").replace("energy = 2.0\n", "energy = 2.0\nosk = 1\n"),
    "family 'attack' requires a [keystream] section")


@pytest.mark.parametrize("family, text, message", MISSING_SECTIONS.values(),
                         ids=MISSING_SECTIONS.keys())
def test_missing_required_section(tmp_path, family, text, message):
    path = write_cfg(tmp_path, text)
    override = str(tmp_path / "out")
    if message is None:
        assert load_config(path, family, out_dir=override).out_dir == override
        assert load_config(path, family).out_dir == "elsewhere"
        return
    with pytest.raises(ConfigError) as err:
        load_config(path, family, out_dir=override)
    assert str(err.value) == f"{path}: {message}"


def test_dsr_forms_parse(tmp_path):
    for raw, kind, param in (("none", "none", 0.0), ("binary:0.25", "binary", 0.25),
                             ("jitter:0.5", "jitter", 0.5)):
        text = ENTROPY_CFG.replace("dsr = binary:0.5", f"dsr = {raw}")
        cfg = load_config(write_cfg(tmp_path, text), "entropy")
        assert cfg.attack_scenario.dsr == attacks.Dsr(kind, param)
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, ENTROPY_CFG.replace(
            "dsr = binary:0.5", "dsr = gauss:0.5")), "entropy")


def test_more_rejections(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, ATTACK_CFG.replace("seed = 0x5A", "seed = 0")),
                    "attack")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, ATTACK_CFG.replace("degree = 8", "degree = 21")),
                    "attack")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, BOUNDS_CFG.replace("prefix = demo",
                                                           "prefix = de mo")), "bounds")
    # a command-line value names no line of the file, even where the file sets the key
    for override in ({"threads": 0}, {"master_seed": -1}, {"master_seed": 2**64}):
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, BOUNDS_CFG), "bounds", **override)
        assert str(err.value).startswith(str(tmp_path / "cfg.ini") + ": ")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, BOUNDS_CFG), "spectra")
    # every family the loader takes has a runner
    assert set(runner.RUNNERS) == set(FAMILIES)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"), "bounds")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, ATTACK_CFG.replace(
            "n_symbols = 48", "n_symbols = 48\nerror_positions = 3, 99")), "attack")


def test_run_bounds_outputs_and_determinism(tmp_path):
    path = write_cfg(tmp_path, BOUNDS_CFG)
    cfg = load_config(path, "bounds", out_dir=str(tmp_path))
    outputs = runner.run_bounds(cfg)
    assert outputs == ["demo_bounds.csv", "demo_manifest.json"]
    first = read_file(tmp_path, "demo_bounds.csv")
    comment, header, rows = load_csv(tmp_path, "demo_bounds.csv")
    assert "demo_manifest.json" in comment
    assert cfg.config_sha256 in comment
    assert header == ["m", "s", "method", "p_error", "dim_used", "truncation_deficit"]
    assert len(rows) == 2 * 2 * 3
    methods = {r[2] for r in rows}
    assert methods == {"helstrom_mixed_bit", "srm_2M", "updown"}
    for r in rows:
        assert 0.0 <= float(r[3]) <= 1.0
    # a rerun must reproduce the data byte for byte
    runner.run_bounds(load_config(path, "bounds", out_dir=str(tmp_path)))
    assert read_file(tmp_path, "demo_bounds.csv") == first


def test_run_bounds_computes_one_gram_spectrum_per_grid_point(tmp_path, monkeypatch):
    # the benchmark's grid: 9 x 9 points, three methods at each
    points = []
    real = detection._gram_spectrum

    def counted(c):
        points.append((c.m, c.energy))
        return real(c)

    monkeypatch.setattr(detection, "_gram_spectrum", counted)
    runner.run_bounds(load_config(str(PERFBENCH / "workloads" / "bounds_grid.ini"), "bounds",
                                  out_dir=str(tmp_path)))
    assert len(points) == 81 == len(set(points))


def test_bounds_grid_csv_bytes_are_pinned(tmp_path):
    for seed in (1, 2):
        runner.run_bounds(load_config(str(PERFBENCH / "workloads" / "bounds_grid.ini"),
                                      "bounds", out_dir=str(tmp_path), master_seed=seed))
        data_pins.assert_pinned(tmp_path, "bounds_grid", seed)


def test_bounds_manifest_records_the_work(tmp_path, monkeypatch):
    # 9 M x 9 S: one weight spectrum per M and binary bound, one inverse FFT
    # in each; one Gram spectrum per point; one SVD per point and binary bound
    calls = {"ifft": 0, "svd": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    runner.run_bounds(load_config(str(PERFBENCH / "workloads" / "bounds_grid.ini"), "bounds",
                                  out_dir=str(tmp_path)))
    manifest = json.loads(read_file(tmp_path, "bounds_grid_manifest.json"))
    # a bounds run has no record model
    assert set(manifest) == {"tool", "family", "master_seed", "config", "outputs",
                             "created_utc", "telemetry", "versions", "tolerances",
                             "bounds_work"}
    assert manifest["tolerances"] == {"mode_drop_bound": 2.0**-53}
    assert manifest["bounds_work"] == {"gram_spectra": 81, "weight_spectra": 18,
                                       "svd_solves": 162}
    assert calls == {"ifft": 18, "svd": 162}


@settings(max_examples=25, deadline=None)
@given(ms=st.lists(st.sampled_from([2**j for j in range(10)]), min_size=1, max_size=3,
                   unique=True),
       energies=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=3, unique=True))
@example(ms=[512, 2], energies=[1000.0, 0.0, 300.0])
@example(ms=[1, 8], energies=[5.0])
def test_bounds_equal_the_per_call_oracle_bit_for_bit(ms, energies):
    want = {}
    for m in ms:
        for s in energies:
            c = codec.Constellation(m=m, energy=s)
            want[m, s, "helstrom_mixed_bit"] = detection_oracles.per_call_bit_bound(c)
            want[m, s, "srm_2M"] = detection_oracles.per_call_srm_error(c), c.n_states
            want[m, s, "updown"] = detection_oracles.per_call_updown_bound(c)
            b = detection.bit_bound(c)
            assert (b.p_error, b.dim_used) == want[m, s, "helstrom_mixed_bit"]
            assert detection.srm_mary_error(c).p_error == want[m, s, "srm_2M"][0]
            b = detection.updown_bound(c)
            assert (b.p_error, b.dim_used) == want[m, s, "updown"]
    text = (f"[constellation]\nm_grid = {', '.join(map(str, ms))}\n"
            f"energy_grid = {', '.join(map(repr, energies))}\n"
            "[scenario]\nmethods = bit, srm, updown\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(pathlib.Path(tmp), text)
        runner.run_bounds(load_config(path, "bounds", out_dir=tmp))
        _, _, rows = load_csv(tmp, "bounds_bounds.csv")
    assert len(rows) == len(want)
    for m, s, method, p_error, dim_used, _ in rows:
        assert (float(p_error), int(dim_used)) == want[int(m), float(s), method]


def test_run_attack_outputs(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ATTACK_CFG), "attack", out_dir=str(tmp_path))
    outputs = runner.run_attack(cfg)
    assert outputs == ["run_attack.json", "run_attack_seeds.csv",
                       "run_attack_otp_seeds.csv", "run_manifest.json"]
    payload = json.loads(read_file(tmp_path, "run_attack.json"))
    assert payload["key_bits"] == 8
    rec = payload["record"]
    assert rec["true_key_rank"] == 1
    assert rec["true_r_in_candidates"] is True
    assert rec["match_fraction_max"] == 1.0
    assert 0.9 < rec["mutual_info_estimate"] <= 1.0
    assert rec["notes"]["seed_space"] == 255
    otp = payload["otp_stage"]
    assert otp["notes"]["pad_identity_noiseless"] is True
    assert len(payload["transmitted_bits"]) == 48

    comment, header, rows = load_csv(tmp_path, "run_attack_seeds.csv")
    assert header == ["seed_hex", "match_fraction", "hamming_distance",
                      "exact_match", "is_true_seed"]
    assert len(rows) == 255
    true_rows = [r for r in rows if r[4] == "1"]
    assert len(true_rows) == 1
    assert true_rows[0][0] == "0x5a"
    assert float(true_rows[0][1]) == 1.0
    assert true_rows[0][2] == "0"
    for r in rows:
        assert int(r[2]) == round((1 - float(r[1])) * 48)


def test_run_attack_deterministic_json(tmp_path):
    path = write_cfg(tmp_path, ATTACK_CFG)
    runner.run_attack(load_config(path, "attack", out_dir=str(tmp_path)))
    first = read_file(tmp_path, "run_attack.json")
    seeds_first = read_file(tmp_path, "run_attack_seeds.csv")
    runner.run_attack(load_config(path, "attack", out_dir=str(tmp_path)))
    assert read_file(tmp_path, "run_attack.json") == first
    assert read_file(tmp_path, "run_attack_seeds.csv") == seeds_first
    # a different master seed must change the drawn data
    runner.run_attack(load_config(path, "attack", out_dir=str(tmp_path),
                                  master_seed=8))
    assert read_file(tmp_path, "run_attack.json") != first


def test_run_entropy_outputs(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ENTROPY_CFG), "entropy",
                      out_dir=str(tmp_path))
    outputs = runner.run_entropy(cfg)
    assert outputs == ["ent_entropy.json", "ent_manifest.json"]
    payload = json.loads(read_file(tmp_path, "ent_entropy.json"))
    co = payload["ciphertext_only"]
    assert co["h_key"] == 8.0
    assert co["h_key_given_obs"] == 8.0
    assert co["h_data_given_obs"] == 12.0
    assert co["exceeds_key_entropy"] is True
    kp = payload["known_plaintext"]
    assert kp["regime"] == "known_plaintext_classical"
    assert kp["h_key_given_obs_and_data"] == 8.0


QUANTUM_ENTROPY_CFG = (ENTROPY_CFG.replace("mode = both", "mode = known_plaintext")
                       .replace("regime = classical", "regime = quantum")
                       .replace("dsr = binary:0.5", "dsr = none"))


def test_run_entropy_quantum_regime(tmp_path):
    cfg = load_config(write_cfg(tmp_path, QUANTUM_ENTROPY_CFG), "entropy",
                      out_dir=str(tmp_path))
    runner.run_entropy(cfg)
    payload = json.loads(read_file(tmp_path, "ent_entropy.json"))
    kp = payload["known_plaintext"]
    assert kp["regime"] == "known_plaintext_quantum"
    assert 0.0 <= kp["h_key_given_obs_and_data"] <= 8.0
    assert "ciphertext_only" not in payload


@pytest.mark.parametrize("text", [ENTROPY_CFG, QUANTUM_ENTROPY_CFG], ids=["classical", "quantum"])
def test_entropy_without_a_seed_writes_the_same_json(tmp_path, text):
    # each trial draws its own seed, so the key changes nothing but config_sha256
    payloads = []
    for name, variant in (("with", text), ("without", text.replace("seed = 0x5A\n", ""))):
        cfg = load_config(write_cfg(tmp_path, variant, name=f"{name}.ini"), "entropy",
                          out_dir=str(tmp_path / name))
        runner.run_entropy(cfg)
        payload = json.loads(read_file(tmp_path / name, "ent_entropy.json"))
        assert payload.pop("config_sha256") == cfg.config_sha256
        payloads.append((cfg.seed_register, payload))
    assert [seed for seed, _ in payloads] == [0x5A, None]
    assert payloads[0][1] == payloads[1][1]


@pytest.mark.parametrize("text, record_notes", [
    (ENTROPY_CFG, set(attacks._RECORD_NOTES["classical"])),
    (QUANTUM_ENTROPY_CFG, {"quantum_record_receiver"}),
    # the ciphertext-only half scores a label record whatever the regime
    (QUANTUM_ENTROPY_CFG.replace("mode = known_plaintext", "mode = both"),
     {*attacks._RECORD_NOTES["classical"], "quantum_record_receiver"}),
], ids=["classical", "quantum", "quantum-both"])
def test_entropy_manifest_notes_only_its_record_model(tmp_path, text, record_notes):
    # a label record names no heterodyne receiver, an index record no label rule
    cfg = load_config(write_cfg(tmp_path, text), "entropy", out_dir=str(tmp_path))
    runner.run_entropy(cfg)
    manifest = json.loads(read_file(tmp_path, "ent_manifest.json"))
    assert set(manifest["modeling"]) == {"lfsr", "dsr", "misalign_radians",
                                         "entropy_hypothesis_space", *record_notes}
    assert "tolerances" not in manifest


def test_quantum_regime_takes_a_jitter_that_draws_nothing(tmp_path):
    # jitter:0 draws nothing and records as none does, so its entropy JSON has
    # the same bytes but for the config hash; a positive jitter is refused
    data = {}
    for dsr in ("none", "jitter:0"):
        out = tmp_path / dsr.replace(":", "")
        text = QUANTUM_ENTROPY_CFG.replace("dsr = none", f"dsr = {dsr}")
        cfg = load_config(write_cfg(tmp_path, text), "entropy", out_dir=str(out))
        runner.run_entropy(cfg)
        data[dsr] = read_file(out, "ent_entropy.json").replace(cfg.config_sha256.encode(), b"")
    assert data["jitter:0"] == data["none"]
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, QUANTUM_ENTROPY_CFG.replace("dsr = none",
                                                                    "dsr = jitter:0.1")),
                    "entropy")
    assert "cfg.ini:14: " in str(err.value)
    assert "supports dsr 'none' or 'binary'" in str(err.value)


def _key_entropies(payload):
    """(name, value) of every key-entropy figure in an entropy JSON."""
    for section in ("ciphertext_only", "known_plaintext"):
        report = payload.get(section) or {}
        for name in ("h_key_given_obs", "h_key_given_obs_and_data"):
            if report.get(name) is not None:
                yield name, report[name]
        for name, value in report.get("notes", {}).items():
            if name.startswith(("h_key", "h_min", "h_max")):
                yield name, value


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([2, 4, 16]), degree=st.integers(4, 10), n=st.integers(8, 16),
       record=st.sampled_from(["misalign = 0.3", "dsr = jitter:0.2", "dsr = binary:0.1",
                               "dsr = jitter:0.2\nerror_positions = 3"]),
       seed=st.integers(1, 2**32))
@example(m=4, degree=4, n=8, record="misalign = 0.3", seed=1)
@example(m=16, degree=4, n=16, record="dsr = jitter:0.2", seed=1)
def test_entropy_json_key_entropies_lie_in_zero_to_key_bits(m, degree, n, record, seed):
    text = (ENTROPY_CFG.replace("m = 4", f"m = {m}").replace("degree = 8", f"degree = {degree}")
            .replace("seed = 0x5A", "seed = 0x5").replace("n_symbols = 12", f"n_symbols = {n}")
            .replace("dsr = binary:0.5", record).replace("master_seed = 3", f"master_seed = {seed}"))
    with tempfile.TemporaryDirectory() as out:
        cfg = load_config(write_cfg(pathlib.Path(out), text), "entropy", out_dir=out)
        runner.run_entropy(cfg)
        payload = json.loads(read_file(out, "ent_entropy.json"))
    values = list(_key_entropies(payload))
    assert len(values) == 6
    for name, h in values:
        # a zero entropy is +0.0: math.copysign sees the sign that == hides
        assert 0.0 <= h <= degree and math.copysign(1.0, h) == 1.0, (name, h)


PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _perfbench_checks():
    """perfbench/checks.py, the output checks the benchmark applies to every run."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["entropy_misalign", "entropy_jitter", "entropy_quantum"])
def test_entropy_workloads_match_the_benchmark_refs(tmp_path, workload, seed):
    # every figure within the benchmark's float tolerance of perfbench/refs.json,
    # and every byte as pinned
    ini = PERFBENCH / "workloads" / f"{workload}.ini"
    argv = ["entropy", "--config", str(ini), "--out-dir", str(tmp_path), "--seed", str(seed)]
    assert cli.main(argv) == 0
    refs = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))[workload]
    assert str(seed) in refs
    assert _perfbench_checks().check_entropy(str(tmp_path), str(ini), seed, refs) == []
    data_pins.assert_pinned(tmp_path, workload, seed)


def test_run_keygen_outputs(tmp_path):
    cfg = load_config(write_cfg(tmp_path, KEYGEN_CFG), "keygen", out_dir=str(tmp_path))
    outputs = runner.run_keygen(cfg)
    assert outputs == ["kg_keygen.csv", "kg_manifest.json"]
    comment, header, rows = load_csv(tmp_path, "kg_keygen.csv")
    assert header == ["mode", "s", "p_error_bob", "p_error_eve", "advantage_bits",
                      "slope_bob", "slope_eve", "slope_ratio"]
    assert len(rows) == 5
    for r in rows:
        assert r[0] == "ideal"
        assert float(r[2]) < float(r[3])
        assert float(r[4]) > 0.0
    ratio = float(rows[0][7])
    assert 1.6 <= ratio <= 2.4


def test_keygen_csv_bytes_are_pinned(tmp_path):
    path = write_cfg(tmp_path, KEYGEN_CFG)
    assert cli.main(["keygen", "--config", path, "--out-dir", str(tmp_path)]) == 0
    data_pins.assert_pinned(tmp_path, "keygen", 1)


def test_keygen_mode_defaults_to_the_curve_it_computes(tmp_path):
    # without ``mode`` a keygen config once loaded the entropy family's default
    cfg = load_config(write_cfg(tmp_path, KEYGEN_CFG.replace("mode = ideal\n", "")), "keygen",
                      out_dir=str(tmp_path))
    assert cfg.mode == "ideal"
    runner.run_keygen(cfg)
    _, _, rows = load_csv(tmp_path, "kg_keygen.csv")
    assert {r[0] for r in rows} == {"ideal"}
    manifest = json.loads(read_file(tmp_path, "kg_manifest.json"))
    # nor a keygen run
    assert "modeling" not in manifest


def test_run_keygen_fit_skipped_when_underdetermined(tmp_path):
    text = KEYGEN_CFG.replace("s_grid = 2.0, 3.0, 4.0, 5.0, 6.0",
                              "s_grid = 0.0, 2.0, 4.0")
    cfg = load_config(write_cfg(tmp_path, text), "keygen", out_dir=str(tmp_path))
    runner.run_keygen(cfg)
    _, _, rows = load_csv(tmp_path, "kg_keygen.csv")
    assert len(rows) == 3
    assert rows[0][5] == "" and rows[0][6] == "" and rows[0][7] == ""


def test_manifest_records_the_run(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ATTACK_CFG), "attack", out_dir=str(tmp_path))
    runner.run_attack(cfg)
    manifest = json.loads(read_file(tmp_path, "run_manifest.json"))
    # the mode-drop tolerance is the bounds' own
    assert set(manifest) == {"tool", "family", "master_seed", "config", "outputs",
                             "created_utc", "telemetry", "versions", "modeling",
                             "seed_csv_copied_from"}
    assert manifest["tool"] == "yzero"
    assert manifest["family"] == "attack"
    assert manifest["master_seed"] == 7
    assert manifest["config"]["sha256"] == cfg.config_sha256
    assert "run_attack.json" in manifest["outputs"]
    # a replay scores labels: no entropy hypothesis space, no heterodyne receiver
    assert set(manifest["modeling"]) == {"lfsr", "dsr", "misalign_radians",
                                         *attacks._RECORD_NOTES["classical"]}
    assert "coin flip" in manifest["modeling"]["label_axis_pair"]
    assert set(manifest["versions"]) == {"yzero", "python", "numpy"}
    assert manifest["versions"]["python"] == platform.python_version()
    # no dsr: the pad stage's counts equal the plain stage's
    assert manifest["seed_csv_copied_from"] == {"run_attack_otp_seeds.csv":
                                                "run_attack_seeds.csv"}


def _vmhwm_kb() -> int:
    with open("/proc/self/status", "rb") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(b"VmHWM:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's /proc")
def test_manifest_records_the_process_peak_rss(tmp_path):
    # the process's own VmHWM as the manifest is written: a high-water mark
    # never falls, so it lies between the one before the run and the one after
    before = _vmhwm_kb()
    runner.run_keygen(load_config(write_cfg(tmp_path, KEYGEN_CFG), "keygen",
                                  out_dir=str(tmp_path)))
    manifest = json.loads(read_file(tmp_path, "kg_manifest.json"))
    assert set(manifest["telemetry"]) == {"peak_rss_kb"}
    assert before <= manifest["telemetry"]["peak_rss_kb"] <= _vmhwm_kb()


@pytest.mark.parametrize("status", [None, b"Name:\tpython3\nVmRSS:\t  1024 kB\n"],
                         ids=["no_file", "no_line"])
def test_manifest_peak_rss_is_null_where_proc_has_none(tmp_path, monkeypatch, status):
    def fake_open(path, *args, **kwargs):
        if path != "/proc/self/status":
            return open(path, *args, **kwargs)
        if status is None:
            raise FileNotFoundError(path)
        return io.BytesIO(status)

    monkeypatch.setattr(runner, "open", fake_open, raising=False)
    runner.run_keygen(load_config(write_cfg(tmp_path, KEYGEN_CFG), "keygen",
                                  out_dir=str(tmp_path)))
    manifest = json.loads(read_file(tmp_path, "kg_manifest.json"))
    assert manifest["telemetry"] == {"peak_rss_kb": None}


def test_load_config_stops_oversized_runs(tmp_path):
    big = ATTACK_CFG.replace("degree = 8", "degree = 20")
    big = big.replace("seed = 0x5A", "seed = 0x5A\n")
    big = big.replace("n_symbols = 48", "n_symbols = 128")
    with pytest.raises(RegimeCapError):
        load_config(write_cfg(tmp_path, big), "attack", out_dir=str(tmp_path))
    deep = ENTROPY_CFG.replace("degree = 8", "degree = 16")
    with pytest.raises(RegimeCapError):
        load_config(write_cfg(tmp_path, deep), "entropy", out_dir=str(tmp_path))


@pytest.mark.parametrize("family, text", [
    ("attack", ATTACK_CFG.replace("degree = 8", "degree = 20").replace(
        "n_symbols = 48", f"n_symbols = {1 << 24}")),
    ("entropy", ENTROPY_CFG.replace("n_symbols = 12", f"n_symbols = {1 << 24}")),
    # the loader builds the scenario before the caps run; its error array waits for a reader
    ("attack", ATTACK_CFG.replace("n_symbols = 48",
                                  f"n_symbols = {10**12}\nerror_positions = 5")),
    ("entropy", ENTROPY_CFG.replace("n_symbols = 12",
                                    f"n_symbols = {10**12}\nerror_positions = 5")),
])
def test_an_over_cap_record_is_refused_before_it_is_allocated(tmp_path, capsys, family, text):
    # N = 2^24: a record built before the cap check peaks at 48 MB traced
    path = write_cfg(tmp_path, text)
    tracemalloc.start()
    try:
        with pytest.raises(RegimeCapError):
            load_config(path, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    out = tmp_path / "out"
    assert cli.main([family, "--config", path, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("regime cap: ")
    assert not out.exists()


@pytest.mark.parametrize("family, text", [("attack", ATTACK_CFG), ("entropy", ENTROPY_CFG)])
def test_a_record_run_builds_its_scenario_once(tmp_path, monkeypatch, family, text):
    # the loader builds the run's scenario and the runner scores that one
    built = []
    post_init = attacks.AttackScenario.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(attacks.AttackScenario, "__post_init__", counting)
    argv = [family, "--config", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len(built) == 1


def test_entropy_m_cap_loads_at_the_cap_and_exits_3_past_it(tmp_path, capsys):
    # the engines build M x M tables per run; 2M x 2M for the quantum regime
    at_cap = ENTROPY_CFG.replace("m = 4", f"m = {attacks.ENTROPY_M_CAP}")
    cfg = load_config(write_cfg(tmp_path, at_cap), "entropy", out_dir=str(tmp_path))
    assert cfg.constellation.m == attacks.ENTROPY_M_CAP
    over = ENTROPY_CFG.replace("m = 4", f"m = {2 * attacks.ENTROPY_M_CAP}")
    out = tmp_path / "out"
    argv = ["entropy", "--config", write_cfg(tmp_path, over), "--out-dir", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("regime cap: ")
    assert not out.exists()


def test_mi_trials_cap_loads_at_the_cap_and_exits_3_past_it(tmp_path, capsys):
    # the estimate holds whole (trials, N) arrays; ATTACK_CFG records N = 48 symbols
    at_cap = attacks.MI_CELL_CAP // 48
    text = ATTACK_CFG.replace("mi_trials = 400", f"mi_trials = {at_cap}")
    assert load_config(write_cfg(tmp_path, text), "attack").mi_trials == at_cap
    over = ATTACK_CFG.replace("mi_trials = 400", f"mi_trials = {at_cap + 1}")
    out = tmp_path / "out"
    argv = ["attack", "--config", write_cfg(tmp_path, over), "--out-dir", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("regime cap: ")
    assert not out.exists()


def test_cli_loads_the_config_once_through_its_module_name(tmp_path, monkeypatch, capsys):
    # the benchmark times set-up by wrapping yzero.cli.load_config
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return load_config(*args, **kwargs)

    monkeypatch.setattr(cli, "load_config", counting)
    assert cli.main(["keygen", "--config", write_cfg(tmp_path, KEYGEN_CFG),
                     "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_cli_happy_path(tmp_path, capsys):
    path = write_cfg(tmp_path, KEYGEN_CFG)
    code = cli.main(["keygen", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["kg_keygen.csv", "kg_manifest.json"]
    assert (tmp_path / "kg_keygen.csv").exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    path = write_cfg(tmp_path, ATTACK_CFG.replace("m = 4", "m = 12"))
    code = cli.main(["attack", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert ":2:" in err


def test_cli_refuses_a_seed_past_u64(tmp_path, capsys):
    # --seed is a U64: 2^64 ran, and 2^64 - 1 is the largest seed
    path = write_cfg(tmp_path, ENTROPY_CFG)
    argv = ["entropy", "--config", path, "--out-dir", str(tmp_path), "--seed"]
    assert cli.main(argv + [str(2**64)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path}: master_seed must be a nonnegative integer below 2^64\n"
    assert not (tmp_path / "ent_manifest.json").exists()
    assert cli.main(argv + [str(2**64 - 1)]) == 0
    capsys.readouterr()


def test_cli_bounds_rejects_updown_on_a_scrambled_pairing(tmp_path, capsys):
    # the cipher has one pairing: a scrambling flag is an unknown key, exit 2
    text = "[constellation]\nm_grid = 4\nenergy_grid = 1.0\nosk = true\n\n[scenario]\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["bounds", "--config", path, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "cfg.ini:4: unknown key 'osk' in [constellation] for family 'bounds'" in err
    assert not out.exists()


@pytest.mark.parametrize("family,text", [("attack", ATTACK_CFG), ("entropy", ENTROPY_CFG)])
def test_cli_label_families_reject_a_single_pair(tmp_path, capsys, family, text):
    # m = 1 leaves no keystream bit to choose a basis: a config error on the m line
    path = write_cfg(tmp_path, text.replace("m = 4", "m = 1"))
    assert cli.main([family, "--config", path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and ":2:" in err and "m >= 2" in err


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy is a test oracle only: no CLI family loads any scipy module.  Each
    # family loads only the yzero modules it runs, all of them by the time
    # load_config returns, and so numpy.random for the families that draw.
    # The quantum regime's record loads heterodyne and not detection, and no
    # family loads numpy.polynomial: the wedge quadrature's rule is written
    # out.  BLAS runs on one thread unless the environment sets a count.  No
    # family maps OpenSSL: the config digest is the interpreter's built-in
    # SHA-256, and importing yzero.cli blocks _hashlib, which numpy.random
    # would load through secrets and hmac
    # the package under test, wherever it was imported from
    src = os.path.dirname(os.path.dirname(os.path.abspath(yzero.__file__)))
    code = ("import json, os, sys, yzero.cli as cli\n"
            "own = lambda: sorted(m for m in sys.modules\n"
            "                     if m.startswith('yzero.')\n"
            "                     or m in ('numpy.random', 'numpy.polynomial'))\n"
            "load, at_load = cli.load_config, []\n"
            "cli.load_config = lambda *a, **k: (load(*a, **k), at_load.extend(own()))[0]\n"
            "rc = cli.main(sys.argv[1:])\n"
            "crypto = False\n"
            "if os.path.exists('/proc/self/maps'):\n"
            "    with open('/proc/self/maps') as fh:\n"
            "        crypto = 'libcrypto' in fh.read()\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "at_load, own(), os.environ.get('OPENBLAS_NUM_THREADS'), "
            "sys.modules.get('_hashlib') is not None, crypto]))")
    shared = ["yzero.cli", "yzero.codec", "yzero.errors", "yzero.runner", "yzero.scenario"]
    drawing = ["numpy.random", "yzero.attacks"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for family, text, own in (("bounds", BOUNDS_CFG, ["yzero.detection"]),
                              ("attack", ATTACK_CFG, drawing),
                              ("entropy", ENTROPY_CFG, drawing),
                              ("entropy", QUANTUM_ENTROPY_CFG, drawing + ["yzero.heterodyne"]),
                              ("keygen", KEYGEN_CFG, ["yzero.detection"])):
        path = write_cfg(tmp_path, text, name=f"{family}.ini")
        modules = sorted(shared + own)
        # unset, the CLI pins one thread; a count the caller set stands
        for blas in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            out = subprocess.run([sys.executable, "-c", code, family, "--config", path,
                                  "--out-dir", str(tmp_path)],
                                 env=dict(env, PYTHONPATH=src, **blas),
                                 capture_output=True, text=True, timeout=120, check=True).stdout
            threads = blas.get("OPENBLAS_NUM_THREADS", "1")
            result = json.loads(out.splitlines()[-1])
            assert result == [0, [], modules, modules, threads, False, False], (family, own, blas)


# what the hashes give; a CLI process must give the test process's own
HASHED = "S \u2264 300".encode("utf-8")
DIGESTS = ("[hashlib.sha256(HASHED).hexdigest(), hashlib.md5(HASHED).hexdigest(), "
           "hashlib.sha3_256(HASHED).hexdigest(), hashlib.blake2b(HASHED).hexdigest(), "
           "hmac.new(b'key', HASHED, 'sha256').hexdigest()]")


@pytest.mark.parametrize("before, openssl", [
    # a process that loaded OpenSSL's hashes first keeps them
    ("import hashlib", True),
    # the default: hashlib and hmac take CPython's built-in hashes
    ("", False),
    # without the built-in SHA-256 the config digest needs OpenSSL, so the
    # CLI leaves _hashlib loadable
    ("sys.modules['_sha2'] = sys.modules['_sha256'] = None", True),
], ids=["hashlib_first", "default", "no_builtin_sha256"])
def test_cli_openssl_default_keeps_every_hash(tmp_path, before, openssl):
    src = os.path.dirname(os.path.dirname(os.path.abspath(yzero.__file__)))
    code = (f"import sys\n{before}\n"
            "import yzero.cli as cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "assert rc == 0, rc\n"
            f"import hashlib, hmac, json\nHASHED = {HASHED!r}\n"
            "print(json.dumps([sys.modules.get('_hashlib') is not None, "
            f"hashlib.sha256.__module__, {DIGESTS}]))")
    path = write_cfg(tmp_path, ENTROPY_CFG)
    out = subprocess.run([sys.executable, "-c", code, "entropy", "--config", path,
                          "--out-dir", str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stderr == ""
    loaded, sha256_from, digests = json.loads(out.stdout.splitlines()[-1])
    assert loaded is openssl
    assert (sha256_from == "_hashlib") is openssl
    assert digests == eval(DIGESTS, {"hashlib": hashlib, "hmac": hmac, "HASHED": HASHED})
    with open(tmp_path / "out" / "ent_manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["sha256"] == hashlib.sha256(ENTROPY_CFG.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("family, text", [
    ("bounds", BOUNDS_CFG), ("attack", ATTACK_CFG), ("entropy", ENTROPY_CFG),
    ("entropy", QUANTUM_ENTROPY_CFG), ("keygen", KEYGEN_CFG),
], ids=["bounds", "attack", "entropy_classical", "entropy_quantum", "keygen"])
def test_a_run_imports_nothing_after_load_config_returns(tmp_path, family, text):
    # every module a run uses, numpy's lazily loaded subpackages included, is
    # set-up: sys.modules gains nothing between load_config's return and the
    # end of the run
    src = os.path.dirname(os.path.dirname(os.path.abspath(yzero.__file__)))
    code = ("import json, sys, yzero.cli as cli\n"
            "load, at_load = cli.load_config, []\n"
            "cli.load_config = lambda *a, **k: (load(*a, **k),\n"
            "                                   at_load.append(set(sys.modules)))[0]\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(set(sys.modules) - at_load[0])]))")
    path = write_cfg(tmp_path, text)
    out = subprocess.run([sys.executable, "-c", code, family, "--config", path,
                          "--out-dir", str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0, []]


@pytest.mark.parametrize("family", FAMILIES)
def test_a_run_closes_every_file_it_opens(tmp_path, family):
    # cli.main's exit hook freezes the heap, and frozen garbage is never
    # collected: a file left open in it would never be closed.  So under
    # -X dev, with a collection before the exit hooks run, no run may raise
    # a ResourceWarning, nor any unraisable exception
    src = os.path.dirname(os.path.dirname(os.path.abspath(yzero.__file__)))
    code = ("import gc, json, sys, warnings\n"
            "unraisable = []\n"
            "sys.unraisablehook = lambda u: unraisable.append(repr(u.exc_value))\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always', ResourceWarning)\n"
            "    import yzero.cli as cli\n"
            "    rc = cli.main(sys.argv[1:])\n"
            "    gc.collect()\n"
            "leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]\n"
            "print(json.dumps([rc, leaks, unraisable]))")
    path = write_cfg(tmp_path, BASE_CFGS[family])
    out = subprocess.run([sys.executable, "-X", "dev", "-c", code, family, "--config", path,
                          "--out-dir", str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0, [], []]


def test_runner_imports_no_private_engine_name():
    # the runner reads configs, calls engines and writes files; what the
    # loader and the engines decide stays behind their public names
    package = pathlib.Path(runner.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert {"attacks", "codec", "detection", "scenario"} <= modules
    tree = ast.parse(pathlib.Path(runner.__file__).read_text(encoding="utf-8"))

    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names if private(alias.name)]
    # nor reads one off the module
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)]
    assert names == []
    assert any(isinstance(node, ast.ImportFrom) and node.module in {"attacks", "detection"}
               for node in ast.walk(tree))


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        return _is_number(node.operand)
    return isinstance(node, ast.Constant) and type(node.value) in (int, float, complex)


def test_run_keygen_takes_its_fits_from_keygen_curve():
    # which points a fit takes, how many it needs and when a ratio exists
    # are detection's rule: the runner calls keygen_curve and compares no
    # number of its own
    tree = ast.parse(pathlib.Path(runner.__file__).read_text(encoding="utf-8"))
    run_keygen = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "run_keygen")
    calls = {node.func.id for node in ast.walk(run_keygen)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "keygen_curve" in calls
    assert "exponent_fit" not in {alias.name for node in ast.walk(tree)
                                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    compared = [ast.unparse(node) for node in ast.walk(run_keygen)
                if isinstance(node, ast.Compare)
                and any(map(_is_number, [node.left, *node.comparators]))]
    assert compared == []


@pytest.mark.parametrize("name", ["file", ""])
def test_cli_reports_an_output_directory_it_cannot_create(tmp_path, capsys, name):
    # an existing file or an empty path raised from os.makedirs (exit 1)
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = str(tmp_path / name) if name else name
    path = write_cfg(tmp_path, KEYGEN_CFG)
    assert cli.main(["keygen", "--config", path, "--out-dir", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot create output directory ")
    assert captured.out == ""
    assert (tmp_path / "file").read_text(encoding="utf-8") == ""


def test_cli_reports_regime_caps(tmp_path, capsys):
    text = ENTROPY_CFG.replace("degree = 8", "degree = 16")
    path = write_cfg(tmp_path, text)
    code = cli.main(["entropy", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("regime cap: ")


def test_cli_refuses_a_bounds_energy_past_the_cap_before_any_output(tmp_path, capsys):
    # above S ~ 1600 the pmf's rounding broke the spectrum mass check mid-run,
    # after the out dir existed
    path = write_cfg(tmp_path, BOUNDS_CFG.replace("energy_grid = 1.0, 4.0",
                                                  "energy_grid = 1.0, 3000"))
    out = tmp_path / "out"
    assert cli.main(["bounds", "--config", path, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("regime cap: ")
    assert not out.exists()


# any finite float a config can hold, beside each key's own range
ANY_FLOAT = st.floats(-1e308, 1e308)


def _floats(lo, hi):
    return st.one_of(st.floats(lo, hi), ANY_FLOAT).map(repr)


def _items(values):
    return st.lists(values, min_size=1, max_size=3).map(lambda v: ", ".join(map(str, v)))


def _mostly(valid, other):
    return st.sampled_from([valid] * 7 + [other]).flatmap(lambda values: values)


# every file a run of each family writes, after its prefix; with otp = true
# an attack run also writes attack_otp_seeds.csv
OUTPUT_NAMES = {"bounds": ["bounds.csv", "manifest.json"],
                "attack": ["attack.json", "attack_seeds.csv", "manifest.json"],
                "entropy": ["entropy.json", "manifest.json"],
                "keygen": ["keygen.csv", "manifest.json"]}


@st.composite
def generated_configs(draw):
    """(family, config text, planted) of any family at K <= 6, N <= 16, M <= 16, trials <= 3.

    Energies, angles, dsr parameters and s_grid values reach 1e308, and some
    other values fall outside the model, so every exit path is taken.
    `planted` is None or one of the names the run writes, at which the test
    puts a directory before the run.
    """
    family = draw(st.sampled_from(["bounds", "attack", "entropy", "keygen"]))
    m = _mostly(st.sampled_from([2, 4, 8, 16]), st.sampled_from([0, 1, 3]))
    energy = _mostly(st.floats(0.0, 20.0).map(repr), _floats(0.0, 2e4))
    sections = {"constellation": {}, "keystream": {}, "scenario": {}}
    con, key, sc = sections.values()

    def maybe(section, name, values):
        if draw(st.booleans()):
            section[name] = draw(values)

    if family == "bounds":
        con["m_grid"], con["energy_grid"] = draw(_items(m)), draw(_items(energy))
        maybe(sc, "methods", _items(st.sampled_from(["bit", "srm", "updown"])))
    elif family == "keygen":
        sc["s_grid"] = draw(_items(_floats(0.0, 50.0)))
        maybe(sc, "mode", _mostly(st.just("ideal"), st.just("randomized")))
    else:
        con["m"], con["energy"] = draw(m), draw(energy)
        if draw(st.booleans()):
            key["degree"] = draw(st.integers(2, 6))
        else:
            key["poly"] = draw(_mostly(st.sampled_from([0x7, 0xB, 0x13, 0x25, 0x43, 0x3F]),
                                       st.integers(-8, 127)))
        key["seed"] = draw(_mostly(st.integers(1, 3), st.integers(-1, 64)))
        n = draw(_mostly(st.integers(1, 16), st.just(0)))
        sc["n_symbols"] = n
        maybe(sc, "error_positions", _items(st.integers(-1, n)))
        maybe(sc, "misalign", _floats(-7.0, 7.0))
        maybe(sc, "dsr", st.one_of(
            st.just("none"), _floats(0.0, 1.0).map("binary:{}".format),
            _floats(0.0, 3.2).map("jitter:{}".format)))
        if family == "attack":
            maybe(sc, "otp", st.booleans())
            maybe(sc, "mi_trials", st.integers(0, 3))
        else:
            maybe(sc, "trials", st.integers(0, 3))
            maybe(sc, "mode", st.sampled_from(["ciphertext_only", "known_plaintext", "both"]))
            maybe(sc, "regime", st.sampled_from(["classical", "quantum"]))
    sections["output"] = {"master_seed": draw(st.integers(0, 2**32))}
    if family in ("bounds", "keygen"):
        del sections["keystream"]
    if family == "keygen":
        del sections["constellation"]
    # the default prefix is the family's name
    names = [f"{family}_{name}" for name in OUTPUT_NAMES[family]]
    if sc.get("otp"):
        names.append("attack_attack_otp_seeds.csv")
    planted = draw(st.sampled_from([None] * 7 + names))
    return family, "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items()), planted


QUANTUM_AT = QUANTUM_ENTROPY_CFG.replace("dsr = none", "misalign = {}").replace(
    "m = 4\nenergy = 2.0", "m = {}\nenergy = {}").format


@settings(max_examples=150, deadline=None)
@given(case=generated_configs())
# a misalignment far past a turn: the wedge quadrature stopped unconverged,
# its integrals summed to 0.04, a decision index was cast from NaN, and a
# jittered label record left no key any likelihood
@example(case=("entropy", QUANTUM_AT(16, 4.0, 1e7)))
@example(case=("entropy", QUANTUM_AT(4, 2.0, 1e300)))
@example(case=("entropy", QUANTUM_AT(4, 0.0, 1e300)))
@example(case=("entropy", ENTROPY_CFG.replace("mode = both", "mode = ciphertext_only").replace(
    "dsr = binary:0.5", "dsr = jitter:1e-300\nmisalign = 1e300")))
# heterodyne energies past the wedge quadrature's reach
@example(case=("entropy", QUANTUM_AT(2, 1e7, 0.0)))
@example(case=("entropy", QUANTUM_AT(16, 1e9, 0.0)))
@example(case=("entropy", QUANTUM_AT(2, 2e5, 0.3)))
# the key holder's squared distance overflowed, and so did the interceptor's 2 S
@example(case=("keygen", KEYGEN_CFG.replace("2.0, 3.0", "4.5e307, 1e308")))
@example(case=("keygen", KEYGEN_CFG.replace("2.0, 3.0", "1e308")))
# an M past the entropy engines' cap, whose M x M tables grow 4x per doubling
@example(case=("entropy", QUANTUM_AT(2048, 2.0, 0.0)))
# one trial past the mutual-information estimate's cell cap, at N = 48
@example(case=("attack", ATTACK_CFG.replace("mi_trials = 400",
                                            f"mi_trials = {attacks.MI_CELL_CAP // 48 + 1}")))
# a negative feedback mask hung the keystream expansion
@example(case=("attack", ATTACK_CFG.replace("degree = 8", "poly = -0x11D")))
def test_generated_configs_end_in_an_exit_code_not_a_traceback(case):
    # exit 0 writes its outputs; a config error (2) or a cap (3) leaves no
    # directory, unless the test planted one at an output name: then no
    # run can exit 0, and a run that loads writes until it meets it (2)
    # the @examples above plant nothing
    family, text, planted = (*case, None)[:3]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = os.path.join(tmp, "out")
        if planted:
            os.makedirs(os.path.join(out, planted))
        argv = [family, "--config", write_cfg(pathlib.Path(tmp), text), "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in ((2, 3) if planted else (0, 2, 3))
        assert os.path.exists(out) == (code == 0 or planted is not None)


def test_cli_seed_override_changes_outputs(tmp_path, capsys):
    path = write_cfg(tmp_path, ATTACK_CFG)
    assert cli.main(["attack", "--config", path, "--out-dir", str(tmp_path)]) == 0
    first = read_file(tmp_path, "run_attack.json")
    assert cli.main(["attack", "--config", path, "--out-dir", str(tmp_path),
                     "--seed", "7"]) == 0
    assert read_file(tmp_path, "run_attack.json") == first
    capsys.readouterr()
