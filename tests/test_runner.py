"""Config loading, the four run families, output formats, and the CLI."""

import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import yzero
from yzero import cli, runner
from yzero.errors import ConfigError, RegimeCapError
from yzero.scenario import load_config


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
mode = randomized

[output]
prefix = kg
master_seed = 1
"""


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


def test_load_config_happy_path(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BOUNDS_CFG), "bounds")
    assert cfg.family == "bounds"
    assert cfg.m_grid == [4, 8]
    assert cfg.energy_grid == [1.0, 4.0]
    assert cfg.methods == ["bit", "srm", "updown"]
    assert cfg.prefix == "demo"
    assert cfg.master_seed == 11
    assert cfg.config_sha256 == hashlib.sha256(BOUNDS_CFG.encode()).hexdigest()


def test_load_config_attack_fields(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ATTACK_CFG), "attack")
    assert cfg.poly == 0x11D
    assert cfg.key_bits == 8
    assert cfg.seed_register == 0x5A
    assert cfg.n_symbols == 48
    assert cfg.otp is True
    assert cfg.mi_trials == 400


def test_load_config_overrides(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BOUNDS_CFG), "bounds",
                      out_dir="/tmp/elsewhere", master_seed=99, threads=4)
    assert cfg.out_dir == "/tmp/elsewhere"
    assert cfg.master_seed == 99
    assert cfg.threads == 4


def test_unknown_key_is_reported_with_line_number(tmp_path):
    for key, after, line in (("wavelength = 1550", "updown\n", 7),
                             ("impl = auto", "updown\n", 7),
                             # the constellation frame is the sender's: no global rotation
                             ("phase_offset = 0.7", "[constellation]\n", 2)):
        text = BOUNDS_CFG.replace(after, f"{after}{key}\n")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text), "bounds")
        assert f":{line}:" in str(err.value)
        assert f"unknown key '{key.split()[0]}'" in str(err.value)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, BOUNDS_CFG + "\n[laser]\npower = 1\n"),
                    "bounds")
    assert "[laser]" in str(err.value)


BAD_VALUES = [
    ("m", "attack", "m = 4", "m = 12", 2, "powers of two"),
    ("energy", "attack", "energy = 2.0", "energy = -2.0", 3, "nonnegative"),
    ("energy_grid", "bounds", "energy_grid = 1.0, 4.0", "energy_grid = 1.0, -4.0", 3,
     "nonnegative"),
    ("threads", "bounds", "master_seed = 11", "master_seed = 11\nthreads = 0", 11, "positive"),
    ("master_seed", "bounds", "master_seed = 11", "master_seed = -1", 10, "nonnegative"),
    # one trial passed the loader and then crashed the estimator
    ("mi_trials", "attack", "mi_trials = 400", "mi_trials = 1", 13, "0 or at least 2"),
    # these passed the loader and then crashed an entropy engine
    ("error_positions", "entropy", "dsr = binary:0.5", "dsr = binary:0.5\nerror_positions = 1, 2",
     15, "at most one"),
    ("quantum_dsr", "entropy", "regime = classical\ndsr = binary:0.5",
     "regime = quantum\ndsr = jitter:0.2", 14, "supports dsr 'none' or 'binary'"),
    ("quantum_error_positions", "entropy", "regime = classical",
     "regime = quantum\nerror_positions = 3", 14, "not index records"),
]


@pytest.mark.parametrize("key, family, old, new, line, text", BAD_VALUES,
                         ids=[case[0] for case in BAD_VALUES])
def test_bad_value_reports_the_offending_line(tmp_path, key, family, old, new, line, text):
    base = {"attack": ATTACK_CFG, "bounds": BOUNDS_CFG, "entropy": ENTROPY_CFG}[family]
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, base.replace(old, new)), family)
    assert f"cfg.ini:{line}: " in str(err.value)
    assert text in str(err.value)


def test_grid_and_scalar_are_mutually_exclusive(tmp_path):
    text = BOUNDS_CFG.replace("m_grid = 4, 8", "m = 4\nm_grid = 4, 8")
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, text), "bounds")
    assert "not both" in str(err.value)


def test_missing_required_section(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, KEYGEN_CFG), "attack")
    assert "requires a [constellation] section" in str(err.value)


def test_dsr_forms_parse(tmp_path):
    for raw, kind, param in (("none", "none", 0.0), ("binary:0.25", "binary", 0.25),
                             ("jitter:0.5", "jitter", 0.5)):
        text = ENTROPY_CFG.replace("dsr = binary:0.5", f"dsr = {raw}")
        cfg = load_config(write_cfg(tmp_path, text), "entropy")
        assert cfg.dsr.kind == kind and cfg.dsr.param == param
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
    for override in ({"threads": 0}, {"master_seed": -1}):
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, BOUNDS_CFG), "bounds", **override)
        assert str(err.value).startswith(str(tmp_path / "cfg.ini") + ": ")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, BOUNDS_CFG), "spectra")
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"), "bounds")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, ATTACK_CFG.replace(
            "n_symbols = 48", "n_symbols = 48\nerror_positions = 3, 99")), "attack")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, ATTACK_CFG.replace(
            "m = 4", "m = 4\nosk = true")), "attack")


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
    # a rerun and a threaded rerun must reproduce the data byte for byte
    runner.run_bounds(load_config(path, "bounds", out_dir=str(tmp_path)))
    assert read_file(tmp_path, "demo_bounds.csv") == first
    runner.run_bounds(load_config(path, "bounds", out_dir=str(tmp_path), threads=4))
    assert read_file(tmp_path, "demo_bounds.csv") == first


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


def test_run_keygen_outputs(tmp_path):
    cfg = load_config(write_cfg(tmp_path, KEYGEN_CFG), "keygen", out_dir=str(tmp_path))
    outputs = runner.run_keygen(cfg)
    assert outputs == ["kg_keygen.csv", "kg_manifest.json"]
    comment, header, rows = load_csv(tmp_path, "kg_keygen.csv")
    assert header == ["mode", "s", "p_error_bob", "p_error_eve", "advantage_bits",
                      "slope_bob", "slope_eve", "slope_ratio"]
    assert len(rows) == 5
    for r in rows:
        assert r[0] == "randomized"
        assert float(r[2]) < float(r[3])
        assert float(r[4]) > 0.0
    ratio = float(rows[0][7])
    assert 1.6 <= ratio <= 2.4


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
    assert set(manifest) == {"tool", "family", "master_seed", "threads", "config", "outputs",
                             "created_utc", "versions", "modeling", "tolerances"}
    assert manifest["tool"] == "yzero"
    assert manifest["family"] == "attack"
    assert manifest["master_seed"] == 7
    assert manifest["config"]["sha256"] == cfg.config_sha256
    assert "run_attack.json" in manifest["outputs"]
    assert manifest["modeling"]["entropy_hypothesis_space"].startswith("all 2^K")
    assert "coin flip" in manifest["modeling"]["label_axis_pair"]
    assert manifest["tolerances"] == {"mode_drop_bound": 2.0**-53}
    assert set(manifest["versions"]) == {"yzero", "python", "numpy"}


def test_validate_caps_stops_oversized_runs(tmp_path):
    big = ATTACK_CFG.replace("degree = 8", "degree = 20")
    big = big.replace("seed = 0x5A", "seed = 0x5A\n")
    big = big.replace("n_symbols = 48", "n_symbols = 128")
    cfg = load_config(write_cfg(tmp_path, big), "attack", out_dir=str(tmp_path))
    with pytest.raises(RegimeCapError):
        runner.run_attack(cfg)
    deep = ENTROPY_CFG.replace("degree = 8", "degree = 16")
    cfg2 = load_config(write_cfg(tmp_path, deep), "entropy", out_dir=str(tmp_path))
    with pytest.raises(RegimeCapError):
        runner.run_entropy(cfg2)


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


def test_cli_bounds_rejects_updown_on_a_scrambled_pairing(tmp_path, capsys):
    text = "[constellation]\nm_grid = 4\nenergy_grid = 1.0\nosk = true\n\n[scenario]\n"
    path = write_cfg(tmp_path, text)
    assert cli.main(["bounds", "--config", path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and ":4:" in err and "osk" in err
    # without the half-plane bound a scrambled pairing is a valid bounds run
    path = write_cfg(tmp_path, text + "methods = bit, srm\n", name="ok.ini")
    assert cli.main(["bounds", "--config", path, "--out-dir", str(tmp_path)]) == 0
    _, _, rows = load_csv(tmp_path, "bounds_bounds.csv")
    assert [r[2] for r in rows] == ["helstrom_mixed_bit", "srm_2M"]
    assert float(rows[0][3]) == 0.5
    capsys.readouterr()


@pytest.mark.parametrize("family,text", [("attack", ATTACK_CFG), ("entropy", ENTROPY_CFG)])
def test_cli_label_families_reject_a_single_pair(tmp_path, capsys, family, text):
    # m = 1 leaves no keystream bit to choose a basis: a config error on the m line
    path = write_cfg(tmp_path, text.replace("m = 4", "m = 1"))
    assert cli.main([family, "--config", path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and ":2:" in err and "m >= 2" in err


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy is a test oracle only: no CLI family loads any scipy module
    # the package under test, wherever it was imported from
    src = os.path.dirname(os.path.dirname(os.path.abspath(yzero.__file__)))
    code = ("import sys, yzero.cli; rc = yzero.cli.main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    for family, text in (("bounds", BOUNDS_CFG), ("attack", ATTACK_CFG),
                         ("entropy", QUANTUM_ENTROPY_CFG), ("keygen", KEYGEN_CFG)):
        path = write_cfg(tmp_path, text, name=f"{family}.ini")
        out = subprocess.run([sys.executable, "-c", code, family, "--config", path,
                              "--out-dir", str(tmp_path)], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120, check=True).stdout
        assert out.splitlines()[-1] == "0 []", family


def test_cli_reports_regime_caps(tmp_path, capsys):
    text = ENTROPY_CFG.replace("degree = 8", "degree = 16")
    path = write_cfg(tmp_path, text)
    code = cli.main(["entropy", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("regime cap: ")


def test_cli_seed_override_changes_outputs(tmp_path, capsys):
    path = write_cfg(tmp_path, ATTACK_CFG)
    assert cli.main(["attack", "--config", path, "--out-dir", str(tmp_path)]) == 0
    first = read_file(tmp_path, "run_attack.json")
    assert cli.main(["attack", "--config", path, "--out-dir", str(tmp_path),
                     "--seed", "7"]) == 0
    assert read_file(tmp_path, "run_attack.json") == first
    capsys.readouterr()
