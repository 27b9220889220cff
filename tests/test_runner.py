"""Config loading, the four run families, output formats, and the CLI."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import yzero
from yzero import attacks, cli, runner
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


def test_unknown_key_is_reported_with_line_number(tmp_path):
    for key, after, line in (("wavelength = 1550", "updown\n", 7),
                             ("impl = auto", "updown\n", 7),
                             # no family starts threads: the pool's key is gone
                             ("threads = 2", "master_seed = 11\n", 11),
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
    ("m", "attack", "m = 4", "m = 12", 2, "a positive power of two, got 12"),
    ("energy", "attack", "energy = 2.0", "energy = -2.0", 3, "nonnegative"),
    ("energy_grid", "bounds", "energy_grid = 1.0, 4.0", "energy_grid = 1.0, -4.0", 3,
     "nonnegative"),
    ("master_seed", "bounds", "master_seed = 11", "master_seed = -1", 10, "nonnegative"),
    # one trial passed the loader and then crashed the estimator
    ("mi_trials", "attack", "mi_trials = 400", "mi_trials = 1", 13, "at least two trials"),
    ("poly", "attack", "degree = 8", "poly = 0x11C", 6, "with a constant term"),
    # a negative mask has a bit length and a constant term, and the keystream's
    # GF(2) products never ended on it
    ("poly_negative", "attack", "degree = 8", "poly = -0x11D", 6, "must be a bitmask"),
    ("seed", "attack", "seed = 0x5A", "seed = 0x100", 7, "nonzero register value below 2^8"),
    ("n_symbols", "entropy", "n_symbols = 12", "n_symbols = 0", 10, "n_symbols must be positive"),
    ("trials", "entropy", "trials = 5", "trials = 0", 11, "trials must be positive"),
    ("regime", "entropy", "regime = classical", "regime = coherent", 13,
     "regime must be 'classical' or 'quantum'"),
    ("s_grid", "keygen", "s_grid = 2.0, 3.0", "s_grid = 2.0, -3.0", 2, "nonnegative, got -3.0"),
    ("energy_factor", "keygen", "mode = randomized", "mode = randomized\nenergy_factor = 0", 4,
     "energy_factor must lie in (0, 1]"),
    ("keygen_mode", "keygen", "mode = randomized", "mode = squeezed", 3,
     "keygen mode must be 'ideal' or 'randomized'"),
    ("osk", "attack", "m = 4", "m = 4\nosk = true", 3, "fixed bit-to-member pairing"),
    ("osk_updown", "bounds", "energy_grid = 1.0, 4.0", "energy_grid = 1.0, 4.0\nosk = true", 4,
     "fixed bit-to-member pairing; set osk = False"),
    # 1e7 rad left the wedge quadrature unconverged; 1e300 left a jittered record
    # without support
    ("misalign", "entropy", "dsr = binary:0.5", "dsr = binary:0.5\nmisalign = 6.3", 15,
     "misalign must lie in [-2 pi, 2 pi], got 6.3"),
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
    base = {"attack": ATTACK_CFG, "bounds": BOUNDS_CFG, "entropy": ENTROPY_CFG,
            "keygen": KEYGEN_CFG}[family]
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
    # a rerun must reproduce the data byte for byte
    runner.run_bounds(load_config(path, "bounds", out_dir=str(tmp_path)))
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


PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _perfbench_checks():
    """perfbench/checks.py, the output checks the benchmark applies to every run."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


# SHA-256 of each entropy workload's data JSON at 87a8f5d: the benchmark's
# 1e-9 float tolerance would pass a move in the last digits
ENTROPY_WORKLOAD_SHA256 = {
    ("entropy_misalign", 1): "cf1ea435b2ae3e2198d7b8fed245ea5d0ca80b2a510561fe59e12fff54e960c9",
    ("entropy_misalign", 2): "cf1ea435b2ae3e2198d7b8fed245ea5d0ca80b2a510561fe59e12fff54e960c9",
    ("entropy_jitter", 1): "b501d21afbc5e51468358c528bec5f46e3fb71371c377e504b386f2e24bfe0e9",
    ("entropy_jitter", 2): "2477085442f967a2feb202334a3e2d0fd0ba691b90585398fa8b37465addbce4",
    ("entropy_quantum", 1): "716e50afc33ccd8b1db51f10856e3e35936b5f42ad7a63cca8bd95cf3ada2ed0",
    ("entropy_quantum", 2): "faf89e97732d75db5d74f0f31001a9c45b3ea12fd4b1f2a530b88e0b2eb84790",
}


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
    data = read_file(tmp_path, f"{workload}_entropy.json")
    assert hashlib.sha256(data).hexdigest() == ENTROPY_WORKLOAD_SHA256[workload, seed]


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
    assert set(manifest) == {"tool", "family", "master_seed", "config", "outputs",
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


def test_entropy_m_cap_loads_at_the_cap_and_exits_3_past_it(tmp_path, capsys):
    # the engines build M x M tables per run; 2M x 2M for the quantum regime
    at_cap = ENTROPY_CFG.replace("m = 4", f"m = {attacks.ENTROPY_M_CAP}")
    cfg = load_config(write_cfg(tmp_path, at_cap), "entropy", out_dir=str(tmp_path))
    assert cfg.m_grid == [attacks.ENTROPY_M_CAP]
    over = ENTROPY_CFG.replace("m = 4", f"m = {2 * attacks.ENTROPY_M_CAP}")
    out = tmp_path / "out"
    argv = ["entropy", "--config", write_cfg(tmp_path, over), "--out-dir", str(out)]
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


@st.composite
def generated_configs(draw):
    """(family, config text) of any family at K <= 6, N <= 16, M <= 16, trials <= 3.

    Energies, angles, dsr parameters and s_grid values reach 1e308, and some
    other values fall outside the model, so every exit path is taken.
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
        maybe(con, "osk", st.booleans())
        maybe(sc, "methods", _items(st.sampled_from(["bit", "srm", "updown"])))
    elif family == "keygen":
        sc["s_grid"] = draw(_items(_floats(0.0, 50.0)))
        maybe(sc, "mode", st.sampled_from(["ideal", "randomized"]))
        maybe(sc, "energy_factor", _floats(0.0, 1.0))
    else:
        con["m"], con["energy"] = draw(m), draw(energy)
        maybe(con, "osk", st.booleans())
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
    return family, "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items())


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
@example(case=("keygen", KEYGEN_CFG.replace("2.0, 3.0", "1e308").replace("randomized", "ideal")))
# an M past the entropy engines' cap, whose M x M tables grow 4x per doubling
@example(case=("entropy", QUANTUM_AT(2048, 2.0, 0.0)))
# a negative feedback mask hung the keystream expansion
@example(case=("attack", ATTACK_CFG.replace("degree = 8", "poly = -0x11D")))
def test_generated_configs_end_in_an_exit_code_not_a_traceback(case):
    # exit 0 writes its outputs; a config error (2) or a cap (3) leaves no directory
    family, text = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = os.path.join(tmp, "out")
        argv = [family, "--config", write_cfg(pathlib.Path(tmp), text), "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 2, 3)
        assert os.path.exists(out) == (code == 0)


def test_cli_seed_override_changes_outputs(tmp_path, capsys):
    path = write_cfg(tmp_path, ATTACK_CFG)
    assert cli.main(["attack", "--config", path, "--out-dir", str(tmp_path)]) == 0
    first = read_file(tmp_path, "run_attack.json")
    assert cli.main(["attack", "--config", path, "--out-dir", str(tmp_path),
                     "--seed", "7"]) == 0
    assert read_file(tmp_path, "run_attack.json") == first
    capsys.readouterr()
