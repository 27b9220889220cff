"""The quantitative claims of README.md, recomputed through the ``yzero`` command."""

import csv
import json

import pytest

import detection_oracles as oracles
from yzero import cli, codec

ONE_PAIR_ENERGIES = [0.0, 1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0,
                     6.0, 8.0, 10.0, 12.0]


def run_cli(tmp_path, family, text, name):
    path = tmp_path / f"{name}.ini"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / name
    assert cli.main([family, "--config", str(path), "--out-dir", str(out)]) == 0
    return out


def bounds_rows(out):
    lines = (out / "bounds_bounds.csv").read_text(encoding="utf-8").splitlines()
    return list(csv.DictReader(lines[1:]))


def test_binary_bounds_keep_at_most_414_modes(tmp_path, capsys):
    text = ("[constellation]\nm_grid = 2, 4, 8, 16, 32, 64, 128, 256, 512\n"
            "energy_grid = 1, 2, 5, 10, 20, 50, 100, 200, 300\n\n"
            "[scenario]\nmethods = bit, updown\n")
    rows = bounds_rows(run_cli(tmp_path, "bounds", text, "grid"))
    assert len(rows) == 2 * 9 * 9
    # README: "at most 414 modes over M up to 512 and S up to 300"
    assert max(int(r["dim_used"]) for r in rows) == 414
    capsys.readouterr()


@pytest.mark.parametrize("offset", [0.0, 0.7, -2.9])
def test_one_pair_bounds_are_within_4e_15_of_the_closed_form(tmp_path, capsys, offset):
    energies = ", ".join(repr(s) for s in ONE_PAIR_ENERGIES)
    text = (f"[constellation]\nm_grid = 1\nenergy_grid = {energies}\n"
            f"phase_offset = {offset!r}\n\n[scenario]\n")
    rows = bounds_rows(run_cli(tmp_path, "bounds", text, "pair"))
    checked = 0
    for r in rows:
        if r["method"] == "srm_2M":
            continue
        c = codec.Constellation(m=1, energy=float(r["s"]), phase_offset=offset)
        a0, a1 = c.amplitudes()
        assert abs(float(r["p_error"]) - oracles.pure_pair_error(a0, a1)) <= 4e-15
        checked += 1
    assert checked == 2 * len(ONE_PAIR_ENERGIES)
    capsys.readouterr()


def test_label_axis_jump_in_the_data_entropy(tmp_path, capsys):
    # README: M = 2, S = 4, K = 12, N = 32, 20 trials, master_seed 0
    base = ("[constellation]\nm = 2\nenergy = 4.0\n\n[keystream]\ndegree = 12\nseed = 0x5A5\n\n"
            "[scenario]\nn_symbols = 32\ntrials = 20\n")
    h_data = {}
    for name, dsr in (("sharp", "none"), ("jitter", "jitter:1e-9")):
        out = run_cli(tmp_path, "entropy", base + f"dsr = {dsr}\n", name)
        report = json.loads((out / "entropy_entropy.json").read_text(encoding="utf-8"))
        h_data[name] = report["ciphertext_only"]["h_data_given_obs"]
    assert h_data["sharp"] == 12.0
    assert round(h_data["jitter"], 2) == 26.99
    capsys.readouterr()
