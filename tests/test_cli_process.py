"""The CLI as a process: exit codes, stdout and stderr, data bytes, and how it ends."""

import ast
import csv
import os
import pathlib
import subprocess
import sys

import pytest

import yzero
from yzero import cli

PACKAGE = pathlib.Path(yzero.__file__).parent

CONFIGS = {
    "bounds": """\
[constellation]
m_grid = 2, 8
energy_grid = 1.0, 5.0
[scenario]
methods = bit, srm, updown
[output]
prefix = p_bounds
""",
    "attack": """\
[constellation]
m = 4
energy = 2.0
[keystream]
degree = 8
seed = 0x5A
[scenario]
n_symbols = 24
otp = true
mi_trials = 20
[output]
prefix = p_attack
""",
    "entropy": """\
[constellation]
m = 4
energy = 2.0
[keystream]
degree = 6
seed = 0x2A
[scenario]
n_symbols = 12
trials = 4
mode = both
dsr = jitter:0.2
[output]
prefix = p_entropy
""",
    "keygen": """\
[scenario]
s_grid = 1.0, 2.0, 3.0, 4.0
mode = ideal
[output]
prefix = p_keygen
""",
}


def run_process(*args: str, code: str = "import sys, yzero.cli; "
                                         "sys.exit(yzero.cli.main(sys.argv[1:]))"):
    """One CLI run in a fresh interpreter that imports yzero from this source tree."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))


def write_cfg(tmp_path, text: str) -> str:
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_a_cli_process_writes_what_main_writes_in_process(tmp_path, capsys, family):
    path = write_cfg(tmp_path, CONFIGS[family])
    proc = run_process(family, "--config", path, "--out-dir", str(tmp_path / "process"))
    assert (proc.returncode, proc.stderr) == (0, "")
    names = proc.stdout.split()
    assert cli.main([family, "--config", path, "--out-dir", str(tmp_path / "main")]) == 0
    assert capsys.readouterr().out.split() == names
    assert sorted(os.listdir(tmp_path / "process")) == sorted(names)
    data = [n for n in names if not n.endswith("_manifest.json")]
    assert data
    for name in data:
        assert ((tmp_path / "process" / name).read_bytes()
                == (tmp_path / "main" / name).read_bytes()), name


def test_a_keygen_grid_at_one_energy_writes_empty_slopes_and_no_warning(tmp_path):
    # four points at one energy fix no slope: no fit, and nothing on stderr
    text = CONFIGS["keygen"].replace("s_grid = 1.0, 2.0, 3.0, 4.0", "s_grid = 2.0, 2.0, 2.0, 2.0")
    out = tmp_path / "out"
    proc = run_process("keygen", "--config", write_cfg(tmp_path, text), "--out-dir", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(out / "p_keygen_keygen.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 4
    for row in rows:
        assert (row["s"], row["slope_bob"], row["slope_eve"], row["slope_ratio"]) \
            == ("2.0", "", "", "")


@pytest.mark.parametrize("family, old, new, code, message", [
    ("bounds", "energy_grid = 1.0, 5.0", "energy_grid = 1.0, 2000.0", 3,
     "regime cap: bounds take S <= 1000.0"),
    ("entropy", "trials = 4", "trials = 4\notp = true", 2,
     "cfg.ini:10: unknown key 'otp' in [scenario] for family 'entropy'"),
    # argparse's own exit, before any config is read
    ("keygen", "", "", 2, "the following arguments are required: --config"),
])
def test_a_failing_cli_process_exits_with_its_code_and_message(tmp_path, family, old, new,
                                                               code, message):
    out = tmp_path / "out"
    args = [family, "--out-dir", str(out)]
    if old:
        args += ["--config", write_cfg(tmp_path, CONFIGS[family].replace(old, new))]
    proc = run_process(*args)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_a_directory_at_any_output_name_exits_2_with_a_config_error(tmp_path, capsys, family):
    # the attack config has no dsr, so its pad-stage CSV is the copied file
    path = write_cfg(tmp_path, CONFIGS[family])
    assert cli.main([family, "--config", path, "--out-dir", str(tmp_path / "ok")]) == 0
    names = capsys.readouterr().out.split()
    assert len(names) == (4 if family == "attack" else 2)
    for name in names:
        out = tmp_path / name.replace(".", "_")
        (out / name).mkdir(parents=True)
        assert cli.main([family, "--config", path, "--out-dir", str(out)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: cannot write output file "
                                f"{str(out / name)!r}: Is a directory\n")


def test_a_directory_at_the_pad_stage_csv_ends_the_process_without_a_traceback(tmp_path):
    out = tmp_path / "out"
    (out / "p_attack_attack_otp_seeds.csv").mkdir(parents=True)
    proc = run_process("attack", "--config", write_cfg(tmp_path, CONFIGS["attack"]),
                       "--out-dir", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: cannot write output file ")
    assert "Traceback" not in proc.stderr


def test_main_freezes_the_heap_once_at_exit(tmp_path):
    # gc.freeze counts its calls; a hook registered before main's runs after it
    code = ("import atexit, gc, sys, yzero.cli\n"
            "calls, real = [], gc.freeze\n"
            "gc.freeze = lambda: calls.append(real())\n"
            "atexit.register(lambda: print('freezes', len(calls),\n"
            "                               gc.get_freeze_count() > 0))\n"
            "for _ in range(2):\n"
            "    yzero.cli.main(sys.argv[1:])\n"
            "    print('frozen in the run', gc.get_freeze_count())\n")
    proc = run_process("keygen", "--config", write_cfg(tmp_path, CONFIGS["keygen"]),
                       "--out-dir", str(tmp_path / "out"), code=code)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("frozen")] == ["frozen in the run 0"] * 2
    assert lines[-1] == "freezes 1 True"


def test_every_file_is_closed_by_a_with_block_and_only_cli_touches_gc():
    # frozen cyclic garbage is never collected at exit, so nothing may rely on a
    # finalizer to flush or close a file
    bare, closed, gc_users = [], 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        items = {id(item.context_expr) for node in ast.walk(tree)
                 if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name) and node.func.id == "open")
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("open", "fdopen"))):
                if id(node) in items:
                    closed += 1
                else:
                    bare.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "gc" in (alias.name, getattr(node, "module", None))
                    for alias in node.names):
                gc_users.append(path.name)
    assert closed and not bare, bare
    assert gc_users == ["cli.py"]
