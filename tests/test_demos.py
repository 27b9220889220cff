"""Every script in demos/ runs to completion against the package under test."""

import os
import subprocess
import sys

import pytest

import yzero

DEMO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(yzero.__file__)))


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMO_DIR) if f.endswith(".py")))
def test_demo_exits_cleanly(demo, tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(DEMO_DIR, demo)],
                          env=dict(os.environ, PYTHONPATH=SRC_DIR), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
