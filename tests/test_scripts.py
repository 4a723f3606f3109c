"""Smoke runs of the reproduction scripts, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=60)


def test_wave_check_stays_inside_the_band():
    proc = run_script("wave_check.py")
    assert proc.returncode == 0, proc.stderr
    assert "violations 0" in proc.stdout


def test_reproduce_envelopes_writes_curve_files(tmp_path):
    proc = run_script("reproduce_envelopes.py", "--curve-dir", str(tmp_path),
                      "--samples", "20")
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 6


def test_screen_nonexistence_runs():
    proc = run_script("screen_nonexistence.py", "--w-minus-inf", "4")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:1", "0:1:0", "0:1:1e-7", "1:1:1"])
def test_screen_nonexistence_rejects_a_bad_grid(grid):
    proc = run_script("screen_nonexistence.py", f"--grid={grid}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --grid:" in proc.stderr
