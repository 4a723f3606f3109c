"""Smoke runs of the reproduction scripts, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from capture_bits import family

ROOT = Path(__file__).parents[1]


def run_script(name, *args, path=()):
    """Run scripts/name with src, after the directories path, on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), str(ROOT / "src")]))
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


def test_capture_bits_slices_match_their_pinned_digests_without_numpy(tmp_path):
    # A numpy package that refuses to load comes first on the path, so the
    # capture runs as it does on an interpreter without numpy.  The pins of
    # at most 3000 cases are one slice per section and two of kernels, each
    # well under 2 s; CI checks the full captures too.
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text("raise ImportError('numpy is blocked')\n")
    proc = run_script("capture_bits.py", "--check", str(ROOT / "tests" / "capture_bits.sha256"),
                      "--max-cases", "3000", path=[tmp_path])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [
        ["ok", "geometry"], ["ok", "nonexistence"], ["ok", "kernels"], ["ok", "kernels"]]


def test_capture_bits_refuses_a_pin_of_an_unknown_section(tmp_path):
    pins = tmp_path / "pins.sha256"
    pins.write_text(f"{'0' * 64}  geometrie  1  10  {family()}\n")
    proc = run_script("capture_bits.py", "--check", str(pins))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown section 'geometrie'" in proc.stderr
