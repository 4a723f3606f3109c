"""Command-line interface: exit codes, JSON/CSV output, determinism."""

import ast
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbarrier
from nbarrier import (ReactionSpec, SystemSpec, bounds_for, bounds_general, check_bounds,
                      hull_intercepts, integrate, system_from_dict, system_to_dict,
                      tanh_family, verify_containment)
from nbarrier import cli
from nbarrier.cli import FAMILIES, main

from conftest import decimal_chains, rel_gap

TANH_SPEC = json.dumps(system_to_dict(tanh_family(3, 4, 1, 2).system()))
LV_SPEC = json.dumps({
    "n": 2, "m": 1, "d": [1.0, 1.0], "l": [1, 1], "theta": 0.0,
    "sigma": [1.0, 1.0], "C": [[1.0, 2.0], [3.0, 1.0]],
})
# m = 2 system over the unit-intercept hull used by the envelope examples.
FIG_SPEC = json.dumps({
    "n": 2, "m": 2, "d": [3.0, 4.0], "l": [2, 2], "theta": 0.0,
    "sigma": [1.0, 1.0], "C": [[1.0, 2.0], [3.0, 1.0]],
})
# m = 60 system whose u^59 and u^60 overflow at u = 1e6.
OVERFLOW_SPEC = json.dumps({"n": 2, "m": 60, "d": [1, 1], "l": [1, 1], "theta": 0,
                            "sigma": [1, 1], "C": [[1, 0.5], [0.4, 1.2]]})
README_FIXTURE = Path(__file__).parents[1] / "bench" / "fixtures" / "readme_cli.json"
NONEX_PARAMS = json.dumps({
    "d": [1.0, 2.0, 1.0], "sigma": [10.0, 12.0, 40.0],
    "C": [[1.0, 1.0, 0.5], [1.0, 2.0, 0.5], [1.0, 1.0, 2.0]],
    "w_minus_inf": 4.0,
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_matches_library_route(capsys):
    code, out, _ = run(capsys, "bounds", TANH_SPEC, "--alpha", "0.5,0.33333")
    assert code == 0
    doc = json.loads(out)
    spec = tanh_family(3, 4, 1, 2).system()
    hull = hull_intercepts(spec.reaction)
    expected = bounds_general((0.5, 0.33333), spec.d, hull, 2.0, 1)
    assert doc["lower"] == pytest.approx(expected.lower, rel=1e-15)
    assert doc["upper"] == pytest.approx(expected.upper, rel=1e-15)
    assert doc["branch"] == "general"


def test_bounds_chi_zero_and_m1_branch(capsys):
    code, out, _ = run(capsys, "bounds", TANH_SPEC, "--alpha", "1,1",
                       "--chi", "0")
    assert code == 0 and json.loads(out)["lower"] == 0.0
    code, out, _ = run(capsys, "bounds", LV_SPEC, "--alpha", "1,1")
    assert code == 0 and json.loads(out)["branch"] == "m1"


def test_bounds_alpha_length_is_a_domain_error(capsys):
    code, _, err = run(capsys, "bounds", TANH_SPEC, "--alpha", "1,1,1")
    assert code == 1
    assert "alpha" in err


def test_barrier_reproduces_reference_quadruple(capsys, tmp_path):
    csv_path = tmp_path / "curves.csv"
    code, out, _ = run(capsys, "barrier", FIG_SPEC, "--alpha", "1,2",
                       "--orientation", "lower", "--samples", "40",
                       "--curve-csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda1"] == pytest.approx(2 / 7, rel=1e-12)
    assert doc["eta1"] == pytest.approx(math.sqrt(2 / 21), rel=1e-12)
    assert doc["lambda2"] == pytest.approx(4 / 35, rel=1e-12)
    assert doc["eta2"] == pytest.approx(2 / math.sqrt(105), rel=1e-12)
    assert doc["orientation"] == "lower"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "set,u1,u2"
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"plane_eta1", "plane_eta2", "ellipsoid_lambda1",
                      "ellipsoid_lambda2", "hull_face"}


def test_barrier_output_is_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    outs = []
    for path in paths:
        code, out, _ = run(capsys, "barrier", FIG_SPEC, "--alpha", "1,2",
                           "--orientation", "upper", "--curve-csv", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_goes_to_file_with_out(capsys, tmp_path):
    target = tmp_path / "env.json"
    code, out, _ = run(capsys, "barrier", FIG_SPEC, "--alpha", "1,2",
                       "--orientation", "lower", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert set(doc) == {"lambda1", "eta1", "lambda2", "eta2", "orientation"}


@pytest.mark.parametrize("argv", [
    ("barrier", FIG_SPEC, "--alpha", "1,2", "--orientation", "lower", "--out"),
    ("barrier", FIG_SPEC, "--alpha", "1,2", "--orientation", "lower",
     "--curve-csv"),
    ("exact", "tanh", "--d1", "3", "--d2", "4", "--c11", "1", "--c22", "2",
     "--grid=-1:1:0.5", "--csv"),
], ids=["out", "curve-csv", "csv"])
def test_unwritable_output_path_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "file"
    code, out, err = run(capsys, *argv, str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}:")


def test_barrier_curves_stay_finite_where_lambda_over_q_overflows(capsys, tmp_path):
    # lambda2 / q(t) overflows at t = (1, 0) for alpha_1 = 1e-120.
    csv_path = tmp_path / "curves.csv"
    spec = json.dumps({"n": 2, "m": 3, "d": [1, 1], "l": [1, 1], "theta": 0,
                       "sigma": [1, 1], "C": [[1, 0.1], [0.1, 1]]})
    code, _, _ = run(capsys, "barrier", spec, "--alpha", "1e-120,1",
                     "--orientation", "upper", "--samples", "10",
                     "--curve-csv", str(csv_path))
    assert code == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 5 * 11
    assert all(math.isfinite(float(v)) for row in rows for v in row[1:])



def test_barrier_refuses_a_curve_csv_point_out_of_float_range(capsys, tmp_path):
    # The plane vertex eta2 / alpha_1 = 1e150 / 1e-300 is past the float range.
    csv_path = tmp_path / "c.csv"
    spec = json.dumps({"n": 2, "m": 2, "d": [1, 1], "l": [1, 1], "theta": 0,
                       "sigma": [1, 1], "C": [[1, 2], [3, 1]]})
    code, out, err = run(capsys, "barrier", spec, "--alpha", "1e-300,1",
                         "--orientation", "upper", "--samples", "2",
                         "--curve-csv", str(csv_path))
    assert (code, out) == (1, "")
    assert err == ("error: --curve-csv column u1 is not finite at set = 'plane_eta2'; "
                   "the parameters overflow floating point\n")
    assert not csv_path.exists()

@pytest.mark.parametrize("samples", ["0", "-1"])
def test_barrier_curve_samples_must_be_positive(capsys, tmp_path, samples):
    csv_path = tmp_path / "curves.csv"
    code, out, err = run(capsys, "barrier", FIG_SPEC, "--alpha", "1,2",
                         "--orientation", "lower", "--samples", samples,
                         "--curve-csv", str(csv_path))
    assert code == 2
    assert out == "" and not csv_path.exists()
    assert err.endswith("error: argument --samples: must be a positive integer, "
                        f"got '{samples}'\n")


def test_barrier_curve_lattice_is_capped_before_it_is_walked(capsys, tmp_path, monkeypatch):
    # n = 2: comb(samples + 1, 1) = samples + 1 lattice points per curve.
    csv_path = tmp_path / "curves.csv"

    def barrier(samples):
        return run(capsys, "barrier", FIG_SPEC, "--alpha", "1,2", "--orientation", "lower",
                   "--samples", samples, "--curve-csv", str(csv_path))

    code, out, err = barrier("1000000")
    assert (code, out) == (2, "") and not csv_path.exists()
    assert err == ("error: --samples 1000000 gives 1000001 lattice points per curve, "
                   "more than the limit of 1000000\n")
    monkeypatch.setattr("nbarrier.cli.MAX_GRID_POINTS", 65)
    assert barrier("65")[0] == 2 and not csv_path.exists()
    assert barrier("64")[0] == 0
    assert len(csv_path.read_text().splitlines()) == 1 + 5 * 65


@pytest.mark.parametrize("samples", ["0", "-1", "x"])
def test_verify_h_samples_must_be_a_positive_integer(capsys, samples):
    code, out, err = run(capsys, "verify-h", LV_SPEC, f"--samples={samples}")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --samples: must be a positive integer, "
                        f"got '{samples}'\n")


def test_verify_h_passes_on_intercept_hull(capsys):
    code, out, _ = run(capsys, "verify-h", LV_SPEC, "--samples", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["inner_ok"] and doc["outer_ok"]
    assert doc["worst_inner_value"] >= -1e-12


def test_exact_emits_solution_and_profile_csv(capsys, tmp_path):
    csv_path = tmp_path / "profile.csv"
    code, out, _ = run(capsys, "exact", "tanh", "--d1", "3", "--d2", "4",
                       "--c11", "1", "--c22", "2",
                       "--grid=-1:1:0.5", "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["k1"] == 60.0 and doc["sigma2"] == 32.0
    assert doc["system"]["l"] == [2.0, 2.0]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,u1,u2"
    assert len(lines) == 1 + 5  # grid -1:-0.5:0:0.5:1


def test_exact_builds_no_profile_without_csv(capsys, monkeypatch):
    # Only the CSV table reads the profile.
    def refuse(sol):
        raise AssertionError("profile built")
    monkeypatch.setattr(nbarrier.exact.TanhSolution, "profile", refuse)
    code, out, _ = run(capsys, "exact", "tanh", "--d1", "3", "--d2", "4",
                       "--c11", "1", "--c22", "2", "--grid=-1:1:0.5")
    assert code == 0 and json.loads(out)["k1"] == 60.0


def test_grid_stops_at_its_last_full_step(capsys, tmp_path):
    csv_path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, "exact", "tanh", "--d1", "3", "--d2", "4",
                     "--c11", "1", "--c22", "2", "--grid=0:1:0.6", "--csv", str(csv_path))
    assert code == 0
    assert [line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]] == [
        "0.0", "0.6"]


def test_exact_csv_requires_grid(capsys):
    code, out, err = run(capsys, "exact", "tanh", "--d1", "3", "--d2", "4",
                         "--c11", "1", "--c22", "2", "--csv", "x.csv")
    assert code == 2
    assert out == ""
    assert "--grid" in err


@pytest.mark.parametrize("grid, named", [
    ("0:inf:1", "finite"),
    ("nan:1:0.1", "finite"),
    ("0:1:1e-300", "1e+300 points"),
    ("0:1:1e-6", "1000001 points"),
    ("0:1", "A:B:H"),
    ("0:one:0.1", "must contain floats"),
    ("1:0:0.1", "B > A"),
])
def test_bad_grid_is_usage_error(capsys, tmp_path, grid, named):
    csv_path = tmp_path / "profile.csv"
    code, out, err = run(capsys, "exact", "tanh", "--d1", "3", "--d2", "4",
                         "--c11", "1", "--c22", "2", f"--grid={grid}",
                         "--csv", str(csv_path))
    assert code == 2
    assert out == "" and not csv_path.exists()
    assert named in err
    for cmd in ("exact", "residual"):
        code, out, err = run(capsys, cmd, "tanh", "--d1", "3", "--d2", "4",
                             "--c11", "1", "--c22", "2", f"--grid={grid}")
        assert (code, out) == (2, "")
        assert named in err


def test_exact_missing_family_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "exact", "tanh", "--d1", "3", "--d2", "4",
                       "--c11", "1")
    assert code == 2
    assert "c22" in err
    code, out, err = run(capsys, "exact", "tanh", "--d1", "3",
                         "--c11", "1", "--c22", "2")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("nbarrier exact tanh: error: "
                                    "the following arguments are required: --d2")


@pytest.mark.parametrize("cmd", ["exact", "residual"])
def test_flag_of_the_other_family_is_usage_error(capsys, cmd):
    code, out, err = run(capsys, cmd, "cos",
                         "--m1=-0.1", "--m2", str(1 / 11), "--m3", str(1 / 12),
                         "--mu", "2", "--d1", "1", "--d2", "1", "--d3", "1",
                         "--c12", str(1067 / 60), "--c13", "1",
                         "--c21", str(175 / 11), "--c23", str(6 / 11),
                         "--c31", "15", "--c32", str(11 / 12), "--c11", "99")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "nbarrier: error: unrecognized arguments: --c11 99"
    code, out, err = run(capsys, cmd, "tanh", "--d1", "3", "--d2", "4",
                         "--c11", "1", "--c22", "2", "--d3", "1", "--mu", "2")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "nbarrier: error: unrecognized arguments: --d3 1 --mu 2"


# A plain command's usage after [-h] [--out OUT]: its own flags, then its
# positional argument.
PLAIN_USAGE = {
    "bounds": "--alpha ALPHA [--chi {0,1}] spec",
    "barrier": "--alpha ALPHA --orientation {lower,upper} [--samples SAMPLES] "
               "[--curve-csv CURVE_CSV] spec",
    "verify-h": "[--samples SAMPLES] spec",
    "simulate": "--u0 U0 --w0 W0 --span SPAN --step STEP [--alpha ALPHA] [--csv CSV] "
                "[--check-bounds] [--chi {0,1}] spec",
    "nonexistence": "params",
}
FAMILY_FLAGS = [("exact", ["--grid", "--csv"]), ("residual", ["--grid", "--spec", "--tol"])]


# The family cases keep the ids of the family x (cmd, own) grid.
@pytest.mark.parametrize("cmd, family, own", [
    *(pytest.param(cmd, family, own, id=f"{family}-{cmd}-own{k}")
      for family in sorted(FAMILIES) for k, (cmd, own) in enumerate(FAMILY_FLAGS)),
    *(pytest.param(cmd, None, usage, id=cmd) for cmd, usage in PLAIN_USAGE.items()),
])
def test_a_family_command_takes_exactly_its_flags(capsys, cmd, family, own):
    code, out, err = run(capsys, cmd, *([family] if family else []), "--help")
    assert (code, err) == (0, "")
    usage = " ".join(out.split("\n\n")[0].split())
    if family:
        # Every family flag is required, so its usage has no brackets.
        names = [f"--{name}" for name in FAMILIES[family][1]]
        own = " ".join([*(f"{name} {name[2:].upper()}" for name in names),
                        *(f"[{flag} {flag[2:].upper()}]" for flag in own)])
        cmd = f"{cmd} {family}"
    # --out, shared by every command, comes first.
    assert usage == f"usage: nbarrier {cmd} [-h] [--out OUT] {own}"


def test_residual_clean_and_perturbed(capsys):
    code, out, _ = run(capsys, "residual", "tanh", "--d1", "3", "--d2", "4",
                       "--c11", "1", "--c22", "2", "--grid=-5:5:0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and max(doc["residuals"]) < 1e-8
    bumped = json.loads(TANH_SPEC)
    bumped["sigma"][0] += 1.0
    code, out, _ = run(capsys, "residual", "tanh", "--d1", "3", "--d2", "4",
                       "--c11", "1", "--c22", "2", "--grid=-5:5:0.1",
                       "--spec", json.dumps(bumped))
    assert code == 3
    assert not json.loads(out)["ok"]


def test_cos_residual_over_default_period(capsys):
    code, out, _ = run(capsys, "residual", "cos",
                       "--m1=-0.1", "--m2", str(1 / 11), "--m3", str(1 / 12),
                       "--mu", "2", "--d1", "1", "--d2", "1", "--d3", "1",
                       "--c12", str(1067 / 60), "--c13", "1",
                       "--c21", str(175 / 11), "--c23", str(6 / 11),
                       "--c31", "15", "--c32", str(11 / 12))
    assert code == 0
    assert max(json.loads(out)["residuals"]) < 1e-8


def test_simulate_checks_bounds_and_writes_csv(capsys, tmp_path):
    prof = tanh_family(3, 4, 1, 2).profile()
    start = prof.at(-1.0)
    csv_path = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "simulate", TANH_SPEC,
        "--u0=" + ",".join(repr(v) for v in start.u),
        "--w0=" + ",".join(repr(v) for v in start.dum),
        "--span=-1:1", "--step", "0.001",
        "--alpha", "0.5," + repr(1 / 3),
        "--check-bounds", "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert not doc["truncated"]
    assert doc["points"] == 2001
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,u1,u2,w1,w2,p,q"
    assert len(lines) == 2002


def test_simulate_flags_out_of_bounds_start(capsys):
    code, out, _ = run(capsys, "simulate", TANH_SPEC,
                       "--u0", "600,600", "--w0", "0,0",
                       "--span", "0:0.01", "--step", "0.001",
                       "--alpha", "0.5," + repr(1 / 3), "--check-bounds")
    assert code == 3
    assert json.loads(out)["violations"]


@pytest.mark.parametrize("step, named", [
    ("1e-300", "1e+300 steps"),
    ("nan", "finite"),
    ("inf", "finite"),
])
def test_simulate_step_count_is_capped(capsys, step, named):
    code, out, err = run(capsys, "simulate", TANH_SPEC, "--u0", "1,1",
                         "--w0", "0,0", "--span", "0:1", "--step", step)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and named in err


def test_simulate_rejects_nonpositive_start(capsys):
    code, _, err = run(capsys, "simulate", TANH_SPEC,
                       "--u0=1,-1", "--w0", "0,0",
                       "--span", "0:1", "--step", "0.01")
    assert code == 1
    assert "positive" in err


def test_nonexistence_verdict_document(capsys):
    code, out, _ = run(capsys, "nonexistence", NONEX_PARAMS)
    assert code == 0
    doc = json.loads(out)
    assert doc["case_ii"]["applicable"] and doc["case_ii"]["blocked"]
    assert doc["case_ii"]["lambda_star_upper"] == pytest.approx(30.0)
    assert not doc["case_i"]["applicable"]


def test_usage_errors_exit_two(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    code, _, err = run(capsys, "bounds", "{not json", "--alpha", "1,1")
    assert code == 2
    assert "malformed JSON" in err
    code, _, err = run(capsys, "bounds", "[1, 2]", "--alpha", "1,1")
    assert code == 2
    assert err == "error: top-level JSON value must be an object\n"
    code, _, err = run(capsys, "bounds", TANH_SPEC, "--alpha", "one,two")
    assert code == 2
    assert "float" in err
    code, _, err = run(capsys, "simulate", TANH_SPEC, "--u0", "1,1",
                       "--w0", "0,0", "--span", "0-1", "--step", "0.01")
    assert code == 2
    code, _, err = run(capsys, "simulate", TANH_SPEC, "--u0", "1,1",
                       "--w0", "0,0", "--span", "0:one", "--step", "0.01")
    assert (code, err) == (2, "error: --span must contain floats\n")
    code, _, err = run(capsys, "bounds", "no-such-spec.json", "--alpha", "1,1")
    assert code == 2 and err.startswith("error: cannot read no-such-spec.json")


@pytest.mark.parametrize("argv, named", [
    (("bounds", FIG_SPEC, "--alpha", "0,1"), "alpha"),
    (("barrier", FIG_SPEC, "--alpha", "1,-1", "--orientation", "upper"), "alpha"),
    (("bounds", LV_SPEC, "--alpha", "1,0"), "alpha"),
], ids=["bounds", "barrier", "bounds-m1"])
def test_a_nonpositive_vector_is_named(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {named} must be strictly positive\n")


def test_spec_file_path_is_accepted(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(TANH_SPEC)
    code, out, _ = run(capsys, "bounds", str(path), "--alpha", "1,1")
    assert code == 0
    assert json.loads(out)["branch"] == "general"


def test_readme_examples_replay_byte_for_byte(capsys):
    examples = json.loads(README_FIXTURE.read_text())["examples"]
    assert len(examples) == 7
    for example in examples:
        code, out, _ = run(capsys, *example["argv"])
        assert (code, out) == (example["exit_code"], example["stdout"]), example["name"]


# Runs every README example in one fresh interpreter and exits nonzero, naming
# the example, as soon as one of them has loaded numpy.
NUMPY_PROBE = """
import json, sys
from nbarrier.cli import FAMILIES, main
for example in json.load(open(sys.argv[1]))["examples"]:
    main(example["argv"])
    if "numpy" in sys.modules:
        sys.exit("numpy loaded after " + example["name"])
"""


def test_readme_examples_run_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(nbarrier.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, str(README_FIXTURE)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    examples = json.loads(README_FIXTURE.read_text())["examples"]
    assert proc.stdout == "".join(example["stdout"] for example in examples)


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_run_exits_with_mains_code_and_freezes_after_main(monkeypatch, code):
    events = []

    def fake_main(argv=None):
        events.append(("main", argv))
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert events == [("main", None), "freeze"]


def test_run_parses_sys_argv(capsys, monkeypatch):
    argv = ["bounds", FIG_SPEC, "--alpha", "1,2"]
    want = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["nbarrier", *argv])
    monkeypatch.setattr(gc, "freeze", lambda: None)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == want


def test_in_process_main_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "barrier", FIG_SPEC, "--alpha", "1,2", "--orientation", "upper")[0] == 0
    assert run(capsys, "bounds", FIG_SPEC, "--alpha", "nan,1")[0] == 2
    assert gc.get_freeze_count() == before


def test_both_program_entries_are_run():
    """python -m nbarrier.cli and the nbarrier console script both enter
    through run, not main."""
    module = ast.parse(Path(cli.__file__).read_text())
    guard = module.body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    run()"
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'nbarrier = "nbarrier.cli:run"'


# Each command ends with the flag of the file it writes; the path follows.
FILE_COMMANDS = {
    "barrier-curve-csv": ["barrier", FIG_SPEC, "--alpha", "1,2", "--orientation", "lower",
                          "--curve-csv"],
    "exact-csv": ["exact", "tanh", "--d1", "3", "--d2", "4", "--c11", "1", "--c22", "2",
                  "--grid=-1:1:0.5", "--csv"],
    "simulate-csv": ["simulate", FIG_SPEC, "--u0", "0.2,0.4", "--w0", "0,0", "--span", "0:1",
                     "--step", "0.01", "--alpha", "1,2", "--check-bounds", "--csv"],
    "bounds-out": ["bounds", FIG_SPEC, "--alpha", "1,2", "--out"],
}


@pytest.mark.parametrize("name", FILE_COMMANDS)
def test_a_process_writes_its_file_in_full_before_the_frozen_exit(capsys, tmp_path, name):
    """A frozen exit finalizes no cyclic garbage, so no write may wait for a
    finalizer: main's file is complete when it returns, and under -X dev and
    -W error a process exits 0 with nothing on stderr and writes the same
    bytes."""
    argv = FILE_COMMANDS[name]
    main_out, process_out = tmp_path / "main.out", tmp_path / "process.out"
    code, out, err = run(capsys, *argv, str(main_out))
    assert (code, err) == (0, "")
    written = main_out.read_bytes()
    gc.collect()  # a write left to a finalizer would land only now
    assert written and main_out.read_bytes() == written
    env = dict(os.environ, PYTHONPATH=str(Path(nbarrier.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "nbarrier.cli",
                           *argv, str(process_out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out)
    assert process_out.read_bytes() == written


# Prints which of the watched modules are loaded after the import of
# nbarrier and then of nbarrier.cli, and the exit code and the loaded ones
# after main has run each (name, argv) pair of argv[1], in order, in the
# same interpreter.
STARTUP_PROBE = """
import contextlib, io, json, sys
WATCHED = {"dataclasses", "inspect", "numpy", "nbarrier.kernels"}
import nbarrier
report = {"package": [0, sorted(WATCHED & sys.modules.keys())]}
from nbarrier.cli import main
report["import"] = [0, sorted(WATCHED & sys.modules.keys())]
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        report[name] = [main(argv), sorted(WATCHED & sys.modules.keys())]
print(json.dumps(report))
"""


def bare_python_json(script, *args):
    """The JSON that script prints when run by python -S, so that no site
    hook imports anything first, with the package and numpy importable."""
    numpy_dir = Path(importlib.util.find_spec("numpy").origin).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(nbarrier.__file__).parents[1]), str(numpy_dir)]))
    proc = subprocess.run([sys.executable, "-S", "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_subcommands_start_without_dataclasses_inspect_or_numpy():
    """The package, the CLI and the README commands of every subcommand
    load none of dataclasses, inspect or numpy, and those of every
    subcommand but residual and simulate do not load nbarrier.kernels
    either.  residual, run last, loads kernels alone, and so does simulate
    in an interpreter of its own.  A step whose float arithmetic overflows
    is re-run on numpy's float64, so simulate loads numpy for it, and
    nothing else that numpy's own import does not load (numpy 2 imports
    inspect)."""
    examples = json.loads(README_FIXTURE.read_text())["examples"]
    runs = sorted(((example["name"], example["argv"]) for example in examples),
                  key=lambda run: run[1][0] == "residual")
    report = bare_python_json(STARTUP_PROBE, json.dumps(runs))
    simulate = bare_python_json(STARTUP_PROBE, json.dumps([(
        "simulate", ["simulate", FIG_SPEC, "--u0", "0.2,0.4", "--w0", "0,0",
                     "--span", "0:10", "--step", "0.001", "--alpha", "1,2",
                     "--check-bounds"])]))
    # u1^59 = 1e354 overflows in u1' = w1 / (60 u1^59) at every step.
    rerun = bare_python_json(STARTUP_PROBE, json.dumps([(
        "simulate", ["simulate", OVERFLOW_SPEC, "--u0", "1e6,1", "--w0", "0,0",
                     "--span", "0:1", "--step", "0.01"])]))
    numpy_alone = bare_python_json(
        "import json, sys, numpy; print(json.dumps(sorted("
        "{'dataclasses', 'inspect', 'numpy'} & sys.modules.keys())))")
    assert "numpy" in numpy_alone and "dataclasses" not in numpy_alone
    assert len(report) == 9
    residual = report.pop("residual_tanh")
    assert report == {name: [0, []] for name in report}
    assert residual == [0, ["nbarrier.kernels"]]
    assert simulate == {"package": [0, []], "import": [0, []],
                        "simulate": [0, ["nbarrier.kernels"]]}
    assert rerun == {"package": [0, []], "import": [0, []],
                     "simulate": [0, sorted(numpy_alone + ["nbarrier.kernels"])]}


@pytest.mark.parametrize("argv, named", [
    (("bounds", FIG_SPEC, "--alpha", "1,nan"), "--alpha"),
    (("barrier", FIG_SPEC, "--alpha", "inf,1", "--orientation", "upper"), "--alpha"),
    (("simulate", TANH_SPEC, "--u0", "1,nan", "--w0", "0,0", "--span", "0:1",
      "--step", "0.01"), "--u0"),
    (("simulate", TANH_SPEC, "--u0", "1,1", "--w0=-inf,0", "--span", "0:1",
      "--step", "0.01"), "--w0"),
], ids=["bounds-alpha", "barrier-alpha", "u0", "w0"])
def test_non_finite_float_list_is_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named} entries must be finite\n"


def _doc(base, **changes):
    return json.dumps({**json.loads(base), **changes})


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("argv, message", [
    (("verify-h", _doc(FIG_SPEC, sigma=[math.nan, 1.0])), "sigma must be finite, got nan"),
    (("bounds", _doc(FIG_SPEC, m=math.inf), "--alpha", "1,2"), "m must be finite, got inf"),
    (("nonexistence", _doc(NONEX_PARAMS, sigma=[10.0, 12.0, math.nan])),
     "sigma must be finite, got nan"),
    (("bounds", _doc(FIG_SPEC, n=math.inf), "--alpha", "1,2"),
     "system document key 'n' is malformed"),
    (("bounds", _doc(FIG_SPEC, d=5), "--alpha", "1,2"),
     "system document key 'd' is malformed"),
    (("nonexistence", _doc(NONEX_PARAMS, d=3)), "parameter document key 'd' is malformed"),
], ids=["verify-h-nan-sigma", "bounds-inf-m", "nonexistence-nan-sigma3",
        "bounds-inf-n", "bounds-scalar-d", "nonexistence-scalar-d"])
def test_non_finite_or_malformed_document_is_domain_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


def test_non_finite_result_is_not_printed(capsys):
    # c33 tiny: the third species' ceiling sigma3/c33 overflows to inf.
    params = _doc(NONEX_PARAMS, sigma=[1.0, 1.0, 1e308],
                  C=[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1e-10]])
    code, out, err = run(capsys, "nonexistence", params)
    assert (code, out) == (1, "")
    assert err.startswith("error: result holds a NaN or infinite value")
    code, out, err = run(capsys, "residual", "tanh", "--d1", "3", "--d2", "4",
                         "--c11", "1", "--c22", "2", "--tol", "nan")
    assert (code, out, err) == (2, "", "error: --tol must be positive and finite\n")


ONE_SPECIES = {"n": 1, "m": 1.0, "d": [131.8], "l": [1.0], "theta": 0.0,
               "sigma": [905.9], "C": [[1.1]]}


@pytest.mark.parametrize("argv, message", [
    (("bounds", _doc(FIG_SPEC, d=[1e300, 1.0], sigma=[1e200, 1.0]), "--alpha", "1,1"),
     "envelope level lambda1 overflows; the parameters overflow floating point"),
    (("nonexistence", _doc(NONEX_PARAMS, sigma=[1e200, 1e200, 1.0])),
     "parameters out of floating-point range (OverflowError"),
    (("bounds", _doc(LV_SPEC, sigma=[1e300, 1e300], C=[[1e-10, 1e-10], [1e-10, 1e-10]]),
      "--alpha", "1,1", "--chi", "0"), "ubar must be finite, got inf"),
    (("bounds", json.dumps(ONE_SPECIES), "--alpha=1.7e308", "--chi", "0"),
     "bounds must be finite, got lower nan and upper inf"),
    (("barrier", json.dumps({**ONE_SPECIES, "m": 1.88, "d": [0.5], "sigma": [1.0], "C": [[0.5]]}),
      "--alpha=1.07e167", "--orientation", "lower"), "envelope levels must be finite"),
], ids=["power-overflow", "bare-power-overflow", "hull-overflow", "m1-band-overflow",
        "envelope-overflow"])
@pytest.mark.filterwarnings("ignore:degenerate hull")
def test_float_overflow_is_domain_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith(f"error: {message}")


UNDERFLOW_SPEC = json.dumps({"n": 2, "m": 3, "d": [1, 1], "theta": 0, "l": [1, 1],
                             "sigma": [1, 1], "C": [[1, 0.1], [0.1, 1]]})


@pytest.mark.parametrize("argv", [
    ("barrier", UNDERFLOW_SPEC, "--alpha", "1e-120,1", "--orientation", "lower"),
    ("bounds", UNDERFLOW_SPEC, "--alpha", "1e-120,1"),
], ids=["barrier", "bounds"])
def test_envelope_underflow_names_the_level(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: envelope level eta1 underflows to 0; "
                   "the parameters underflow floating point\n")


def _oracle_levels(spec, alpha, orientation):
    """The envelope levels of the 50-digit oracle, on the system's intercept hull."""
    system = nbarrier.system_from_dict(json.loads(spec))
    hull = hull_intercepts(system.reaction)
    lower, upper = decimal_chains(alpha, system.d, hull.ulow, hull.ubar, system.m)
    return hull, lower if orientation == "lower" else upper


def test_a_band_whose_tangent_point_underflows_is_answered(capsys):
    # At m = 1.5 the tangent point's u_2 is about 1e-400; the levels are not.
    spec, alpha = _doc(UNDERFLOW_SPEC, m=1.5), (1e-100, 1e100)
    code, out, _ = run(capsys, "barrier", spec, "--alpha", "1e-100,1e100",
                       "--orientation", "lower")
    assert code == 0
    levels = {name: json.loads(out)[name] for name in ("lambda1", "eta1", "lambda2", "eta2")}
    hull, want = _oracle_levels(spec, alpha, "lower")
    for name, value in levels.items():
        assert rel_gap(value, want[name]) < 1e-12, name
    env = nbarrier.BarrierEnvelope(**levels, orientation="lower", weights=alpha, m=1.5,
                                   d=(1.0, 1.0))
    assert verify_containment(env, hull, 1).ok


def test_tangent_point_overflow_is_named(capsys):
    # At m = 1.5 the plain tangency's term (alpha_1 d_1 alpha_1^(-m))^(-2) is
    # (1e-300)^(-2), past the float range.
    spec = json.dumps({"n": 2, "m": 1.5, "d": [1e-300, 1], "l": [1, 1], "theta": 0,
                       "sigma": [1e100, 1], "C": [[1, 2e100], [2e-100, 1]]})
    code, out, err = run(capsys, "barrier", spec, "--alpha", "1,1", "--orientation", "lower")
    assert (code, out) == (1, "")
    assert err == ("error: a term of the tangency sum S overflows; "
                   "the parameters overflow floating point\n")


NEAR_LINEAR_SPEC = json.dumps({"n": 2, "m": 1.01, "d": [0.1, 10], "l": [1, 1], "theta": 0,
                               "sigma": [1, 1], "C": [[1, 2], [3, 1]]})


def test_a_band_near_m_1_is_answered(capsys):
    # The parent refused it: the tangent point's u_2 underflowed to 0.
    code, out, _ = run(capsys, "bounds", NEAR_LINEAR_SPEC, "--alpha", "0.1,2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["lower"], doc["upper"]) == (3.874767745317854e-06, 17205.33230597486)
    for side in ("lower", "upper"):
        want = _oracle_levels(NEAR_LINEAR_SPEC, (0.1, 2.0), side)[1]["eta2"]
        assert rel_gap(doc[side], want) < 1e-12, side


SUBNORMAL_QUOTIENT_SPEC = json.dumps({
    "n": 2, "m": 20, "d": [6.88015505319367e-08, 66956.63099319837], "l": [1, 1], "theta": 0,
    "sigma": [4.2401183513624174e-05, 8.370019458604509e-05],
    "C": [[6.223934217217279, 11257.334417771757],
          [4.4554591551769716e-06, 5.751038250440578e-08]]})


@pytest.mark.parametrize("command", ["bounds", "barrier"])
def test_a_subnormal_level_quotient_is_refused_by_name(capsys, command):
    # lambda2 / grow is about 3.3e-321, so eta2 = (lambda2 / grow)^(1/20) kept
    # a few bits only: the band it gave, 9.455822381663464e-17, is above the
    # exact lower bound 9.455540123520304e-17.
    argv = [command, SUBNORMAL_QUOTIENT_SPEC, "--alpha", "127.9682054665402,0.0027324462566662563"]
    if command == "barrier":
        argv += ["--orientation", "lower"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: envelope level eta2 underflows below the smallest normal float; "
                   "the parameters underflow floating point\n")


def test_barrier_names_a_power_out_of_range(capsys):
    # alpha_1^(m-1) = 1e-390 underflows, so d_1 alpha_1^(1-m) overflows.
    code, out, err = run(capsys, "barrier", _doc(UNDERFLOW_SPEC, m=40),
                         "--alpha", "1e-10,1", "--orientation", "upper")
    assert (code, out) == (1, "")
    assert err == ("error: power alpha_1^(1-m) overflows; "
                   "the parameters overflow floating point\n")


@pytest.mark.parametrize("argv, message", [
    (("bounds", _doc(FIG_SPEC, m="2"), "--alpha", "1,2"),
     "system document key 'm' is malformed: expected a number, got str"),
    (("bounds", _doc(FIG_SPEC, m=True), "--alpha", "1,2"),
     "system document key 'm' is malformed: expected a number, got bool"),
    (("bounds", _doc(FIG_SPEC, n=2.7), "--alpha", "1,2"),
     "system document key 'n' is malformed: expected an integer, got 2.7"),
    (("verify-h", _doc(FIG_SPEC, n=True)),
     "system document key 'n' is malformed: expected an integer, got bool"),
    (("bounds", _doc(FIG_SPEC, d="34"), "--alpha", "1,2"),
     "system document key 'd' is malformed: expected a list, got str"),
    (("barrier", _doc(FIG_SPEC, sigma=[1.0, False]), "--alpha", "1,2", "--orientation",
      "upper"), "system document key 'sigma' is malformed: expected a number, got bool"),
    (("verify-h", _doc(FIG_SPEC, Theta=0.0)), "system document has unknown key 'Theta'"),
    (("nonexistence", _doc(NONEX_PARAMS, w_minus_infty=4.0)),
     "parameter document has unknown key 'w_minus_infty'"),
    (("nonexistence", _doc(NONEX_PARAMS, w_minus_inf="4")),
     "parameter document key 'w_minus_inf' is malformed: expected a number, got str"),
], ids=["str-m", "bool-m", "fractional-n", "bool-n", "str-d", "bool-in-sigma",
        "unknown-key", "misspelt-w_minus_inf", "str-w_minus_inf"])
def test_loose_document_value_is_domain_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_integral_float_n_is_accepted(capsys):
    assert run(capsys, "bounds", _doc(FIG_SPEC, n=2.0), "--alpha", "1,2") == \
        run(capsys, "bounds", FIG_SPEC, "--alpha", "1,2")


TANH_FLAGS = ("--d1", "3", "--d2", "4", "--c11", "1", "--c22", "2")


@pytest.mark.parametrize("argv, message", [
    (("exact", "tanh", "--d1", "nan", "--d2", "4", "--c11", "1", "--c22", "2"),
     "--d1 must be finite"),
    (("residual", "tanh", "--d1", "3", "--d2", "4", "--c11", "1", "--c22", "inf"),
     "--c22 must be finite"),
    (("residual", "tanh", *TANH_FLAGS, "--tol=-1"), "--tol must be positive and finite"),
    (("residual", "tanh", *TANH_FLAGS, "--tol", "0"), "--tol must be positive and finite"),
    (("residual", "tanh", *TANH_FLAGS, "--tol", "inf"), "--tol must be positive and finite"),
], ids=["exact-nan-d1", "residual-inf-c22", "negative-tol", "zero-tol", "inf-tol"])
def test_non_finite_family_flag_or_bad_tol_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# A prefix is not taken for the flag it abbreviates: --c1 is not --c11.
@pytest.mark.parametrize("argv, missing", [
    (("exact", "tanh", "--d1", "3", "--d2", "4", "--c1", "1", "--c2", "2"), "--c11, --c22"),
    (("barrier", FIG_SPEC, "--alpha", "1,2", "--orient", "lower"), "--orientation"),
], ids=["family-flag-prefix", "orientation-prefix"])
def test_a_flag_prefix_is_usage_error(capsys, argv, missing):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: the following arguments are required: {missing}\n")


@pytest.mark.parametrize("argv, lengths", [
    (("bounds", FIG_SPEC, "--alpha", "1,2,3"), "len(alpha) = 3, len(d) = 2, len(ubar) = 2"),
    (("bounds", LV_SPEC, "--alpha", "1"), "n = 2, len(alpha) = 1, len(d) = 2"),
    (("barrier", FIG_SPEC, "--alpha", "1", "--orientation", "lower"),
     "len(alpha) = 1, len(d) = 2, len(ulow) = 2"),
], ids=["bounds", "bounds-m1", "barrier"])
def test_a_wrong_length_alpha_is_named_by_the_library(capsys, argv, lengths):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: vector lengths must agree, got {lengths}\n")


def test_simulate_refuses_a_csv_whose_q_column_overflows(capsys, tmp_path):
    # u1^60 = 1e360 past the float range: the state is finite, the stored q is inf.
    spec = json.dumps({"n": 2, "m": 60, "d": [1, 1], "l": [1, 1], "theta": 0,
                       "sigma": [1, 1], "C": [[1, 0.5], [0.4, 1.2]]})
    csv_path = tmp_path / "q.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", spec, "--u0", "1e6,1", "--w0", "0,0",
                             "--span", "0:1", "--step", "0.01", "--csv", str(csv_path))
    assert (code, out) == (1, "")
    assert err == ("error: --csv column q is not finite at x = 0.0; "
                   "the weighted total overflows floating point\n")
    assert not csv_path.exists()


def _tanh_window(x0, x1, step):
    sol = tanh_family(3, 4, 1, 2)
    start = sol.profile().at(x0)
    return sol.system(), start.u, start.dum, (x0, x1), step, (0.5, 1 / 3)


def _lv(m, u0, w0, span=(0.0, 1.0), step=0.01):
    spec = SystemSpec(n=2, m=m, d=(1.0, 1.0), l=(1.0, 1.0), theta=0.7,
                      reaction=ReactionSpec(sigma=(1.0, 1.0), C=((1.0, 2.0), (3.0, 1.0))))
    return spec, u0, w0, span, step, (1.0, 2.0)


# name -> (spec, u0, w0, x_span, step, alpha, whether to check the bounds)
AGREEMENT_CASES = {
    "tanh": (*_tanh_window(-1.0, 1.0, 1e-3), True),
    # u1 crosses 0 near x = 0.1 at m = 1, where nothing stops it.
    "clamped-m1": (*_lv(1.0, (0.1, 0.5), (-1.0, 0.0), (0.0, 0.5)), False),
    # Every step is re-run on float64, and q = u1^60 overflows at every point.
    "overflow-rerun": (system_from_dict(json.loads(OVERFLOW_SPEC)), (1e6, 1.0), (1.0, 0.0),
                       (0.0, 1.0), 0.01, (0.5, 2.0), False),
    # One step mid-span overflows u^49 at a stage and is re-run on float64.
    "rerun-mid-span": (SystemSpec(n=1, m=50.0, d=(0.209092,), l=(1.0,), theta=8.5396,
                                  reaction=ReactionSpec(sigma=(14.747076,), C=((1.302177,),))),
                       (0.98127,), (3.396215,), (0.0, 1.0), 0.01, (1.0,), False),
    # Shot from the far tail, the front leaves its orbit for the floor.
    "floor": (*_tanh_window(-10.0, 10.0, 1e-3), True),
}


def _within_ulps(got, want, terms):
    """got is want, or within len(terms) ulps of the sum of |terms|."""
    return got == want or abs(got - want) <= len(terms) * math.ulp(math.fsum(map(abs, terms)))


@pytest.mark.parametrize("name", list(AGREEMENT_CASES))
def test_simulate_agrees_with_integrate(capsys, tmp_path, name):
    spec, u0, w0, (x0, x1), step, alpha, check = AGREEMENT_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(spec, u0, w0, (x0, x1), step, alpha=alpha)
    argv = ["simulate", json.dumps(system_to_dict(spec)),
            "--u0=" + ",".join(map(repr, u0)), "--w0=" + ",".join(map(repr, w0)),
            f"--span={x0!r}:{x1!r}", f"--step={step!r}", "--alpha=" + ",".join(map(repr, alpha)),
            *(["--check-bounds"] if check else [])]
    csv_path = tmp_path / "traj.csv"
    code, out, err = run(capsys, *argv, "--csv", str(csv_path))
    overflows = [x for x, q in zip(traj.xs.tolist(), traj.q.tolist()) if not math.isfinite(q)]
    if overflows:
        assert (code, out, err) == (1, "", f"error: --csv column q is not finite at "
                                           f"x = {overflows[0]!r}; the weighted total "
                                           "overflows floating point\n")
        code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    want = {"points": len(traj.xs), "truncated": traj.truncated,
            "truncation_reason": traj.truncation_reason, "clamped": traj.clamped}
    if check:
        bounds = bounds_for(spec, alpha, 1)
        want["bounds"] = bounds.to_dict()
        assert doc["violations"] == [list(v) for v in check_bounds(traj, alpha, bounds).violations]
    assert {key: doc[key] for key in want} == want
    p = traj.p.tolist()
    for key, extreme in (("min_p", min), ("max_p", max)):
        k = p.index(extreme(p))
        assert _within_ulps(doc[key], p[k], [a * u for a, u in zip(alpha, traj.u[k].tolist())])
    if overflows:
        return
    lines = csv_path.read_text().splitlines()
    n = spec.n
    assert len(lines) == len(traj.xs) + 1
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        x, u, w = traj.xs[k], traj.u[k].tolist(), traj.w[k].tolist()
        # x, u and w bit for bit, -0.0 and 0.0 told apart.
        assert cells[:2 * n + 1] == [repr(float(v)) for v in (x, *u, *w)], k
        p_cli, q_cli = float(cells[-2]), float(cells[-1])
        assert _within_ulps(p_cli, traj.p[k], [a * v for a, v in zip(alpha, u)]), k
        assert _within_ulps(q_cli, traj.q[k], [a * d * v ** spec.m for a, d, v
                                               in zip(alpha, spec.d, u)]), k


# The README tanh member's coefficients with m = 3 or m = 1: the profile solves
# only the m = 2 system, so a check against these must fail.
@pytest.mark.parametrize("m", [3, 1])
def test_residual_checks_the_profile_against_the_spec_m(capsys, m):
    spec = json.dumps({"n": 2, "m": m, "d": [3, 4], "l": [2, 2], "theta": 0,
                       "sigma": [240, 32], "C": [[1, 27], [0.4, 2]]})
    code, out, _ = run(capsys, "residual", "tanh", "--d1", "3", "--d2", "4",
                       "--c11", "1", "--c22", "2", "--spec", spec)
    assert code == 3
    doc = json.loads(out)
    assert not doc["ok"] and max(doc["residuals"]) > 1e-8


def test_exact_csv_is_not_written_when_the_document_is_not_finite(capsys, tmp_path):
    # k1 = 20 d1 / c11 overflows to inf, so the command exits 1, naming k1.
    csv_path = tmp_path / "profile.csv"
    code, out, err = run(capsys, "exact", "tanh", "--d1", "1e300", "--d2", "1",
                         "--c11", "1e-10", "--c22", "1", "--grid=0:1:0.5",
                         "--csv", str(csv_path))
    assert (code, out) == (1, "")
    assert err == "error: k1 must be finite, got inf\n"
    assert not csv_path.exists()


def test_exact_refuses_a_csv_whose_profile_overflows(capsys, tmp_path):
    # k1 = 1e308 is finite, so the document is; k1 (1 - tanh x)^2 is not.
    csv_path = tmp_path / "profile.csv"
    code, out, err = run(capsys, "exact", "tanh", "--d1", "5e296", "--d2", "1",
                         "--c11", "1e-10", "--c22", "1", "--grid=-20:-19:0.5",
                         "--csv", str(csv_path))
    assert (code, out) == (1, "")
    assert err == ("error: --csv column u1 is not finite at x = -20.0; "
                   "the profile overflows floating point\n")
    assert not csv_path.exists()


@pytest.mark.parametrize("cmd", ["exact", "residual"])
def test_a_family_whose_derived_coefficient_overflows_names_it(capsys, cmd):
    # c12 = 18 c22 d1 / d2 overflows to inf from finite flags; the error
    # names it rather than a C that was never passed.
    code, out, err = run(capsys, cmd, "tanh", "--d1", "1e300", "--d2", "1e-10",
                         "--c11", "1", "--c22", "1e10")
    assert (code, out) == (1, "")
    assert err == "error: c12 must be finite, got inf\n"


def test_a_residual_that_overflows_names_the_species_and_the_point(capsys):
    # k1 = 20 d1 / c11 = 2e306, so u1^2 overflows at x = 0.0.
    code, out, err = run(capsys, "residual", "tanh", "--d1", "1e300", "--d2", "4",
                         "--c11", "1e-5", "--c22", "2", "--grid=0:1:0.5")
    assert (code, out) == (1, "")
    assert err == ("error: residual of species 1 overflows floating point at x = 0.0; "
                   "the parameters overflow floating point\n")


def test_a_residual_that_takes_zero_to_a_negative_power_names_the_species_and_the_point(
        capsys):
    # At m = 1.5, u2 = k2 (1 + tanh x) is exactly 0.0 at the default grid's
    # first point, x = -20, and u2^(m - 2) divides by it.
    spec = {"n": 2, "m": 1.5, "d": [3, 4], "l": [2, 2], "theta": 0, "sigma": [240, 32],
            "C": [[1, 27], [0.4, 2]]}
    code, out, err = run(capsys, "residual", "tanh", "--d1", "3", "--d2", "4", "--c11", "1",
                         "--c22", "2", "--spec", json.dumps(spec))
    assert (code, out) == (1, "")
    assert err == ("error: residual of species 2 cannot be evaluated in floating point at "
                   "x = -20.0: u2 rounds to 0.0 there and the exponent m - 2 = -0.5 is "
                   "negative\n")


def test_residual_of_a_member_with_nan_residuals_exits_1(capsys):
    code, out, err = run(capsys, "residual", "tanh", "--d1", "1e102", "--d2", "4",
                         "--c11", "1", "--c22", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: result holds a NaN or infinite value")


def test_simulate_reports_a_non_finite_state_as_truncation(capsys):
    spec = json.dumps({"n": 2, "m": 1.0, "d": [1, 1], "theta": 0, "l": [1.5, 1.5],
                       "sigma": [1, 1], "C": [[1, 0.5], [0.4, 1.2]]})
    code, out, err = run(capsys, "simulate", spec, "--u0", "0.1,0.1", "--w0=-1,-1",
                         "--span", "0:5", "--step", "0.01")
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["truncated"] is True
    assert doc["truncation_reason"] == "non-finite state at x = 0.1"
    assert math.isfinite(doc["min_p"]) and math.isfinite(doc["max_p"])



def test_simulate_refuses_a_weighted_total_that_is_nan(capsys):
    # p = 0 at the start; once both u_i pass 1, alpha_i u_i overflows to
    # inf and -inf, whose sum is NaN, and min_p and max_p are NaN with it.
    spec = json.dumps({"n": 2, "m": 1, "d": [1, 1], "theta": 0, "l": [1, 1],
                       "sigma": [1, 1], "C": [[1, 0.5], [0.4, 1.2]]})
    code, out, err = run(capsys, "simulate", spec, "--u0", "1,1", "--w0", "1,1",
                         "--span", "0:0.1", "--step", "0.01", "--alpha=1.7e308,-1.7e308")
    assert (code, out) == (1, "")
    assert err.startswith("error: result holds a NaN or infinite value")

# Fuzzing: a valid document, flag list or family flag set with up to two
# entries (or whole keys) replaced by a value from every class the boundary
# must handle: NaN, the infinities, zero, negatives, subnormals, huge
# magnitudes, arbitrary floats, and JSON true/false and strings.
SPECIAL_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300,
                     1e300, 1.7e308]),
    st.floats(),
)
SPECIAL_VALUES = st.one_of(SPECIAL_NUMBERS, st.booleans(),
                           st.sampled_from(["", "2", "34", "nan", "x"]))
MODERATE = st.floats(min_value=1e-3, max_value=1e3)


def _flag(value):
    return repr(value) if isinstance(value, float) else str(value)


def _family_argv(draw, command):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    values = {name: draw(MODERATE) for name in FAMILIES[family][1]}
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.sampled_from(sorted(values)))] = draw(SPECIAL_VALUES)
    argv = [command, family] + [f"--{name}={_flag(v)}" for name, v in values.items()]
    if command == "residual":
        tol = draw(st.one_of(st.just(1e-8), SPECIAL_VALUES))
        argv += ["--grid=-1:1:0.1", f"--tol={_flag(tol)}"]
    return argv, False


def _holds_bool_or_str(value):
    """Whether a JSON value is, or holds at any depth, a true/false or a string."""
    if isinstance(value, (bool, str)):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(map(_holds_bool_or_str, value))


@st.composite
def fuzz_argv(draw):
    """An argv, and whether its document holds a JSON true/false or string
    (which must never exit 0)."""
    command = draw(st.sampled_from(["bounds", "barrier", "verify-h", "nonexistence",
                                    "exact", "residual", "simulate"]))
    if command in ("exact", "residual"):
        return _family_argv(draw, command)
    n = 3 if command == "nonexistence" else draw(st.integers(1, 3))

    def vector():
        return draw(st.lists(MODERATE, min_size=n, max_size=n))

    doc = {"d": vector(), "sigma": vector(), "C": [vector() for _ in range(n)]}
    if command == "nonexistence":
        doc["w_minus_inf"] = draw(MODERATE)
    else:
        doc.update(n=n, m=draw(st.one_of(st.just(1.0), st.floats(1.0, 4.0))),
                   l=vector(), theta=draw(MODERATE))
    alpha, u0, w0 = vector(), vector(), vector()
    flags = [alpha, u0, w0] if command == "simulate" else [alpha]
    doc_slots = ([(doc, key) for key in doc]
                 + [(doc[key], i) for key in ("d", "sigma", "l") if key in doc
                    for i in range(n)]
                 + [(row, j) for row in doc["C"] for j in range(n)])
    slots = doc_slots + [(flag, i) for flag in flags for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        container, index = slots[draw(st.integers(0, len(slots) - 1))]
        container[index] = draw(SPECIAL_VALUES)
    # Read off the final document: a second draw may overwrite the first, and
    # a slot of a list that a whole-key draw replaced is no longer in it.
    loose = _holds_bool_or_str(doc)
    argv = [command, json.dumps(doc)]
    as_flag = ",".join
    if command in ("bounds", "barrier"):
        argv.append("--alpha=" + as_flag(_flag(a) for a in alpha))
    if command == "barrier":
        argv += ["--orientation", draw(st.sampled_from(["lower", "upper"]))]
    if command == "bounds":
        argv += ["--chi", draw(st.sampled_from(["0", "1"]))]
    if command == "simulate":
        argv += ["--u0=" + as_flag(_flag(u) for u in u0),
                 "--w0=" + as_flag(_flag(w) for w in w0), "--span", "0:0.05", "--step", "0.01"]
        if draw(st.booleans()):
            argv += ["--alpha=" + as_flag(_flag(a) for a in alpha), "--check-bounds"]
    return argv, loose


@pytest.mark.filterwarnings("ignore:degenerate hull")
@settings(max_examples=300, deadline=None)
@given(case=fuzz_argv())
def test_fuzzed_parameters_give_an_exit_code_and_strict_json(case):
    argv, loose = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if loose:
        assert code == 1, err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
