"""Command-line interface: exit codes, JSON/CSV output, determinism."""

import json
import math
from pathlib import Path

import pytest

from nbarrier import bounds_general, hull_intercepts, system_to_dict, tanh_family
from nbarrier.cli import main

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


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_barrier_curve_samples_must_be_positive(capsys, tmp_path, samples):
    csv_path = tmp_path / "curves.csv"
    code, out, err = run(capsys, "barrier", FIG_SPEC, "--alpha", "1,2",
                         "--orientation", "lower", "--samples", samples,
                         "--curve-csv", str(csv_path))
    assert code == 1
    assert out == "" and not csv_path.exists()
    assert "samples" in err


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
    code, _, err = run(capsys, "exact", "tanh", "--d1", "3",
                       "--c11", "1", "--c22", "2")
    assert code == 2
    assert err == "error: tanh family needs --d2\n"


@pytest.mark.parametrize("cmd", ["exact", "residual"])
def test_flag_of_the_other_family_is_usage_error(capsys, cmd):
    code, out, err = run(capsys, cmd, "cos",
                         "--m1=-0.1", "--m2", str(1 / 11), "--m3", str(1 / 12),
                         "--mu", "2", "--d1", "1", "--d2", "1", "--d3", "1",
                         "--c12", str(1067 / 60), "--c13", "1",
                         "--c21", str(175 / 11), "--c23", str(6 / 11),
                         "--c31", "15", "--c32", str(11 / 12), "--c11", "99")
    assert (code, out) == (2, "")
    assert err == "error: cos family does not take --c11\n"
    code, out, err = run(capsys, cmd, "tanh", "--d1", "3", "--d2", "4",
                         "--c11", "1", "--c22", "2", "--d3", "1", "--mu", "2")
    assert (code, out) == (2, "")
    assert err == "error: tanh family does not take --mu --d3\n"


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
