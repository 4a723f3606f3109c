"""Tests of the benchmark itself: every metric is emitted, and a wrong
result is counted as a failed op."""

import dataclasses
import json
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nbarrier  # noqa: E402
import worker  # noqa: E402
from workloads import CliMix, GeometrySweep, WaveVerify  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((Path(__file__).resolve().parent / "design.json").read_text())


def test_smoke_run_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all",
                           "--seed", "5", "--seconds", "0.5"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in BENCHMARK["workloads"]:
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            got = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"], metric["name"]
            assert isinstance(got["value"], (int, float))
        e2e = result["metrics"][f"{workload['name']}.latency_p50_ms"]["value"]
        assert e2e > 0


def test_design_record_names_every_declared_metric():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(DESIGN["workloads"])
    layered = {name for row in DESIGN["layers"] for name in row["metrics"]}
    assert layered == {m["name"] for m in BENCHMARK["per_layer"]}


def _first_case(workload, pred):
    return next(case for case in workload.cases(random.Random(11)) if pred(case))


def _system(n, m):
    return lambda c: c["n"] == n and c["doc"]["m"] == m


def _failed(workload, lib, case):
    loop = worker.Loop(workload, lib, probe=None)
    loop.one(case, worker.NoTrace())
    return loop.failed, loop.failures


def _patched(**fns):
    return types.SimpleNamespace(**{**vars(nbarrier), **fns})


def test_unperturbed_ops_pass():
    geo, wave = GeometrySweep(), WaveVerify()
    assert _failed(geo, nbarrier, _first_case(geo, _system(2, 2.0)))[0] == 0
    assert _failed(wave, nbarrier, _first_case(wave, lambda c: c["kind"] == "tanh"))[0] == 0


def test_envelope_eta2_off_by_one_part_per_million_fails():
    def lower(*args):
        env = nbarrier.build_lower_barrier(*args)
        return dataclasses.replace(env, eta2=env.eta2 * (1 + 1e-6))

    geo = GeometrySweep()
    failed, failures = _failed(geo, _patched(build_lower_barrier=lower),
                               _first_case(geo, _system(3, 2.0)))
    assert failed == 1
    assert any("lower.eta2" in p for p in failures[0]["problems"])


def test_hypothesis_worst_value_and_residual_perturbations_fail():
    def verify(*args):
        rep = nbarrier.verify_hypothesis_H(*args)
        return dataclasses.replace(rep, worst_outer_value=rep.worst_outer_value + 1e-9)

    def residual(*args):
        return tuple(r + 2e-8 for r in nbarrier.residual(*args))

    geo, wave = GeometrySweep(), WaveVerify()
    assert _failed(geo, _patched(verify_hypothesis_H=verify), _first_case(geo, lambda c: c["n"] == 2))[0] == 1
    assert _failed(wave, _patched(residual=residual), _first_case(wave, lambda c: c["kind"] == "cos"))[0] == 1


def test_trajectory_off_by_one_part_per_million_fails():
    def integrate(*args):
        traj = nbarrier.integrate(*args)
        return dataclasses.replace(traj, u=traj.u * (1 + 1e-6))

    wave = WaveVerify()
    failed, failures = _failed(wave, _patched(integrate=integrate), _first_case(wave, lambda c: c["kind"] == "tanh"))
    assert failed == 1
    assert any("RK4 error" in p for p in failures[0]["problems"])


@pytest.mark.parametrize("edit", [
    lambda code, out: (code, out.replace("0.", "0.0", 1)),
    lambda code, out: (3, out),
])
def test_cli_output_off_the_fixture_fails(edit):
    cli_mix = CliMix()
    case = _first_case(cli_mix, lambda c: c["kind"] == "readme")
    example = case["example"]
    code, out = edit(example["exit_code"], example["stdout"])
    assert cli_mix.check(case, (example["exit_code"], example["stdout"], "")) == []
    assert cli_mix.check(case, (code, out, "")) != []


def test_cli_band_off_by_one_part_per_million_fails():
    cli_mix = CliMix()
    case = _first_case(cli_mix, lambda c: c["kind"] == "bounds_general")
    spec = nbarrier.system_from_dict(case["doc"])
    band = nbarrier.bounds_general(case["alpha"], spec.d, nbarrier.hull_intercepts(spec.reaction),
                                   spec.m, case["chi"]).to_dict()
    assert cli_mix.check(case, (0, json.dumps(band), "")) == []
    band["upper"] *= 1 + 1e-6
    assert cli_mix.check(case, (0, json.dumps(band), "")) != []
