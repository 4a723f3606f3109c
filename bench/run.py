"""Benchmark for nbarrier: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding ``src/nbarrier``):

    python3 bench/run.py --workload geometry_sweep --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 40

One workload run starts a fresh workload process (``worker.py``) per
set-up: SETUPS - 1 processes that only set up, then the one that measures.
``setup_s`` is the median time from starting a workload process to its
``ready`` line, which covers interpreter start-up, ``import nbarrier``, input
generation and warm-up.  All times are scaled to a reference speed, as
``worker.py`` explains.  The measuring process runs one client in a closed
loop for ``--seconds`` and checks every op against ``oracle.py``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones.  ``--workload all`` runs every workload
both ways, prints each metric with its unit and the failures, and ends
with one JSON object holding them all.  ``design.json`` records why each
workload exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cli_mix", "geometry_sweep", "wave_verify")
SETUPS = 3
RUN_LIMIT_S = 170.0       # one run, all of its processes included
COUNT_SUFFIXES = (".calls", ".lattice_points", ".steps", ".rhs_evals")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def unit_of(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    for suffix, unit in (("ns_per_point", "ns"), ("us_per_step", "us"), ("per_s", "1/s"),
                         ("_pct", "%"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def start_worker(root: Path, args: list, deadline: float):
    """Start worker.py; return (scaled seconds until its ready line, its result or None).

    The ready line carries the worker's speed factor, measured just before it.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit of {RUN_LIMIT_S:g} s reached")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            cwd=root, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if len(ready) != 2 or ready[0] != "ready" or code != 0:
        raise BenchError(f"workload process exited with code {code} before finishing")
    lines = rest.strip().splitlines()
    return setup * float(ready[1]), (json.loads(lines[-1]) if lines else None)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [start_worker(root, common + ["--setup-only"], deadline)[0]
              for _ in range(SETUPS - 1)]
    setup, result = start_worker(root, common + ["--trace", str(trace)], deadline)
    setups.append(setup)
    if not result or not result["latencies_s"]:
        raise BenchError("workload process reported no operations")
    lat_ms = [s * 1e3 for s in result["latencies_s"]]
    if trace:
        values = result["per_layer"]
    else:
        values = {
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        "samples": len(lat_ms),
        "failures": result["failures"],
    }


def report_failures(workload: str, out: dict):
    for failure in out["failures"]:
        print(f"{workload}: failed {failure['kind']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)


def public(out: dict) -> dict:
    return {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}


def run_all(root: Path, seed: int, seconds: float) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            out = run_workload(root, workload, seed, seconds, trace)
            report_failures(workload, out)
            mode = "traced" if trace else "untraced"
            print(f"{workload} ({mode}): {out['samples']} ops, {out['failed']} failed of "
                  f"{out['attempted']} attempted, fail_ratio {out['failed'] / out['attempted']:g}")
            for name, metric in out["metrics"].items():
                print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
                combined["metrics"][f"{workload}.{name}"] = metric
            combined["correct"] &= out["correct"]
            combined["attempted"] += out["attempted"]
            combined["failed"] += out["failed"]
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        if args.workload == "all":
            result = run_all(root, args.seed, args.seconds)
        else:
            out = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
            report_failures(args.workload, out)
            result = public(out)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
