"""One workload process: set up, run the closed loop, report as JSON.

Started by ``run.py`` from the root of a checkout.  It imports ``nbarrier``
from ``src/`` of that checkout, builds the seeded case stream, warms up on
cases from a second stream, prints ``ready`` and then runs one client in a
closed loop: the next case starts when the previous one has been checked.
With ``--setup-only`` it exits after ``ready``, so ``run.py`` can time
set-up more than once per run.

With ``--trace 1`` every case runs twice, once untraced and once with one
span per public call (name, start, end, parent span, op id), the order
alternating from case to case.  Spans stay in memory and are written to
``.bench_out/`` when the run ends.  The per-layer metrics come from the
traced runs; the summed wall times of the two give the tracing overhead.

Times are scaled to a fixed reference speed.  The vCPUs of a shared host
run up to twice as slow for tens of seconds when neighbours are busy, and
CPU time slows with them.  So after each op the worker times a reference
that does not touch nbarrier: ``reference()``, a fixed pure-Python loop,
for geometry_sweep; the same plus small numpy steps for wave_verify; an
interpreter start without site imports, ``python -S -c pass``, for
cli_mix, whose ops are mostly process start-up.  Each op's wall time (and
its spans') is multiplied by the reference's nominal time over the median
of the ``REF_WINDOW`` reference times centred on it, half taken before the
op ended and half after.  A scaled time reads as the wall time at the speed
where the reference takes its nominal time; the ratio of two commits'
times is kept and the host's swings mostly cancel.

The last line of stdout is one JSON object; ``run.py`` turns it into the
benchmark's metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

PROBE_EVERY = 6           # cli_mix: one start-up probe after every sixth op
PROBE_KINDS = ("python_bare", "numpy_import", "import")
WARMUP_OPS = {"cli_mix": 1, "geometry_sweep": 5, "wave_verify": 4}
MAX_REPORTED_FAILURES = 20
# Nominal reference times: about what they take in the fast phases of the
# 2-vCPU host the benchmark was tuned on.
REF_NOMINAL_S = 4e-3      # reference(), for geometry_sweep
ARRAYS_REF_NOMINAL_S = 6e-3  # reference_with_arrays(), for wave_verify
CLI_REF_NOMINAL_S = 0.015  # `python -S -c pass`, for cli_mix
REF_WINDOW = 6


def reference() -> float:
    """Fixed CPU work of the kind the package does: floats, tuples, zips."""
    acc = 0.0
    for i in range(1, 4000):
        x = (i * 0.5, i * 0.25, 1.0 / i)
        acc += sum(a * b for a, b in zip(x, x)) ** 0.5
    return acc


def reference_with_arrays() -> float:
    """reference() plus small-array numpy steps like those of an RK4 stage.

    wave_verify's ops are about half numpy calls on length-2 arrays, which
    speed up less than pure Python when the host's fast phases come.
    """
    import numpy as np

    C = np.array([[1.0, 0.5], [0.4, 1.2]])
    u, w = np.array([0.3, 0.7]), np.array([0.1, -0.2])
    for _ in range(150):
        du = w / (2.0 * u)
        dw = (-0.1 * du - u ** 2.0 * (1.0 - C @ u)) / 2.0
        u, w = u + 1e-4 * du, w + 1e-4 * dw
        if np.any(u < 1e-8):
            break
    return reference() + float(u[0])


class Speed:
    """Reference times, one before the first op and one after each op."""

    def __init__(self, reference, nominal_s):
        self.reference = reference
        self.nominal_s = nominal_s
        self.times = []
        self.sample()

    def sample(self):
        start = time.perf_counter()
        self.reference()
        self.times.append(time.perf_counter() - start)

    def factor(self, i) -> float:
        """Scale factor for op i, which ran between samples i and i + 1."""
        window = self.times[max(0, i + 1 - REF_WINDOW // 2):i + 1 + REF_WINDOW // 2]
        return self.nominal_s / statistics.median(window)


class NoTrace:
    """Calls straight through; the untraced loop pays one extra call."""

    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Trace:
    """Records one span per call: (name, start_ns, end_ns, parent, op id)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)


class Loop:
    """Runs cases through a workload and keeps latencies, failures and work.

    Times are kept raw while the loop runs; ``finish`` scales them once the
    reference samples after the last op are in.
    """

    def __init__(self, workload, lib, probe=None, ref=(reference, REF_NOMINAL_S)):
        self.workload = workload
        self.lib = lib
        self.probe = probe
        self.speed = Speed(*ref)
        self.latencies = []
        self.walls = []
        self.failures = []
        self.failed = 0
        self.work = {}

    def one(self, case, tr):
        """Run and check one case; return its wall time including the check."""
        start = time.perf_counter()
        try:
            out = self.workload.run(case, self.lib, tr)
        except Exception as exc:  # any raise from the package is a failed op
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - start
        if out is not None:
            problems = tr.call("harness.oracle", self.workload.check, case, out)
            for key, value in self.workload.work(case, out).items():
                self.work[key] = self.work.get(key, 0) + value
        self.latencies.append(latency)
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append({"kind": case["kind"], "problems": problems[:5]})
        return time.perf_counter() - start

    def step(self, index, case, tr):
        """One op, its probe if one is due, and a reference sample."""
        tr.op = index
        self.walls.append(tr.call("op", self.one, case, tr))
        if self.probe is not None and index % PROBE_EVERY == PROBE_EVERY - 1:
            kind = PROBE_KINDS[(index // PROBE_EVERY) % len(PROBE_KINDS)]
            tr.call("cli." + kind, self.probe, kind)
        tr.op = None
        self.speed.sample()

    def finish(self):
        """Scale latencies; return the scaled total wall time of the ops."""
        for _ in range(REF_WINDOW // 2 - 1):
            self.speed.sample()
        self.factors = [self.speed.factor(i) for i in range(len(self.walls))]
        self.latencies = [t * f for t, f in zip(self.latencies, self.factors)]
        return sum(t * f for t, f in zip(self.walls, self.factors))


def p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, kinds, loop, wall_untraced, wall_traced, workload):
    """Per-layer metrics from the traced runs' spans and work counters."""
    by_name = {}
    for name, start, end, parent, op in spans:
        by_name.setdefault(name, []).append(((end - start) * loop.factors[op], op))

    def durations(name, kind=None):
        return [ns for ns, op in by_name.get(name, ())
                if kind is None or (op is not None and kinds[op] == kind)]

    def busy_s(name, kind=None):
        return sum(durations(name, kind)) / 1e9

    def p50_ms(name, kind=None):
        return p50(durations(name, kind)) / 1e6

    w = loop.work
    m = {"harness.oracle_s": busy_s("harness.oracle")}
    child_ns = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    m["harness.self_s"] = sum((end - start - child_ns.get(i, 0)) * loop.factors[op]
                              for i, (name, start, end, parent, op) in enumerate(spans)
                              if name == "op") / 1e9
    m["harness.ref_ms"] = statistics.median(loop.speed.times) * 1e3
    m["trace.overhead_pct"] = 100.0 * (wall_traced / wall_untraced - 1.0) if wall_untraced else 0.0

    m["cli.python_bare_ms"] = p50_ms("cli.python_bare")
    m["cli.numpy_import_ms"] = p50_ms("cli.numpy_import")
    m["cli.import_ms"] = p50_ms("cli.import")
    for sub in ("bounds", "barrier", "verify-h", "exact", "residual", "simulate", "nonexistence"):
        m[f"cli.{sub}.p50_ms"] = p50_ms("cli." + sub)

    m["model.hull_intercepts.p50_us"] = p50_ms("model.hull_intercepts") * 1e3
    for fn, layer in (("verify_hypothesis_H", "model"), ("verify_containment", "barrier")):
        name = f"{layer}.{fn}"
        m[name + ".calls"] = len(durations(name))
        m[name + ".busy_s"] = busy_s(name)
        m[name + ".lattice_points"] = w.get(name + ".lattice_points", 0)
        for n in range(2, 7):
            m[f"{name}.n{n}.p50_ms"] = p50_ms(name, f"n{n}")
    m["barrier.build_lower_barrier.p50_us"] = p50_ms("barrier.build_lower_barrier") * 1e3
    m["barrier.build_upper_barrier.p50_us"] = p50_ms("barrier.build_upper_barrier") * 1e3

    m["bounds.bounds_general.p50_us"] = p50_ms("bounds.bounds_general") * 1e3
    m["bounds.bounds_general.busy_s"] = busy_s("bounds.bounds_general")
    m["bounds.bounds_m1.p50_us"] = p50_ms("bounds.bounds_m1") * 1e3

    m["exact.residual.busy_s"] = busy_s("exact.residual")
    for family in ("tanh", "cos"):
        points = w.get(f"exact.residual.{family}.points", 0)
        m[f"exact.residual.{family}.ns_per_point"] = (
            busy_s("exact.residual", family) * 1e9 / points if points else 0.0)
        m[f"exact.{family}_family.p50_us"] = p50_ms(f"exact.{family}_family") * 1e3

    steps = w.get("waves.integrate.steps", 0)
    m["waves.integrate.busy_s"] = busy_s("waves.integrate")
    m["waves.integrate.steps"] = steps
    m["waves.integrate.rhs_evals"] = w.get("waves.integrate.rhs_evals", 0)
    m["waves.integrate.us_per_step"] = m["waves.integrate.busy_s"] * 1e6 / steps if steps else 0.0
    m["waves.check_bounds.p50_us"] = p50_ms("waves.check_bounds") * 1e3
    m["waves.flux_balance_defect.p50_us"] = p50_ms("waves.flux_balance_defect") * 1e3

    m["nonexistence.check.calls"] = len(durations("nonexistence.check"))
    m["nonexistence.check.p50_us"] = p50_ms("nonexistence.check") * 1e3

    op_ns = sum(ns for ns, _ in by_name.get("op", ()))
    if workload.target_layers == ("cli",):
        # Start-up share: each command pays at least one bare
        # `import nbarrier.cli` process before it does any work.
        commands = [ns for name, spans_ in by_name.items() if name.startswith("cli.")
                    and name[4:] not in PROBE_KINDS for ns, _ in spans_]
        target_ns = len(commands) * m["cli.import_ms"] * 1e6
    else:
        target_ns = sum(ns for name, spans_ in by_name.items()
                        if name.split(".")[0] in workload.target_layers for ns, _ in spans_)
    m["trace.target_share_pct"] = 100.0 * target_ns / op_ns if op_ns else 0.0
    return m


def require_package(root: Path) -> Path:
    src = root / "src"
    if not (src / "nbarrier" / "__init__.py").is_file():
        raise SystemExit(f"no nbarrier package under {src}")
    return src


def import_package(root: Path):
    """Import nbarrier from this checkout's src/, and from nowhere else."""
    src = require_package(root)
    sys.path.insert(0, str(src))
    import nbarrier

    if Path(nbarrier.__file__).resolve().parent != (src / "nbarrier").resolve():
        raise SystemExit(f"imported nbarrier from {nbarrier.__file__}, not from {src}")
    return nbarrier


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    from workloads import WORKLOADS, CliRunner

    workload = WORKLOADS[args.workload]()
    if args.workload == "cli_mix":
        require_package(root)
        lib = CliRunner(root)
        probe = lib.probe
        ref = (functools.partial(lib.probe, "python_no_site"), CLI_REF_NOMINAL_S)
    else:
        lib = import_package(root)
        probe = None
        ref = ((reference_with_arrays, ARRAYS_REF_NOMINAL_S) if args.workload == "wave_verify"
               else (reference, REF_NOMINAL_S))

    warm = Loop(workload, lib, probe, ref)
    warm_cases = workload.cases(random.Random(f"warm-up {args.seed}"))
    for _ in range(WARMUP_OPS[args.workload]):
        warm.one(next(warm_cases), NoTrace())
    if probe is not None:
        for kind in PROBE_KINDS:
            probe(kind)
    if warm.failed:
        print(json.dumps({"warmup_failures": warm.failures}), file=sys.stderr)
    speed = Speed(*ref)
    for _ in range(REF_WINDOW // 2 - 1):
        speed.sample()
    print("ready", speed.factor(REF_WINDOW // 2 - 1), flush=True)
    if args.setup_only:
        return 0

    cases = workload.cases(random.Random(args.seed))
    loop, traced, tr = Loop(workload, lib, probe, ref), Loop(workload, lib, probe, ref), Trace()
    runs = [(loop, NoTrace())] + ([(traced, tr)] if args.trace else [])
    kinds = []            # cases themselves are dropped, so memory stays flat
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        case = next(cases)
        index = len(kinds)
        kinds.append(case["kind"])
        for k in (range(len(runs)) if index % 2 == 0 else reversed(range(len(runs)))):
            runs[k][0].step(index, case, runs[k][1])
    walls = [run[0].finish() for run in runs]

    result = {}
    if args.trace:
        result["per_layer"] = layer_metrics(tr.spans, kinds, traced, walls[0], walls[1], workload)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "ops": kinds, "spans": tr.spans}))
        loop.failed += traced.failed
        loop.failures += traced.failures[:MAX_REPORTED_FAILURES - len(loop.failures)]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_mix" else resource.RUSAGE_SELF
    result.update(latencies_s=loop.latencies, failed=loop.failed,
                  attempted=len(loop.latencies) * (2 if args.trace else 1),
                  failures=loop.failures,
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
