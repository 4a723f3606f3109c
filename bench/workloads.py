"""The three benchmark workloads: seeded inputs, calls into nbarrier, checks.

A workload yields cases from a seeded ``random.Random``.  ``run(case, lib,
tr)`` makes the calls into the package, each through ``tr.call`` so that a
traced run gets one span per public call, and returns what they produced.
``check(case, out)`` compares that with references from ``oracle`` and
returns the mismatches.  ``work(case, out)`` gives the work counters,
computed from the inputs and the shapes of the outputs, never read from the
package.  Cases come in rounds with a fixed share of each kind, so two seeds
differ in parameters but not in mix.

``lib`` is the ``nbarrier`` package for the in-process workloads and a
``CliRunner`` for ``cli_mix``; tests pass stand-ins that perturb a result.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle as O

SIGN_ABS_TOL = 1e-12      # verdict threshold of the sign hypothesis check
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "readme_cli.json"


# ---- shared generators --------------------------------------------------

def system_doc(rng, n, m):
    """A competition system from the paper's domain: all rates positive."""
    return {
        "n": n, "m": m,
        "d": [rng.uniform(0.5, 3.0) for _ in range(n)],
        "l": [rng.choice((1.0, 2.0)) for _ in range(n)],
        "theta": rng.uniform(-1.0, 1.0),
        "sigma": [rng.uniform(0.5, 2.0) for _ in range(n)],
        "C": [[rng.uniform(1.0, 3.0) if i == j else rng.uniform(0.2, 1.5)
               for j in range(n)] for i in range(n)],
    }


def weights(rng, n):
    return [rng.uniform(0.2, 2.0) for _ in range(n)]


def tanh_params(rng):
    """(d1, d2, c11, c22) with k1 = 20 d1 / c11 <= 60, the reference member's k1.

    The residual's roundoff grows with k1; at k1 = 60 it is about 3.6e-9,
    under the 1e-8 tolerance.
    """
    return (rng.uniform(0.5, 3.0), rng.uniform(0.5, 4.0),
            rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))


def cos_params(rng):
    """A feasible cosine-family member (m1..c32 in the family's order).

    Amplitudes m1 < 0 < m2, m3 give k_i = |m_i|, so each profile touches
    zero.  c12, c21 and c31 are set so that the tied diagonal coefficients
    c11, c22, c33 come out positive by a seeded margin.
    """
    m1 = -rng.uniform(0.05, 0.2)
    m2, m3 = rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2)
    mu = rng.uniform(0.5, 3.0)
    d1, d2, d3 = (rng.uniform(0.5, 2.0) for _ in range(3))
    c13, c23, c32 = (rng.uniform(0.2, 2.0) for _ in range(3))
    w = mu * mu
    c12 = (4 * d1 * w * -m1 + rng.uniform(0.05, 0.5)) / m2
    c21 = (c23 * m3 + 4 * d2 * w * m2 + rng.uniform(0.05, 0.5)) / -m1
    c31 = (c32 * m2 + 4 * d3 * w * m3 + rng.uniform(0.05, 0.5)) / -m1
    return (m1, m2, m3, mu, d1, d2, d3, c12, c13, c21, c23, c31, c32)


def tanh_system_doc(params):
    t = O.tanh_ties(*params)
    d1, d2, c11, c22 = params
    return {"n": 2, "m": 2, "d": [d1, d2], "l": [2, 2], "theta": 0.0,
            "sigma": [t["sigma1"], t["sigma2"]],
            "C": [[c11, t["c12"]], [t["c21"], c22]]}


def nonexistence_doc(rng):
    """Three-species parameters in the range of the paper's screening."""
    doc = {
        "d": [rng.uniform(0.5, 3.0) for _ in range(3)],
        "sigma": [rng.uniform(5.0, 15.0), rng.uniform(5.0, 15.0), rng.uniform(0.5, 40.0)],
        "C": [[rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.6)],
              [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.6)],
              [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)]],
    }
    if rng.random() < 0.7:
        doc["w_minus_inf"] = rng.uniform(0.0, 5.0)
    return doc


def _abs_scale(doc, ubar):
    return max([1.0] + list(doc["sigma"])
               + [2.0 * c * hi for row in doc["C"] for c, hi in zip(row, ubar)])


def check_hypothesis(c, doc, ubar, ulow, worst_inner, worst_outer, inner_ok, outer_ok):
    want_in, want_out = O.hypothesis_extremes(doc["sigma"], doc["C"], ubar, ulow)
    tol = 1e-12 * _abs_scale(doc, ubar)
    c.close("H worst inner value", worst_inner, want_in, rel=0.0, abs_tol=tol)
    c.close("H worst outer value", worst_outer, want_out, rel=0.0, abs_tol=tol)
    c.equal("H inner_ok", inner_ok, want_in >= -SIGN_ABS_TOL)
    c.equal("H outer_ok", outer_ok, want_out <= SIGN_ABS_TOL)


def check_quadruple(c, what, got, want):
    for name, g, w in zip(("lambda1", "eta1", "lambda2", "eta2"), got, want):
        c.close(f"{what}.{name}", g, w)


def check_band(c, got, want, chi):
    """got: a band as BoundsResult.to_dict() lays it out; want: oracle.band()."""
    lower, upper, branch = want
    c.close("band lower", got.get("lower"), lower)
    c.close("band upper", got.get("upper"), upper)
    c.equal("band chi", got.get("chi"), chi)
    c.equal("band branch", got.get("branch"), branch)


def check_blocking(c, got, want):
    for case in ("case_i", "case_ii"):
        for key, w in want[case].items():
            g = got[case][key]
            if isinstance(w, float):
                c.close(f"{case}.{key}", g, w)
            else:
                c.equal(f"{case}.{key}", g, w)


def rounds(rng, kinds, make):
    """Endless cases: each round holds every kind once, in seeded order."""
    while True:
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            yield make(rng, kind)


# ---- geometry_sweep -----------------------------------------------------

class GeometrySweep:
    """One op: one n-species system through the hull, H, barrier and bands.

    Per round: n = 2..6 once each, in seeded order; one system at m = 1 (no
    barrier exists there, so the op stops at bounds_m1), its n rotating from
    round to round so the mix of op costs does not depend on the seed; two
    candidate hulls moved off the intercepts so that hypothesis H fails on
    the inner or outer region.
    """

    name = "geometry_sweep"
    target_layers = ("model", "barrier")
    H_RES = {2: 50, 3: 20, 4: 10, 5: 8, 6: 6}
    CONTAIN_RES = {2: 40, 3: 20, 4: 12, 5: 8, 6: 6}
    HULLS = ("intercept", "intercept", "intercept", "inner_fail", "outer_fail")

    def cases(self, rng):
        for round_ in itertools.count():
            ns = [2, 3, 4, 5, 6]
            hulls = list(self.HULLS)
            rng.shuffle(ns)
            rng.shuffle(hulls)
            for n, hull in zip(ns, hulls):
                m = 1.0 if n == 2 + round_ % 5 else rng.choice((1.5, 2.0, 3.0))
                yield self._case(rng, n, m, hull)

    def _case(self, rng, n, m, hull_kind):
        doc = system_doc(rng, n, m)
        ubar, ulow = O.intercepts(doc["sigma"], doc["C"])
        delta = rng.uniform(0.05, 0.5)
        if hull_kind == "inner_fail":
            h_ubar, h_ulow = ubar, tuple(lo + delta * (hi - lo) for hi, lo in zip(ubar, ulow))
        elif hull_kind == "outer_fail":
            h_ubar, h_ulow = tuple(hi - delta * (hi - lo) for hi, lo in zip(ubar, ulow)), ulow
        else:
            h_ubar, h_ulow = ubar, ulow
        case = {"kind": f"n{n}", "n": n, "doc": doc, "alpha": weights(rng, n),
                "chi": 0 if rng.random() < 0.2 else 1, "hull_kind": hull_kind,
                "ubar": ubar, "ulow": ulow, "h_ubar": h_ubar, "h_ulow": h_ulow}
        if n == 3:
            case["w_minus_inf"] = rng.uniform(0.0, 5.0)
        return case

    def run(self, case, nb, tr):
        doc, n, alpha, chi = case["doc"], case["n"], case["alpha"], case["chi"]
        m, d = doc["m"], doc["d"]
        reaction = tr.call("model.ReactionSpec", nb.ReactionSpec, sigma=doc["sigma"], C=doc["C"])
        spec = tr.call("model.SystemSpec", nb.SystemSpec, n=n, m=m, d=d, l=doc["l"],
                       theta=doc["theta"], reaction=reaction)
        hull = tr.call("model.hull_intercepts", nb.hull_intercepts, reaction)
        hull_h = hull
        if case["hull_kind"] != "intercept":
            hull_h = tr.call("model.HullBounds", nb.HullBounds,
                             ubar=case["h_ubar"], ulow=case["h_ulow"])
        out = {"hull": hull,
               "H": tr.call("model.verify_hypothesis_H", nb.verify_hypothesis_H,
                            spec, hull_h, self.H_RES[n])}
        if m > 1:
            out["lower"] = tr.call("barrier.build_lower_barrier", nb.build_lower_barrier,
                                   alpha, d, hull.ulow, m)
            out["upper"] = tr.call("barrier.build_upper_barrier", nb.build_upper_barrier,
                                   alpha, d, hull.ubar, m)
            out["band"] = tr.call("bounds.bounds_general", nb.bounds_general,
                                  alpha, d, hull, m, chi)
            out["contain"] = [
                tr.call("barrier.verify_containment", nb.verify_containment,
                        out[side], hull, self.CONTAIN_RES[n], side)
                for side in ("lower", "upper")]
        else:
            out["band"] = tr.call("bounds.bounds_m1", nb.bounds_m1, alpha, d, hull, chi)
        if n == 3:
            params = tr.call("nonexistence.ThreeSpeciesParams", nb.ThreeSpeciesParams,
                             d=d, sigma=doc["sigma"], C=doc["C"],
                             w_minus_inf=case["w_minus_inf"])
            out["blocking"] = tr.call("nonexistence.check", nb.check, params)
        return out

    def check(self, case, out):
        c = O.Checker()
        doc, alpha, m, chi = case["doc"], case["alpha"], case["doc"]["m"], case["chi"]
        ubar, ulow = case["ubar"], case["ulow"]
        for i in range(case["n"]):
            c.close(f"hull.ubar[{i}]", out["hull"].ubar[i], ubar[i])
            c.close(f"hull.ulow[{i}]", out["hull"].ulow[i], ulow[i])
        H = out["H"]
        check_hypothesis(c, doc, case["h_ubar"], case["h_ulow"], H.worst_inner_value,
                         H.worst_outer_value, H.inner_ok, H.outer_ok)
        c.equal("H.ok", H.ok, case["hull_kind"] == "intercept")
        b = out["band"]
        check_band(c, b.to_dict(), O.band(alpha, doc["d"], ubar, ulow, m, chi), chi)
        if m > 1:
            for side, ref in (("lower", O.lower_envelope(alpha, doc["d"], ulow, m)),
                              ("upper", O.upper_envelope(alpha, doc["d"], ubar, m))):
                env = out[side]
                check_quadruple(c, side, (env.lambda1, env.eta1, env.lambda2, env.eta2), ref)
                c.equal(f"{side}.orientation", env.orientation, side)
            for side, rep in zip(("lower", "upper"), out["contain"]):
                c.equal(f"containment {side} links", len(rep.links), 4)
                c.true(f"containment {side} failed: "
                       + ",".join(link.name for link in rep.links if not link.ok), rep.ok)
            if case["n"] == 2 and m == 2.0:
                lo2, hi2 = O.two_species_m2(alpha, doc["d"], ubar, ulow)
                c.close("two-species m=2 lower", b.lower, lo2 * chi)
                c.close("two-species m=2 upper", b.upper, hi2)
        if case["n"] == 3:
            check_blocking(c, out["blocking"].to_dict(),
                           O.blocking(doc["d"], doc["sigma"], doc["C"], case["w_minus_inf"]))
        return c.problems

    def work(self, case, out):
        n, m = case["n"], case["doc"]["m"]
        counts = {"model.verify_hypothesis_H.lattice_points": O.lattice_points_H(n, self.H_RES[n])}
        if m > 1:
            counts["barrier.verify_containment.lattice_points"] = (
                2 * O.lattice_points_containment(n, self.CONTAIN_RES[n]))
        return counts


# ---- wave_verify --------------------------------------------------------

class WaveVerify:
    """One op: one family member's residual; tanh members are also integrated.

    Per round: three tanh members, one cosine member.  Cosine profiles touch
    u = 0, where integrate stops at its positivity floor, so they run the
    residual only.
    """

    name = "wave_verify"
    target_layers = ("exact", "waves")
    STEP = 1e-3
    # The CLI's default tanh grid, -20:20:0.01, built the way the CLI does.
    TANH_GRID = [-20.0 + i * 0.01 for i in range(4001)]
    COS_POINTS = 2001

    def cases(self, rng):
        return rounds(rng, ("tanh", "tanh", "tanh", "cos"), self._case)

    def _case(self, rng, kind):
        if kind == "cos":
            params = cos_params(rng)
            period = 2.0 * math.pi / abs(params[3])
            grid = [i * period / (self.COS_POINTS - 1) for i in range(self.COS_POINTS)]
            return {"kind": "cos", "params": params, "grid": grid}
        params = tanh_params(rng)
        ties = O.tanh_ties(*params)
        x0 = -rng.uniform(0.2, 1.0)
        steps = rng.randint(600, 1000)
        u0, w0 = O.tanh_front(ties["k1"], ties["k2"], [x0])
        return {"kind": "tanh", "params": params, "alpha": weights(rng, 2),
                "x0": x0, "x1": x0 + steps * self.STEP, "steps": steps,
                "u0": [float(v) for v in u0[0]], "w0": [float(v) for v in w0[0]]}

    def run(self, case, nb, tr):
        if case["kind"] == "cos":
            sol = tr.call("exact.cos_family", nb.cos_family, *case["params"])
            spec = tr.call("exact.CosSolution.system", sol.system)
            profile = tr.call("exact.CosSolution.profile", sol.profile)
            return {"sol": sol, "residual": tr.call("exact.residual", nb.residual,
                                                    spec, profile, case["grid"])}
        alpha = case["alpha"]
        sol = tr.call("exact.tanh_family", nb.tanh_family, *case["params"])
        spec = tr.call("exact.TanhSolution.system", sol.system)
        profile = tr.call("exact.TanhSolution.profile", sol.profile)
        out = {"sol": sol,
               "residual": tr.call("exact.residual", nb.residual, spec, profile, self.TANH_GRID)}
        traj = tr.call("waves.integrate", nb.integrate, spec, case["u0"], case["w0"],
                       (case["x0"], case["x1"]), self.STEP, alpha)
        hull = tr.call("model.hull_intercepts", nb.hull_intercepts, spec.reaction)
        band = tr.call("bounds.bounds_general", nb.bounds_general, alpha, spec.d, hull, spec.m, 1)
        out.update(
            traj=traj, band=band,
            report=tr.call("waves.check_bounds", nb.check_bounds, traj, alpha, band),
            defect=tr.call("waves.flux_balance_defect", nb.flux_balance_defect,
                           spec, traj, alpha))
        return out

    def check(self, case, out):
        c = O.Checker()
        sol = out["sol"]
        ties = (O.cos_ties if case["kind"] == "cos" else O.tanh_ties)(*case["params"])
        for key, want in ties.items():
            c.close(f"{case['kind']}_family.{key}", float(getattr(sol, key)), want)
        res = out["residual"]
        c.equal("residual species", len(res), 3 if case["kind"] == "cos" else 2)
        c.true(f"residual {max(res)!r} above {O.RESIDUAL_TOL}",
               all(math.isfinite(r) and r <= O.RESIDUAL_TOL for r in res))
        if case["kind"] == "cos":
            return c.problems
        d1, d2 = case["params"][:2]
        alpha, traj = case["alpha"], out["traj"]
        c.true(f"integrate truncated: {traj.truncation_reason}", not traj.truncated)
        c.true("integrate clamped a state", not traj.clamped)
        c.equal("integrate grid points", len(traj.xs), case["steps"] + 1)
        if len(traj.xs) == case["steps"] + 1:
            c.close("integrate end point", float(traj.xs[-1]), case["x1"], rel=0.0, abs_tol=1e-9)
            exact_u, _ = O.tanh_front(ties["k1"], ties["k2"], traj.xs)
            err = float(np.max(np.abs(traj.u - exact_u)))
            bound = O.rk4_error_bound(self.STEP, case["x1"] - case["x0"],
                                      max(ties["k1"], ties["k2"]))
            c.true(f"RK4 error {err:.3e} above bound {bound:.3e}", err <= bound)
        sigma, C = (ties["sigma1"], ties["sigma2"]), ((case["params"][2], ties["c12"]),
                                                      (ties["c21"], case["params"][3]))
        ubar, ulow = O.intercepts(sigma, C)
        check_band(c, out["band"].to_dict(), O.band(alpha, (d1, d2), ubar, ulow, 2, 1), 1)
        p = traj.u @ np.asarray(alpha)
        rep = out["report"]
        c.true(f"{len(rep.violations)} band violations", rep.ok)
        c.close("check_bounds min_p", rep.min_p, float(p.min()))
        c.close("check_bounds max_p", rep.max_p, float(p.max()))
        want, scale = O.flux_defect((d1, d2), (2, 2), sigma, C, 0.0, traj.xs, traj.u, traj.w, alpha)
        c.close("flux_balance_defect", out["defect"], want, rel=1e-9, abs_tol=1e-12 * scale)
        return c.problems

    def work(self, case, out):
        if case["kind"] == "cos":
            return {"exact.residual.cos.points": len(case["grid"])}
        steps = len(out["traj"].xs) - 1
        return {"exact.residual.tanh.points": len(self.TANH_GRID),
                "waves.integrate.steps": steps, "waves.integrate.rhs_evals": 4 * steps}


# ---- cli_mix ------------------------------------------------------------

class CliRunner:
    """Runs ``python -m nbarrier.cli`` and start-up probes from a checkout."""

    PROBES = {"python_bare": ["-c", "pass"], "python_no_site": ["-S", "-c", "pass"],
              "numpy_import": ["-c", "import numpy"], "import": ["-c", "import nbarrier.cli"]}

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _exec(self, argv):
        proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, argv):
        return self._exec(["-m", "nbarrier.cli", *argv])

    def probe(self, kind):
        code, _, err = self._exec(self.PROBES[kind])
        if code != 0:
            raise RuntimeError(f"start-up probe {kind!r} failed: {err.strip()}")


def _flag(name, value):
    return f"--{name}={value!r}"


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


class CliMix:
    """One op: one ``nbarrier`` process on a seeded command.

    Per round: the eleven generated commands below once each, plus the next
    README example from the fixture captured at the benchmark's first commit.
    """

    name = "cli_mix"
    target_layers = ("cli",)
    KINDS = ("bounds_m1", "bounds_general", "barrier_lower", "barrier_upper", "verify_h",
             "exact_tanh", "exact_cos", "residual_tanh", "residual_cos", "simulate",
             "nonexistence", "readme")
    SUBCOMMAND = {"bounds_m1": "bounds", "bounds_general": "bounds",
                  "barrier_lower": "barrier", "barrier_upper": "barrier",
                  "verify_h": "verify-h", "exact_tanh": "exact", "exact_cos": "exact",
                  "residual_tanh": "residual", "residual_cos": "residual",
                  "simulate": "simulate", "nonexistence": "nonexistence"}
    SIM_STEP = 2e-3
    VERIFY_SAMPLES = 8

    def __init__(self):
        self.readme = json.loads(FIXTURE.read_text())["examples"]

    def cases(self, rng):
        counter = itertools.count(rng.randrange(len(self.readme)))
        return rounds(rng, self.KINDS, lambda r, kind: self._case(r, kind, counter))

    def _case(self, rng, kind, counter):
        if kind == "readme":
            ex = self.readme[next(counter) % len(self.readme)]
            return {"kind": kind, "sub": ex["argv"][0], "argv": ex["argv"], "example": ex}
        case = {"kind": kind, "sub": self.SUBCOMMAND[kind]}
        if kind in ("bounds_m1", "bounds_general", "barrier_lower", "barrier_upper", "verify_h"):
            n = rng.randint(2, 3) if kind in ("bounds_m1", "verify_h") else rng.randint(2, 4)
            m = 1.0 if kind == "bounds_m1" else rng.choice((1.5, 2.0, 3.0))
            doc = system_doc(rng, n, m)
            case["doc"] = doc
            spec = json.dumps(doc)
            if kind == "verify_h":
                case["argv"] = ["verify-h", spec, f"--samples={self.VERIFY_SAMPLES}"]
            else:
                case["alpha"] = weights(rng, n)
                case["argv"] = [case["sub"], spec, f"--alpha={_csv(case['alpha'])}"]
                if kind.startswith("bounds"):
                    case["chi"] = 0 if rng.random() < 0.2 else 1
                    case["argv"].append(f"--chi={case['chi']}")
                else:
                    case["argv"].append(f"--orientation={kind.split('_')[1]}")
        elif kind in ("exact_tanh", "residual_tanh"):
            case["params"] = tanh_params(rng)
            names = ("d1", "d2", "c11", "c22")
            case["argv"] = [case["sub"], "tanh"] + [_flag(k, v) for k, v in zip(names, case["params"])]
            if kind == "residual_tanh":
                half = round(rng.uniform(2.0, 5.0), 2)
                case["argv"].append(f"--grid={-half!r}:{half!r}:0.02")
        elif kind in ("exact_cos", "residual_cos"):
            case["params"] = cos_params(rng)
            names = ("m1", "m2", "m3", "mu", "d1", "d2", "d3",
                     "c12", "c13", "c21", "c23", "c31", "c32")
            case["argv"] = [case["sub"], "cos"] + [_flag(k, v) for k, v in zip(names, case["params"])]
            if kind == "residual_cos":
                period = 2.0 * math.pi / abs(case["params"][3])
                case["argv"].append(f"--grid=0.0:{period!r}:{period / 400!r}")
        elif kind == "simulate":
            params = tanh_params(rng)
            ties = O.tanh_ties(*params)
            x0 = -rng.uniform(0.2, 1.0)
            steps = rng.randint(100, 200)
            x1 = x0 + steps * self.SIM_STEP
            u0, w0 = O.tanh_front(ties["k1"], ties["k2"], [x0])
            case.update(params=params, x0=x0, x1=x1, steps=steps, alpha=weights(rng, 2))
            case["argv"] = ["simulate", json.dumps(tanh_system_doc(params)),
                            f"--u0={_csv(u0[0])}", f"--w0={_csv(w0[0])}",
                            f"--span={x0!r}:{x1!r}", f"--step={self.SIM_STEP!r}",
                            f"--alpha={_csv(case['alpha'])}", "--check-bounds"]
        else:
            case["doc"] = nonexistence_doc(rng)
            case["argv"] = ["nonexistence", json.dumps(case["doc"])]
        return case

    def run(self, case, cli, tr):
        return tr.call("cli." + case["sub"], cli.run, case["argv"])

    def check(self, case, out):
        c = O.Checker()
        code, stdout, stderr = out
        if case["kind"] == "readme":
            ex = case["example"]
            c.equal(f"README {ex['name']} exit code", code, ex["exit_code"])
            c.true(f"README {ex['name']} output differs from the fixture", stdout == ex["stdout"])
            return c.problems
        c.equal("exit code", code, 0)
        c.equal("stderr", stderr, "")
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            c.problems.append(f"stdout is not JSON: {stdout[:200]!r}")
            return c.problems
        getattr(self, "_check_" + case["kind"].split("_")[0])(c, case, doc)
        return c.problems

    def _check_bounds(self, c, case, doc):
        sysdoc = case["doc"]
        ubar, ulow = O.intercepts(sysdoc["sigma"], sysdoc["C"])
        check_band(c, doc, O.band(case["alpha"], sysdoc["d"], ubar, ulow, sysdoc["m"], case["chi"]),
                   case["chi"])

    def _check_barrier(self, c, case, doc):
        sysdoc, side = case["doc"], case["kind"].split("_")[1]
        ubar, ulow = O.intercepts(sysdoc["sigma"], sysdoc["C"])
        build = O.lower_envelope if side == "lower" else O.upper_envelope
        want = build(case["alpha"], sysdoc["d"], ulow if side == "lower" else ubar, sysdoc["m"])
        check_quadruple(c, side, [doc.get(k) for k in ("lambda1", "eta1", "lambda2", "eta2")], want)
        c.equal("orientation", doc.get("orientation"), side)

    def _check_verify(self, c, case, doc):
        sysdoc = case["doc"]
        ubar, ulow = O.intercepts(sysdoc["sigma"], sysdoc["C"])
        check_hypothesis(c, sysdoc, ubar, ulow, doc.get("worst_inner_value"),
                         doc.get("worst_outer_value"), doc.get("inner_ok"), doc.get("outer_ok"))

    def _check_exact(self, c, case, doc):
        family = case["kind"].split("_")[1]
        ties = (O.cos_ties if family == "cos" else O.tanh_ties)(*case["params"])
        for key, want in ties.items():
            c.close(f"{family}.{key}", doc.get(key), want)
        c.equal("system.n", doc.get("system", {}).get("n"), 3 if family == "cos" else 2)

    def _check_residual(self, c, case, doc):
        res = doc.get("residuals") or []
        c.equal("residual species", len(res), 3 if case["kind"].endswith("cos") else 2)
        c.true(f"residuals {res} above {O.RESIDUAL_TOL}",
               all(isinstance(r, float) and r <= O.RESIDUAL_TOL for r in res))
        c.equal("residual ok", doc.get("ok"), True)
        c.equal("residual tol", doc.get("tol"), O.RESIDUAL_TOL)

    def _check_simulate(self, c, case, doc):
        ties = O.tanh_ties(*case["params"])
        sysdoc = tanh_system_doc(case["params"])
        alpha = case["alpha"]
        c.equal("points", doc.get("points"), case["steps"] + 1)
        c.equal("truncated", doc.get("truncated"), False)
        c.equal("clamped", doc.get("clamped"), False)
        c.equal("violations", doc.get("violations"), [])
        xs = [case["x0"] + k * self.SIM_STEP for k in range(case["steps"] + 1)]
        u, _ = O.tanh_front(ties["k1"], ties["k2"], xs)
        p = u @ alpha
        slack = O.rk4_error_bound(self.SIM_STEP, case["x1"] - case["x0"],
                                  max(ties["k1"], ties["k2"])) * sum(alpha)
        c.close("min_p", doc.get("min_p"), float(p.min()), rel=0.0, abs_tol=slack)
        c.close("max_p", doc.get("max_p"), float(p.max()), rel=0.0, abs_tol=slack)
        ubar, ulow = O.intercepts(sysdoc["sigma"], sysdoc["C"])
        check_band(c, doc.get("bounds") or {}, O.band(alpha, sysdoc["d"], ubar, ulow, 2, 1), 1)

    def _check_nonexistence(self, c, case, doc):
        p = case["doc"]
        want = O.blocking(p["d"], p["sigma"], p["C"], p.get("w_minus_inf"))
        try:
            check_blocking(c, doc, want)
        except (KeyError, TypeError) as exc:
            c.problems.append(f"verdict document lacks {exc}")

    def work(self, case, out):
        return {}


WORKLOADS = {w.name: w for w in (CliMix, GeometrySweep, WaveVerify)}
