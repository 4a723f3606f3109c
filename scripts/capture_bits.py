"""Print one line per seeded call of a capture section, for same-bits checks.

Each line names a case and a call, then gives the repr of its result, or
the exception class and message of a refusal, then the category and
message of every warning the call raised.  The cases are drawn from --seed:
systems of n = 1..6 species with m in {1, 1.5, 2, 3} and entries
10^U(-s, s) for s up to 150, some with one edge entry (NaN, +-inf, 0.0, a
subnormal, an int, an int no float holds, a Fraction) or a vector of the
wrong length; the kernels section draws sine profiles.  Three sections:

  geometry      hull_intercepts, verify_hypothesis_H on the intercept hull
                and on hulls moved off it so that H fails, both barrier
                builders, bounds_general, bounds_m1, bounds_two_species_m2
                at n = 2, and verify_containment and barrier_curves (at
                resolution 3) on every envelope that builds;
  nonexistence  check_case_i, check_case_ii and check on three-species
                parameters, first on the screening system of
                screen_nonexistence.py with sigma scaled by 10^-140 .. 10^-170,
                then on drawn ones;
  kernels       residual of a sine profile over a grid and at each point,
                integrate_rows over 0:0.5 (0:0.1 at m = 1, so that no step
                re-runs on numpy) and summarise_rows; three cases in turn per
                n = 1..UNROLL_LIMIT + 1, m in EXPONENTS and l in KERNEL_LS.

The script imports no numpy, so it runs as a plain script on every
supported Python:

    PYTHONPATH=src python scripts/capture_bits.py --section geometry --seed 1
    PYTHONPATH=src python scripts/capture_bits.py --section nonexistence --digest
    PYTHONPATH=src python scripts/capture_bits.py --check tests/capture_bits.sha256

Builtin sum is compensated from Python 3.12 on, and the tangency sum, the
dual peak, the ellipsoid points and kernel rows beyond UNROLL_LIMIT use it,
so a capture has one digest on 3.10 and 3.11 and another on 3.12 and
later.  --check recomputes every digest that a pin file lists for the
running interpreter's family and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import warnings
from fractions import Fraction
from itertools import chain, islice, product, repeat
from math import cos, inf, nan, sin

from nbarrier import (HullBounds, Profile, ReactionSpec, SystemSpec, ThreeSpeciesParams,
                      barrier_curves, bounds_general, bounds_m1, bounds_two_species_m2,
                      build_lower_barrier, build_upper_barrier, check, check_case_i,
                      check_case_ii, hull_intercepts, residual, verify_containment,
                      verify_hypothesis_H)
from nbarrier.kernels import UNROLL_LIMIT
from nbarrier.waves import integrate_rows, summarise_rows

SCALES = (1, 3, 30, 150)
EXPONENTS = (1.0, 1.5, 2.0, 3.0)
VALUE_EDGES = (nan, inf, -inf, 0.0, 5e-324, 1e-310, "int", "huge-int", "fraction")
LENGTH_EDGES = ("short", "long")
# The screening system of scripts/screen_nonexistence.py, sigma3 = 2.5.
SCREEN = {"d": (1.0, 2.0, 1.0), "sigma": (10.0, 12.0, 2.5),
          "C": ((1.0, 1.0, 0.5), (1.0, 2.0, 0.5), (1.0, 1.0, 2.0))}
KERNEL_LS = (1.0, 1.5, 2.0)
KERNEL_GRID = [-2.0 + k * 0.1 for k in range(41)]


def family() -> str:
    """The interpreter family a digest belongs to: builtin sum is
    compensated from 3.12 on."""
    return "3.12+" if sys.version_info >= (3, 12) else "3.10-3.11"


def outcome(call, *args):
    """(ok, result, text): text is the repr of call(*args), or the class and
    message of the exception it raised, then each warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
            ok, text = True, repr(result)
        except Exception as exc:
            result, ok, text = None, False, f"{type(exc).__name__}: {exc}"
    for w in caught:
        text += f" | {w.category.__name__}: {w.message}"
    return ok, result, text


def magnitude(rng, s: int) -> float:
    return 10.0 ** rng.uniform(-s, s)


def edge_value(rng, kind):
    if kind == "int":
        return rng.randint(1, 9)
    if kind == "huge-int":
        return 10 ** 400
    if kind == "fraction":
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return kind


def with_edge(rng, values: tuple, kinds=VALUE_EDGES + LENGTH_EDGES) -> tuple:
    """values with one entry replaced by an edge value, or one entry
    dropped or repeated."""
    kind = rng.choice(kinds)
    values = list(values)
    if kind == "short":
        del values[rng.randrange(len(values))]
    elif kind == "long":
        values.append(values[0])
    else:
        values[rng.randrange(len(values))] = edge_value(rng, kind)
    return tuple(values)


def moved_hull(hull, side: str, delta: float):
    """The hull with its ulow (or ubar) entries moved the fraction delta of
    the way across, so that H fails on the inner (or outer) region."""
    ubar, ulow = hull.ubar, hull.ulow
    if side == "inner":
        return HullBounds(ubar=ubar, ulow=tuple(lo + delta * (hi - lo)
                                                for hi, lo in zip(ubar, ulow)))
    return HullBounds(ubar=tuple(hi - delta * (hi - lo) for hi, lo in zip(ubar, ulow)),
                      ulow=ulow)


def curves(envelope, hull):
    return tuple((name, tuple(points)) for name, points in barrier_curves(envelope, hull, 3))


def geometry_case(rng):
    """(call name, outcome text) pairs of one drawn system; a call runs only
    once the calls it depends on have succeeded."""
    n, m, s = rng.randint(1, 6), rng.choice(EXPONENTS), rng.choice(SCALES)
    sigma = tuple(magnitude(rng, s) for _ in range(n))
    C = [tuple(magnitude(rng, s) for _ in range(n)) for _ in range(n)]
    d = tuple(magnitude(rng, s) for _ in range(n))
    alpha = tuple(magnitude(rng, s) for _ in range(n))
    chi = rng.choice((0, 1, 1, 1))
    target = rng.choice(("sigma", "C", "d", "alpha", "ulow", "ubar", "m", None, None, None,
                         None, None, None, None))
    if target == "sigma":
        sigma = with_edge(rng, sigma)
    elif target == "C":
        i = rng.randrange(n)
        C[i] = with_edge(rng, C[i])
    elif target == "d":
        d = with_edge(rng, d)
    elif target == "alpha":
        alpha = with_edge(rng, alpha)
    elif target == "m":
        m = edge_value(rng, rng.choice(VALUE_EDGES))
    # Draws made after a call come from here, so a refusal shifts no later case.
    later = random.Random(rng.getrandbits(64))

    ok, reaction, text = outcome(ReactionSpec, sigma, tuple(C))
    yield "ReactionSpec", text
    if not ok:
        return
    ok, hull, text = outcome(hull_intercepts, reaction)
    yield "hull_intercepts", text
    if not ok:
        return
    ok, spec, text = outcome(SystemSpec, n, m, d, (1.0,) * n, 0.0, reaction)
    yield "SystemSpec", text
    if ok:
        yield "verify_hypothesis_H", outcome(verify_hypothesis_H, spec, hull, 1)[2]
        for side in ("inner", "outer"):
            ok, moved, text = outcome(moved_hull, hull, side, later.uniform(0.05, 0.5))
            yield f"HullBounds {side}_fail", text
            if ok:
                yield f"verify_hypothesis_H {side}_fail", outcome(
                    verify_hypothesis_H, spec, moved, 1)[2]
    ulow, ubar = hull.ulow, hull.ubar
    if target == "ulow":
        ulow = with_edge(later, ulow)
    elif target == "ubar":
        ubar = with_edge(later, ubar)
    envelopes = []
    for name, build, face in (("build_lower_barrier", build_lower_barrier, ulow),
                              ("build_upper_barrier", build_upper_barrier, ubar)):
        ok, envelope, text = outcome(build, alpha, d, face, m)
        yield name, text
        if ok:
            envelopes.append(envelope)
    yield "bounds_general", outcome(bounds_general, alpha, d, hull, m, chi)[2]
    yield "bounds_m1", outcome(bounds_m1, alpha, d, hull, chi)[2]
    if n == len(alpha) == len(d) == 2:
        yield "bounds_two_species_m2", outcome(
            bounds_two_species_m2, alpha[0], alpha[1], d[0], d[1], hull, chi)[2]
    for envelope in envelopes:
        side = envelope.orientation
        yield f"verify_containment {side}", outcome(verify_containment, envelope, hull, 1)[2]
        yield f"barrier_curves {side}", outcome(curves, envelope, hull)[2]


def three_species(rng):
    """Drawn three-species parameters, some with one edge entry."""
    s = rng.choice(SCALES)
    d = tuple(magnitude(rng, s) for _ in range(3))
    sigma = tuple(magnitude(rng, s) for _ in range(3))
    C = [tuple(magnitude(rng, s) for _ in range(3)) for _ in range(3)]
    w = [rng.choice((None, None, rng.uniform(0.0, 5.0) * magnitude(rng, s)))
         for _ in range(2)]
    target = rng.choice(("d", "sigma", "C", "w", None, None, None, None, None, None))
    if target == "d":
        d = with_edge(rng, d)
    elif target == "sigma":
        sigma = with_edge(rng, sigma)
    elif target == "C":
        i = rng.randrange(3)
        C[i] = with_edge(rng, C[i])
    elif target == "w":
        w[rng.randrange(2)] = edge_value(rng, rng.choice(VALUE_EDGES + (-1.0,)))
    return d, sigma, tuple(C), *w


def nonexistence_case(args):
    ok, params, text = outcome(ThreeSpeciesParams, *args)
    yield "ThreeSpeciesParams", text
    if ok:
        for call in (check_case_i, check_case_ii, check):
            yield call.__name__, outcome(call, params)[2]


def screening_ladder():
    """The screening system with sigma scaled by 10^-e, e = 140..170,
    where case (i)'s lambda_star underflows."""
    for e in range(140, 171):
        k = 10.0 ** -e
        yield SCREEN["d"], tuple(k * s for s in SCREEN["sigma"]), SCREEN["C"], None, None


def nonexistence_cases(rng):
    """The screening ladder's cases, then drawn ones."""
    return map(nonexistence_case, chain(screening_ladder(), map(three_species, repeat(rng))))


def sine_case(rng, n: int, m: float, l: float):
    """A system with n species, exponent m and every l_i = l, a sine profile
    u_i = a_i + b_i sin(c_i x) and its initial state at x = 0, from rng."""
    spec = SystemSpec(
        n=n, m=m, d=tuple(rng.uniform(0.3, 3.0) for _ in range(n)), l=(l,) * n,
        theta=rng.uniform(-1.0, 1.0),
        reaction=ReactionSpec(
            sigma=tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
            C=tuple(tuple(rng.uniform(0.1, 2.0) for _ in range(n)) for _ in range(n))))
    harmonics = tuple((rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
                      for _ in range(n))

    def derivs(x):
        return tuple((a + b * sin(c * x), b * c * cos(c * x), -b * c * c * sin(c * x))
                     for a, b, c in harmonics)

    u0 = tuple(a for a, _, _ in harmonics)
    w0 = tuple(rng.uniform(-0.5, 0.5) for _ in range(n))
    return spec, Profile.of(n, m, derivs), u0, w0


def residuals(spec, profile):
    """residual over KERNEL_GRID, then at each of its points alone: |r_i| there."""
    return residual(spec, profile, KERNEL_GRID), tuple(
        residual(spec, profile, (x,)) for x in KERNEL_GRID)


def summary(spec, xs, ys, alpha):
    """summarise_rows' rows, clamped and report, as simulate takes them."""
    rows, clamped, report = summarise_rows(spec, xs, ys, alpha)
    return tuple(rows()), clamped, report


def kernel_case(rng, n: int, m: float, l: float):
    spec, profile, u0, w0 = sine_case(rng, n, m, l)
    yield "residual", outcome(residuals, spec, profile)[2]
    span = (0.0, 0.1 if m == 1.0 else 0.5)
    ok, trajectory, text = outcome(integrate_rows, spec, u0, w0, span, 0.01)
    yield "integrate_rows", text
    if ok:
        yield "summarise_rows", outcome(summary, spec, *trajectory[:3])[2]


def kernel_cases(rng):
    """Three sine cases per n = 1..UNROLL_LIMIT + 1, m and l, in that order."""
    grid = product(range(1, UNROLL_LIMIT + 2), EXPONENTS, KERNEL_LS, range(3))
    return (kernel_case(rng, n, m, l) for n, m, l, _ in grid)


# Each section's cases, from its rng, and its default number of them.
SECTIONS = {"geometry": (lambda rng: map(geometry_case, repeat(rng)), 5000),
            "nonexistence": (nonexistence_cases, 10000), "kernels": (kernel_cases, 324)}


def lines(section: str, seed: int, cases: int):
    """One line per call of the first cases cases of a section."""
    drawn = SECTIONS[section][0](random.Random(seed))
    for k, case in enumerate(islice(drawn, cases)):
        for call, text in case:
            yield f"{k} {call}: {text}"


def digest(section: str, seed: int, cases: int) -> str:
    return hashlib.sha256("\n".join(lines(section, seed, cases)).encode()).hexdigest()


def pins(path: str) -> list:
    """(digest, section, seed, cases, family) per line of a pin file; lines
    starting with # are comments.  The type of --check, so that a pin of an
    unknown section is a usage error."""
    found = []
    with open(path) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                pinned, section, seed, cases, fam = line.split()
                if section not in SECTIONS:
                    raise argparse.ArgumentTypeError(f"{path} pins an unknown section {section!r}")
                found.append((pinned, section, int(seed), int(cases), fam))
    return found


def check_pins(entries: list, max_cases: int | None) -> int:
    """Recompute every pin of entries for this interpreter's family with at
    most max_cases cases; 0 when each matches and at least one was checked."""
    checked = failed = 0
    for pinned, section, seed, cases, fam in entries:
        if fam != family() or (max_cases is not None and cases > max_cases):
            continue
        got = digest(section, seed, cases)
        checked += 1
        failed += got != pinned
        print(f"{'ok' if got == pinned else 'MISMATCH'} {section} --seed {seed} "
              f"--cases {cases} ({fam}): {got}")
    if not checked:
        print(f"no capture is pinned for Python {family()}", file=sys.stderr)
    return 1 if failed or not checked else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--section", choices=sorted(SECTIONS), default="geometry")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cases", type=int,
                    help="cases to draw (default: 5000 geometry, 10000 nonexistence, "
                         "324 kernels)")
    ap.add_argument("--digest", action="store_true",
                    help="print the SHA-256 of the lines instead of the lines")
    ap.add_argument("--check", metavar="PINS", type=pins,
                    help="recompute the digests pinned in PINS for this Python")
    ap.add_argument("--max-cases", type=int,
                    help="with --check, skip pins of more cases than this")
    args = ap.parse_args()
    if args.check is not None:
        return check_pins(args.check, args.max_cases)
    cases = SECTIONS[args.section][1] if args.cases is None else args.cases
    if args.digest:
        print(digest(args.section, args.seed, cases))
    else:
        for line in lines(args.section, args.seed, cases):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
