"""Command-line entry point wiring the library together.

Subcommands: bounds, barrier, verify-h, exact, residual, simulate,
nonexistence.  A subcommand writes nothing: it returns one JSON document
and at most one CSV table.  main writes outputs in this order: it formats
the document, checks every table cell and writes the --csv or --curve-csv
file, then emits the document to stdout or --out; a failed step writes
nothing after it.  Exit codes: 0 success, 1 domain error (including NaN or
infinite parameters, document keys that are unknown or of the wrong type,
arithmetic overflow or underflow, and a result that would put NaN or
infinity into the JSON or into a --csv or --curve-csv cell), 2 usage error
(bad flags, malformed JSON, a non-finite --alpha, --u0 or --w0 entry or
family flag, a --tol that is not positive and finite, a bad or oversized
--grid, a --samples that is not a positive integer or, on barrier, whose
curve lattice is oversized, an unreadable input or unwritable output path),
3 computation succeeded but a verification check failed.  All output is
deterministic; floats use shortest round-trip formatting.

build_parser makes one parser per subcommand, but adds a subcommand's
arguments, --out first, only when that subcommand first parses; exact and
residual build their tanh and cos parsers then, and each of those adds its
flags on its own first parse.  A process so builds the arguments of the one
path it parses, and --help and usage errors read as from the full tree.

No subcommand needs numpy.  simulate steps and summarises its trajectory in
plain Python, through waves.integrate_rows and waves.summarise_rows, and
loads numpy only to re-run a step whose float arithmetic overflowed or
divided by zero.

run is the program entry, of both the nbarrier console script and
python -m nbarrier.cli: it runs main on sys.argv, then freezes the
garbage collector and exits with main's code.  The freeze moves every
object the imports and the command made out of the collector's reach, so
interpreter shutdown does not walk them all in a collection whose result
the exiting process never uses; exit handlers, stream flushes and module
teardown still run.  main(argv) is the in-process entry, for tests and
library callers, and freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

from .barrier import barrier_curves, build_lower_barrier, build_upper_barrier
from .bounds import bounds_for
from .exact import cos_family, residual, tanh_family
from .model import (hull_intercepts, record_dict, system_from_dict, system_to_dict,
                    verify_hypothesis_H)
from .nonexistence import check, params_from_dict
from .waves import integrate_rows, summarise_rows

RESIDUAL_TOL = 1e-8
MAX_GRID_POINTS = 10 ** 6

# Family name -> (solver, its parameter names in positional order).  exact
# and residual each have one subcommand per family, whose required --flags
# are exactly these names.
FAMILIES = {
    "tanh": (tanh_family, ("d1", "d2", "c11", "c22")),
    "cos": (cos_family, ("m1", "m2", "m3", "mu", "d1", "d2", "d3",
                         "c12", "c13", "c21", "c23", "c31", "c32")),
}


class _Usage(ValueError):
    """Bad invocation or malformed input; maps to exit code 2."""


def _load_json(arg: str) -> dict:
    """Accept either a path to a JSON file or inline JSON (starting { or [)."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            raise _Usage(f"cannot read {arg}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Usage(f"malformed JSON at line {exc.lineno} column {exc.colno}: "
                     f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise _Usage("top-level JSON value must be an object")
    return doc


def _parse_floats(text: str, what: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise _Usage(f"{what} must be a comma-separated float list") from exc
    if not all(math.isfinite(v) for v in values):
        raise _Usage(f"{what} entries must be finite")
    return values


def _positive_int(text: str) -> int:
    """argparse type of --samples; argparse names the flag in its error."""
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _parse_pair(text: str, what: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise _Usage(f"{what} must look like A:B")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _Usage(f"{what} must contain floats") from exc


def parse_grid(text: str) -> list:
    """The grid A, A + H, ... of an A:B:H spec, in full steps up to B; the
    argparse type of every --grid, so argparse names the flag in its error.

    Raises an argparse.ArgumentTypeError when the spec is malformed, not
    finite, has B <= A or H <= 0, or would have more than MAX_GRID_POINTS
    points.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like A:B:H")
    try:
        a, b, h = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("grid must contain floats") from None
    if not all(math.isfinite(v) for v in (a, b, h)):
        raise argparse.ArgumentTypeError("grid A, B and H must be finite")
    if h <= 0 or b <= a:
        raise argparse.ArgumentTypeError("grid needs B > A and H > 0")
    span = (b - a) / h
    # Full steps only, as integrate counts them: no point lies past B.
    count = int(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid would have {count:.7g} points, "
                                         f"more than the limit of {MAX_GRID_POINTS}")
    return [a + i * h for i in range(count)]


def _json_text(doc: dict) -> str:
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"result holds a NaN or infinite value ({exc})") from exc


def _emit(text: str, out: str | None):
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise _Usage(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _write_csv(flag: str, path: str, header: list, rows, why: str) -> None:
    """Write rows() under header; str cells (set labels) go as they are.  A
    first rows() pass checks that every other cell is finite before path is
    opened, so a refused file is not left half written."""
    for row in rows():
        for name, value in zip(header, row):
            if not isinstance(value, str) and not math.isfinite(value):
                at = row[0] if isinstance(row[0], str) else float(row[0])
                raise ValueError(f"{flag} column {name} is not finite at "
                                 f"{header[0]} = {at!r}; {why}")
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows():
                fh.write(",".join(v if isinstance(v, str) else repr(float(v))
                                  for v in row) + "\n")
    except OSError as exc:
        raise _Usage(f"cannot write {path}: {exc}") from exc


def _spec_and_alpha(args) -> tuple:
    spec = system_from_dict(_load_json(args.spec))
    return spec, _parse_floats(args.alpha, "--alpha")


def _cmd_bounds(args) -> tuple:
    spec, alpha = _spec_and_alpha(args)
    return bounds_for(spec, alpha, args.chi).to_dict(), 0, None


def _cmd_barrier(args) -> tuple:
    spec, alpha = _spec_and_alpha(args)
    if args.curve_csv:
        count = math.comb(args.samples + spec.n - 1, spec.n - 1)
        if count > MAX_GRID_POINTS:
            raise _Usage(f"--samples {args.samples} gives {count} lattice points "
                         f"per curve, more than the limit of {MAX_GRID_POINTS}")
    hull = hull_intercepts(spec.reaction)
    if args.orientation == "lower":
        env = build_lower_barrier(alpha, spec.d, hull.ulow, spec.m)
    else:
        env = build_upper_barrier(alpha, spec.d, hull.ubar, spec.m)
    table = ("--curve-csv", args.curve_csv, ["set"] + [f"u{i + 1}" for i in range(spec.n)],
             lambda: ([name, *u] for name, points in barrier_curves(env, hull, args.samples)
                      for u in points),
             "the parameters overflow floating point")
    return env.to_dict(), 0, table if args.curve_csv else None


def _cmd_verify_h(args) -> tuple:
    spec = system_from_dict(_load_json(args.spec))
    report = verify_hypothesis_H(spec, hull_intercepts(spec.reaction), args.samples)
    return record_dict(report), 0 if report.ok else 3, None


def _family_from_args(args):
    solve, names = FAMILIES[args.family]
    values = [getattr(args, name) for name in names]
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise _Usage(f"--{name} must be finite")
    return solve(*values)


def _solution_dict(sol) -> dict:
    doc = {name: float(value) for name, value in record_dict(sol).items()}
    doc["system"] = system_to_dict(sol.system())
    return doc


def _cmd_exact(args) -> tuple:
    sol = _family_from_args(args)
    if args.csv and args.grid is None:
        raise _Usage("--csv needs --grid")
    if not args.csv:
        return _solution_dict(sol), 0, None
    profile = sol.profile()
    table = ("--csv", args.csv, ["x"] + [f"u{i + 1}" for i in range(profile.n)],
             lambda: ([x, *(state[0] for state in profile.derivs(x))] for x in args.grid),
             "the profile overflows floating point")
    return _solution_dict(sol), 0, table


def _cmd_residual(args) -> tuple:
    sol = _family_from_args(args)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _Usage("--tol must be positive and finite")
    spec = system_from_dict(_load_json(args.spec)) if args.spec else sol.system()
    xs = args.grid or ([-20.0 + i * 0.01 for i in range(4001)] if args.family == "tanh"
                       else [i * sol.period / 2000.0 for i in range(2001)])
    worst = residual(spec, sol.profile(), xs)
    ok = all(r <= args.tol for r in worst)
    return {"residuals": list(worst), "tol": args.tol, "ok": ok}, 0 if ok else 3, None


def _cmd_simulate(args) -> tuple:
    spec = system_from_dict(_load_json(args.spec))
    u0 = _parse_floats(args.u0, "--u0")
    w0 = _parse_floats(args.w0, "--w0")
    span = _parse_pair(args.span, "--span")
    alpha = _parse_floats(args.alpha, "--alpha") if args.alpha else None
    xs, ys, alpha, reason = integrate_rows(spec, u0, w0, span, args.step, alpha=alpha)
    bounds = bounds_for(spec, alpha, args.chi) if args.check_bounds else None
    rows, clamped, report = summarise_rows(spec, xs, ys, alpha, bounds)
    summary = {
        "points": len(xs),
        "min_p": report.min_p,
        "max_p": report.max_p,
        "truncated": reason is not None,
        "truncation_reason": reason,
        "clamped": clamped,
    }
    code = 0
    if bounds is not None:
        summary["bounds"] = bounds.to_dict()
        summary["violations"] = [list(v) for v in report.violations]
        if not report.ok:
            code = 3
    header = (["x"] + [f"u{i + 1}" for i in range(spec.n)]
              + [f"w{i + 1}" for i in range(spec.n)] + ["p", "q"])
    table = ("--csv", args.csv, header, rows, "the weighted total overflows floating point")
    return summary, code, table if args.csv else None


def _cmd_nonexistence(args) -> tuple:
    return check(params_from_dict(_load_json(args.params))).to_dict(), 0, None


# Command name -> (its help line, the function that runs it).  exact and
# residual run theirs from one subcommand per family.
COMMANDS = {
    "bounds": ("closed-form bounds on the weighted total", _cmd_bounds),
    "barrier": ("build one barrier envelope", _cmd_barrier),
    "verify-h": ("check the sign hypothesis exactly at the hull vertices", _cmd_verify_h),
    "exact": ("solve a closed-form family", _cmd_exact),
    "residual": ("wave-equation residual of a family", _cmd_residual),
    "simulate": ("integrate a trajectory", _cmd_simulate),
    "nonexistence": ("three-species wave blocking verdict", _cmd_nonexistence),
}


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command, or of one family of exact or residual,
    which adds its arguments the first time it parses.  A process parses one
    path through the command tree, so it builds the arguments of that path
    alone; --help and usage errors come after the build, so they read the
    same as from a tree built in full."""

    def __init__(self, *args, command: str, family: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._unbuilt = (command, family)

    def parse_known_args(self, args=None, namespace=None):
        if self._unbuilt:
            command, family = self._unbuilt
            self._unbuilt = None
            _add_arguments(self, command, family)
        return super().parse_known_args(args, namespace)


def _add_arguments(p: argparse.ArgumentParser, command: str, family: str | None) -> None:
    """Add command's arguments to its parser p, --out first.  exact and
    residual without a family get one subcommand per family instead, whose
    parser adds that family's flags on its own first parse."""
    if family is None and command in ("exact", "residual"):
        families = p.add_subparsers(dest="family", required=True)
        for name in FAMILIES:
            families.add_parser(name, help=f"the {name} family", allow_abbrev=False,
                                command=command, family=name)
        return
    p.add_argument("--out", help="write the JSON document here, not to stdout")
    if command == "bounds":
        p.add_argument("spec", help="system JSON (path or inline)")
        p.add_argument("--alpha", required=True, help="comma-separated weights")
        p.add_argument("--chi", type=int, choices=(0, 1), default=1,
                       help="boundary characteristic (default 1)")
    elif command == "barrier":
        p.add_argument("spec")
        p.add_argument("--alpha", required=True)
        p.add_argument("--orientation", choices=("lower", "upper"), required=True)
        p.add_argument("--samples", type=_positive_int, default=100,
                       help="lattice resolution for --curve-csv")
        p.add_argument("--curve-csv", dest="curve_csv")
    elif command == "verify-h":
        p.add_argument("spec")
        p.add_argument("--samples", type=_positive_int, default=50,
                       help="accepted for compatibility; does not change the result")
    elif command in ("exact", "residual"):
        for name in FAMILIES[family][1]:
            p.add_argument(f"--{name}", type=float, required=True)
        p.add_argument("--grid", type=parse_grid, help="A:B:H sample grid")
        if command == "exact":
            p.add_argument("--csv", help="write x,u1..un samples here")
        else:
            p.add_argument("--spec", help="check against this system instead "
                                          "of the induced one")
            p.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    elif command == "simulate":
        p.add_argument("spec")
        p.add_argument("--u0", required=True)
        p.add_argument("--w0", required=True)
        p.add_argument("--span", required=True, help="A:B")
        p.add_argument("--step", type=float, required=True)
        p.add_argument("--alpha")
        p.add_argument("--csv")
        p.add_argument("--check-bounds", dest="check_bounds", action="store_true")
        p.add_argument("--chi", type=int, choices=(0, 1), default=1)
    else:
        p.add_argument("params", help="parameter JSON (path or inline)")
    p.set_defaults(fn=COMMANDS[command][1])


def build_parser() -> argparse.ArgumentParser:
    """The nbarrier parser; each command's parser adds its arguments on its
    first parse (_CommandParser)."""
    parser = argparse.ArgumentParser(
        prog="nbarrier", allow_abbrev=False,
        description="Barrier bounds, exact profiles and wave checks for "
                    "degenerate competition systems.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (what, _) in COMMANDS.items():
        # No parser takes a flag prefix.
        sub.add_parser(command, help=what, allow_abbrev=False, command=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, code, table = args.fn(args)
        text = _json_text(doc)
        if table:
            _write_csv(*table)
        _emit(text, args.out)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # Finite but extreme parameters overflow a power or underflow a divisor.
        print(f"error: parameters out of floating-point range "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return 1
    return code


def run():
    """Exit with main's code on sys.argv, after freezing the collector."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
