"""Sweep the weak competitor's growth rate and tabulate wave-blocking verdicts.

For each sigma3 on the grid the script evaluates both blocking criteria for
the three-species family: the floor criterion needs no boundary data, the
cap criterion compares the invader's boundary level against a threshold and
stays inconclusive when no boundary value is supplied.
"""

from __future__ import annotations

import argparse
import csv
import sys

from nbarrier.cli import parse_grid
from nbarrier.nonexistence import check, params_from_dict

BASE = {
    "d": [1.0, 2.0, 1.0],
    "sigma": [10.0, 12.0, None],
    "C": [[1.0, 1.0, 0.5], [1.0, 2.0, 0.5], [1.0, 1.0, 2.0]],
}

FIELDS = ("sigma3", "floor_applicable", "lambda_floor", "floor_blocked",
          "cap_applicable", "lambda_cap", "cap_threshold", "cap_blocked")


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return f"{v:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=parse_grid, default="0.5:44.5:2.0",
                    help="sigma3 grid A:B:H")
    ap.add_argument("--w-minus-inf", type=float,
                    help="invader level at the left boundary")
    ap.add_argument("--w-plus-inf", type=float,
                    help="invader level at the right boundary")
    ap.add_argument("--csv", help="write rows here instead of a table")
    args = ap.parse_args()

    rows = []
    for s3 in args.grid:
        doc = dict(BASE, sigma=[BASE["sigma"][0], BASE["sigma"][1], s3])
        if args.w_minus_inf is not None:
            doc["w_minus_inf"] = args.w_minus_inf
        if args.w_plus_inf is not None:
            doc["w_plus_inf"] = args.w_plus_inf
        verdict = check(params_from_dict(doc))
        ci, cii = verdict.case_i, verdict.case_ii
        rows.append((s3, ci.applicable, ci.lambda_star, ci.blocked,
                     cii.applicable, cii.lambda_star_upper, cii.threshold,
                     cii.blocked))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(FIELDS)
            for row in rows:
                writer.writerow("" if v is None else v for v in row)
        print(f"wrote {len(rows)} rows to {args.csv}")
        return 0

    widths = tuple(max(len(f), 12) for f in FIELDS)
    print("  ".join(f.rjust(w) for f, w in zip(FIELDS, widths)))
    for row in rows:
        print("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))
    if args.w_minus_inf is None and args.w_plus_inf is None:
        print("note: cap verdicts are inconclusive without a boundary level "
              "(--w-minus-inf or --w-plus-inf)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
