"""Capture the README command examples' JSON output and exit codes.

    python3 bench/capture_fixture.py     # from the root of a checkout

writes ``bench/fixtures/readme_cli.json``.  ``cli_mix`` replays each example
and counts any change of stdout or exit code as a failed op, so recapture
only when a change of output is intended.  The examples are the README's,
with ``lv.json`` inlined and the CSV side outputs left off.  The README's
``simulate`` example (10,000 RK4 steps, about a second) is left out: one op
would cost as much as four others, and ``cli_mix`` runs short ``simulate``
commands of its own.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import FIXTURE, CliRunner

LV = json.dumps({"n": 2, "m": 2, "d": [3.0, 4.0], "l": [2, 2], "theta": 0.0,
                 "sigma": [1.0, 1.0], "C": [[1.0, 2.0], [3.0, 1.0]]})
TANH = ["--d1", "3", "--d2", "4", "--c11", "1", "--c22", "2"]
COS = ["--m1=-0.1", "--m2", "0.0909090909", "--m3", "0.0833333333", "--mu", "2",
       "--d1", "1", "--d2", "1", "--d3", "1", "--c12", "17.7833333333", "--c13", "1",
       "--c21", "15.9090909091", "--c23", "0.5454545455", "--c31", "15",
       "--c32", "0.9166666667"]
NONEX = json.dumps({"d": [1, 2, 1], "sigma": [10, 12, 40],
                    "C": [[1, 1, 0.5], [1, 2, 0.5], [1, 1, 2]], "w_minus_inf": 4})
EXAMPLES = {
    "bounds": ["bounds", LV, "--alpha", "1,2"],
    "barrier_lower": ["barrier", LV, "--alpha", "1,2", "--orientation", "lower"],
    "verify_h": ["verify-h", LV, "--samples", "50"],
    "exact_tanh": ["exact", "tanh", *TANH, "--grid=-1:1:0.01"],
    "residual_tanh": ["residual", "tanh", *TANH],
    "exact_cos": ["exact", "cos", *COS],
    "nonexistence": ["nonexistence", NONEX],
}


def main() -> int:
    cli = CliRunner(Path.cwd())
    examples = []
    for name, argv in EXAMPLES.items():
        code, stdout, stderr = cli.run(argv)
        if stderr:
            raise SystemExit(f"{name} wrote to stderr: {stderr}")
        examples.append({"name": name, "argv": argv, "exit_code": code, "stdout": stdout})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"examples": examples}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
