"""CLI output pinned byte for byte on a fixed set of invocations.

Each case runs ``wardrop.cli.main`` in process and compares stdout, stderr
and the exit code with ``tests/golden/<name>.json``.  Refactors must keep
these identical; a deliberate output change regenerates the files with

    PYTHONPATH=src python tests/test_golden_cli.py

and says why in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from wardrop.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
BRAESS = str(GOLDEN / "braess.json")
SMOOTH3 = str(GOLDEN / "smooth3.json")  # polynomial, saturating-linear and x^2 links
FORK = str(GOLDEN / "fork.json")  # one edge then two: gradient projection, then an exact last move

CASES = {
    "poa-step3": ["poa", "--network", "step:3", "--demand", "17"],
    "poa-pigou": ["poa", "--network", "pigou", "--demand", "1"],
    "poa-exp": ["poa", "--network", "exp:factorial", "--demand", "31"],
    "opt-pwl2": ["opt", "--network", "pwl:2", "--demand", "5"],
    "opt-exp": ["opt", "--network", "exp:factorial", "--demand", "31"],
    "opt-pigou-as-step": ["opt", "--network", "pigou", "--demand", "1", "--method", "step"],
    "opt-step3": ["opt", "--network", "step:3", "--demand", "17"],
    "solve-exp-log": ["solve", "--network", "exp:factorial", "--demand", "31"],
    "sweep-step2": ["sweep", "--network", "step:2", "--from", "4", "--to", "64",
                    "--per-decade", "48", "--jobs", "1"],
    "sweep-exp": ["sweep", "--network", "exp:factorial", "--from", "13", "--to", "1000",
                  "--per-decade", "12", "--jobs", "1"],
    "repro-thm6": ["repro", "thm6", "--a", "2"],
    "repro-rv": ["repro", "rv"],
    "poa-braess": ["poa", "--network", BRAESS, "--demand", "0.7"],
    "poa-smooth3": ["poa", "--network", SMOOTH3, "--demand", "50"],
    "solve-smooth3": ["solve", "--network", SMOOTH3, "--demand", "7"],
    "poa-fork": ["poa", "--network", FORK, "--demand", "3"],
    "solve-fork": ["solve", "--network", FORK, "--demand", "3"],
}


def _capture(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = _capture(CASES[name])
    assert (got["exit"], got["stderr"]) == (expected["exit"], expected["stderr"])
    # line by line, ends kept: a moved digit shows as one line of the diff
    assert got["stdout"].splitlines(keepends=True) == expected["stdout"].splitlines(keepends=True)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items() if argv[0] != "sweep"))
def test_json_golden_is_strict_json(name):
    # every pinned JSON output parses without NaN or Infinity; an error
    # writes nothing to stdout
    stdout = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["stdout"]
    if stdout:
        assert isinstance(json.loads(stdout, parse_constant=_refuse_constant), dict)


if __name__ == "__main__":
    for name, argv in CASES.items():
        text = json.dumps(_capture(argv), indent=1, sort_keys=True)
        (GOLDEN / f"{name}.json").write_text(text + "\n", encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)
