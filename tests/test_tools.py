"""Smoke test of the scripts under tools/."""

import hashlib
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _import_digest():
    sys.path.insert(0, str(TOOLS))
    try:
        import outcome_digest
    finally:
        sys.path.remove(str(TOOLS))
    return outcome_digest


def test_outcome_digest_prints_one_stable_hex_line():
    # two interpreters with different hash seeds: no outcome may hang on set order
    outs = []
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, str(TOOLS / "outcome_digest.py"), "--ops", "general-net:71"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        assert run.returncode == 0, run.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", run.stdout)
        assert run.stderr.startswith("7 outcomes from ")
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_outcome_digest_lines_are_what_the_digest_hashes():
    def run(*extra):
        done = subprocess.run([sys.executable, str(TOOLS / "outcome_digest.py"), "--ops", "general-net:71", *extra],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    lines = run("--lines")
    assert len(lines.splitlines()) == 7
    assert all(re.fullmatch(r"general-net:71/\S+\t\S.*", line) for line in lines.splitlines())
    assert hashlib.sha256(lines.encode()).hexdigest() + "\n" == run()


def test_family_digest_prints_one_hex_line_over_every_family_call():
    run = subprocess.run([sys.executable, str(TOOLS / "outcome_digest.py"), "--families"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", run.stdout)
    count = int(run.stderr.split()[0])
    assert count > 500_000  # 2012 seeded points and every knot of the lattice families


def test_family_lines_name_the_call_and_its_outcome():
    outcome_digest = _import_digest()
    lines = list(itertools.islice(outcome_digest.family_lines(), 20000))
    assert all(re.fullmatch(r"\S.*\.(eval|eval_right|eval_log|derivative_bounds|generalized_inverse|jump_levels"
                            r"|breakpoints_within)\(.*\)\t\S.*\n", line) for line in lines)
    assert "Affine(a=1.0, b=2.0).generalized_inverse(3.0)\t(1.0, 1.0)\n" in lines


def test_general_digest_builds_the_tests_grids():
    from test_equilibrium import affine, bpr, grid
    from wardrop.network import network_to_spec

    outcome_digest = _import_digest()
    for n in (3, 4, 5, 6):
        for name, cost_of in (("affine", affine), ("bpr", bpr)):
            for seed in (0, 1, 2):
                assert network_to_spec(outcome_digest.grid(n, name, seed)) == network_to_spec(grid(n, cost_of, seed))


def test_general_lines_name_the_network_the_demand_and_the_solver():
    outcome_digest = _import_digest()
    lines = list(itertools.islice(outcome_digest.general_lines(ROOT), 12))
    assert all(re.fullmatch(r"grid3-affine-0@[0-9.e+-]+/(poa|wardrop_general|social_optimum)\t\S.*\n", line)
               for line in lines)
    assert [line.split("\t")[0] for line in lines[:3]] == [
        "grid3-affine-0@0.3/poa", "grid3-affine-0@0.3/wardrop_general", "grid3-affine-0@0.3/social_optimum"]
    assert lines[0].split("\t")[1].startswith("PoaResult(M=0.3, ")


def test_ab_time_checks_and_times_one_checkout_against_itself():
    run = subprocess.run([sys.executable, str(TOOLS / "ab_time.py"), str(ROOT), str(ROOT),
                          "--workload", "general-net", "--seconds", "0.2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[4:]]
    assert len(rows) == 8 and rows[-1][0] == "total"  # general-net's 7 ops, then the sums
    for op, a, b, ratio in rows:
        assert float(a) > 0 and float(b) > 0 and float(ratio) == pytest.approx(float(b) / float(a), abs=2e-3)
    assert {row[0] for row in rows} >= {"grid-bpr@3", "grid-bpr@10", "braess-affine@1"}
