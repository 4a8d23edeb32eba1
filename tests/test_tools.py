"""Smoke test of the scripts under tools/."""

import hashlib
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


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
    sys.path.insert(0, str(TOOLS))
    try:
        import outcome_digest
    finally:
        sys.path.remove(str(TOOLS))
    lines = list(itertools.islice(outcome_digest.family_lines(), 20000))
    assert all(re.fullmatch(r"\S.*\.(eval|eval_right|eval_log|derivative_bounds|generalized_inverse|jump_levels"
                            r"|breakpoints_within)\(.*\)\t\S.*\n", line) for line in lines)
    assert "Affine(a=1.0, b=2.0).generalized_inverse(3.0)\t(1.0, 1.0)\n" in lines
