"""Smoke test of the scripts under tools/."""

import hashlib
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
