"""Demo output pinned byte for byte.

Each ``demos/*.py`` runs in a child process from an empty directory (two
demos write files to their working directory) and must exit 0 with empty
stderr and the stdout stored in ``tests/golden/demos/<name>.txt``.  A
deliberate output change regenerates the files with

    PYTHONPATH=src python tests/test_golden_demos.py

and says why in CHANGES.md.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from test_cli import _child_pythonpath

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def _run_demo(demo: Path, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_child_pythonpath())
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=cwd, env=env
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo, tmp_path):
    run = _run_demo(demo, tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    expected = (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
    # line by line, ends kept: a moved digit shows as one line of the diff
    assert run.stdout.splitlines(keepends=True) == expected.splitlines(keepends=True)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as cwd:
            run = _run_demo(demo, cwd)
        if run.returncode != 0 or run.stderr:
            sys.exit(f"{demo.name} failed:\n{run.stderr}")
        (GOLDEN / f"{demo.stem}.txt").write_text(run.stdout, encoding="utf-8")
        print(f"wrote {demo.stem}", file=sys.stderr)
