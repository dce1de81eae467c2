"""Smoke tests: the sweep scripts in ``scripts/`` run end to end on tiny families."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_cross_validate_rank_two():
    result = run_script("cross_validate.py", "--max-rank", "2", "--max-mult", "2")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "8 matrices checked, 0 failures" in result.stdout
    assert "oracle sweep: 0 mismatches" in result.stdout
    assert "Traceback" not in result.stderr


def test_volume_tables_latex():
    result = run_script("volume_tables.py", "--rank", "2", "--max-mult", "2", "--latex")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 8
    assert lines[0] == "m=(1, 1, 1) (degree 1): a_{1}"
    assert lines[-1] == (
        "m=(2, 2, 2) (degree 4): \\frac{1}{12} a_{1}^{4} + \\frac{1}{6} a_{1}^{3} a_{2}"
    )
