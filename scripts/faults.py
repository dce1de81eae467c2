"""Run the fault catalogue: each fault is one edit that a named test must catch.

A fault is a name, a file, an exact old text, the new text that replaces it
and the pytest target expected to fail on the edit.  For each fault the
tracked files (``git ls-files``, as they are on disk) are copied to a
temporary directory.  The fault is refused unless its old text occurs
exactly once in the copy, so a change that moves the faulted code breaks
the catalogue loudly instead of testing nothing.  Then the edit is made and
``python -m pytest -x -q <target>`` runs in the copy with ``PYTHONPATH=src``.
A run whose tests fail prints ``caught``; a run that passes prints
``SURVIVED``, and any other pytest exit (no tests collected, an error during
collection) prints ``ERROR``.  The script exits 1 unless every fault is
caught.  ``tests/test_scripts.py`` checks in tier-1 that every old text
occurs exactly once in its file, without copying or running anything.

Usage: python scripts/faults.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Fault(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    target: str


FAULTS = (
    # the checkers: each certificate or check must fail when it is weakened
    Fault("node-image-without-sink-shift", "src/flowvol/diffop.py",
          "top, guard_l = row[-1] * u, guard * u", "top, guard_l = 0, guard * u",
          "tests/test_acceptance.py::test_criterion_05_kernel_uniqueness"),
    Fault("lift-compares-only-the-matrices", "src/flowvol/cli.py",
          "if lifted == direct:", "if lifted.m == direct.m:",
          "tests/test_cli.py::TestCommands::test_lift_that_differs_from_the_direct_residue_exits_1"),
    Fault("reciprocity-sign", "src/flowvol/oracle.py",
          "sign = (-1) ** degree", "sign = (-1) ** (degree + 1)",
          "tests/test_acceptance.py::test_criterion_09_oracle_agreement"),
    Fault("corner-check-off", "src/flowvol/residue.py",
          "if corner != m.corner_value:", "if False:",
          "tests/test_residue.py"),
    Fault("nullspace-without-content-step", "src/flowvol/linalg.py",
          "content = gcd(*row.values())", "content = 1",
          "tests/test_linalg.py"),
    Fault("forced-root-weight-mu-minus-2", "src/flowvol/oracle.py",
          "math.comb(x + mu - 1, mu - 1) for x", "math.comb(x + mu - 1, mu - 2) for x",
          "tests/test_oracle.py"),
    # the operator system as the product of its factors, and a sum's class
    Fault("pde-system-plus-sign", "src/flowvol/diffop.py",
          "d_l - d_j for d_j", "d_l + d_j for d_j",
          "tests/test_diffop.py::TestPdeSystem"),
    Fault("add-zero-returns-the-other-operand", "src/flowvol/polynomial.py",
          "return self._trusted(self.nvars, other.terms) if other.terms else self",
          "return self if self.terms else other",
          "tests/test_diffop.py::TestOperatorArithmetic"),
)


def tracked_files() -> list[Path]:
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, text=True, check=True)
    return [Path(name) for name in listed.stdout.split("\0") if name and (ROOT / name).is_file()]


def run(fault: Fault, files: list[Path]) -> str:
    """The fault's outcome: ``caught``, ``SURVIVED``, ``ERROR ...`` or ``REFUSED ...``."""
    with tempfile.TemporaryDirectory(prefix="flowvol-fault-") as tmp:
        copy = Path(tmp)
        for name in files:
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(ROOT / name, copy / name)
        path = copy / fault.path
        text = path.read_text() if path.is_file() else ""
        if text.count(fault.old) != 1:
            return f"REFUSED: the old text occurs {text.count(fault.old)} times in {fault.path}"
        path.write_text(text.replace(fault.old, fault.new))
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", fault.target],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if result.returncode == 1:
        return "caught"
    if result.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {result.returncode}: {result.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    files = tracked_files()
    caught = 0
    for fault in FAULTS:
        start = time.perf_counter()
        outcome = run(fault, files)
        caught += outcome == "caught"
        print(f"{fault.name}: {outcome} ({time.perf_counter() - start:.1f} s, {fault.target})", flush=True)
    print(f"{caught} of {len(FAULTS)} faults caught")
    return 0 if caught == len(FAULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
