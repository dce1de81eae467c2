"""Which modules a command loads, and the package's public surface.

The suite imports every module long before these tests run, so each check
runs in a fresh interpreter, where ``sys.modules`` holds only what the code
under test imported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowvol

DEFERRED = ("flowvol.diffop", "flowvol.linalg", "flowvol.induction", "flowvol.oracle", "json")
# no command loads these: the records are NamedTuples and plain classes
UNUSED = ("dataclasses", "inspect")
SPEC = "r=2; m[1,2]=1; m[1,3]=2; m[2,3]=1; a=(1,2)"
# each before the modules that import it, so that every one of them is
# reached through the package attribute before anything else imports it
SUBMODULES = ("linalg", "diffop", "induction", "oracle", "cli", "multiplicity", "polynomial", "residue")


def run_fresh(code: str):
    """Run ``code`` in a new interpreter on this flowvol; the literal it prints last."""
    src = str(Path(flowvol.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("command, spec, loaded", [
    ("corner", SPEC, []),
    ("volume", SPEC, []),
    ("check-pde", SPEC, ["flowvol.diffop"]),
    ("kernel", SPEC, ["flowvol.diffop", "flowvol.linalg"]),
    ("lift", SPEC, ["flowvol.diffop", "flowvol.induction"]),
    ("oracle-compare", SPEC, ["flowvol.oracle"]),
    ("corner", '{"r": 1, "m": [[1, 2, 1]]}', ["json"]),
], ids=["corner", "volume", "check-pde", "kernel", "lift", "oracle-compare", "corner-json"])
def test_a_command_loads_only_its_route(command, spec, loaded):
    code = f"""if True:
        import sys
        from flowvol.cli import main
        exit_code = main({[command, spec]!r})
        print([exit_code, sorted(n for n in {DEFERRED!r} if n in sys.modules),
               [n for n in {UNUSED!r} if n in sys.modules]])
    """
    assert run_fresh(code) == [0, loaded, []]


def test_every_public_name_and_submodule_resolves_after_import_flowvol():
    code = f"""if True:
        import importlib, sys
        import flowvol
        late = sorted(name for name in {SUBMODULES!r} if "flowvol." + name not in sys.modules)
        wrong = [name for name in {SUBMODULES!r}
                 if getattr(flowvol, name) is not importlib.import_module("flowvol." + name)]
        for name in flowvol.__all__:
            value = getattr(flowvol, name)
            home = flowvol if name == "__version__" else importlib.import_module(value.__module__)
            if getattr(home, name) is not value:
                wrong.append(name)
        print([late, wrong, hasattr(flowvol, "no_such_name")])
    """
    late, wrong, missing_resolves = run_fresh(code)
    assert late == ["cli", "diffop", "induction", "linalg", "oracle"]
    assert wrong == []
    assert not missing_resolves


def test_star_import_and_dir_list_the_public_names():
    code = """if True:
        import flowvol
        listed = dir(flowvol)
        namespace = {}
        exec("from flowvol import *", namespace)
        print([sorted(set(flowvol.__all__) - set(namespace)), listed])
    """
    unbound, listed = run_fresh(code)
    assert unbound == []
    assert set(flowvol.__all__) | set(SUBMODULES) <= set(listed)
