"""Source-level rules for the package."""

import ast
from pathlib import Path

import pytest

import flowvol

MODULES = sorted(Path(flowvol.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so a check written as one silently disappears.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}; raise an exception instead"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_internal_readers_use_the_stored_rows(path):
    # the range checks of row_sum() and multiplicity() guard callers outside
    # the package; a module inside it reads m.rows and m.row_sums
    if path.name == "multiplicity.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("row_sum", "multiplicity")
    ]
    assert not lines, f"{path.name} calls row_sum() or multiplicity() on lines {lines}; read the stored rows"


def test_public_names_resolve_once():
    names = flowvol.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(flowvol, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_public_names_are_what_the_callers_use():
    # the names the README, scripts/ and tests/test_acceptance.py import;
    # everything else is reached through its submodule
    assert sorted(flowvol.__all__) == sorted([
        "MultiPoly",
        "MultiplicityMatrix",
        "VolumePolynomial",
        "annihilates",
        "canonical_order",
        "compare_volume",
        "iterated_residue",
        "laurent_derivative",
        "laurent_residue",
        "lift_volume",
        "lowering_operator",
        "operator_ladder",
        "pde_system",
        "residue_in_order",
        "solution_space",
        "__version__",
    ])


REPO = Path(__file__).resolve().parents[1]
PYTHON_FILES = sorted(
    path
    for folder in ("src", "tests", "scripts", "flowbench")
    for path in (REPO / folder).rglob("*.py")
)


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda path: str(path.relative_to(REPO)))
def test_grammar_of_oldest_supported_python(path):
    # pyproject.toml declares requires-python >= 3.10.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
