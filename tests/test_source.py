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
