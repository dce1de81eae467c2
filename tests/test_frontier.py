"""``scripts/frontier.py``: each row's shape at rank 3, the closed products, and CI's one step."""

import importlib.util
from math import comb
from pathlib import Path

import pytest

from flowvol import MultiplicityMatrix, iterated_residue
from flowvol.cli import main, parse_spec

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("frontier", ROOT / "scripts" / "frontier.py")
frontier = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(frontier)


@pytest.mark.parametrize("row", frontier.ROWS, ids=lambda row: "-".join(map(str, row)).replace(" ", ""))
def test_each_row_shape_prints_its_expected_line_at_rank_3(row, capsys):
    parse_spec(frontier.check(row)[1])  # the full-size spec is within the CLI's ceilings
    small = row._replace(rank=3, point=row.point[:3] if isinstance(row.point, tuple) else row.point)
    command, spec, extra, expected = frontier.check(small)
    assert main([command, spec, *extra]) == 0
    assert expected in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("anchor", [frontier.ONES, frontier.E1])
@pytest.mark.parametrize("rank", range(1, 8))
def test_closed_products_are_the_residue_values(rank, anchor):
    v = iterated_residue(MultiplicityMatrix(rank, (1,) * comb(rank + 1, 2)))
    assert frontier.closed_value(rank, anchor) == v.value_at(frontier.point(rank, anchor))


def test_a_failing_row_fails_the_run(capsys):
    assert frontier.main([frontier.Row("corner", 2, 1), frontier.Row("lift", 1, 1)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["ok", "FAIL"], lines


def test_ci_runs_the_table_in_one_step():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert sum("scripts/frontier.py" in step for step in workflow.split("- name:")) == 1
    assert "python -m flowvol" not in workflow
    commands = {"volume", "check-pde", "kernel", "lift", "oracle-compare", "corner"}
    assert {row.command for row in frontier.ROWS} == commands
