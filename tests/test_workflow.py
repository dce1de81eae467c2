"""The CI workflow's CLI steps, read without a YAML parser.

Each step of ``.github/workflows/tests.yml`` that runs ``python -m flowvol
<command> "<spec>"`` names its problem ("at rank r, all m=k") and greps one
expected line.  A typo in a spec, in a step name or in a kernel step's
degree would otherwise show only when the workflow first runs; these tests
read the file as text, so they need no dependency beyond the package.
"""

import re
from pathlib import Path

import pytest

from flowvol.cli import SpecError, parse_spec

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
STEP = re.compile(r"^\s*- name: (.*)$")
COMMAND = re.compile(r'python -m flowvol (\S+) "([^"]*)"(.*)\)\s*$')
EXPECTED = re.compile(r'grep -Fx "([^"]*)" <<< "\$out"')
PROBLEM = re.compile(r"\bat rank (\d+), all m=(\d+)\b")
SOLUTION = re.compile(r"solution space at degree (\d+): dimension \d+")
DEGREE = re.compile(r"^\s*--degree (\d+)\s*$")


def cli_steps():
    """(step name, command, spec, trailing arguments, expected line) for each flowvol step."""
    steps, name, body = [], None, []
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines() + ["  - name: end"]:
        match = STEP.match(line)
        if not match:
            body.append(line)
            continue
        commands = [found for text in body if (found := COMMAND.search(text))]
        expected = [found.group(1) for text in body if (found := EXPECTED.search(text))]
        if commands:
            if len(commands) != 1 or len(expected) != 1:
                raise ValueError(f"step {name!r}: expected one flowvol command and one grep")
            command = commands[0]
            steps.append((name, command.group(1), command.group(2), command.group(3), expected[0]))
        name, body = match.group(1), []
    return steps


STEPS = cli_steps()
KERNEL_STEPS = [step for step in STEPS if step[1] == "kernel"]


def test_the_workflow_has_cli_steps():
    commands = {command for _, command, _, _, _ in STEPS}
    assert len(STEPS) >= 10, STEPS
    assert {"kernel", "corner", "check-pde", "lift", "volume", "oracle-compare"} <= commands


@pytest.mark.parametrize("name, command, spec, rest, expected", STEPS, ids=[step[0] for step in STEPS])
def test_spec_parses_and_matches_the_step_name(name, command, spec, rest, expected):
    try:
        parsed = parse_spec(spec)
    except SpecError as exc:
        pytest.fail(f"{name}: {exc}")
    problem = PROBLEM.search(name)
    assert problem, f"step name does not say 'at rank r, all m=k': {name}"
    rank, mult = map(int, problem.groups())
    assert parsed.rank == rank, (name, parsed.rank)
    assert set(parsed.mult) == {mult}, (name, sorted(set(parsed.mult)))


@pytest.mark.parametrize("name, command, spec, rest, expected", KERNEL_STEPS, ids=[step[0] for step in KERNEL_STEPS])
def test_kernel_steps_expect_the_degree_they_solve(name, command, spec, rest, expected):
    m = parse_spec(spec).matrix()
    solution = SOLUTION.fullmatch(expected)
    assert solution, expected
    degree = int(solution.group(1))
    if rest.strip():
        flag = DEGREE.match(rest)
        assert flag, f"{name}: unexpected arguments {rest!r}"
        assert int(flag.group(1)) == degree == m.degree + 1, (name, degree, m.degree)
    else:
        assert degree == m.degree, (name, degree, m.degree)
