"""Tests of the benchmark itself.  Run with: python3 -m pytest flowbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import gate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_stream(name):
    workload = WORKLOADS[name]
    stream = workload.stream(7, 20)
    assert stream == workload.stream(7, 20)
    assert stream != workload.stream(8, 20)
    problems = {(op.problem, op.rank, op.mult) for op in stream}
    assert len({(rank, mult) for _, rank, mult in problems}) == len(problems)


def run_bench(*args: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    code, result = run_bench("--workload", "certify-sweep", "--seed", "3", "--seconds", "1", "--trace", trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


def outputs_of(stream):
    sys.path.insert(0, str(ROOT / "src"))
    from flowvol.cli import parse_spec, run_command

    out = []
    for op in stream:
        text, code = run_command(parse_spec(op.spec), op.command, degree=op.degree)
        out.append((code, text + "\n"))
    return out


def tamper_coefficient(stdout: str) -> str:
    """Double the first coefficient of the polynomial on the second line."""
    lines = stdout.split("\n")
    lines[1] = "2*" + lines[1]
    return "\n".join(lines)


def test_gate_flags_a_tampered_coefficient():
    stream = WORKLOADS["certify-sweep"].stream(5, 1)
    outputs = outputs_of(stream)
    digests = [gate.digest(text) for _, text in outputs]
    assert gate.check_stream(stream, outputs, digests) == {}

    index = next(i for i, op in enumerate(stream) if op.command == "volume" and op.rank == 3)
    code, text = outputs[index]
    tampered = list(outputs)
    tampered[index] = (code, tamper_coefficient(text))
    failures = gate.check_stream(stream, tampered)
    assert index in failures
    same_problem = [i for i, op in enumerate(stream) if op.problem == stream[index].problem]
    assert any(i in failures for i in same_problem if i != index)  # lift and kernel disagree now
    assert index in gate.check_stream(stream, tampered, digests)


def test_gate_flags_a_value_that_disagrees_with_the_polynomial():
    stream = WORKLOADS["volume-deep"].stream(2, 5)[:1]
    (code, text), = outputs_of(stream)
    assert gate.check_stream(stream, [(code, text)]) == {}
    lines = text.split("\n")
    value = lines[2].rpartition(" ")[2]
    lines[2] = lines[2].removesuffix(value) + str(gate.Fraction(value) * 2)
    failures = gate.check_stream(stream, [(code, "\n".join(lines))])
    assert failures == {0: "value at a disagrees with the polynomial"}
    assert gate.check_stream(stream, [(1, text)]) == {0: "exit code 1"}
