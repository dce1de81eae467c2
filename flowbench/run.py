"""flowvol benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 flowbench/run.py --workload volume-deep --seed 0 --seconds 20 --trace 0
    python3 flowbench/run.py --all [--seed 0] [--seconds 20] [--trace 0|1]
    python3 flowbench/run.py --workload certify-sweep --record

A run generates the workload's op stream from the seed (workloads.py), sized
to take about ``--seconds`` at the commit that defined the benchmark, and
hands it as spec strings to one child process (worker.py), which imports
flowvol from ``src`` before the timed stream starts.  Workloads run one at a
time, never two at once.  The output gate (gate.py) checks every op.

With ``--trace 0`` the run prints the end-to-end metrics:

    wall_s        summed time of all ops: the stream's wall time
    op_p50_ms     median time of one op
    setup_s       median time of a fresh interpreter running
                  ``python -m flowvol corner "r=1; m[1,2]=1"`` to exit
    peak_rss_mib  peak resident memory of the child that ran the stream

The op times are normalised to the machine's nominal speed (speed.py), and
the raw times are printed beside them; ``setup_s`` is raw.  With ``--trace 1`` the child runs the stream
untraced and then again under the outside-in tracer (tracer.py), and the run
prints the per-layer metrics, the normalised untraced time of each command
(``cmd.<command>_s``) and ``trace.overhead_s``, the traced minus the
untraced normalised wall time.

A human-readable report goes to stderr (to stdout with ``--all``), with the
time of each command, ``op_p90_ms`` where a run has at least 100 ops, and
``fail_frac``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op passed the gate.  ``--record`` stores digests of the outputs at the
given seed and length, which later runs at that seed and length compare to.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import speed
from workloads import WORKLOADS, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_STARTS = 5  # before the stream, and as many after it
SETUP_ARGS = ["-m", "flowvol", "corner", "r=1; m[1,2]=1"]
DEADLINE_S = 170.0  # a run must end within 180 s
COVERAGE = 0.03  # layer self times must sum to the traced wall time within this share
COMMANDS = ("volume", "check-pde", "kernel", "lift", "oracle-compare", "corner")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def cold_starts(count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters running the set-up command to exit.

    These stay raw: normalising them by reference samples taken between the
    starts made their spread larger, not smaller.
    """
    times = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *SETUP_ARGS],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or "corner coefficient matches" not in done.stdout:
            raise BenchError(f"cold start failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return times


def run_worker(ops: list[Op], trace: bool, timeout: float) -> dict:
    payload = json.dumps([[op.command, op.spec, op.degree] for op in ops])
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), str(int(trace))],
        cwd=ROOT, input=payload, capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def stored_digests(workload: str, seed: int, seconds: int) -> list[str] | None:
    entry = json.loads(DIGESTS.read_text()).get(workload) if DIGESTS.exists() else None
    if entry and entry["seed"] == seed and entry["seconds"] == seconds:
        return entry["ops"]
    return None


def record_digests(workload: str, seed: int, seconds: int, outputs: list) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[workload] = {"seed": seed, "seconds": seconds, "ops": [gate.digest(out) for _, out in outputs]}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(name.startswith(p) for p in patterns)


def trace_problems(workload: Workload, traced: dict, traced_raw_s: float) -> list[str]:
    """What is wrong with the traced run as a whole: coverage and the expected split."""
    problems = []
    coverage = traced["covered_s"] / traced_raw_s
    if abs(coverage - 1) > COVERAGE:
        problems.append(f"layer self times cover {coverage:.1%} of the traced wall time")
    for name, value in traced["metrics"].items():
        if matches(name, workload.busy) and not value:
            problems.append(f"{name} reads zero on {workload.name}")
        if matches(name, workload.idle) and value:
            problems.append(f"{name} reads {value} on {workload.name}, expected zero")
    return problems


def run_workload(
    workload: Workload, seed: int, seconds: int, trace: bool, record: bool, declared: dict, out
) -> dict:
    """Run one workload in its own child process; print its report and return the result object."""
    started = time.monotonic()
    if not (ROOT / "src" / "flowvol" / "__init__.py").is_file():
        raise BenchError(f"no flowvol sources under {ROOT / 'src'}")
    ops = workload.stream(seed, seconds)
    if not ops:
        raise BenchError(f"{seconds} s is too short for one problem of {workload.name}")
    setup = []
    if not trace:
        cold_starts(1)  # compiles the bytecode, which a user's later starts reuse
        setup = cold_starts(SETUP_STARTS)
    report = run_worker(ops, trace, DEADLINE_S - (time.monotonic() - started))
    if not trace:
        setup += cold_starts(SETUP_STARTS)  # on both sides of the stream, to span the host's slow spells
    raw = [t for t, _, _ in report["ops"]]
    times = speed.normalise(raw, report["speed"])
    outputs = [(code, text) for _, code, text in report["ops"]]

    digests = None if record else stored_digests(workload.name, seed, seconds)
    failures = gate.check_stream(ops, outputs, digests)
    problems: list[str] = []
    by_command: dict[str, list[float]] = {}
    for op, t in zip(ops, times):
        by_command.setdefault(op.command, []).append(t)

    if trace:
        traced = report["traced"]
        for index in traced["differs"]:
            failures.setdefault(index, "output changed under tracing")
        problems = trace_problems(workload, traced, sum(traced["times"]))
        metrics = dict(traced["metrics"])
        metrics.update({f"cmd.{c}_s": sum(by_command.get(c, [])) for c in COMMANDS})
        metrics["trace.overhead_s"] = sum(speed.normalise(traced["times"], traced["speed"])) - sum(times)
    else:
        metrics = {
            "wall_s": sum(times),
            "op_p50_ms": 1000 * statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": report["peak_rss_mib"],
        }
        raw_values = {"wall_s": sum(raw), "op_p50_ms": 1000 * statistics.median(raw)}
    recorded = record and not failures
    if recorded:
        record_digests(workload.name, seed, seconds, outputs)

    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    n = len(ops)
    digest_note = "recorded" if recorded else "checked" if digests else "not stored for this seed and length"
    print(f"{workload.name}: seed {seed}, {n} ops on {ops[-1].problem + 1} problems, "
          f"trace {int(trace)}, output digests {digest_note}", file=out)
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"(n={len(setup)} cold starts; raw)"
        elif not trace and name in raw_values:
            note = f"(n={n} ops; raw {raw_values[name]:.6g})"
        print(f"  {name:26} {value:14.6g} {units[name]:6} {note}", file=out)
    if not trace:
        for command, ts in by_command.items():
            print(f"  {command + '_s':26} {sum(ts):14.6g} s      (n={len(ts)} ops)", file=out)
        if n >= 100:
            p90 = 1000 * statistics.quantiles(times, n=10, method="inclusive")[-1]
            print(f"  {'op_p90_ms':26} {p90:14.6g} ms     (n={n} ops)", file=out)
    print(f"  {'fail_frac':26} {len(failures) / n:14.6g}        ({len(failures)} of {n} ops)", file=out)
    for index, reason in sorted(failures.items())[:10]:
        print(f"  FAILED op {index}: {ops[index].command} {ops[index].spec!r}: {reason}", file=out)
    for problem in problems:
        print(f"  FAILED: {problem}", file=out)
    return {
        "correct": not failures and not problems,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store output digests for this seed and length")
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.all else [args.workload]
    out = sys.stdout if args.all else sys.stderr
    ok = True
    try:
        for name in names:
            result = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.record, declared, out
            )
            ok = ok and result["correct"]
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if not args.all:
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
