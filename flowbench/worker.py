"""Child process that runs one op stream through the flowvol CLI entry.

Usage: python3 worker.py <checkout root> <trace 0|1> < ops.json > result.json

Reads a JSON list of ``[command, spec, degree]`` ops from stdin, imports
flowvol from ``<root>/src`` before any timing starts, and runs the stream
once untraced: each op is ``parse_spec`` then ``run_command``, which is what
``flowvol <command>`` does after interpreter start.  Reference speed samples
(speed.py) are taken between ops.  With trace 1 it then installs the tracer
and runs the same stream again.  Writes one JSON object to stdout: each op's
seconds, exit code and stdout, the speed samples, the peak RSS of this
process, and for a traced run its op times and speed samples, the ops whose
output differed from the untraced pass, and the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import speed
from tracer import Tracer


def run_stream(cli, ops: list) -> tuple[list, list]:
    """Run every op; returns each op's (seconds, exit code, stdout) and the speed samples."""
    results, samples = [], []
    clock = time.perf_counter
    due = clock()
    for index, (command, spec, degree) in enumerate(ops):
        if clock() >= due:
            samples.append((index, speed.sample()))
            due = clock() + speed.EVERY_S
        began = clock()
        try:
            text, code = cli.run_command(cli.parse_spec(spec), command, degree=degree)
        except cli.SpecError as exc:
            text, code = f"error: {exc}", 2
        except Exception:  # an op that crashes is a failed op, not a failed run
            text, code = traceback.format_exc(), -1
        results.append((clock() - began, code, text + "\n"))
    samples.append((len(ops), speed.sample()))
    return results, samples


def peak_rss_mib() -> float:
    """Peak resident memory of this process since it started the worker.

    VmHWM covers only the memory of the current program image.  ru_maxrss is
    the fallback where /proc is missing; on Linux it would also count the
    parent's memory, which the child carried until its exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    root, trace = argv[1], argv[2] == "1"
    ops = json.load(sys.stdin)
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import flowvol.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"flowvol was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    results, samples = run_stream(cli, ops)
    report = {
        "ops": results,
        "speed": samples,
        "peak_rss_mib": peak_rss_mib(),
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        traced, traced_samples = run_stream(cli, ops)
        report["traced"] = {
            "times": [seconds for seconds, _, _ in traced],
            "speed": traced_samples,
            "covered_s": tracer.covered_s(),
            "differs": [i for i, (a, b) in enumerate(zip(results, traced)) if a[1:] != b[1:]],
            "metrics": tracer.metrics(),
        }
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
