"""Run the frontier checks CI runs, one table row per check.

Each row's spec is ``cli.render_spec`` of its problem and its expected line
is derived from the row.  Each row runs as a fresh ``python -m flowvol`` child
under a 120 s limit and passes on exit 0 with the expected line printed; one
ok/FAIL line with the time and the child's peak RSS (its own ``ru_maxrss``,
read when it is reaped) is printed per row, and the script exits 1 if any
row fails.

Usage: PYTHONPATH=src python scripts/frontier.py
"""

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from flowvol.cli import ProblemSpec, render_spec

LIMIT_S = 120
ONES, E1 = "(1,...,1)", "(1,0,...,0)"

# command, rank, multiplicity k on every root, point (ONES, E1, explicit or
# None) and the degree ``kernel`` solves at (None: the volume degree)
Row = namedtuple("Row", "command rank k point degree", defaults=(None, None))

ROWS = [
    # kernel at the volume degree, one degree above it, and r=6 in degree 18
    Row("kernel", 5, 2), Row("kernel", 5, 2, degree=26),
    Row("kernel", 6, 2), Row("kernel", 6, 2, degree=37), Row("kernel", 6, 2, degree=18),
    Row("kernel", 7, 1), Row("kernel", 7, 1, degree=22),
    Row("corner", 7, 2), Row("corner", 7, 3),
    Row("check-pde", 7, 2), Row("check-pde", 6, 3),
    Row("lift", 6, 2), Row("lift", 7, 1), Row("lift", 7, 2),
    Row("volume", 8, 1, ONES), Row("volume", 8, 1, E1),
    Row("volume", 9, 1, ONES), Row("volume", 9, 1, E1),
    Row("oracle-compare", 5, 1, (16, 1, 1, 1, 1)),
]


def point(rank, anchor):
    """A row's evaluation point as a tuple, or None."""
    return {ONES: (1,) * rank, E1: (1,) + (0,) * (rank - 1)}.get(anchor, anchor)


def closed_value(rank, anchor):
    """The all-m=1 volume at ONES, 2^C(r,2) / prod i! (the Tesler product,
    Meszaros-Morales-Rhoades, arXiv 1409.8566), or at E1, prod Cat_i / C(r,2)!
    (the Chan-Robbins-Yuen product)."""
    degree = comb(rank, 2)
    if anchor == ONES:
        return Fraction(2 ** degree, prod(factorial(i) for i in range(1, rank + 1)))
    return Fraction(prod(comb(2 * i, i) // (i + 1) for i in range(rank - 1)), factorial(degree))


def box_count(m, degree):
    """The kernel's dimension in ``degree``: the box monomials of that degree, those
    with every e_l < row_sum(l).  The node operators' leading terms d_l^row_sum(l)
    form a Groebner basis whose standard monomials these are, so the count is 1 at
    the volume degree, where only the corner is left, and 0 above it."""
    return Counter(map(sum, product(*map(range, m.row_sums))))[degree]


def check(row):
    """(command, spec, extra arguments, expected line) for one row."""
    spec = ProblemSpec(row.rank, (row.k,) * comb(row.rank + 1, 2), point(row.rank, row.point))
    m = spec.matrix()
    degree = m.degree if row.degree is None else row.degree
    extra = [] if row.degree is None else ["--degree", str(degree)]
    if row.command == "kernel":
        expected = f"solution space at degree {degree}: dimension {box_count(m, degree)}"
    elif row.command == "volume":
        text = ",".join(map(str, spec.a))
        expected = f"value at a=({text}): {closed_value(row.rank, row.point)}"
    else:
        expected = {
            "check-pde": f"all {row.rank} operators annihilate v",
            "corner": "corner coefficient matches",
            "lift": "lift agrees with the direct residue computation",
            "oracle-compare": "exact match",
        }[row.command]
    return row.command, render_spec(spec), extra, expected


def run(args):
    """(exit status, stdout, peak RSS in MiB) of one child, killed after LIMIT_S.

    The child is reaped with ``os.wait4``, so the peak is its own
    ``ru_maxrss`` (KiB on Linux), not the largest of every child so far.
    """
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True) as child:
        timer = threading.Timer(LIMIT_S, os.kill, (child.pid, signal.SIGKILL))
        timer.start()
        out = child.stdout.read()  # to the end: the child has exited or been killed
        timer.cancel()
        timer.join()  # so no kill can reach the pid once it is reaped
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss / 1024


def main(rows=ROWS):
    failed = 0
    for row in rows:
        command, spec, extra, expected = check(row)
        started = time.perf_counter()
        status, out, peak = run([sys.executable, "-m", "flowvol", command, spec, *extra])
        ok = status == 0 and expected in out.splitlines()
        failed += not ok
        print(f"{'ok' if ok else 'FAIL':4} {time.perf_counter() - started:6.1f}s {peak:6.0f} MiB  "
              f"{command} at rank {row.rank}, all m={row.k}: {expected}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
