"""Sweep small multiplicity families and cross-check every computation route.

For each matrix the script verifies, all exactly:
  * the annihilating operators kill the residue volume, both as the
    polynomial ``annihilates`` converts to divided powers and as the
    residue's own integer table T(v)_e = e! v_e (the ``table`` of
    ``iterated_residue(m)``), which ``check-pde`` reads,
  * that table equals ``polynomial.divided_powers`` of the volume
    polynomial, so the conversion the volume makes into a polynomial and
    the one ``annihilates`` makes back are checked against each other,
  * the operator kernel at the volume degree is the volume line and the
    kernel one degree higher is empty,
  * lifting the restricted volume reproduces the direct residue,
  * the corner coefficient has its predicted value,
and for a few interior points it compares the volume value against the
lattice-count leading coefficient.  Past the sweep, the kernel checks also
run on fixed larger cases (rank 6, all m=1).  Every check always runs: the
whole run at rank <= 3 and m <= 3 (756 matrices) takes about 0.6-1.0 s on a
shared 2-core VM.

Usage: python scripts/cross_validate.py [--max-rank 3] [--max-mult 2]
"""

import argparse
import sys
import time
from itertools import product

from flowvol import (
    MultiplicityMatrix,
    annihilates,
    compare_volume,
    iterated_residue,
    lift_volume,
    solution_space,
)
from flowvol.diffop import node_residuals
from flowvol.polynomial import divided_powers


def family(max_rank, max_mult):
    for rank in range(2, max_rank + 1):
        count = rank * (rank + 1) // 2
        for mult in product(range(1, max_mult + 1), repeat=count):
            yield MultiplicityMatrix(rank, mult)


def kernel_problems(m, v):
    problems = []
    basis = solution_space(m, m.degree)
    if len(basis) != 1 or basis[0] != v.poly:
        problems.append("kernel")
    if solution_space(m, m.degree + 1):
        problems.append("kernel-above")
    return problems


def check_matrix(m):
    v = iterated_residue(m)
    problems = [] if annihilates(m, v.poly) else ["annihilation"]
    table = v.table.terms
    if divided_powers(v.poly) != table:
        problems.append("table")
    if any(residual for _, residual in node_residuals(m, table)):
        problems.append("table-annihilation")
    problems += kernel_problems(m, v)
    if lift_volume(iterated_residue(m.restriction()), m).poly != v.poly:
        problems.append("lift")
    if v.poly.coefficient(m.corner_exponents) != m.corner_value:
        problems.append("corner")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--max-mult", type=int, default=2)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    checked = failed = 0
    for m in family(args.max_rank, args.max_mult):
        problems = check_matrix(m)
        checked += 1
        if problems:
            failed += 1
            print(f"FAIL rank={m.rank} m={m.mult}: {', '.join(problems)}")
    print(f"matrix sweep: {checked} matrices checked, {failed} failures "
          f"({time.perf_counter() - started:.2f}s)")

    for m in [MultiplicityMatrix(6, (1,) * 21)]:
        problems = kernel_problems(m, iterated_residue(m))
        if problems:
            failed += 1
        print(f"kernel rank={m.rank} m={m.mult}: {', '.join(problems) or 'ok'} "
              f"({time.perf_counter() - started:.2f}s total)")

    oracle_cases = [
        MultiplicityMatrix(2, (1, 1, 1)),
        MultiplicityMatrix(2, (2, 1, 1)),
        MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2)),
    ]
    mismatches = 0
    for m in oracle_cases:
        for a in product((1, 2), repeat=m.rank):
            outcome = compare_volume(m, a)
            status = "ok" if outcome.matches else "MISMATCH"
            if not outcome.matches:
                mismatches += 1
            print(f"oracle rank={m.rank} m={m.mult} a={a}: "
                  f"{outcome.residue_value} vs {outcome.count_value} [{status}]")
    print(f"oracle sweep: {mismatches} mismatches "
          f"({time.perf_counter() - started:.2f}s total)")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
