"""Print volume polynomials for small multiplicity families.

Each volume is printed from the residue's integer table (``str(v)``, or its
LaTeX render with ``divided=True``), so no ``Fraction`` polynomial is built.

Usage: python scripts/volume_tables.py [--rank 2] [--max-mult 2] [--latex]
"""

import argparse
from itertools import product

from flowvol import MultiplicityMatrix, iterated_residue


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--max-mult", type=int, default=2)
    parser.add_argument("--latex", action="store_true")
    args = parser.parse_args(argv)

    count = args.rank * (args.rank + 1) // 2
    for mult in product(range(1, args.max_mult + 1), repeat=count):
        m = MultiplicityMatrix(args.rank, mult)
        v = iterated_residue(m)
        body = v.table.render_latex(divided=True) if args.latex else str(v)
        print(f"m={mult} (degree {m.degree}): {body}")


if __name__ == "__main__":
    main()
