"""Exact null spaces of sparse integer matrices by fraction-free row insertion.

Rows come in as mappings ``{column: int}`` and are copied, zeros dropped, into
working dicts ``{column: nonzero int}``.  They are inserted, shortest first,
into a reduced echelon basis ``{pivot column: row}``.  An inserted row has
each pivot column it holds cleared by that pivot's row:
``row <- (p/g) row - (f/g) pivot_row`` with p the pivot, f the row's entry and
g = gcd(p, f), after which the row's own content is removed.  One pass over
those columns is enough, because a pivot row is zero on every other pivot
column.  If anything is left, the row's lowest column becomes a new pivot:
the row is divided by the gcd of its entries, and that column is cleared the
same way from every earlier pivot row that holds it.  Only rows that hold
the column are touched, and every entry stays an integer, so there is no
rounding and, on the 2-4% dense operator matrices, little fill-in.

Soundness.  Scaling a row by a nonzero integer, dividing it by the gcd of its
entries and adding an integer multiple of another row all keep the row space,
hence the null space.  The basis stays in reduced echelon form: each row's
lowest column is its pivot, and it is zero on every other pivot column.  An
inserted row is zero on the pivot columns once they are cleared, so its
lowest column c is not yet a pivot.  An earlier pivot row that holds c has
its pivot p0 < c, and the new row has no entry below c, so clearing c keeps
p0 as that row's lowest column.  At the end the rows therefore form the
reduced echelon form of the matrix, and the pivot columns are exactly the
columns that are not in the span of the columns before them, a property of
the matrix and not of the row order.  The row of pivot c reads
p_c x_c + sum over free f of a_cf x_f = 0.  The basis vector for free
column f has x_f = 1, zero on the other free columns and x_c = -a_cf / p_c
on each pivot c, and it is the only null vector with those free coordinates.
The output is therefore the unique basis of null vectors that is the
identity on the free columns, listed by free column: in whatever order the
rows come, and whichever exact method computes it, the vectors are the same,
in the same order.  Taking the shortest rows first changes only the cost.

Each vector is returned sparse, as ``{column: nonzero int}``: that basis
multiplied by one positive integer P, the lcm of the reduced pivots
(``math.lcm()`` of no pivots is 1).  It holds P on its own free column f,
its first key, and -a_cf * (P / p_c) on each pivot column c whose row holds
f.  Such a c is below f, since a pivot row's lowest column is its pivot, so
f is also the vector's highest key.  Every other coordinate is zero and is
not stored: no vector of length ``ncols`` is built, each pivot row is read
once for all the vectors, and no ``Fraction`` is made.  Every p_c divides
P, so each entry is an integer; and P is the least common scale that makes
the basis integral, because a reduced row's entries p_c and a_cf have gcd
1.  Each reduced row is the primitive integer form, up to sign, of the row
of the reduced echelon form, so |p_c|, and with it P, is a property of the
matrix too: the output is unique, up to the one scale P, in the same sense
as the basis.  On every operator matrix of ``solution_space`` tried, P has
been 1.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping, Sequence


def integer_nullspace(rows: Sequence[Mapping[int, int]], ncols: int) -> list[dict[int, int]]:
    """Basis of {x : A x = 0} for the integer matrix A, one vector per free column.

    Each row of A is a mapping ``{column: entry}``; absent columns are zero.
    Each vector comes back the same way, as ``{column: nonzero int}`` with
    its free column first, holding the common scale P (module docstring).
    ``ncols`` is required because A may have no rows at all, in which case
    the null space is the whole coordinate space.  The rows are trusted to
    hold ``int`` columns in ``range(ncols)`` and ``int`` entries:
    ``solution_space``, the one caller, builds them so.  The rows are
    copied, not modified.
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> its row

    def remove_content(row: dict[int, int]) -> None:
        content = gcd(*row.values())
        if content > 1:
            for key in row:
                row[key] //= content

    def eliminate(row: dict[int, int], col: int, pivot_row: dict[int, int]) -> None:
        """Clear ``col`` from ``row`` in place, then remove the row's content."""
        pivot, factor = pivot_row[col], row[col]
        g = gcd(pivot, factor)
        scale, factor = pivot // g, factor // g
        if scale != 1:
            for key in row:
                row[key] *= scale
        for key, value in pivot_row.items():
            updated = row.get(key, 0) - factor * value
            if updated:
                row[key] = updated
            else:
                del row[key]
        remove_content(row)

    for source in sorted(rows, key=len):
        row = {col: value for col, value in source.items() if value}
        # a snapshot: clearing one pivot column adds no other (module docstring)
        for col in [col for col in row if col in pivots]:
            eliminate(row, col, pivots[col])
        if not row:
            continue
        col = min(row)
        remove_content(row)
        for pivot_row in pivots.values():
            if col in pivot_row:
                eliminate(pivot_row, col, row)
        pivots[col] = row

    scale = lcm(*(row[col] for col, row in pivots.items()))  # P
    basis = {free: {free: scale} for free in range(ncols) if free not in pivots}
    for col, row in pivots.items():
        factor = scale // row[col]
        for free, value in row.items():
            if free != col:
                basis[free][col] = -value * factor
    return list(basis.values())
