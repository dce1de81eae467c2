"""Positive root multiplicities for the type-A root system of a given rank.

A rank-r problem assigns a positive integer m[i,j] to every root e_i - e_j,
1 <= i < j <= r+1.  Entries are stored flat in lexicographic pair order
(1,2), (1,3), ..., (1,r+1), (2,3), ..., (r,r+1), which matches the tuple
notation used throughout the tests, e.g. rank 3 with m=(1,1,2,1,2,2).
Row l is the consecutive run m[l,l+1], ..., m[l,r+1].  A matrix is checked
once, when it is made, and then keeps its rows, their sums, the volume
degree and the corner exponents, so that no later read checks or derives
them again; the corner value is derived where it is read.  None of them
takes part in equality, hashing or repr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations


def root_pairs(rank: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j <= rank+1, in lexicographic order."""
    return list(combinations(range(1, rank + 2), 2))


@dataclass(frozen=True)
class MultiplicityMatrix:
    """Multiplicities of the positive roots, with the derived degree data."""

    rank: int
    mult: tuple[int, ...]
    # derived, each left out of equality, hashing and repr:
    # rows[l - 1] is row l, m[l,l+1], ..., m[l,r+1]; row_sums[l - 1] its sum
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    row_sums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the volume polynomial's degree, total multiplicity minus rank
    degree: int = field(init=False, repr=False, compare=False)
    # exponents of the distinguished monomial: row_sum(l) - 1 per variable
    corner_exponents: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rank = self.rank
        # type() rather than isinstance(), so that booleans are rejected.
        if type(rank) is not int:
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        expected, mult = rank * (rank + 1) // 2, tuple(self.mult)
        if len(mult) != expected:
            raise ValueError(f"rank {rank} needs {expected} multiplicities, got {len(mult)}")
        if set(map(type, mult)) != {int} or min(mult) < 1:
            (i, j), _ = next(
                item for item in zip(root_pairs(rank), mult) if type(item[1]) is not int or item[1] < 1
            )
            raise ValueError(f"multiplicity m[{i},{j}] must be a positive integer")
        rows, start = [], 0
        for length in range(rank, 0, -1):
            rows.append(mult[start:start + length])
            start += length
        row_sums = tuple(map(sum, rows))
        # frozen: the fields set here go straight into the instance dict
        vars(self).update(
            mult=mult, rows=tuple(rows), row_sums=row_sums,
            degree=sum(row_sums) - rank, corner_exponents=tuple(s - 1 for s in row_sums),
        )

    def multiplicity(self, i: int, j: int) -> int:
        """m[i,j] for 1 <= i < j <= rank+1."""
        if not 1 <= i < j <= self.rank + 1:
            raise ValueError(f"pair ({i},{j}) out of range for rank {self.rank}")
        return self.rows[i - 1][j - i - 1]

    # -- derived constants -------------------------------------------------

    def row_sum(self, l: int) -> int:
        """Total multiplicity on roots leaving node l, sum of m[l,i] for i > l."""
        if not 1 <= l <= self.rank:
            raise ValueError(f"row {l} out of range 1..{self.rank}")
        return self.row_sums[l - 1]

    @property
    def restriction_degree(self) -> int:
        """Volume degree of the problem restricted to nodes 2..rank+1."""
        return self.degree - self.row_sums[0] + 1

    def restriction(self) -> "MultiplicityMatrix":
        """Drop node 1: the rank-(r-1) matrix m'[i,j] = m[i+1,j+1].

        In the flat order row 1 is the first ``rank`` entries, and the rest is
        the restricted matrix in its own flat order.
        """
        if self.rank < 2:
            raise ValueError("rank-1 problems have no restriction")
        return MultiplicityMatrix(self.rank - 1, self.mult[self.rank:])

    # -- corner data -------------------------------------------------------

    @property
    def corner_value(self) -> Fraction:
        """Expected coefficient on the corner monomial: 1 / prod (row_sum(l) - 1)!, read off ``corner_exponents``."""
        return Fraction(1, math.prod(map(math.factorial, self.corner_exponents)))
