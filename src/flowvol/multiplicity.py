"""Positive root multiplicities for the type-A root system of a given rank.

A rank-r problem assigns a positive integer m[i,j] to every root e_i - e_j,
1 <= i < j <= r+1.  Entries are stored flat in lexicographic pair order
(1,2), (1,3), ..., (1,r+1), (2,3), ..., (r,r+1), which matches the tuple
notation used throughout the tests, e.g. rank 3 with m=(1,1,2,1,2,2).
Row l is the consecutive run m[l,l+1], ..., m[l,r+1].  A matrix is checked
once, when it is made, and then keeps its rows, their sums, the volume
degree and the corner exponents beside ``rank`` and ``mult`` in six
immutable slots, so that no later read checks or derives them again; the
corner value is derived where it is read.  Equality, hashing and repr read
``rank`` and ``mult`` alone, so none of the derived values takes part.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def root_pairs(rank: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j <= rank+1, in lexicographic order."""
    return list(combinations(range(1, rank + 2), 2))


class MultiplicityMatrix:
    """Multiplicities of the positive roots, with the derived degree data.

    Instances are immutable: the six slots are filled once by ``__init__``,
    and assigning or deleting any of them raises ``AttributeError``.
    Equality, hashing and repr read ``rank`` and ``mult`` alone, and copies
    and pickles are rebuilt from those two through ``__init__``.
    """

    # rows[l - 1] is row l, m[l,l+1], ..., m[l,r+1], and row_sums[l - 1] its
    # sum; degree is the volume polynomial's, total multiplicity minus rank;
    # corner_exponents are those of the distinguished monomial, row_sum(l) - 1
    __slots__ = ("rank", "mult", "rows", "row_sums", "degree", "corner_exponents")

    def __init__(self, rank: int, mult: tuple[int, ...]) -> None:
        # type() rather than isinstance(), so that booleans are rejected.
        if type(rank) is not int:
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        expected, mult = rank * (rank + 1) // 2, tuple(mult)
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
        values = rank, mult, tuple(rows), row_sums, sum(row_sums) - rank, tuple(s - 1 for s in row_sums)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple[int, tuple[int, ...]]]:
        return MultiplicityMatrix, (self.rank, self.mult)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MultiplicityMatrix:
            return NotImplemented
        return (self.rank, self.mult) == (other.rank, other.mult)

    def __hash__(self) -> int:
        return hash((self.rank, self.mult))

    def __repr__(self) -> str:
        return f"MultiplicityMatrix(rank={self.rank!r}, mult={self.mult!r})"

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
