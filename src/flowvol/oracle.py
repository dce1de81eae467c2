"""Independent cross-check: exact lattice-point counts and Ehrhart fits.

Counting integer flows gives a route to the volume that shares nothing with
the residue engine.  For an interior integer supply vector a (all entries
positive) the number L(t) of lattice points of the dilated polytope F(t*a)
is a polynomial in the dilation factor t of degree equal to the volume
degree, and its leading coefficient equals the volume polynomial evaluated
at a (the root lattice is unimodular, so no normalization factor appears).

Counts come from a dynamic program over the roots in the fixed order
(1,2), (1,3), ..., (1,r+1), (2,3), ...: a root of multiplicity mu carrying
total flow s contributes C(s + mu - 1, mu - 1) ways to split the flow over
its parallel copies, and the last root (i, r+1) of each row must drain node
i's remaining supply exactly.  Supplies may be negative: node r+1 takes
-sum(a), and a node may pass on more than its own supply when earlier
nodes feed it.

The program runs on running sums.  While row i runs, the state maps each
tuple of supplies of nodes i+1..r to a list of ways indexed by x, the
remaining supply of node i; row 1 starts from the one list [0]*a_1 + [1],
and there is no flow at all when a_1 < 0.  Since
sum_s C(s + mu - 1, mu - 1) u^s = (1 - u)^(-mu), splitting s units over
mu parallel copies is the same as mu moves over a single copy.  After a
single-copy move from node i to node j, with y node j's supply,
out(x, y) = sum_{s>=0} in(x + s, y - s), and that sum satisfies
out(x, y) = in(x, y) + out(x + 1, y - 1).  So with the lists grouped by the
key without y, one copy is one pass over y ascending from the group's
smallest y, out[y] = in[y] + out[y-1][1:] (two lists of one length, as
``count_lattice_points`` shows), kept going while the carried list has
more than one entry; root (i, j) is m[i,j] such passes.  After root (i, r) the forced root (i, r+1)
takes all of x: each list is contracted with its weights
C(x + mu - 1, mu - 1), and the total is added to row i+1's list for the
supplies of nodes i+2..r, at the index given by node i+1's supply.  No later
row feeds node i+1, so a negative supply there has no flow and is dropped.
Row r's contraction is the count.  Every step is an exact identity of
integer sums, so the count is the same integer as the plain loop over every
flow s of every root would give.

The dilations are counted on a window around t = 0, by Ehrhart-Macdonald
reciprocity (Beck-Robins, Computing the Continuous Discretely, Thm 4.1).
With M the number of parallel copies, d = M - r the volume degree, and
a >= 1 throughout:

* The constraint matrix is the incidence matrix of a directed graph, a
  network matrix, so it is totally unimodular and F(a) is a lattice
  polytope; F(t*a) = t*F(a), and L is its Ehrhart polynomial.
* F(a) has a point with every parallel copy > 0: put eps on every copy and
  send the rest of each node's supply down (i, r+1).  So F(a) has dimension
  M - r = d, and its relative interior is the set of flows with every copy
  > 0.
* Substituting f = g + 1 on every copy maps the interior lattice points of
  F(t*a) one to one onto the nonnegative integer flows g with net supply
  t*a - s, where s_i = sum_(j>i) m[i,j] - sum_(k<i) m[k,i] is the net number
  of copies leaving node i.  Reciprocity then reads
  L(-t) = (-1)^d K(t*a - s) for t >= 1, K the count on signed supplies.
* K is 0 when node 1's supply is negative, or when a node's supply is
  negative at its own row's contraction, as above.

Since sum_i s_i = sum_i m[i,r+1], the window t = -T..d-T with
T = round((d*sum(a) + sum_i m[i,r+1]) / (2*sum(a))), capped at d,
balances the largest total supply counted on the two sides,
(d-T)*sum(a) and T*sum(a) - sum_i m[i,r+1], which is about half of d*sum(a).

The fit stays in integers.  With v(k) = L(k - T) the counts from the start
of the window, the forward differences D^k v(0) are the Newton coefficients
in the basis C(t + T, k), so the degree-d polynomial through v(0..d) is
p(t) = sum_(k<=d) D^k v(0) C(t + T, k), and its leading coefficient is
D^d v(0) / d!.  Further dilations are checked on the differences of all
tabulated counts: the polynomial through v(0..k) is p plus
sum_(d<j<=k) D^j v(0) C(t + T, j), so if D^j v(0) = 0 for d < j < k, p meets
v(0..k-1) and misses v(k) by exactly D^k v(0).  The first nonzero
difference above index d is therefore the first dilation off the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .multiplicity import MultiplicityMatrix
from .residue import _PropertyViolation, iterated_residue


def count_lattice_points(m: MultiplicityMatrix, a: Sequence[int]) -> int:
    """Number of nonnegative integer flows with net supply a; entries may be negative.

    a is trusted to hold m.rank integers: ``compare_volume`` checks the point,
    and ``dilation_counts`` builds every supply from it.

    A pass only ever adds two lists of one length, and a group's y values
    have no gap.  Let C = a_1 + ... + a_r + 1; every multiplicity is at
    least 1, so flow can go over any root.

    * Lengths.  Row 1's one list has length a_1 + 1 = C - sum(key) and last
      entry 1.  If a group's lists have length C - sum(key) and a positive
      last entry, so do a pass's: out[y-1][1:] is one shorter than
      out[y-1], as in[y] is than in[y-1], their last entries add, and the
      carried tail runs down to length 1.  So some flow reaches every held
      key.  A contracted list for rest ends at the largest y node i+1 can
      hold beside it, C - 1 - sum(rest): send every unit drained so far
      over (l, i+1) in place of (l, r+1), and node i's remainder over
      (i, i+1).
    * No gap.  A move sends flow from node i to a node j whose root (i, j)
      has carried none yet, so a group's y - a_j units came over roots
      (l, j) with l < i.  Sending part of them over (l, i) instead reaches
      the same rest with any smaller y down to a_j, and the table holds
      every key some flow reaches.

    So in[y] and out[y-1][1:] always have one length, no y of a group is
    missing from its column, and no list is empty.
    """
    point = tuple(a)  # its tails key the states
    r = m.rank
    if point[0] < 0:
        return 0

    def one_copy(column: Iterable[list[int]]) -> Iterator[list[int]]:
        """One parallel copy of a root, lazily: yields out[y] = in[y] + out[y-1][1:], both one length."""
        carry: list[int] = []
        for ways in column:
            carry = list(map(add, ways, carry[1:])) if carry else ways
            yield carry
        while len(carry) > 1:
            carry = carry[1:]
            yield carry

    def move(states: dict, k: int, copies: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """Send flow from the row's node to the node at key position k over every copy.

        Each copy is a ``one_copy`` pass wrapped around the previous one, so
        a group's lists go through every copy in one sweep over y, and each
        pass holds only its carried list.  Yields the moved (key, ways)
        pairs as the last pass makes them and empties ``states``, so that
        each group's lists are freed once moved.
        """
        columns: dict[tuple[int, ...], dict[int, list[int]]] = {}
        for key, ways in states.items():
            columns.setdefault(key[:k] + key[k + 1:], {})[key[k]] = ways
        states.clear()
        while columns:
            rest, by_y = columns.popitem()
            low = min(by_y)
            column = [by_y.pop(y) for y in range(low, low + len(by_y))]  # no gap (docstring)
            for _ in range(copies):
                column = one_copy(column)
            for y, ways in enumerate(column, low):
                yield rest[:k] + (y,) + rest[k:], ways

    def forced(i: int) -> list[int]:
        """C(x + mu - 1, mu - 1) for the forced root (i, r+1), for every x node i can hold."""
        mu = m.rows[i - 1][-1]
        return [math.comb(x + mu - 1, mu - 1) for x in range(sum(point[:i]) + 1)]

    states = {point[1:]: [0] * point[0] + [1]}
    for i, row in enumerate(m.rows[:-1], 1):
        for k, copies in enumerate(row[:-2]):  # roots (i, j) for j = i+1..r-1
            states = dict(move(states, k, copies))
        # root (i, r), then node i drains over (i, r+1): each moved list is
        # contracted at once, and the total lands at node i+1's supply
        weight = forced(i)
        next_states: dict[tuple[int, ...], list[int]] = {}
        for key, ways in move(states, r - i - 1, row[-2]):
            if key[0] < 0:
                continue
            column = next_states.setdefault(key[1:], [])
            column.extend([0] * (key[0] + 1 - len(column)))
            column[key[0]] += sum(map(mul, ways, weight))
        states = next_states
    return sum(map(mul, states.get((), ()), forced(r)))


def _newton_fit(values: Sequence[int]) -> tuple[int, ...]:
    """Forward differences at 0 of v0, v1, ...: the Newton coefficients in the basis C(t, k)."""
    row = list(values)
    differences = []
    while row:
        differences.append(row[0])
        row = list(map(sub, row[1:], row[:-1]))
    return tuple(differences)


@dataclass(frozen=True)
class CountTable:
    """Lattice counts L(t) of the dilates t*a from t = first on, with their exact polynomial fit."""

    m: MultiplicityMatrix
    counts: tuple[int, ...]  # L(first), L(first + 1), ...
    differences: tuple[int, ...]  # Newton coefficients of the fit, degree + 1 of them
    first: int

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self.differences[self.m.degree], math.factorial(self.m.degree))

    def predicted(self, t: int) -> int:
        """The fit at dilation t >= first."""
        return sum(d * math.comb(t - self.first, k) for k, d in enumerate(self.differences))


class OffFitError(_PropertyViolation, ArithmeticError):
    """A lattice count that the polynomial fit of the volume degree misses."""


def dilation_counts(m: MultiplicityMatrix, a: tuple[int, ...], t_max: int | None = None) -> CountTable:
    """Count L(t) on the window t = -T..degree-T and fit the degree-(volume degree) polynomial.

    T balances the largest supply counted on the two sides, and L(-t) comes
    from the count at t*a - s by reciprocity (module docstring).  An explicit
    t_max counts every dilation above the window up to t_max as well; each
    must match the fit exactly, that is every forward difference above index
    degree must vanish, otherwise the counts are not polynomial of the
    expected degree and an ``OffFitError`` reports the first dilation off
    the fit.  a (m.rank positive integers) and t_max >= degree are
    trusted: ``compare_volume`` checks them.
    """
    degree = m.degree
    sink = sum(row[-1] for row in m.rows)
    first = -min(round(Fraction(degree * sum(a) + sink, 2 * sum(a))), degree)
    shift = [s - sum(m.rows[k - 1][i - k - 1] for k in range(1, i)) for i, s in enumerate(m.row_sums, 1)]
    sign = (-1) ** degree

    def count(t: int) -> int:
        """L(t); for t < 0 by reciprocity, from the count at -t*a - s."""
        if t < 0:
            return sign * count_lattice_points(m, tuple(-t * x - s for x, s in zip(a, shift)))
        return count_lattice_points(m, tuple(t * x for x in a))

    top = degree + first if t_max is None else t_max
    counts = tuple(count(t) for t in range(first, top + 1))
    differences = _newton_fit(counts)
    for k in range(degree + 1, len(counts)):
        if differences[k]:
            raise OffFitError(
                f"count {counts[k]} at dilation {first + k} does not fit a degree-{degree} "
                "polynomial; the supply vector is degenerate or counting is wrong"
            )
    return CountTable(m, counts, differences[: degree + 1], first)


@dataclass(frozen=True)
class VolumeComparison:
    """Side-by-side values of the residue route and the counting route at one point.

    ``cli`` writes the ``oracle-compare`` report from these fields.
    """

    residue_value: Fraction
    count_value: Fraction

    @property
    def matches(self) -> bool:
        return self.residue_value == self.count_value


def compare_volume(
    m: MultiplicityMatrix, a: Sequence[int], t_max: int | None = None
) -> VolumeComparison:
    """Evaluate both routes at an interior integer point and compare exactly.

    The one place the point and t_max are checked: a has m.rank integer
    entries, each at least 1, and t_max, when given, is an integer at least
    the degree; ``bool`` is refused as an integer in both.
    """
    point = tuple(a)
    if len(point) != m.rank:
        raise ValueError(f"supply vector has length {len(point)}, expected {m.rank}")
    for value in point:
        if type(value) is not int:  # rejects booleans too
            raise ValueError(f"supply entries must be integers, got {value!r}")
        if value < 1:
            raise ValueError(f"supply entry {value} below the required minimum 1")
    if t_max is not None and (type(t_max) is not int or t_max < m.degree):
        raise ValueError(f"need an int bound of at least {m.degree} dilations, got {t_max!r}")
    residue_value = iterated_residue(m).value_at(point)
    count_value = dilation_counts(m, point, t_max).leading_coefficient
    return VolumeComparison(residue_value, count_value)
