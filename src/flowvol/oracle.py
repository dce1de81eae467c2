"""Independent cross-check: exact lattice-point counts and Ehrhart fits.

Counting integer flows gives a route to the volume that shares nothing with
the residue engine.  For an interior integer supply vector a (all entries
positive) the number of lattice points of the dilated polytope is a
polynomial in the dilation factor t of degree equal to the volume degree,
and its leading coefficient equals the volume polynomial evaluated at a
(the root lattice is unimodular, so no normalization factor appears).

Counts come from a dynamic program over the roots in the fixed order
(1,2), (1,3), ..., (1,r+1), (2,3), ...: the state is the remaining supply
vector, a root of multiplicity mu carrying total flow s contributes
C(s + mu - 1, mu - 1) ways to split the flow over its parallel copies, and
the last root (i, r+1) of each row must drain node i's remaining supply
exactly.

That last root is forced, so it gets no loop of its own: in the loop of root
(i, r), flow s leaves avail - s for (i, r+1), and the weight of that forced
flow, C(avail - s + mu - 1, mu - 1), is multiplied in at once.  After it
node i is drained and never touched again, so while row i runs the state key
holds only the remaining supplies of nodes i..r, and the next row's states
come out of root (i, r) already without node i.  Row r has no root (r, r):
its count is the sum of the states' ways times the forced weight of their one
remaining supply (at rank 1 that is the whole count).  Each root's weights
C(s + mu - 1, mu - 1) are tabulated once, for every flow s node i can hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .multiplicity import MultiplicityMatrix
from .polynomial import MultiPoly
from .residue import iterated_residue


def _checked_point(m: MultiplicityMatrix, a: Sequence[int], minimum: int) -> tuple[int, ...]:
    point = tuple(a)
    if len(point) != m.rank:
        raise ValueError(f"supply vector has length {len(point)}, expected {m.rank}")
    for value in point:
        if type(value) is not int:  # rejects booleans too
            raise ValueError(f"supply entries must be integers, got {value!r}")
        if value < minimum:
            raise ValueError(f"supply entry {value} below the required minimum {minimum}")
    return point


def count_lattice_points(m: MultiplicityMatrix, a: Sequence[int]) -> int:
    """Number of nonnegative integer flows with net supply a."""
    point = _checked_point(m, a, minimum=0)
    r = m.rank

    def weights(i: int, j: int) -> list[int]:
        """C(s + mu - 1, mu - 1) for root (i, j), for every flow s node i can hold."""
        mu = m.multiplicity(i, j)
        return [math.comb(s + mu - 1, mu - 1) for s in range(sum(point[:i]) + 1)]

    states: dict[tuple[int, ...], int] = {point: 1}
    for i in range(1, r):
        for j in range(i + 1, r):
            weight = weights(i, j)
            next_states: dict[tuple[int, ...], int] = {}
            k = j - i
            for state, ways in states.items():
                available, mid, base, tail = state[0], state[1:k], state[k], state[k + 1:]
                for s in range(available + 1):
                    key = (available - s,) + mid + (base + s,) + tail
                    next_states[key] = next_states.get(key, 0) + ways * weight[s]
            states = next_states
        # root (i, r) with the forced root (i, r+1) folded in: node i drains
        weight, forced = weights(i, r), weights(i, r + 1)
        next_states = {}
        for state, ways in states.items():
            available, rest, last = state[0], state[1:-1], state[-1]
            for s in range(available + 1):
                key = rest + (last + s,)
                next_states[key] = next_states.get(key, 0) + ways * weight[s] * forced[available - s]
        states = next_states
    forced = weights(r, r + 1)
    return sum(ways * forced[state[0]] for state, ways in states.items())


def _newton_fit(values: Sequence[int]) -> MultiPoly:
    """Interpolating polynomial through (0, v0), (1, v1), ... as a MultiPoly in t."""
    table = [Fraction(v) for v in values]
    coeffs = [table[0]]
    for level in range(1, len(values)):
        table = [(table[i + 1] - table[i]) / level for i in range(len(table) - 1)]
        coeffs.append(table[0])
    poly = MultiPoly.zero(1)
    basis = MultiPoly.one(1)
    t = MultiPoly.variable(1, 1)
    for node, c in enumerate(coeffs):
        poly = poly + basis * c
        basis = basis * (t - MultiPoly.constant(1, node))
    return poly


@dataclass(frozen=True)
class CountTable:
    """Lattice counts of the dilates t*a with their exact polynomial fit."""

    m: MultiplicityMatrix
    a: tuple[int, ...]
    counts: tuple[int, ...]
    fitted: MultiPoly

    @property
    def leading_coefficient(self) -> Fraction:
        return self.fitted.coefficient((self.m.degree,))

    def predicted(self, t: int) -> Fraction:
        return self.fitted.evaluate((t,))


def dilation_counts(m: MultiplicityMatrix, a: Sequence[int], t_max: int | None = None) -> CountTable:
    """Count t*a for t = 0..t_max and fit the degree-(volume degree) polynomial.

    The fit runs through the first degree+1 counts; any further tabulated
    dilation must match it exactly, otherwise the counts are not polynomial
    of the expected degree and an ArithmeticError reports the inconsistency.
    """
    point = _checked_point(m, a, minimum=1)
    degree = m.degree
    if t_max is None:
        t_max = degree
    if t_max < degree:
        raise ValueError(f"need dilations up to {degree}, got bound {t_max}")
    counts = tuple(
        count_lattice_points(m, tuple(t * x for x in point)) for t in range(t_max + 1)
    )
    fitted = _newton_fit(counts[: degree + 1])
    for t, count in enumerate(counts):
        if fitted.evaluate((t,)) != count:
            raise ArithmeticError(
                f"count {count} at dilation {t} does not fit a degree-{degree} "
                "polynomial; the supply vector is degenerate or counting is wrong"
            )
    return CountTable(m, point, counts, fitted)


def ehrhart_leading_coefficient(m: MultiplicityMatrix, a: Sequence[int]) -> Fraction:
    """Leading coefficient of the dilation-count polynomial at interior a."""
    return dilation_counts(m, a).leading_coefficient


@dataclass(frozen=True)
class VolumeComparison:
    """Side-by-side result of the residue route and the counting route."""

    m: MultiplicityMatrix
    a: tuple[int, ...]
    residue_value: Fraction
    count_value: Fraction

    @property
    def matches(self) -> bool:
        return self.residue_value == self.count_value

    def __str__(self) -> str:
        a_text = ",".join(str(x) for x in self.a)
        lines = [
            f"volume polynomial value at a=({a_text}): {self.residue_value}",
            f"lattice-count leading coefficient:  {self.count_value}",
            "exact match" if self.matches else
            f"MISMATCH: difference {self.residue_value - self.count_value}",
        ]
        return "\n".join(lines)


def compare_volume(
    m: MultiplicityMatrix, a: Sequence[int], t_max: int | None = None
) -> VolumeComparison:
    """Evaluate both routes at an interior integer point and compare exactly."""
    point = _checked_point(m, a, minimum=1)
    residue_value = iterated_residue(m).value_at(point)
    count_value = dilation_counts(m, point, t_max).leading_coefficient
    return VolumeComparison(m, point, residue_value, count_value)
