"""Iterated residues of the exponential kernel and the volume polynomial.

For multiplicities m on the rank-r type-A positive roots, the kernel is

    exp(a1*x1 + ... + ar*xr)
    ------------------------------------------------------------
    x1^m[1,r+1] * ... * xr^m[r,r+1] * prod_{i<j<=r} (xi - xj)^m[i,j]

and the volume polynomial of the flow polytope, for supply vectors with all
coordinates positive, is the iterated residue of the kernel: take the
residue at 0 in x_r first, then x_{r-1}, and so on out to x_1.  The order
matters; ``iterated_residue`` always uses this one, and ``residue_in_order``
exists so tests can demonstrate that other orders give different answers.

One residue step is computed exactly.  With x_k active, every factor other
than the central pole x_k^-p is analytic at x_k = 0:

    exp(a_k x_k)        = sum_s a_k^s x_k^s / s!
    (x_i - x_k)^-q      = sum_n C(q-1+n, n) x_i^(-q-n) x_k^n        (i != k)
    (x_k - x_j)^-q      = (-1)^q sum_n C(q-1+n, n) x_j^(-q-n) x_k^n (j != k)

The coefficient of x_k^(p-1) in the product of these series is a finite sum
(the pole order p caps the series depth), so no truncation threshold is ever
chosen; this is the derivative formula for the residue evaluated coefficient
by coefficient.  Each intermediate stays a closed-form sum of terms

    c(a) * prod_i x_i^(-p_i) * prod_{i<j} (x_i - x_j)^(-q_ij)

with polynomial coefficients c(a), and like terms are merged on the factored
denominator, so no polynomial division is ever needed.

A step builds its output once.  Each pair of a term and a series depth
vector adds c(a) times an integer (the product of the signed binomials) into
a plain dict, grouped first by the output's factored denominator and then by
the power s of a_k taken from exp(a_k x_k).  Only at the end is each group
multiplied by a_k^s / s!, once, and the groups of one denominator added.
This is sound because a_k enters only through exp(a_k x_k): before x_k is
integrated out no coefficient depends on a_k, in any residue order.  So
grouping by s merely reorders an exact sum (distributivity), the group for
s is exactly the a_k-degree-s part of the new coefficient, and the groups
being added share no monomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .multiplicity import MultiplicityMatrix
from .polynomial import MultiPoly, binomial_series_coeff, homogeneous_monomials

DiffFactors = tuple[tuple[tuple[int, int], int], ...]
TermKey = tuple[tuple[int, ...], DiffFactors]  # (xpow, diff): a term's factored denominator


@dataclass(frozen=True)
class ResidueTerm:
    """One summand: coeff(a) * prod x_i^xpow[i-1] * prod (x_i - x_j)^-q."""

    coeff: MultiPoly
    xpow: tuple[int, ...]
    diff: DiffFactors


@dataclass(frozen=True)
class ResidueSum:
    """Sum of exponential-rational terms, closed under one-variable residues.

    ``xvars`` are the variables not yet integrated out; ``exp_vars`` is the
    subset still carrying an exp(a_i x_i) factor.  Terms are merged on their
    factored denominator, with zero coefficients dropped.
    """

    nvars: int
    xvars: frozenset[int]
    exp_vars: frozenset[int]
    terms: tuple[ResidueTerm, ...]

    @classmethod
    def build(
        cls,
        nvars: int,
        xvars: Iterator[int] | Sequence[int],
        exp_vars: Iterator[int] | Sequence[int],
        raw_terms: Mapping[TermKey, MultiPoly],
    ) -> "ResidueSum":
        xvars = frozenset(xvars)
        exp_vars = frozenset(exp_vars)
        if not exp_vars <= xvars:
            raise ValueError("exponential factors must belong to live variables")
        kept = tuple(
            ResidueTerm(coeff, xpow, diff)
            for (xpow, diff), coeff in sorted(raw_terms.items())
            if not coeff.is_zero
        )
        return cls(nvars, xvars, exp_vars, kept)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def polynomial(self) -> MultiPoly:
        """Collapse a fully integrated sum to its polynomial coefficient."""
        total = MultiPoly.zero(self.nvars)
        for term in self.terms:
            if any(term.xpow) or term.diff:
                raise ValueError("sum still depends on unintegrated x variables")
            total = total + term.coeff
        return total


@dataclass(frozen=True)
class ResidueKernel:
    """The exponential kernel in factored form."""

    m: MultiplicityMatrix
    axis_orders: tuple[int, ...]
    diff_orders: DiffFactors

    def difference_order(self, i: int, j: int) -> int:
        return dict(self.diff_orders).get((i, j), 0)

    def to_sum(self) -> ResidueSum:
        r = self.m.rank
        xpow = tuple(-p for p in self.axis_orders)
        term = {(xpow, self.diff_orders): MultiPoly.one(r)}
        return ResidueSum.build(r, range(1, r + 1), range(1, r + 1), term)

    def __str__(self) -> str:
        r = self.m.rank
        exponent = " + ".join(f"a{i}*x{i}" for i in range(1, r + 1))
        factors = [
            f"x{i}^{p}" if p > 1 else f"x{i}"
            for i, p in enumerate(self.axis_orders, start=1)
        ]
        factors += [
            f"(x{i} - x{j})^{q}" if q > 1 else f"(x{i} - x{j})"
            for (i, j), q in self.diff_orders
        ]
        return f"exp({exponent}) / ({' * '.join(factors)})"


def build_kernel(m: MultiplicityMatrix) -> ResidueKernel:
    """Kernel with pole order m[i,r+1] at x_i = 0 and m[i,j] on x_i - x_j."""
    r = m.rank
    axis = tuple(m.multiplicity(i, r + 1) for i in range(1, r + 1))
    diff = tuple(
        ((i, j), m.multiplicity(i, j))
        for i in range(1, r)
        for j in range(i + 1, r + 1)
    )
    return ResidueKernel(m, axis, diff)


def residue_at_zero(expr: ResidueSum, var: int) -> ResidueSum:
    """Residue at x_var = 0, treating the other live variables as generic.

    Every factor of every term is expandable around x_var = 0 by
    construction.  A pole of order p contributes once for each split of p - 1
    into series depths of the difference factors through x_var plus the
    power s of a_var, the last coordinate of each ``homogeneous_monomials``
    vector.  Contributions are accumulated per output denominator and per s,
    and a_var^s / s! is applied once per group (see the module docstring for
    why that is exact).
    """
    if var not in expr.xvars:
        raise ValueError(f"variable x{var} was already integrated out")
    has_exp = var in expr.exp_vars
    groups: dict[TermKey, dict[int, dict[tuple[int, ...], Fraction]]] = {}

    for term in expr.terms:
        budget = -term.xpow[var - 1] - 1
        if budget < 0:
            continue  # analytic in x_var at 0, residue contribution is zero
        involved = [(pair, q) for pair, q in term.diff if var in pair]
        passive = tuple((pair, q) for pair, q in term.diff if var not in pair)

        for *depths, exp_power in homogeneous_monomials(len(involved) + 1, budget):
            if not has_exp and exp_power != 0:
                continue
            scalar = 1
            xpow = list(term.xpow)
            xpow[var - 1] = 0
            for ((i, j), q), n in zip(involved, depths):
                other = i if var == j else j
                sign = 1 if var == j else (-1) ** q
                scalar *= sign * binomial_series_coeff(q, n)
                xpow[other - 1] -= q + n
            acc = groups.setdefault((tuple(xpow), passive), {}).setdefault(exp_power, {})
            for exps, c in term.coeff.terms.items():
                acc[exps] = acc.get(exps, 0) + c * scalar

    collected: dict[TermKey, MultiPoly] = {}
    for key, by_power in groups.items():
        total = None
        for exp_power, acc in by_power.items():
            coeff = MultiPoly._trusted(expr.nvars, {e: c for e, c in acc.items() if c})
            if exp_power:
                exps = tuple(exp_power if i == var - 1 else 0 for i in range(expr.nvars))
                coeff = coeff * MultiPoly.monomial(exps, Fraction(1, math.factorial(exp_power)))
            total = coeff if total is None else total + coeff
        collected[key] = total

    return ResidueSum.build(
        expr.nvars, expr.xvars - {var}, expr.exp_vars - {var}, collected
    )


def laurent_residue(series: Mapping[int, Fraction | int]) -> Fraction:
    """Coefficient of the -1 power in a one-variable Laurent polynomial."""
    return Fraction(series.get(-1, 0))


def laurent_derivative(series: Mapping[int, Fraction | int]) -> dict[int, Fraction]:
    """Term-by-term derivative of a one-variable Laurent polynomial."""
    out: dict[int, Fraction] = {}
    for power, coeff in series.items():
        if power != 0 and coeff:
            out[power - 1] = Fraction(coeff) * power
    return out


def canonical_order(rank: int) -> tuple[int, ...]:
    """Residue order: innermost variable first, x_rank down to x_1."""
    return tuple(range(rank, 0, -1))


def residue_in_order(m: MultiplicityMatrix, order: Sequence[int]) -> MultiPoly:
    """Iterated residue of the kernel, taking variables in the given order."""
    if sorted(order) != list(range(1, m.rank + 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{m.rank}")
    state = build_kernel(m).to_sum()
    for var in order:
        state = residue_at_zero(state, var)
    return state.polynomial()


@dataclass(frozen=True)
class VolumePolynomial:
    """Volume polynomial of the flow polytope on the all-positive chamber."""

    m: MultiplicityMatrix
    poly: MultiPoly

    def __post_init__(self) -> None:
        if self.poly.nvars != self.m.rank:
            raise ValueError("polynomial variable count does not match the rank")
        if self.poly.is_zero:
            raise ValueError("volume polynomial cannot be identically zero")
        if not self.poly.is_homogeneous(self.m.degree):
            raise ValueError(
                f"volume polynomial must be homogeneous of degree {self.m.degree}"
            )
        corner = self.poly.coefficient(self.m.corner_exponents)
        if corner != self.m.corner_value:
            raise ValueError(
                f"corner coefficient {corner} differs from expected {self.m.corner_value}"
            )

    def value_at(self, point: Sequence[Fraction | int]) -> Fraction:
        return self.poly.evaluate(point)

    def __str__(self) -> str:
        return self.poly.render()


def iterated_residue(m: MultiplicityMatrix) -> VolumePolynomial:
    """Exact volume polynomial, via residues innermost-first in x_r, ..., x_1."""
    poly = residue_in_order(m, canonical_order(m.rank))
    return VolumePolynomial(m, poly)
