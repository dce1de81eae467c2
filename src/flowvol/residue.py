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
``build_kernel`` writes the kernel directly as the sum the steps start
from: one term with coefficient 1.

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

A step builds its output once, in integer arithmetic.  For each monomial e
of a_1..a_r let L_e be the lcm of the denominators of the coefficients
c_(t,e) of a^e over every input term t, and write c_(t,e) = n_(t,e) / L_e
with n_(t,e) an integer, converted once per term.  Each pair of a term t and
a series depth vector contributes its signed binomial product s_t, an
integer, and only the integers n_(t,e) * s_t are added into plain dicts,
grouped first by the output's factored denominator and then by the power s
of a_k taken from exp(a_k x_k).  By distributivity
sum_t c_(t,e) s_t = (sum_t n_(t,e) s_t) / L_e, so one division per output
coefficient gives the exact rational sum for any rational input; no claim
about the denominators is needed.  On the kernel route L_e divides e!, so
the integers stay small: the kernel's coefficient is 1, the binomials are
integers, and a_k^s / s! meets no a_k already present (see below), so
(a^e / e!) * (a_k^s / s!) = a^(e + s u_k) / (e + s u_k)! keeps every
coefficient an integer multiple of a^e / e!.

Only at the end is each group for the power s turned into rationals, and
the 1/s! goes into the same division: each coefficient is built once, as
``Fraction(sum, L_e * s!)``.  The group is then multiplied by the bare
monomial a_k^s, with coefficient 1, which ``MultiPoly`` does as a shift of
the keys that keeps every coefficient as it is.  That product stays a
``MultiPoly`` product until ROADMAP item 1b moves the benchmark's traced
counters off ``MultiPoly.__mul__``; item 3 then keeps each coefficient as
integers on a^e / e!, where a_k^s / s! is a shift of one exponent.
Grouping by s merely reorders an exact sum (distributivity), so adding the
groups of one denominator gives the exact step for any input sum.  They are
added into one dict, a coefficient on a shared monomial added and a
cancelled one dropped, because groups can share monomials when the input's
coefficients hold a_k.  From the kernel they never do: a_k enters only
through exp(a_k x_k), so before x_k is integrated out no coefficient
depends on a_k, in any residue order, and the group for s is exactly the
a_k-degree-s part of the new coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .multiplicity import MultiplicityMatrix
from .polynomial import MultiPoly, add_terms_into, binomial_series_coeff, homogeneous_monomials

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

    Every variable not yet integrated out still carries its exp(a_i x_i)
    factor.  The sum does not record which variables those are:
    ``residue_in_order`` checks that its order is a permutation, so each
    step takes a live variable.  Terms are merged on their factored
    denominator, sorted, with zero coefficients dropped.
    """

    nvars: int
    terms: tuple[ResidueTerm, ...]

    @classmethod
    def build(cls, nvars: int, raw_terms: Mapping[TermKey, MultiPoly]) -> "ResidueSum":
        kept = tuple(
            ResidueTerm(coeff, xpow, diff)
            for (xpow, diff), coeff in sorted(raw_terms.items())
            if not coeff.is_zero
        )
        return cls(nvars, kept)

    def polynomial(self) -> MultiPoly:
        """Collapse a fully integrated sum to its polynomial coefficient."""
        total = MultiPoly.zero(self.nvars)
        for term in self.terms:
            if any(term.xpow) or term.diff:
                raise ValueError("sum still depends on unintegrated x variables")
            total = total + term.coeff
        return total


def build_kernel(m: MultiplicityMatrix) -> ResidueSum:
    """The kernel as a one-term sum, every variable live and carrying its exponential.

    Pole order m[i,r+1] at x_i = 0 and m[i,j] on x_i - x_j, coefficient 1.
    """
    r = m.rank
    xpow = tuple(-m.multiplicity(i, r + 1) for i in range(1, r + 1))
    diff = tuple(
        ((i, j), m.multiplicity(i, j))
        for i in range(1, r)
        for j in range(i + 1, r + 1)
    )
    return ResidueSum(r, (ResidueTerm(MultiPoly.one(r), xpow, diff),))


def residue_at_zero(expr: ResidueSum, var: int) -> ResidueSum:
    """Residue at x_var = 0, treating the other live variables as generic.

    x_var is trusted to be live: ``residue_in_order`` takes each variable
    once.  Every factor of every term is expandable around x_var = 0 by
    construction.  A pole of order p contributes once for each split of p - 1
    into series depths of the difference factors through x_var plus the
    power s of a_var, the last coordinate of each ``homogeneous_monomials``
    vector.  Integer numerators over L_e are accumulated per output
    denominator and per s, divided once per output coefficient by L_e * s!,
    shifted by a_var^s, and the groups of one denominator are added in place
    (see the module docstring for why that is exact).
    """
    nvars = expr.nvars
    groups: dict[TermKey, dict[int, dict[tuple[int, ...], int]]] = {}
    common: dict[tuple[int, ...], int] = {}  # L_e: lcm of the denominators of a^e
    for term in expr.terms:
        for exps, c in term.coeff.terms.items():
            common[exps] = math.lcm(common.get(exps, 1), c.denominator)

    for term in expr.terms:
        budget = -term.xpow[var - 1] - 1
        if budget < 0:
            continue  # analytic in x_var at 0, residue contribution is zero
        numerators = [
            (exps, c.numerator * (common[exps] // c.denominator))
            for exps, c in term.coeff.terms.items()
        ]
        # per involved factor: the index of its other variable, its pole
        # order q, and its signed series coefficients for every depth n
        involved = []
        for (i, j), q in term.diff:
            if var in (i, j):
                sign = 1 if var == j else (-1) ** q
                row = [sign * binomial_series_coeff(q, n) for n in range(budget + 1)]
                involved.append(((i if var == j else j) - 1, q, row))
        passive = tuple((pair, q) for pair, q in term.diff if var not in pair)

        for *depths, exp_power in homogeneous_monomials(len(involved) + 1, budget):
            scalar = 1
            xpow = list(term.xpow)
            xpow[var - 1] = 0
            for (other, q, row), n in zip(involved, depths):
                scalar *= row[n]
                xpow[other] -= q + n
            acc = groups.setdefault((tuple(xpow), passive), {}).setdefault(exp_power, {})
            for exps, num in numerators:
                acc[exps] = acc.get(exps, 0) + num * scalar

    shifts: dict[int, MultiPoly] = {}  # a_var^s with coefficient 1, one per power s
    collected: dict[TermKey, MultiPoly] = {}
    for key, by_power in groups.items():
        merged: dict[tuple[int, ...], Fraction] = {}
        for exp_power, acc in by_power.items():
            scale = math.factorial(exp_power)
            coeff = MultiPoly._trusted(
                nvars, {e: Fraction(num, common[e] * scale) for e, num in acc.items() if num}
            )
            if exp_power:
                shift = shifts.get(exp_power)
                if shift is None:
                    exps = tuple(exp_power if i == var - 1 else 0 for i in range(nvars))
                    shift = shifts[exp_power] = MultiPoly._trusted(nvars, {exps: Fraction(1)})
                coeff = coeff * shift
            if merged:
                # the powers share monomials when the input's coefficients
                # hold a_var, which no sum reached from the kernel does
                add_terms_into(merged, coeff.terms)
            else:
                merged = coeff.terms
        collected[key] = MultiPoly._trusted(nvars, merged)

    return ResidueSum.build(nvars, collected)


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
    state = build_kernel(m)
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
