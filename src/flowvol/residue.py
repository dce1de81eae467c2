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

    c(a) * prod_i x_i^(-p_i)    over    prod_{i<j} (x_i - x_j)^(q_ij)

with polynomial coefficients c(a), and like terms are merged on their powers
of x, so no polynomial division is ever needed.

Every term of a sum shares one set of difference factors, so a
``ResidueSum`` holds them once.  The kernel has one term.  A step in x_k
expands exactly the factors through x_k, whose series only lower the powers
of the other variables, and leaves every other factor as it is, in every
term; so the terms it writes share the untouched factors, in any residue
order, and after each step the factors are exactly the pairs among the
variables not yet taken.

A step expands the factors through x_k one at a time.  A state is a term's
powers of x with x_k's slot holding the budget b = p - 1 still to spread.
One factor (x_i - x_k)^-q, or (x_k - x_j)^-q with sign (-1)^q, sends a
state to b + 1 children: at depth n the weight is sign * C(q-1+n, n), the
other variable's power drops by q + n and the budget by n.  The budget left
after the last factor is the power s of a_k that the exponential's series
supplies.  Expanding the series one after another takes the same Cauchy
product as a joint split of p - 1 over all of them, bracketed differently;
the product is associative, so the coefficient of x_k^(p-1) is the same.
The parts of a state that several paths reach are summed once, when it is
next expanded (distributivity), so no split is enumerated jointly.  A state
reached by one path carries its part lazily, as (input table, integer
scalar), and no entry of the table is touched until states merge or the
exponential is applied.  No table is written to after it is built, so a
step may share its input tables with its output.

A coefficient is kept as its divided-power transform: c(a) = sum_e c_e a^e
is stored as T(c) = sum_e e! c_e a^e, a ``MultiPoly`` with ``int`` values.
T is linear, and the kernel's coefficient is 1 = T(1).  a_k enters only
through exp(a_k x_k), so before x_k is integrated out no coefficient depends
on a_k, in any residue order.  For such a c every key e of c has e_k = 0, so
(e + s u_k)! = e! s!, with u_k the k-th unit vector, and

    T(c * a_k^s / s!) = T(c) * a_k^s.

A step therefore takes the integers T(c)_e of each input term as they are,
and each weight is an integer, so every state's parts sum to an integer
table.  The final state for the power s of a_k is multiplied by the
monomial a_k^s, with its scalar as coefficient, which in the transform is a
true product and which ``MultiPoly`` does as a shift of one exponent.  That
table holds exactly the output keys with a_k-exponent s, so the tables of
one power of x share no key and are joined with no merge.  No step divides:
by induction every coefficient reached from the kernel is an integer table,
and after the last step T(v)_e = e! v_e are the values of the Kostant
partition function (Meszaros-Morales, Math. Z. 293, 2019, arXiv
1710.00701).  ``ResidueSum.polynomial`` undoes the transform, with one
division by e! per output coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .multiplicity import MultiplicityMatrix
from .polynomial import MultiPoly, binomial_series_coeff, from_divided_powers


@dataclass(frozen=True)
class ResidueTerm:
    """One summand: coeff(a) * prod x_i^xpow[i-1], over its sum's difference factors.

    ``coeff`` is the divided-power transform T(c) of the coefficient c(a),
    with ``int`` values (see the module docstring).
    """

    coeff: MultiPoly
    xpow: tuple[int, ...]


@dataclass(frozen=True)
class ResidueSum:
    """Sum of exponential-rational terms over shared difference factors.

    ``diff`` lists each factor (x_i - x_j)^q of the common denominator as
    ((i, j), q), i < j, in lexicographic order; every term carries all of
    them (see the module docstring for why one set serves every term).
    Every variable not yet integrated out still carries its exp(a_i x_i)
    factor.  The sum does not record which variables those are:
    ``residue_in_order`` checks that its order is a permutation, so each
    step takes a live variable.  Terms are merged on ``xpow``, sorted by it,
    with zero coefficients dropped.
    """

    nvars: int
    diff: tuple[tuple[tuple[int, int], int], ...]
    terms: tuple[ResidueTerm, ...]

    def polynomial(self) -> MultiPoly:
        """Collapse a fully integrated sum to its polynomial: c_e = T(c)_e / e!."""
        if self.diff or any(any(term.xpow) for term in self.terms):
            raise ValueError("sum still depends on unintegrated x variables")
        total = MultiPoly.zero(self.nvars)
        for term in self.terms:
            total = total + from_divided_powers(self.nvars, term.coeff.terms, 1)
        return total


def build_kernel(m: MultiplicityMatrix) -> ResidueSum:
    """The kernel as a one-term sum, every variable live and carrying its exponential.

    Pole order m[i,r+1] at x_i = 0 and m[i,j] on x_i - x_j, coefficient
    T(1) = 1.
    """
    r = m.rank
    xpow = tuple(-m.multiplicity(i, r + 1) for i in range(1, r + 1))
    diff = tuple(
        ((i, j), m.multiplicity(i, j))
        for i in range(1, r)
        for j in range(i + 1, r + 1)
    )
    return ResidueSum(r, diff, (ResidueTerm(MultiPoly._trusted(r, {(0,) * r: 1}), xpow),))


def _collapsed(parts: list[tuple[dict, int]]) -> tuple[dict, int]:
    """One (table, scalar) for a state's parts: its only part as it is, or their sum with scalar 1."""
    if len(parts) == 1:
        return parts[0]
    (table, scalar), *rest = parts
    total = {e: c * scalar for e, c in table.items()}
    get = total.get
    for table, scalar in rest:
        for e, c in table.items():
            total[e] = get(e, 0) + c * scalar
    if 0 in total.values():  # some entries cancelled
        total = {e: c for e, c in total.items() if c}
    return total, 1


def residue_at_zero(expr: ResidueSum, var: int) -> ResidueSum:
    """Residue at x_var = 0, treating the other live variables as generic.

    x_var is trusted to be live: ``residue_in_order`` takes each variable
    once.  Every factor of every term is expandable around x_var = 0 by
    construction.  Every coefficient is trusted to be an integer table T(c)
    with no a_var, as every sum reached from the kernel is.  A state keys
    the powers of x with x_var's slot holding the budget p - 1 still to
    spread, and holds its parts, each an input table and an integer scalar.
    The factors through x_var are expanded one at a time, each state's parts
    summed only when it is expanded, and the budget left after the last is
    the power s of a_var, applied with one product by the monomial a_var^s
    whose coefficient is the scalar (see the module docstring for why this
    is exact and why the shared tables are safe).  The output is merged on
    the powers of x, sorted by them, with no zero entry.
    """
    nvars, slot = expr.nvars, var - 1
    # each factor through x_var: the index of its other variable, its pole
    # order q and the sign of its series
    involved, passive = [], []
    for (i, j), q in expr.diff:
        if var in (i, j):
            involved.append(((i if var == j else j) - 1, q, 1 if var == j else (-1) ** q))
        else:
            passive.append(((i, j), q))
    # powers of x, budget in x_var's slot -> parts (input table, integer scalar)
    states: dict[tuple[int, ...], list] = {}
    for term in expr.terms:
        if term.xpow[slot] < 0:  # else analytic in x_var at 0, residue contribution is zero
            key = term.xpow[:slot] + (-term.xpow[slot] - 1,) + term.xpow[var:]
            states[key] = [(term.coeff.terms, 1)]
    for other, q, sign in involved:
        top = max((key[slot] for key in states), default=0)
        weights = [sign * binomial_series_coeff(q, n) for n in range(top + 1)]
        children: dict[tuple[int, ...], list] = {}
        for key, parts in states.items():
            table, scalar = _collapsed(parts)
            if not table:
                continue  # its parts cancelled
            budget, child = key[slot], list(key)
            for n in range(budget + 1):
                child[other], child[slot] = key[other] - q - n, budget - n
                children.setdefault(tuple(child), []).append((table, scalar * weights[n]))
        states = children

    groups: dict[tuple[int, ...], list[dict[tuple[int, ...], int]]] = {}
    for key, parts in states.items():
        table, scalar = _collapsed(parts)
        if not table:
            continue
        if key[slot] or scalar != 1:
            exps = (0,) * slot + (key[slot],) + (0,) * (nvars - var)
            table = (MultiPoly._trusted(nvars, table) * MultiPoly._trusted(nvars, {exps: scalar})).terms
        groups.setdefault(key[:slot] + (0,) + key[var:], []).append(table)
    terms = []
    for xpow, tables in sorted(groups.items()):
        joined = tables[0]
        if len(tables) > 1:  # one table per power of a_var: no two share a key
            joined = {}
            for table in tables:
                joined.update(table)
        terms.append(ResidueTerm(MultiPoly._trusted(nvars, joined), xpow))
    return ResidueSum(nvars, tuple(passive), tuple(terms))


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


class _VolumeCheckError(ValueError):
    """A computed polynomial that lacks a property every volume polynomial has."""


@dataclass(frozen=True)
class VolumePolynomial:
    """Volume polynomial of the flow polytope on the all-positive chamber.

    A polynomial that is zero, not homogeneous of the volume degree or off
    the corner value raises ``_VolumeCheckError``, a ``ValueError`` that
    ``cli`` reports as a property violation.
    """

    m: MultiplicityMatrix
    poly: MultiPoly

    def __post_init__(self) -> None:
        if self.poly.nvars != self.m.rank:
            raise ValueError("polynomial variable count does not match the rank")
        if self.poly.is_zero:
            raise _VolumeCheckError("volume polynomial cannot be identically zero")
        if not self.poly.is_homogeneous(self.m.degree):
            raise _VolumeCheckError(
                f"volume polynomial must be homogeneous of degree {self.m.degree}"
            )
        corner = self.poly.coefficient(self.m.corner_exponents)
        if corner != self.m.corner_value:
            raise _VolumeCheckError(
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
