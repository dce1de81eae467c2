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
powers of x with x_k's slot holding the budget b = p - 1 still to spread,
and holds one table.  A factor (x_i - x_k)^-q is read as
x_i^-q (1 - x_k/x_i)^-q, and (x_k - x_j)^-q as (-1)^q x_j^-q (1 - x_k/x_j)^-q.
With x_o the factor's other variable, one geometric series (1 - x_k/x_o)^-1
sends a state to depths n = 0..b, each lowering x_o's power P and the
budget B by n with weight 1, so its output G is a running sum

    G(P, B) = F(P, B) + G(P + 1, B + 1)

along each diagonal of P - B, from the top budget down to 0.  The q-fold
running sum multiplies by (1 - t)^-q = sum_n C(q-1+n, n) t^n, so q passes
give the factor's weights C(q-1+n, n) with no weight list and no scalar,
and one shift of P by -q follows.  The (-1)^q of each (x_k - x_j) factor
multiplies into one sign for the whole step; when it is -1 the step's input
tables are negated once.  The budget left after the last factor is the
power s of a_k that the exponential's series supplies.  Expanding the
series one after another takes the same Cauchy product as a joint split of
p - 1 over all of them, bracketed differently; the product is associative,
so the coefficient of x_k^(p-1) is the same.  Where F has no state, G's
state shares the table of G(P + 1, B + 1); where it has one, the new table
is one copy of G(P + 1, B + 1)'s table plus one add per entry of F's, with
cancelled entries dropped.  No table is written to after it is built, so
one table may be shared down a whole diagonal and a step may share its
input tables with its output.

A coefficient is kept as its divided-power transform: c(a) = sum_e c_e a^e
is stored as T(c) = sum_e e! c_e a^e, a ``MultiPoly`` with ``int`` values.
T is linear, and the kernel's coefficient is 1 = T(1).  a_k enters only
through exp(a_k x_k), so before x_k is integrated out no coefficient depends
on a_k, in any residue order.  For such a c every key e of c has e_k = 0, so
(e + s u_k)! = e! s!, with u_k the k-th unit vector, and

    T(c * a_k^s / s!) = T(c) * a_k^s.

A step therefore takes the integers T(c)_e of each input term as they are,
and each pass only adds, so every state holds an integer table.  The states
of one power of x differ only in s, and each is rekeyed with s in a_k's
exponent, so the tables of one power of x share no key and are joined
with no merge and no per-state product.  A power of x reached by one state
with s > 0 is instead multiplied by the monomial a_k^s, a true product in
the transform, and ``MultiPoly`` makes it as one product, one pair per
term of the table.  That product stays a ``MultiPoly`` product, rather
than a rekey, because it is what the benchmark's traced run still counts
as the polynomial layer's products (``polynomial.mul_calls``) until
ROADMAP item 1 moves its contract to stages.  No step divides: by
induction every coefficient reached from the kernel is an integer table,
and after the last step T(v)_e = e! v_e are the values of the Kostant
partition function (Meszaros-Morales, Math. Z. 293, 2019, arXiv
1710.00701).  ``ResidueSum.table`` collapses the integrated sum to T(v),
and ``iterated_residue`` returns it as the ``table`` of a
``VolumePolynomial``, checked once there.  Every command reads that table:
``MultiPoly``'s ``render`` and ``evaluate`` read it with ``divided=True``,
the operator residuals of ``check-pde`` are shifts of it, and ``corner``
reads T(v)_o through ``polynomial.divided_coefficient``.  The transform
itself, each way, belongs to ``polynomial``: only a read of the volume's
``poly`` undoes it, with one ``from_divided_powers``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .multiplicity import MultiplicityMatrix
from .polynomial import MultiPoly, divided_coefficient, divided_powers, from_divided_powers, table_sum


class ResidueTerm(NamedTuple):
    """One summand: coeff(a) * prod x_i^xpow[i-1], over its sum's difference factors.

    ``coeff`` is the divided-power transform T(c) of the coefficient c(a),
    with ``int`` values (see the module docstring).
    """

    coeff: MultiPoly
    xpow: tuple[int, ...]


class ResidueSum(NamedTuple):
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

    def table(self) -> MultiPoly:
        """Collapse a fully integrated sum to the integer table T(v) of its polynomial v.

        The sum is trusted to be fully integrated, with no difference factor
        and every x power zero: ``_iterated_sum`` integrates every variable
        of a checked permutation.
        """
        return sum((term.coeff for term in self.terms), MultiPoly.zero(self.nvars))


def build_kernel(m: MultiplicityMatrix) -> ResidueSum:
    """The kernel as a one-term sum, every variable live and carrying its exponential.

    Pole order m[i,r+1] at x_i = 0 and m[i,j] on x_i - x_j, read from
    the matrix's rows, coefficient T(1) = 1.
    """
    r = m.rank
    xpow = tuple(-row[-1] for row in m.rows)
    diff = tuple(((i, j), q) for i, row in enumerate(m.rows, 1) for j, q in enumerate(row[:-1], i + 1))
    return ResidueSum(r, diff, (ResidueTerm(MultiPoly._trusted(r, {(0,) * r: 1}), xpow),))


def residue_at_zero(expr: ResidueSum, var: int) -> ResidueSum:
    """Residue at x_var = 0, treating the other live variables as generic.

    x_var is trusted to be live: ``residue_in_order`` takes each variable
    once.  The difference factors are split once into those through x_var,
    which the step expands, and the passive ones, which it passes on.
    Every factor of every term is expandable around x_var = 0 by
    construction.  Every coefficient is trusted to be an integer table T(c)
    with no a_var, as every sum reached from the kernel is.  A state keys
    the powers of x with x_var's slot holding the budget p - 1 still to
    spread, and holds one table; states are kept by diagonal, so that a
    pass reads each diagonal from its top budget down.  Each factor through
    x_var is q running-sum passes G(P, B) = F(P, B) + G(P + 1, B + 1) along
    the diagonals of its other variable's power P and the budget B, and one
    shift of P by -q; the signs of all factors make one sign for the step,
    applied to its input tables.  The budget left after the last factor is
    the power s of a_var: the states of one power of x are rekeyed with s
    in x_var's slot into one table, and a lone state is multiplied by
    a_var^s with one ``MultiPoly`` product, kept for the traced metrics
    (see the module docstring for why this is exact, why shared tables are
    safe and why the lone state keeps its product).  The output is merged
    on the powers of x, sorted by them, with no zero entry.
    """
    nvars, slot = expr.nvars, var - 1
    through, passive = [], []  # the factors through x_var, and the others
    for factor in expr.diff:
        (through if var in factor[0] else passive).append(factor)
    # diagonal -> budget -> table.  A diagonal is the powers of x with 0 in
    # x_var's slot and, once a factor is expanded, the power of its other
    # variable less the budget, so that each pass runs along one diagonal.
    columns: dict[tuple[int, ...], dict[int, dict]] = {}
    # the step's one sign is the product of (-1)^q over its factors (x_var - x_j)^q
    negate = sum(q for (i, _), q in through if i == var) % 2
    for term in expr.terms:
        if term.xpow[slot] < 0:  # else analytic in x_var at 0, residue contribution is zero
            table = {e: -c for e, c in term.coeff.terms.items()} if negate else term.coeff.terms
            columns.setdefault(term.xpow[:slot] + (0,) + term.xpow[var:], {})[-term.xpow[slot] - 1] = table
    moved = None
    for (i, j), q in through:
        other = (i if var == j else j) - 1
        diagonals: dict[tuple[int, ...], dict[int, dict]] = {}
        for diagonal, column in columns.items():
            for budget, table in column.items():
                key = list(diagonal)
                if moved is not None:
                    key[moved] += budget
                key[other] -= budget + q
                diagonals.setdefault(tuple(key), {})[budget] = table
        columns, moved = {}, other
        for diagonal, column in diagonals.items():
            for _ in range(q):
                run, summed = None, {}
                for budget in range(max(column, default=-1), -1, -1):
                    table = column.get(budget)
                    if table:
                        run = table_sum(run, table) if run else table
                    if run:
                        summed[budget] = run
                column = summed
            columns[diagonal] = column

    groups: dict[tuple[int, ...], list[tuple[int, dict]]] = {}
    for diagonal, column in columns.items():
        for budget, table in column.items():
            key = list(diagonal)
            if moved is not None:
                key[moved] += budget
            groups.setdefault(tuple(key), []).append((budget, table))
    terms = []
    for xpow, parts in sorted(groups.items()):
        if len(parts) == 1:
            ((s, joined),) = parts
            if s:
                exps = (0,) * slot + (s,) + (0,) * (nvars - var)
                joined = (MultiPoly._trusted(nvars, joined) * MultiPoly._trusted(nvars, {exps: 1})).terms
        else:  # one table per power of a_var: no two share a key
            joined = {}
            for s, table in parts:
                for e, c in table.items():
                    joined[e[:slot] + (s,) + e[var:]] = c
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


def _iterated_sum(m: MultiplicityMatrix, order: Sequence[int]) -> ResidueSum:
    """The kernel with every variable integrated out, in the given order."""
    if sorted(order) != list(range(1, m.rank + 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{m.rank}")
    state = build_kernel(m)
    for var in order:
        state = residue_at_zero(state, var)
    return state


def residue_in_order(m: MultiplicityMatrix, order: Sequence[int]) -> MultiPoly:
    """Iterated residue of the kernel, taking variables in the given order."""
    return from_divided_powers(m.rank, _iterated_sum(m, tuple(order)).table().terms, 1)


class _PropertyViolation(Exception):
    """A failed certificate, which ``cli`` reports as one property-violation line with exit code 1."""


class _VolumeCheckError(_PropertyViolation, ValueError):
    """A computed polynomial that lacks a property every volume polynomial has."""


class VolumePolynomial:
    """Volume polynomial v of the flow polytope on the all-positive chamber.

    v is held as its divided-power table T(v) = sum_e e! v_e a^e, a
    ``MultiPoly`` in ``table``.  ``iterated_residue`` and the lift hand
    over their own integer tables and build no polynomial;
    ``VolumePolynomial(m, poly)`` takes v itself and writes its table at
    once, with ``polynomial.divided_powers``, whose integral entries are
    ``int``, so a volume's table is the same integer table whichever way it
    was made.  ``poly`` is always built from the table, by one
    ``from_divided_powers`` on its first read, so the table is the one
    source of v even when v was made from a polynomial.  ``str(v)`` and
    ``value_at`` read the table with ``divided=True``, and two volumes are
    equal when their matrices and tables are.

    The table is checked once, when v is made.  One that is zero, not
    homogeneous of the volume degree or with a corner coefficient T(v)_o /
    o! off the corner value, checked in that order, raises
    ``_VolumeCheckError``, a ``ValueError`` that ``cli`` reports as a
    property violation.
    """

    __slots__ = ("m", "table", "_poly")

    def __init__(self, m: MultiplicityMatrix, poly: MultiPoly) -> None:
        if poly.nvars != m.rank:
            raise ValueError("polynomial variable count does not match the rank")
        self._hold(m, MultiPoly._trusted(m.rank, divided_powers(poly)))

    @classmethod
    def _of_table(cls, m: MultiplicityMatrix, table: MultiPoly) -> "VolumePolynomial":
        """The volume of the divided-power table ``table`` of m.rank variables, checked."""
        volume = object.__new__(cls)
        volume._hold(m, table)
        return volume

    def _hold(self, m: MultiplicityMatrix, table: MultiPoly) -> None:
        """Check the table, then keep it; the polynomial waits for its first read."""
        if not table.terms:
            raise _VolumeCheckError("volume polynomial cannot be identically zero")
        if set(map(sum, table.terms)) != {m.degree}:
            raise _VolumeCheckError(f"volume polynomial must be homogeneous of degree {m.degree}")
        corner = divided_coefficient(table.terms, m.corner_exponents)
        if corner != m.corner_value:
            raise _VolumeCheckError(f"corner coefficient {corner} differs from expected {m.corner_value}")
        self.m, self.table, self._poly = m, table, None

    @property
    def poly(self) -> MultiPoly:
        if self._poly is None:
            self._poly = from_divided_powers(self.m.rank, self.table.terms, 1)
        return self._poly

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VolumePolynomial) and self.m == other.m and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.m, self.table))

    def value_at(self, point: Sequence[Fraction | int]) -> Fraction:
        return self.table.evaluate(point, divided=True)

    def __str__(self) -> str:
        return self.table.render(divided=True)


def iterated_residue(m: MultiplicityMatrix) -> VolumePolynomial:
    """Exact volume polynomial, via residues innermost-first in x_r, ..., x_1, as its integer table."""
    return VolumePolynomial._of_table(m, _iterated_sum(m, canonical_order(m.rank)).table())
