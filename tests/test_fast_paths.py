"""The trusted polynomial core, the grouped residue step and the rank-induction
loop against the plain paths.

``reference_residue_at_zero`` is the plain form of one residue step on
rational coefficients c: every (term, depth vector) pair builds its own
checked polynomial, multiplies it by a_k^s / s! and adds it into the
accumulator.  ``rational_residue_at_zero`` is the step as the package ran it
on c before it kept T(c) = sum_e e! c_e a^e: integer numerators over the lcm
L_e of the denominators of a^e, one ``Fraction`` per coefficient and a merge
of the groups for each power s.  ``divided`` turns T(c) back into c, so the
engine's step on T(c) is checked against both.  ``residue_sum`` writes a sum
of ``{xpow: coeff}`` terms over one set of difference factors in the step's
output form.  ``reference_apply`` applies an operator pair by pair, one ``Fraction``
product and one ``perm`` product per (operator term, polynomial term) pair,
where ``DiffOperator.apply`` shifts packed keys of an integer divided-power
table.  ``reference_lift_volume``
applies every explicit ladder step E_n to the restricted volume, where
``lift_volume`` runs the recurrence u_n = sum_j (-1)^(j+1) D_j u_(n-j) from
it.  ``_bounded_vectors`` and ``_weak_compositions`` enumerate what the
residue step and the lowering operators take from ``homogeneous_monomials``,
directly.  ``reference_integer_nullspace`` is the dense Bareiss elimination
with Fraction back-substitution that the sparse Gauss-Jordan solve replaced,
its vectors times the solve's common scale P compared with the solve's
sparse integer ones through ``dense`` (``assert_reference_basis``);
``reference_operator_rows`` builds the kernel matrix on every monomial from
one ``op.apply`` per monomial, and ``reference_solution_space`` solves that
full matrix, where ``solution_space`` keeps only the staircase monomials,
those ``on_staircase`` accepts; ``staircase_solution_space`` solves on the
staircase in the monomial basis, where ``solution_space`` builds its matrix
in divided powers from ``node_residuals``' key shifts (``_node_image``);
both rescale each kernel vector with ``normalize``, on a checked polynomial,
where ``solution_space`` scales the null vector before its one conversion;
``filtered_staircase`` filters every
monomial with it, where ``homogeneous_monomials`` builds only the staircase
from its suffix-sum caps.  ``reference_pde_system``
multiplies out the node operators prod_j (d_l - d_j)^m[l,j] * d_l^m[l,r+1] and
``reference_ladder_steps`` runs E_n = sum_j (-1)^(j+1) D_j E_(n-j) as
operator products, as the package did before both were read off their
closed forms.  ``reference_node_residuals`` applies each expanded node
operator of ``pde_system`` with ``op.apply``, and ``partial_node_residual``
applies its linear factors one at a time with ``partial`` (conftest), where
``node_residuals`` shifts the keys of an integer divided-power table, and
``reference_count_lattice_points`` is
the lattice-count DP with a full supply vector as state and a loop over every
flow s of every root, the forced last root of each row included, where
``count_lattice_points`` runs on running sums.  ``naive_combine`` adds,
subtracts and multiplies plain Fraction dicts, where ``MultiPoly`` stores a
new key without an add, and ``naive_evaluate`` sums one Fraction per term,
where ``evaluate`` makes one Fraction in all.
``reference_homogeneous_monomials`` enumerates the monomials through one
recursive generator frame per variable, where
``homogeneous_monomials`` builds the list from tables of tails, and
``from_divided_powers`` turns a divided-power table back into its polynomial
before ``render`` and ``evaluate`` read it, where the same methods with
``divided=True`` read the table itself; ``table_of`` multiplies each
coefficient of an image by e!, where ``DiffOperator.apply`` with
``divided=True`` reads a table and returns one, and ``lift_operator`` sums
the lift's S = D_1 - D_2 + ... with the operator algebra's ``+`` and scalar
``*``, where ``lift_volume`` takes the signed union of the D_j's terms.
``MultiPoly.sorted_terms`` sorts on (total degree, exponents) descending,
or on exponents alone when every term has one degree, where ``grlex_key``
(conftest) negates each entry; ``reference_render`` joins each monomial
from its nonzero factors, where ``render`` joins per-variable tables that
carry the separator in front.  All are kept here, outside the
package, as the references the engine must match exactly.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings, strategies as st

import flowvol.diffop
import flowvol.linalg
import flowvol.residue
from flowvol import (
    MultiPoly,
    MultiplicityMatrix,
    VolumePolynomial,
    annihilates,
    canonical_order,
    iterated_residue,
    lift_volume,
    lowering_operator,
    operator_ladder,
    pde_system,
    residue_in_order,
    solution_space,
)
from flowvol.diffop import DiffOperator, _layout, _node_image, _packed, node_residuals
from flowvol.linalg import integer_nullspace
from flowvol.oracle import count_lattice_points
from flowvol.polynomial import binomial_series_coeff, divided_powers, from_divided_powers, homogeneous_monomials
from flowvol.residue import ResidueSum, ResidueTerm, _VolumeCheckError, build_kernel, residue_at_zero

from conftest import (
    assert_sparse_basis,
    dense,
    grlex_key,
    multipolys,
    multiplicity_matrices,
    nonzero_fractions,
    partial,
    rational_points,
    small_fractions,
    sparse_rows,
)

# Every rank-2 and rank-3 matrix with entries in {1, 2, 3}.
small_families = multiplicity_matrices(min_rank=2, max_rank=3, max_mult=3)


def _bounded_vectors(slots, bound):
    if slots == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _bounded_vectors(slots - 1, bound - head):
            yield (head,) + tail


def _weak_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def residue_sum(nvars, diff, raw):
    """The ``{xpow: coeff}`` terms of ``raw`` over ``diff``, sorted, zeros dropped."""
    return ResidueSum(nvars, tuple(diff), tuple(
        ResidueTerm(coeff, xpow) for xpow, coeff in sorted(raw.items()) if not coeff.is_zero
    ))


def reference_residue_at_zero(expr, var):
    """One residue step, one checked polynomial per contribution."""
    involved = [(pair, q) for pair, q in expr.diff if var in pair]
    passive = [(pair, q) for pair, q in expr.diff if var not in pair]
    collected = {}
    for term in expr.terms:
        budget = -term.xpow[var - 1] - 1
        if budget < 0:
            continue
        for depths in _bounded_vectors(len(involved), budget):
            exp_power = budget - sum(depths)
            scalar = Fraction(1)
            xpow = list(term.xpow)
            xpow[var - 1] = 0
            for ((i, j), q), n in zip(involved, depths):
                other = i if var == j else j
                sign = 1 if var == j else (-1) ** q
                scalar *= sign * binomial_series_coeff(q, n)
                xpow[other - 1] -= q + n
            coeff = term.coeff * scalar
            if exp_power:
                exps = tuple(exp_power if i == var - 1 else 0 for i in range(expr.nvars))
                coeff = coeff * MultiPoly.monomial(
                    exps, Fraction(1, math.factorial(exp_power))
                )
            key = tuple(xpow)
            previous = collected.get(key)
            collected[key] = coeff if previous is None else previous + coeff
    return residue_sum(expr.nvars, passive, collected)


def rational_residue_at_zero(expr, var):
    """One residue step on rational coefficients c, as the package ran it before T(c).

    L_e is the lcm of the denominators of a^e over the input terms; integer
    numerators over L_e are accumulated per output power of x and per s,
    divided once by L_e * s!, shifted by a_var^s and merged into one dict.
    """
    nvars = expr.nvars
    common = {}
    for term in expr.terms:
        for exps, c in term.coeff.terms.items():
            common[exps] = math.lcm(common.get(exps, 1), c.denominator)
    involved, passive = [], []
    for (i, j), q in expr.diff:
        if var in (i, j):
            involved.append(((i if var == j else j) - 1, q, 1 if var == j else (-1) ** q))
        else:
            passive.append(((i, j), q))
    groups = {}
    for term in expr.terms:
        budget = -term.xpow[var - 1] - 1
        if budget < 0:
            continue
        numerators = [
            (exps, c.numerator * (common[exps] // c.denominator))
            for exps, c in term.coeff.terms.items()
        ]
        for *depths, exp_power in homogeneous_monomials(len(involved) + 1, budget):
            scalar, delta = 1, [0] * nvars
            delta[var - 1] = budget + 1
            for (other, q, sign), n in zip(involved, depths):
                scalar *= sign * binomial_series_coeff(q, n)
                delta[other] = -q - n
            xpow = tuple(map(add, term.xpow, delta))
            acc = groups.setdefault(xpow, {}).setdefault(exp_power, {})
            for exps, num in numerators:
                acc[exps] = acc.get(exps, 0) + num * scalar
    raw = {}
    for xpow, by_power in groups.items():
        merged = MultiPoly.zero(nvars)
        for exp_power, acc in by_power.items():
            exps = tuple(exp_power if i == var - 1 else 0 for i in range(nvars))
            merged = merged + MultiPoly(nvars, {
                tuple(map(add, e, exps)): Fraction(num, common[e] * math.factorial(exp_power))
                for e, num in acc.items()
            })
        raw[xpow] = merged
    return residue_sum(nvars, passive, raw)


def divided(expr):
    """The sum with each coefficient T(c) turned back into c: c_e = T(c)_e / e!."""
    return ResidueSum(expr.nvars, expr.diff, tuple(
        ResidueTerm(MultiPoly(expr.nvars, {e: Fraction(c, factorials(e)) for e, c in term.coeff.terms.items()}),
                    term.xpow)
        for term in expr.terms
    ))


def summed(expr):
    """A fully integrated sum of rational coefficients as one polynomial."""
    return sum((term.coeff for term in expr.terms), MultiPoly.zero(expr.nvars))


def integer_poly(nvars, terms):
    """A polynomial with ``int`` values, as the residue step keeps T(c); zeros dropped."""
    return MultiPoly._trusted(nvars, {e: c for e, c in terms.items() if c})


def reference_apply(op, p):
    """The operator applied pair by pair: c d^k maps x^e to c prod_i perm(e_i, k_i) x^(e - k)."""
    result = {}
    for dexps, dcoeff in op.poly.terms.items():
        for pexps, pcoeff in p.terms.items():
            exps = tuple(map(sub, pexps, dexps))
            if min(exps) >= 0:
                coeff = dcoeff * pcoeff * math.prod(map(math.perm, pexps, dexps))
                result[exps] = result.get(exps, 0) + coeff
    return {e: c for e, c in result.items() if c}


def reference_lift_volume(v_prev, m):
    """The lift as a sum of explicit ladder steps applied to the restricted volume."""
    r = m.rank
    base = m.row_sum(1)
    lifted_prev = v_prev.poly.embed(r, offset=1)
    total = MultiPoly.zero(r)
    for n, step in enumerate(operator_ladder(m).steps):
        image = step.apply(lifted_prev)
        if image.is_zero:
            continue
        power = base - 1 + n
        exps = (power,) + (0,) * (r - 1)
        total = total + MultiPoly.monomial(exps, Fraction(1, math.factorial(power))) * image
    return VolumePolynomial(m, total)


def reference_integer_nullspace(rows, ncols):
    """Dense Bareiss elimination, then Fraction back-substitution per free column."""
    a = [list(row) for row in rows]
    nrows = len(a)
    pivots = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        pivot_row = next((i for i in range(pr, nrows) if a[i][pc] != 0), None)
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        pivot = a[pr][pc]
        for i in range(pr + 1, nrows):
            factor = a[i][pc]
            for j in range(pc, ncols):
                a[i][j] = (pivot * a[i][j] - factor * a[pr][j]) // prev
        pivots.append((pr, pc))
        prev = pivot
        pr += 1
        if pr == nrows:
            break
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, col in reversed(pivots):
            acc = Fraction(0)
            for j in range(col + 1, ncols):
                if x[j]:
                    acc += a[row][j] * x[j]
            x[col] = -acc / a[row][col]
        basis.append(x)
    return basis


def assert_reference_basis(basis, rows, ncols):
    """``integer_nullspace``'s basis in its stored form and exactly P times the Bareiss
    reference's, P the least common denominator of the reference's entries."""
    expected = reference_integer_nullspace(rows, ncols)
    scale = assert_sparse_basis(basis, ncols)
    assert scale == math.lcm(*(x.denominator for vector in expected for x in vector)), (scale, expected)
    assert [dense(vector, ncols) for vector in basis] == [[scale * x for x in vector] for vector in expected]


def reference_operator_rows(m, degree):
    """The stacked operator blocks on every monomial, one checked monomial and one
    ``apply`` per column.

    Returns the columns and one ``(node, target monomial, dense row)`` per row.
    """
    r = m.rank
    columns = homogeneous_monomials(r, degree)
    rows = []
    for l, op in pde_system(m).labeled():
        order = m.row_sum(l)
        if order > degree:
            continue
        targets = homogeneous_monomials(r, degree - order)
        index = {exps: i for i, exps in enumerate(targets)}
        block = [[0] * len(columns) for _ in targets]
        for col, exps in enumerate(columns):
            for texps, coeff in op.apply(MultiPoly.monomial(exps)).terms.items():
                assert coeff.denominator == 1
                block[index[texps]][col] = int(coeff)
        rows.extend(zip([l] * len(targets), targets, block))
    return columns, rows


def factorials(exps):
    """e! = prod_i e_i!, the divided-power scale of x^e."""
    return math.prod(map(math.factorial, exps))


def on_staircase(m, exps):
    """Every suffix sum e_(i+1) + ... + e_r at most D_i, the volume degree of the
    restriction to nodes i+1..r+1, for i = 1..r-1."""
    r = m.rank
    return all(
        sum(exps[i:]) <= sum(m.row_sum(l) - 1 for l in range(i + 1, r + 1)) for i in range(1, r)
    )


def staircase_caps(m):
    """caps[t] = D_(r-1-t), the bound on the sum of the last t + 1 exponents."""
    r = m.rank
    return [sum(m.row_sum(l) - 1 for l in range(r - t, r + 1)) for t in range(r - 1)]


def filtered_staircase(m, degree):
    """The degree-d staircase monomials, filtered out of every monomial."""
    return [exps for exps in homogeneous_monomials(m.rank, degree) if on_staircase(m, exps)]


def monomial_solution_space(m, degree, caps=()):
    """The kernel solve on the monomial basis x^e, one row per target monomial.

    Every entry comes from the monomial rule: c d^k maps x^e to
    c prod_i perm(e_i, k_i) x^(e - k), and to 0 when some e_i < k_i.  The
    caps bound the suffix sums of the columns and targets as in
    ``homogeneous_monomials``.
    """
    r = m.rank
    columns = homogeneous_monomials(r, degree, caps)
    rows = []
    for l, op in pde_system(m).labeled():
        order = m.row_sum(l)
        if order > degree:
            continue
        targets = {exps: i for i, exps in enumerate(homogeneous_monomials(r, degree - order, caps))}
        block = [{} for _ in targets]
        for col, exps in enumerate(columns):
            for dexps, dcoeff in op.poly.terms.items():
                image = tuple(map(sub, exps, dexps))
                if min(image) >= 0:
                    block[targets[image]][col] = int(dcoeff) * math.prod(map(math.perm, exps, dexps))
        rows.extend(block)
    basis = []
    for vector in integer_nullspace(rows, len(columns)):
        poly = MultiPoly(r, {exps: c for exps, c in zip(columns, dense(vector, len(columns))) if c})
        basis.append(normalize(m, degree, poly))
    return basis


def normalize(m, degree, poly):
    """A kernel vector rescaled as a checked polynomial: to the corner value at the
    volume degree when its corner coefficient is nonzero, else monic in its graded-lex
    leading term."""
    if degree == m.degree:
        corner = poly.coefficient(m.corner_exponents)
        if corner:
            return poly * (m.corner_value / corner)
    lead = poly.sorted_terms()[0][1]
    return poly * (1 / lead)


def reference_solution_space(m, degree):
    """``solution_space`` as it was before it kept only the staircase columns.

    Every operator on every degree-d monomial.
    """
    return monomial_solution_space(m, degree)


def staircase_solution_space(m, degree):
    """``solution_space`` as it was before it worked in divided powers.

    The staircase columns and the staircase targets of every node, on the
    monomial basis.
    """
    return monomial_solution_space(m, degree, staircase_caps(m))


def reference_pde_system(m):
    """The node operators as products of powers of binomials."""
    r = m.rank
    ops = []
    for l in range(r, 0, -1):
        d_l = MultiPoly.variable(l, r)
        op = d_l ** m.multiplicity(l, r + 1)
        for j in range(l + 1, r + 1):
            diff = d_l - MultiPoly.variable(j, r)
            op = diff ** m.multiplicity(l, j) * op
        ops.append(DiffOperator(r, op.terms))
    return tuple(ops)


def reference_ladder_steps(m):
    """E_0..E_h by the signed recurrence over the lowering operators."""
    r = m.rank
    span = m.row_sum(1) - m.multiplicity(1, r + 1)
    generators = [lowering_operator(m, q) for q in range(1, span + 1)]
    steps = [DiffOperator.one(r)]
    for n in range(1, m.restriction_degree + 1):
        acc = DiffOperator.zero(r)
        for j in range(1, min(n, span) + 1):
            acc = acc + (-1) ** (j + 1) * (generators[j - 1] * steps[n - j])
        steps.append(acc)
    return tuple(steps)


def reference_lowering_operator(m, q):
    """D_q as the u^q coefficient of prod_i (1 + u d_i)^m[1,i], multiplied out."""
    r = m.rank
    series = MultiPoly.one(r + 1)  # slot 0 is u, slots 1..r are d_1..d_r
    u = MultiPoly.variable(1, r + 1)
    for i in range(2, r + 1):
        factor = MultiPoly.one(r + 1) + u * MultiPoly.variable(i + 1, r + 1)
        series = series * factor ** m.multiplicity(1, i)
    return {exps[1:]: c for exps, c in series.terms.items() if exps[0] == q}


def reference_node_residuals(m, poly):
    """{l: the expanded node-l operator applied to poly}, for l = r down to 1."""
    return {l: op.apply(poly) for l, op in pde_system(m).labeled()}


def partial_node_residual(m, l, poly):
    """The node-l operator applied with ``partial``, one linear factor at a time."""
    r = m.rank
    for _ in range(m.multiplicity(l, r + 1)):
        poly = partial(poly, l)
    for j in range(l + 1, r + 1):
        for _ in range(m.multiplicity(l, j)):
            poly = partial(poly, l) - partial(poly, j)
    return poly


def reference_count_lattice_points(m, a):
    """The lattice-count DP with the whole supply vector as state."""
    r = m.rank
    states = {tuple(a): 1}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 2):
            mu = m.multiplicity(i, j)
            next_states = {}
            last_in_row = j == r + 1
            for state, ways in states.items():
                available = state[i - 1]
                flows = (available,) if last_in_row else range(available + 1)
                for s in flows:
                    new_state = list(state)
                    new_state[i - 1] -= s
                    if j <= r:
                        new_state[j - 1] += s
                    key = tuple(new_state)
                    weight = ways * math.comb(s + mu - 1, mu - 1)
                    next_states[key] = next_states.get(key, 0) + weight
            states = next_states
    return states.get((0,) * r, 0)


def reference_homogeneous_monomials(nvars, degree):
    """The degree-d exponent vectors in descending graded-lex order, recursively."""

    def emit(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining, -1, -1):
            yield from emit(prefix + (e,), remaining - e, slots - 1)

    return list(emit((), degree, nvars))


def naive_combine(p, q, op):
    """``p op q`` for op in '+', '-', '*' on plain Fraction dicts, zeros dropped."""
    out = {}
    if op == "*":
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                out[exps] = out.get(exps, Fraction(0)) + c1 * c2
    else:
        sign = 1 if op == "+" else -1
        for exps, c in p.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        for exps, c in q.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


@st.composite
def residue_sums(draw):
    """Hand-built sums of integer tables T(c) free of every live a_v, with their live variables.

    Drawn as (live, sum): a residue step may be taken at any live variable,
    and only there, as ``residue_in_order`` guarantees.  One set of
    difference factors among the live variables is drawn for the whole sum.
    Every coefficient has ``int`` values of either sign on monomials in the
    variables already taken, as every sum reached from the kernel has.  When
    drawn, a pair of terms whose residues at one variable cancel in one
    output group is added: for a factor (x_i - x_j)^q through x_v, with x_o
    its other variable, the residue at x_v = 0 of q c x_v^-1 x_o^-1 and the
    depth-1 part on that factor of that of -c x_v^-2 land on the same power
    of x_o with opposite coefficients, whatever the other factors.
    """
    nvars = draw(st.integers(2, 3))
    live = sorted(draw(st.sets(st.integers(1, nvars), min_size=1)))
    pairs = [(i, j) for i in live for j in live if i < j]
    diff = tuple((pair, draw(st.integers(1, 2))) for pair in pairs if draw(st.booleans()))
    exponents = st.tuples(*(st.just(0) if i in live else st.integers(0, 2) for i in range(1, nvars + 1)))
    tables = st.dictionaries(exponents, st.integers(-40, 40), max_size=4)
    raw = {}
    for _ in range(draw(st.integers(0, 3))):
        xpow = tuple(draw(st.integers(-3, 0)) if i in live else 0 for i in range(1, nvars + 1))
        raw[xpow] = integer_poly(nvars, draw(tables))
    if diff and draw(st.booleans()):
        pair, q = draw(st.sampled_from(diff))
        v = draw(st.sampled_from(pair))
        coeff = draw(tables)
        raw[tuple(-1 if k in pair else 0 for k in range(1, nvars + 1))] = integer_poly(
            nvars, {e: q * c for e, c in coeff.items()})
        raw[tuple(-2 if k == v else 0 for k in range(1, nvars + 1))] = integer_poly(
            nvars, {e: -c for e, c in coeff.items()})
    return live, residue_sum(nvars, diff, raw)


def every_matrix(rank, entries):
    return [
        MultiplicityMatrix(rank, mult)
        for mult in product(entries, repeat=rank * (rank + 1) // 2)
    ]


def assert_canonical(poly, kind=Fraction):
    """Canonical form with nonzero values of exactly the type ``kind``: a polynomial's
    ``Fraction``, or the ``int`` weights of an operator."""
    assert isinstance(poly.terms, dict)
    for exps, coeff in poly.terms.items():
        assert type(exps) is tuple and len(exps) == poly.nvars, exps
        assert all(type(e) is int and e >= 0 for e in exps), exps
        assert type(coeff) is kind, (exps, coeff)
        assert coeff != 0, exps


def naive_evaluate(poly, point):
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for value, e in zip(point, exps):
            term *= Fraction(value) ** e
        total += term
    return total


def assert_integer_tables(expr, var=None):
    """Every coefficient is an ``int`` table with no zero, and none holds a_var."""
    for term in expr.terms:
        assert term.coeff.terms
        for exps, c in term.coeff.terms.items():
            assert type(c) is int and c, (term.xpow, exps, c)
            assert var is None or exps[var - 1] == 0, (var, term.xpow, exps)


def assert_steps_match_rational(m, orders):
    """Each step on T(c) is an integer table and, divided by e!, equals the rational L_e step."""
    start = build_kernel(m)
    for order in orders:
        fast = slow = start
        for var in order:
            fast = residue_at_zero(fast, var)
            slow = rational_residue_at_zero(slow, var)
            assert divided(fast) == slow, (m, order, var)
            assert_integer_tables(fast)
        assert residue_in_order(m, order) == summed(slow)


class TestResidueStepMatchesReference:
    @given(small_families)
    def test_every_order_every_step(self, m):
        start = build_kernel(m)
        for order in permutations(canonical_order(m.rank)):
            fast, slow = start, divided(start)
            for var in order:
                fast = residue_at_zero(fast, var)
                slow = reference_residue_at_zero(slow, var)
                assert divided(fast) == slow
                assert_integer_tables(fast)
            assert residue_in_order(m, order) == summed(slow)

    @given(multiplicity_matrices(min_rank=1, max_rank=4, max_mult=3))
    def test_every_step_takes_integer_tables_free_of_its_variable(self, m):
        for order in permutations(canonical_order(m.rank)):
            state = build_kernel(m)
            for var in order:
                assert_integer_tables(state, var)
                state = residue_at_zero(state, var)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_order_of_every_small_matrix_against_the_rational_step(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            assert_steps_match_rational(m, permutations(canonical_order(rank)))

    @pytest.mark.parametrize("rank, entries, orders", [(4, (1, 2, 3), None), (5, (1, 2), 12)])
    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_rank_four_and_five_against_the_rational_step(self, rank, entries, orders, seed):
        # every order at rank 4; the canonical order and 11 seeded others at rank 5
        rng = random.Random(7500 + 10 * rank + seed)
        m = MultiplicityMatrix(rank, tuple(rng.choice(entries) for _ in range(rank * (rank + 1) // 2)))
        every = list(permutations(canonical_order(rank)))
        assert_steps_match_rational(m, every if orders is None else every[:1] + rng.sample(every[1:], orders - 1))

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", [2500, 2501, 2600, 2601, 2602])
    def test_seeded_rank_four_and_five_in_two_orders_against_the_rational_step(self, rank, entries, seed):
        # the canonical order and one seeded order
        rng = random.Random(seed + 10 * rank)
        m = MultiplicityMatrix(rank, tuple(rng.choice(entries) for _ in range(rank * (rank + 1) // 2)))
        assert_steps_match_rational(m, [canonical_order(rank), tuple(rng.sample(range(1, rank + 1), rank))])

    def test_cancelling_contributions_leave_no_zero_terms(self):
        # over (x1 - x2)^-1: the residue at x2 = 0 of x1^-1 x2^-1 is x1^-2, and
        # that of -x2^-2 is -x1^-2 (depth 1) plus -a2 x1^-1 (s = 1), so the
        # group at x1^-2 cancels exactly and only x1^-1 is left.
        one = integer_poly(2, {(0, 0): 1})
        expr = residue_sum(2, (((1, 2), 1),), {(-1, -1): one, (0, -2): -one})
        fast = residue_at_zero(expr, 2)
        assert divided(fast) == reference_residue_at_zero(divided(expr), 2)
        assert fast == residue_sum(2, (), {(-1, 0): integer_poly(2, {(0, 1): -1})})
        assert_integer_tables(fast)

    @given(residue_sums())
    @example(([1, 3], residue_sum(3, (((1, 3), 2),), {
        # a2 was taken: its powers up to 2 and both signs, on both poles
        (-1, 0, -3): integer_poly(3, {(0, 1, 0): -3, (0, 0, 0): 5}),
        (-2, 0, -2): integer_poly(3, {(0, 2, 0): 7, (0, 1, 0): -1}),
    })))
    def test_integer_tables_free_of_the_live_variables(self, drawn):
        # negative values and exact cancellation: the step on T(c), divided
        # by e!, must give the plain rational step on c
        live, expr = drawn
        for var in live:
            fast = residue_at_zero(expr, var)
            assert divided(fast) == reference_residue_at_zero(divided(expr), var)
            assert_integer_tables(fast)


def snapshot(expr):
    """Each term's powers of x and a copy of its coefficient table."""
    return [(term.xpow, dict(term.coeff.terms)) for term in expr.terms]


class TestResidueFactorPasses:
    """q passes of the geometric series give one factor's weights sign * C(q-1+n, n)."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("budget", range(7))
    @pytest.mark.parametrize("var", [1, 2])
    def test_one_factor_one_term(self, q, budget, var):
        # x_var^-(budget+1) over (x1 - x2)^q: at x2 = 0 the factor is
        # x1^-q (1 - x2/x1)^-q, at x1 = 0 it is (-1)^q x2^-q (1 - x1/x2)^-q
        other, sign = (1, 1) if var == 2 else (2, (-1) ** q)
        xpow = tuple(-budget - 1 if k == var else 0 for k in (1, 2))
        expr = residue_sum(2, (((1, 2), q),), {xpow: integer_poly(2, {(0, 0): 1})})
        expected = {}
        for n in range(budget + 1):
            power = tuple(-q - n if k == other else 0 for k in (1, 2))
            exps = tuple(budget - n if k == var else 0 for k in (1, 2))
            expected[power] = integer_poly(2, {exps: sign * math.comb(q - 1 + n, n)})
        assert residue_at_zero(expr, var) == residue_sum(2, (), expected)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_terms_on_one_diagonal(self, q):
        # c1 x1^-1 x2^-3 and c2 x1^-2 x2^-2 lie on one diagonal of x1's
        # power and the budget at x2 = 0, so the output at x1^-(q+1+n)
        # sums c1's depth-n part and c2's depth-(n-1) part
        c1, c2 = {(0, 0): 5}, {(0, 0): -3}
        expr = residue_sum(2, (((1, 2), q),), {(-1, -3): integer_poly(2, c1), (-2, -2): integer_poly(2, c2)})
        expected = {}
        for n in range(3):
            total = {(0, 2 - n): 5 * math.comb(q - 1 + n, n)}
            if n:
                total[(0, 2 - n)] -= 3 * math.comb(q - 2 + n, n - 1)
            expected[(-q - 1 - n, 0)] = integer_poly(2, total)
        assert residue_at_zero(expr, 2) == residue_sum(2, (), expected)


def assert_inputs_unchanged(m):
    """Every sum along every order still equals its snapshot after later steps and the read-off."""
    for order in permutations(canonical_order(m.rank)):
        states = [build_kernel(m)]
        for var in order:
            states.append(residue_at_zero(states[-1], var))
        snapshots = [snapshot(state) for state in states]
        states[-1].table()
        for var in order:  # the same steps again, on the same inputs
            residue_at_zero(states[order.index(var)], var)
        assert [snapshot(state) for state in states] == snapshots, (m, order)


class TestResidueStepLeavesItsInputsUnchanged:
    """A step shares its input tables with its output and never writes to one.

    A table is shared down a whole diagonal of a pass, and an input table
    can reach the output unchanged.  Every sum along every order is kept
    with a snapshot taken when it was made; after the last step, and after
    the volume is read off, each still equals its snapshot, so no later
    step wrote to a table it shared.
    """

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_order_of_every_small_matrix(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            assert_inputs_unchanged(m)

    @given(multiplicity_matrices(min_rank=1, max_rank=3, max_mult=3))
    def test_every_order_at_rank_up_to_three(self, m):
        assert_inputs_unchanged(m)

    @given(residue_sums())
    @example(([1, 2], residue_sum(2, (((1, 2), 1),), {
        # at x2 = 0 both terms reach x1^-2, the first with s = 0 as its own
        # unscaled table and the second with s = 1: one output joins the two
        (-1, -1): integer_poly(2, {(0, 0): 3}),
        (0, -3): integer_poly(2, {(0, 0): -2}),
    })))
    def test_hand_built_sums(self, drawn):
        live, expr = drawn
        before = snapshot(expr)
        outputs = [residue_at_zero(expr, var) for var in live]
        after = [snapshot(out) for out in outputs]
        for var, out in zip(live, outputs):
            for other in live:
                if other != var:
                    residue_at_zero(out, other)
        assert snapshot(expr) == before
        assert [snapshot(out) for out in outputs] == after


@st.composite
def one_term_polys(draw, nvars=3):
    """c * a^f with c = 1, -1 or a nonzero p/q."""
    exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
    coeff = draw(st.one_of(st.sampled_from([1, -1]), nonzero_fractions))
    return MultiPoly(nvars, {exps: coeff})


class TestArithmeticStaysCanonical:
    @given(multipolys(nvars=3), multipolys(nvars=3))
    def test_ring_operations(self, p, q):
        for result in (p + q, p - q, -p, p * q, p + (-p), (p - q) * (p + q)):
            assert_canonical(result)
        assert (p + (-p)).is_zero

    @given(multipolys(nvars=3), st.one_of(st.integers(-3, 3), small_fractions))
    def test_scalar_multiples(self, p, c):
        assert_canonical(p * c)
        assert_canonical(c * p)
        assert (p * 0).is_zero

    @given(multipolys(nvars=3), one_term_polys())
    def test_one_term_products(self, p, t):
        for result in (p * t, t * p, t * t, (p + t) * t, MultiPoly.zero(3) * t, t * MultiPoly.zero(3)):
            assert_canonical(result)
        assert (MultiPoly.zero(3) * t).is_zero and (t * MultiPoly.zero(3)).is_zero

    @given(multipolys(nvars=3))
    def test_embed(self, p):
        assert_canonical(p.embed(5, 1))
        assert p.embed(5, 1).nvars == 5

    @given(multipolys(nvars=2, max_exp=2), multipolys(nvars=2))
    def test_operator_application(self, d, p):
        assert_canonical(DiffOperator(d.nvars, d.terms).apply(p))

    def test_operator_application_cancels(self):
        # (d1 - d2) kills a1 + a2: the two images cancel exactly.
        op = DiffOperator.variable(1, 2) - DiffOperator.variable(2, 2)
        image = op.apply(MultiPoly.variable(1, 2) + MultiPoly.variable(2, 2))
        assert image.terms == {}


@st.composite
def polynomial_pairs(draw):
    """Two polynomials with disjoint, overlapping or fully cancelling supports."""
    p = draw(multipolys(nvars=3))
    q = draw(multipolys(nvars=3))
    kind = draw(st.sampled_from(["overlap", "disjoint", "cancel", "partial-cancel"]))
    if kind == "disjoint":
        q = q * MultiPoly.monomial((4, 0, 0))  # p's exponents are at most 3
    elif kind == "cancel":
        q = -p
    elif kind == "partial-cancel":
        q = q - p
    return p, q


# fixed left factors for the one-term products: several terms, fractional and
# negative coefficients, and zero as well as nonzero exponents in every variable
FIVE = MultiPoly(5, {
    (2, 0, 1, 0, 3): Fraction(3, 4), (0, 1, 0, 2, 0): -2, (1, 1, 1, 1, 1): 5, (0, 0, 0, 0, 0): Fraction(-1, 6)
})
THREE = MultiPoly(3, {(1, 0, 2): Fraction(3, 4), (0, 2, 0): -2, (0, 0, 0): 5})


class TestArithmeticMatchesNaiveDicts:
    @given(polynomial_pairs())
    def test_sum_difference_product(self, pair):
        p, q = pair
        for op, result in (("+", p + q), ("-", p - q), ("*", p * q)):
            assert_canonical(result)
            assert result.terms == naive_combine(p, q, op)

    @given(multipolys(nvars=3), one_term_polys())
    @example(MultiPoly(3, {(1, 0, 2): Fraction(3, 4), (0, 1, 2): -2}), MultiPoly(3, {(0, 0, 1): 1}))
    @example(MultiPoly(3, {(1, 0, 2): Fraction(3, 4), (2, 0, 0): 5}), MultiPoly(3, {(2, 1, 0): -1}))
    @example(MultiPoly(3, {(1, 0, 2): Fraction(3, 4)}), MultiPoly(3, {(0, 3, 0): Fraction(-5, 6)}))
    @example(MultiPoly.zero(3), MultiPoly(3, {(1, 1, 1): Fraction(2, 3)}))
    # the first, a middle and the last of five variables moved, scaled by 1, -1, 5 and -3/2
    @example(FIVE, MultiPoly(5, {(3, 0, 0, 0, 0): 1}))
    @example(FIVE, MultiPoly(5, {(3, 0, 0, 0, 0): -1}))
    @example(FIVE, MultiPoly(5, {(3, 0, 0, 0, 0): 5}))
    @example(FIVE, MultiPoly(5, {(3, 0, 0, 0, 0): Fraction(-3, 2)}))
    @example(FIVE, MultiPoly(5, {(0, 0, 3, 0, 0): 1}))
    @example(FIVE, MultiPoly(5, {(0, 0, 3, 0, 0): -1}))
    @example(FIVE, MultiPoly(5, {(0, 0, 3, 0, 0): 5}))
    @example(FIVE, MultiPoly(5, {(0, 0, 3, 0, 0): Fraction(-3, 2)}))
    @example(FIVE, MultiPoly(5, {(0, 0, 0, 0, 3): 1}))
    @example(FIVE, MultiPoly(5, {(0, 0, 0, 0, 3): -1}))
    @example(FIVE, MultiPoly(5, {(0, 0, 0, 0, 3): 5}))
    @example(FIVE, MultiPoly(5, {(0, 0, 0, 0, 3): Fraction(-3, 2)}))
    # a constant factor moves no variable
    @example(THREE, MultiPoly(3, {(0, 0, 0): 1}))
    @example(THREE, MultiPoly(3, {(0, 0, 0): 7}))
    @example(THREE, MultiPoly(3, {(0, 0, 0): Fraction(2, 3)}))
    def test_one_term_factor_on_either_side(self, p, t):
        for result in (p * t, t * p):
            assert_canonical(result)
            assert result.terms == naive_combine(p, t, "*")

    @given(multipolys(nvars=3))
    def test_adding_zero_on_either_side(self, p):
        zero = MultiPoly.zero(3)
        assert zero + p == p + zero == p
        assert (zero + zero).is_zero

    def test_cancelling_supports(self):
        a1, a2 = MultiPoly.variable(1, 2), MultiPoly.variable(2, 2)
        half = MultiPoly.one(2) * Fraction(1, 2)
        assert (a1 + half) + (-a1 - half) == MultiPoly.zero(2)
        assert ((a1 + a2) * (a1 - a2)).terms == {(2, 0): 1, (0, 2): -1}
        assert ((a1 + a2) - (a1 + a2)).terms == {}


def reference_render(poly, names="a", latex=False):
    """The text form built term by term, each monomial joined from its nonzero factors."""
    if latex:
        factor = lambda i, e: f"{names}_{{{i}}}^{{{e}}}" if e > 1 else f"{names}_{{{i}}}"
        fraction, sep = "\\frac{{{}}}{{{}}}", " "
    else:
        factor = lambda i, e: f"{names}{i}^{e}" if e > 1 else f"{names}{i}"
        fraction, sep = "{}/{}", "*"
    pieces = []
    for exps, coeff in sorted(poly.terms.items(), key=lambda item: grlex_key(item[0])):
        monomial = sep.join(factor(i, e) for i, e in enumerate(exps, start=1) if e)
        size = str(abs(coeff.numerator)) if coeff.denominator == 1 else fraction.format(
            abs(coeff.numerator), coeff.denominator)
        if not monomial:
            body = size
        elif size == "1":
            body = monomial
        else:
            body = f"{size}{sep}{monomial}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


class TestRenderMatchesReference:
    @given(multipolys(max_terms=8), st.sampled_from(["a", "d"]))
    def test_random_polynomials(self, p, names):
        assert p.render(names) == reference_render(p, names)
        assert p.render_latex(names) == reference_render(p, names, latex=True)

    @given(multipolys(nvars=3, max_terms=8, max_exp=4), st.integers(0, 3), nonzero_fractions)
    def test_mixed_degrees(self, p, degree, c):
        p = p + MultiPoly(3, {(degree, 0, 0): c})
        assert p.render() == reference_render(p)
        assert p.render_latex() == reference_render(p, latex=True)

    def test_rank_four_volume(self):
        p = iterated_residue(MultiplicityMatrix(4, (2, 1, 1, 2, 1, 2, 1, 1, 2, 1))).poly
        assert p.render() == reference_render(p)
        assert p.render_latex() == reference_render(p, latex=True)


class TestSortedTermsMatchGrlexKey:
    @given(multipolys(max_terms=8))
    def test_property(self, p):
        assert p.sorted_terms() == sorted(p.terms.items(), key=lambda item: grlex_key(item[0]))

    @given(st.integers(0, 5), st.lists(nonzero_fractions, min_size=1, max_size=30))
    def test_one_total_degree(self, degree, coeffs):
        p = MultiPoly(3, dict(zip(homogeneous_monomials(3, degree)[::-1], coeffs)))
        assert p.sorted_terms() == sorted(p.terms.items(), key=lambda item: grlex_key(item[0]))

    def test_rank_four_volume(self):
        p = iterated_residue(MultiplicityMatrix(4, (2, 1, 1, 2, 1, 2, 1, 1, 2, 1))).poly
        assert p.sorted_terms() == sorted(p.terms.items(), key=lambda item: grlex_key(item[0]))


class TestIntegerEvaluation:
    @given(multipolys(nvars=3, max_terms=6), rational_points(3))
    def test_matches_naive_fraction_sum(self, p, point):
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == naive_evaluate(p, point)

    @pytest.mark.parametrize("point", [
        (0, 0, 0), (0, -1, Fraction(2, 3)), (-2, Fraction(-5, 7), 3), (Fraction(1, 2),) * 3,
    ])
    def test_zero_negative_and_fractional_entries(self, point):
        p = MultiPoly(3, {
            (4, 0, 1): Fraction(-3, 8), (0, 2, 0): Fraction(5, 6), (0, 0, 0): 7,
            (1, 1, 1): Fraction(1, 9), (0, 0, 3): -2,
        })
        assert p.evaluate(point) == naive_evaluate(p, point)

    @given(
        st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * 3),
            st.fractions(min_value=-9, max_value=9, max_denominator=60).filter(bool),
            min_size=5, max_size=12,
        ),
        rational_points(3),
    )
    def test_many_denominators_matches_naive_fraction_sum(self, terms, point):
        p = MultiPoly(3, terms)
        assert p.evaluate(point) == naive_evaluate(p, point)

    @pytest.mark.parametrize("point", [
        (0, 0, 0), (0, -3, Fraction(5, 4)), (Fraction(-2, 9), Fraction(7, 6), -1), (1, 1, 1),
    ])
    def test_twelve_distinct_denominators(self, point):
        # denominators q(q + 2) for q = 1..12, coprime to each other or not,
        # with alternating signs
        p = MultiPoly(3, {
            (q, 12 - q, q % 3): Fraction((-1) ** q * (q + 1), q * (q + 2)) for q in range(1, 13)
        })
        assert len({c.denominator for c in p.terms.values()}) == 12
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == naive_evaluate(p, point)

    def test_rank_five_volume_at_a_fractional_point(self):
        # a volume-deep-shaped volume: rank 5, six entries 2, a point with p/q entries
        v = iterated_residue(MultiplicityMatrix(5, (2, 2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 1, 1)))
        assert len({c.denominator for c in v.poly.terms.values()}) > 10
        point = (Fraction(7, 3), 4, Fraction(11, 5), Fraction(1, 2), 9)
        assert v.value_at(point) == naive_evaluate(v.poly, point)

    @given(multipolys(nvars=3, max_terms=8, max_exp=4), rational_points(3))
    @example(MultiPoly(3, {(3, 0, 1): Fraction(1, 2), (0, 2, 0): Fraction(1, 4), (1, 1, 1): Fraction(2, 3)}),
             (Fraction(-3, 2), 5, Fraction(2, 7)))
    def test_mixed_int_and_fraction_table_in_both_modes(self, p, point):
        # divided_powers keeps an int wherever e! p_e is integral, so the
        # table's values mix int and Fraction
        table = MultiPoly._trusted(3, divided_powers(p))
        assert table.evaluate(point) == naive_evaluate(table, point)
        assert table.evaluate(point, divided=True) == naive_evaluate(p, point)

    def test_zero_polynomial(self):
        value = MultiPoly.zero(2).evaluate((Fraction(3, 4), -1))
        assert type(value) is Fraction and value == 0


def assert_divided_reads_match(table, points):
    """``render``, ``render_latex`` and ``evaluate`` of a divided-power table with
    ``divided=True`` against the same methods on the polynomial ``from_divided_powers``
    makes of it."""
    poly = from_divided_powers(table.nvars, table.terms, 1)
    assert table.render(divided=True) == poly.render(), table
    assert table.render_latex(divided=True) == poly.render_latex(), table
    for point in points:
        value = table.evaluate(point, divided=True)
        assert type(value) is Fraction and value == poly.evaluate(point), (table, point)


def divided_read_points(rank):
    """An integer point, a p/q point, one with negative p/q entries, one with zero
    and negative entries, and zero."""
    return [
        tuple(range(1, rank + 1)),
        tuple(Fraction(i + 2, 2 * i + 3) for i in range(rank)),
        tuple(Fraction((-1) ** i * (i + 1), i + 2) for i in range(rank)),
        tuple(0 if i % 2 else -(i + 3) for i in range(rank)),
        (0,) * rank,
    ]


class TestDividedReadsMatchPolynomial:
    """The reads of a divided-power table T(p)_e = e! p_e with ``divided=True``, against
    the polynomial p: on the residue's integer tables T(v), on the same table of a
    ``VolumePolynomial`` made from a polynomial, on a volume's table with ``Fraction``
    values, and on any ``Fraction`` table."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_small_matrix(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            v = iterated_residue(m)
            assert all(type(c) is int for c in v.table.terms.values()), m
            assert_divided_reads_match(v.table, divided_read_points(rank))

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_rank_four_and_five(self, rank, entries, seed):
        rng = random.Random(4200 + 10 * rank + seed)
        m = MultiplicityMatrix(rank, tuple(rng.choice(entries) for _ in range(rank * (rank + 1) // 2)))
        assert_divided_reads_match(iterated_residue(m).table, divided_read_points(rank))

    @given(multiplicity_matrices(max_rank=3, max_mult=3), st.data())
    def test_volume_tables_at_random_points(self, m, data):
        point = data.draw(rational_points(m.rank))
        v = iterated_residue(m)
        made = VolumePolynomial(m, v.poly)
        assert_canonical(made.table, int)  # the residue's integer table, not its Fraction copy
        fractions = VolumePolynomial._of_table(m, MultiPoly._trusted(m.rank, {
            e: Fraction(c) for e, c in v.table.terms.items()}))
        assert_canonical(fractions.table, Fraction)
        for volume in (made, fractions):
            assert volume.table == v.table and str(volume) == str(v) == v.poly.render(), m
            assert volume.value_at(point) == v.value_at(point) == v.poly.evaluate(point), (m, point)
        for table in (v.table, made.table, fractions.table):
            assert_divided_reads_match(table, [point])

    @given(st.integers(1, 3).flatmap(lambda n: multipolys(nvars=n, max_terms=6, max_exp=6)), st.data())
    def test_fraction_tables(self, table, data):
        assert_divided_reads_match(table, [data.draw(rational_points(table.nvars))])


class TestPublicConstructorStillChecks:
    @pytest.mark.parametrize("nvars, terms", [
        (0, {}),
        (2, {(1,): 1}),
        (2, {(1, 0, 0): 1}),
        (2, {(1, -1): 1}),
        (1, {(1,): "not a number"}),
        (True, {(1,): 1}),
        (1.0, {(1,): 1}),
        (1, {(1.0,): 1}),
        (1, {(1.5,): 1}),
        (1, {(0.5,): 1}),
        (1, {(True,): 1}),
        (1, {(2,): 0.1}),
        (1, {(1,): "1/2"}),
        (1, {(1,): True}),
    ])
    def test_bad_input_raises(self, nvars, terms):
        with pytest.raises(ValueError):
            MultiPoly(nvars, terms)

    @pytest.mark.parametrize("point", [(0.5,), ("1/2",), (None,), (True,)])
    def test_point_that_is_not_exact_raises(self, point):
        with pytest.raises(ValueError, match="is not of ints or Fractions"):
            MultiPoly(1, {(1,): 1}).evaluate(point)

    def test_integer_coefficients_become_fractions(self):
        assert_canonical(MultiPoly(2, {(1, 0): 3, (0, 1): 0, (0, 0): Fraction(1, 2)}))


class TestRankInductionMatchesReference:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_lift_on_every_small_matrix(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            v_prev = iterated_residue(m.restriction())
            lifted = lift_volume(v_prev, m)
            assert lifted == reference_lift_volume(v_prev, m), m
            assert_canonical(lifted.poly)

    @pytest.mark.parametrize("seed", range(3))
    def test_lift_on_rank_four_samples(self, seed):
        rng = random.Random(2000 + seed)
        m = MultiplicityMatrix(4, tuple(rng.randint(1, 3) for _ in range(10)))
        v_prev = iterated_residue(m.restriction())
        assert lift_volume(v_prev, m) == reference_lift_volume(v_prev, m)

    @pytest.mark.parametrize("seed", range(3))
    def test_lift_on_rank_five_samples(self, seed):
        rng = random.Random(5000 + seed)
        m = MultiplicityMatrix(5, tuple(rng.randint(1, 2) for _ in range(15)))
        v_prev = iterated_residue(m.restriction())
        lifted = lift_volume(v_prev, m)
        assert lifted == reference_lift_volume(v_prev, m), m
        assert_canonical(lifted.poly)

    @pytest.mark.parametrize("entry", [0, 20])
    def test_lift_on_rank_six_with_one_entry_two(self, entry):
        # The sizes of certify-deep's lift ops: all ones but one entry 2,
        # here m[1,2] (a longer ladder) or m[6,7] (a larger restricted volume).
        m = MultiplicityMatrix(6, tuple(2 if i == entry else 1 for i in range(21)))
        v_prev = iterated_residue(m.restriction())
        assert lift_volume(v_prev, m) == reference_lift_volume(v_prev, m)


class TestOneCompositionEnumerator:
    @pytest.mark.parametrize("slots", range(5))
    @pytest.mark.parametrize("bound", range(6))
    def test_slack_coordinate_gives_bounded_vectors(self, slots, bound):
        dropped = [tuple(v[:-1]) for v in homogeneous_monomials(slots + 1, bound)]
        assert len(set(dropped)) == len(dropped)
        assert set(dropped) == set(_bounded_vectors(slots, bound))

    @pytest.mark.parametrize("parts", range(1, 5))
    @pytest.mark.parametrize("total", range(6))
    def test_homogeneous_monomials_are_weak_compositions(self, parts, total):
        listed = homogeneous_monomials(parts, total)
        assert len(set(listed)) == len(listed)
        assert set(listed) == set(_weak_compositions(total, parts))

    @pytest.mark.parametrize("nvars", range(1, 8))
    def test_list_built_monomials_match_recursive_enumeration(self, nvars):
        for degree in range(13):
            listed = homogeneous_monomials(nvars, degree)
            assert listed == reference_homogeneous_monomials(nvars, degree), degree

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_capped_monomials_are_the_filtered_staircase(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            for degree in range(m.degree + 2):
                capped = homogeneous_monomials(rank, degree, staircase_caps(m))
                assert capped == filtered_staircase(m, degree), (m, degree)

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", range(3))
    def test_capped_monomials_at_seeded_rank_four_and_five(self, rank, entries, seed):
        rng = random.Random(4500 + 10 * rank + seed)
        m = MultiplicityMatrix(rank, tuple(rng.choice(entries) for _ in range(rank * (rank + 1) // 2)))
        for degree in range(m.degree + 2):
            capped = homogeneous_monomials(rank, degree, staircase_caps(m))
            assert capped == filtered_staircase(m, degree), (m, degree)

    @pytest.mark.parametrize("caps", [(), (0,), (2, 1), (9, 9, 9, 9), (-1,), (3, 3, 3)])
    def test_caps_bound_suffix_sums_and_keep_the_order(self, caps):
        for nvars in range(1, 5):
            for degree in range(7):
                kept = [
                    exps for exps in homogeneous_monomials(nvars, degree)
                    if all(sum(exps[nvars - 1 - t:]) <= cap for t, cap in enumerate(caps[: nvars - 1]))
                ]
                assert homogeneous_monomials(nvars, degree, caps) == kept, (nvars, degree)

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_rank_one_lowering_operator_is_zero(self, q):
        assert not list(_weak_compositions(q, 0))
        assert lowering_operator(MultiplicityMatrix(1, (3,)), q) == DiffOperator.zero(1)


@st.composite
def integer_matrices(draw):
    """Small sparse integer matrices, tall, square or wide, with zero and repeated rows."""
    ncols = draw(st.integers(min_value=0, max_value=7))
    entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=9))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [0] * ncols)
    return rows, ncols


class TestKernelSolveMatchesReference:
    @settings(max_examples=200)
    @given(integer_matrices())
    def test_sparse_solve_equals_bareiss(self, matrix):
        rows, ncols = matrix
        assert_reference_basis(integer_nullspace(sparse_rows(rows), ncols), rows, ncols)

    @settings(max_examples=200)
    @given(integer_matrices(), st.data())
    def test_any_row_order_gives_the_same_basis(self, matrix, data):
        rows, ncols = matrix
        shuffled = data.draw(st.permutations(rows))
        expected = integer_nullspace(sparse_rows(rows), ncols)
        assert integer_nullspace(sparse_rows(shuffled), ncols) == expected

    @pytest.mark.parametrize("rows, ncols", [
        ([], 0), ([], 3), ([[]], 0), ([[0, 0, 0]] * 3, 3), ([[2, 4, 6]] * 4, 3),
        ([[0, 3], [0, 6]], 2), ([[1, 0, 0, 0]], 4), ([[4], [6]], 1),
    ])
    def test_edge_shapes(self, rows, ncols):
        assert_reference_basis(integer_nullspace(sparse_rows(rows), ncols), rows, ncols)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_operator_matrices_at_every_degree(self, rank, monkeypatch):
        seen = []

        def record(rows, ncols):
            seen.append((rows, ncols))
            return integer_nullspace(rows, ncols)

        monkeypatch.setattr(flowvol.linalg, "integer_nullspace", record)
        for m in every_matrix(rank, (1, 2)):
            for degree in range(m.degree + 2):
                seen.clear()
                solution_space(m, degree)
                [(rows, ncols)] = seen
                assert all(row and all(row.values()) for row in rows), (m, degree)
                matrix = [[row.get(col, 0) for col in range(ncols)] for row in rows]
                # the nonzero staircase rows of the full matrix on the staircase
                # columns, in divided powers: entry (t, e) times t!/e!; and nothing
                # else of the full matrix on the staircase columns
                columns, labeled = reference_operator_rows(m, degree)
                kept_columns = [k for k, exps in enumerate(columns) if on_staircase(m, exps)]
                kept = [
                    tuple(Fraction(row[k] * factorials(target), factorials(columns[k])) for k in kept_columns)
                    for l, target, row in labeled
                    if on_staircase(m, target)
                ]
                dropped = [row for l, target, row in labeled if not on_staircase(m, target)]
                nonzero = Counter(row for row in kept if any(row))
                assert Counter(map(tuple, matrix)) == nonzero and ncols == len(kept_columns), (m, degree)
                assert not any(row[k] for row in dropped for k in kept_columns), (m, degree)
                assert_reference_basis(integer_nullspace(rows, ncols), matrix, ncols)


class TestStaircaseKernelMatchesFullKernel:
    """The kernel on the staircase columns against the kernel on every monomial."""

    @staticmethod
    def assert_same_kernel(m, degrees=None):
        # every degree up to d + 1 by default, not only d - 1 to d + 1: the
        # wider kernels of the middle degrees are where a wrong column order shows
        for degree in degrees or range(m.degree + 2):
            assert solution_space(m, degree) == reference_solution_space(m, degree), (m, degree)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_every_small_matrix(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            self.assert_same_kernel(m)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_rank_three(self, seed):
        rng = random.Random(5000 + seed)
        for _ in range(10):
            self.assert_same_kernel(MultiplicityMatrix(3, tuple(rng.choice((1, 2, 3)) for _ in range(6))))

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_rank_four(self, seed):
        rng = random.Random(5100 + seed)
        m = MultiplicityMatrix(4, tuple(rng.choice((1, 2)) for _ in range(10)))
        self.assert_same_kernel(m, (m.degree - 1, m.degree, m.degree + 1))


class TestDividedPowerKernelMatchesStaircaseKernel:
    """The kernel in divided powers against the staircase kernel on the monomial basis."""

    @staticmethod
    def assert_same_kernel(m, degrees=None):
        for degree in degrees or range(m.degree + 2):
            basis, expected = solution_space(m, degree), staircase_solution_space(m, degree)
            assert [p.render() for p in basis] == [p.render() for p in expected], (m, degree)
            assert basis == expected, (m, degree)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_every_small_matrix(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            self.assert_same_kernel(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_rank_three(self, seed):
        rng = random.Random(5200 + seed)
        for _ in range(10):
            self.assert_same_kernel(MultiplicityMatrix(3, tuple(rng.choice((1, 2, 3)) for _ in range(6))))

    @pytest.mark.parametrize("rank, seed", [(4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 2)])
    def test_seeded_rank_four_and_five(self, rank, seed):
        rng = random.Random(5300 + 10 * rank + seed)
        m = MultiplicityMatrix(rank, tuple(rng.choice((1, 2)) for _ in range(rank * (rank + 1) // 2)))
        self.assert_same_kernel(m, (m.degree - 1, m.degree, m.degree + 1))


class TestNodeImageOnTaggedColumns:
    @given(multiplicity_matrices(max_rank=3, max_mult=2), st.data())
    def test_tagged_table_is_the_union_of_column_images(self, m, data):
        # the tag col * t, t the place above the top guarded field, keeps the
        # columns apart: no shift borrows from it
        r = m.rank
        degree = data.draw(st.integers(min_value=0, max_value=m.degree + 1))
        _, places, guard, guards = _layout(r, max(degree, *m.row_sums))
        tag = 2 * guard * places[0]
        monomials = [exps for k in range(degree + 1) for exps in homogeneous_monomials(r, k)]
        entries = st.dictionaries(
            st.sampled_from(monomials), st.integers(min_value=-5, max_value=5).filter(bool), max_size=4
        )
        columns = [
            {guards + sum(map(mul, exps, places)): c for exps, c in column.items()}
            for column in data.draw(st.lists(entries, min_size=1, max_size=4))
        ]
        tagged = {col * tag + key: c for col, column in enumerate(columns) for key, c in column.items()}
        for l in range(1, r + 1):
            union = {
                col * tag + key: c
                for col, column in enumerate(columns)
                for key, c in _node_image(m, l, column, places, guard).items()
            }
            assert _node_image(m, l, tagged, places, guard) == union, (m, degree, l)


def divided_power_round_trip(poly, top=0):
    """poly's table from ``divided_powers``, after checking each entry against e! * c_e,
    an ``int`` exactly where that is integral, its packing on the guarded fields for its
    largest exponent and ``top``, and that ``from_divided_powers`` turns the table back
    into poly."""
    shifts, places, guard, guards = _layout(poly.nvars, max(max(map(max, poly.terms), default=0), top))
    entries = divided_powers(poly)
    for exps, g in entries.items():
        expected = factorials(exps) * poly.terms[exps]
        assert g == expected and type(g) is (int if expected.denominator == 1 else Fraction), (poly, exps, g)
    table = _packed(entries.items(), places, guards)
    mask = 2 * guard - 1
    assert {tuple((key >> s & mask) - guard for s in shifts): g for key, g in table.items()} == entries, poly
    assert from_divided_powers(poly.nvars, entries, 1) == poly, poly
    return entries


def integral(entries):
    return all(g.denominator == 1 for g in entries.values())


class TestDividedPowerTable:
    """``divided_powers`` with ``_packed``, and ``from_divided_powers``: one conversion each way."""

    @given(st.integers(1, 3).flatmap(lambda n: multipolys(nvars=n, max_terms=6, max_exp=6)), st.integers(0, 9))
    def test_from_divided_powers_inverts_the_table(self, poly, top):
        entries = divided_power_round_trip(poly, top)  # int entries where e! * c_e is integral
        # a table built with Fraction values, integral ones too, reads back the same
        fractions = {e: c * factorials(e) for e, c in poly.terms.items()}
        assert all(type(g) is Fraction for g in fractions.values()) and fractions == entries, poly
        assert from_divided_powers(poly.nvars, fractions, 1) == poly, poly

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_polynomials_with_large_denominators(self, seed):
        rng = random.Random(8000 + seed)
        for nvars in (1, 2, 3):
            terms = {
                tuple(rng.randint(0, 9) for _ in range(nvars)): Fraction(rng.randint(-99, 99), rng.randint(1, 10**6))
                for _ in range(8)
            }
            divided_power_round_trip(MultiPoly(nvars, terms))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_volume_table_is_integral_and_the_residue_table(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            v = iterated_residue(m)
            entries = divided_power_round_trip(v.poly, max(m.row_sums))
            assert integral(entries), m
            assert entries == v.table.terms, m

    @pytest.mark.parametrize("rank", [2, 3])
    def test_every_lift_image_table_is_integral(self, rank):
        # the recursion of lift_volume: u_n = sum_j (-1)^(j+1) D_j u_(n-j)
        for m in every_matrix(rank, (1, 2, 3)):
            generators = operator_ladder(m).generators
            images = [iterated_residue(m.restriction()).poly.embed(rank, offset=1)]
            for n in range(1, m.restriction_degree + 1):
                image = MultiPoly.zero(rank)
                for j in range(1, min(n, len(generators)) + 1):
                    term = generators[j - 1].apply(images[n - j])
                    assert term.terms == reference_apply(generators[j - 1], images[n - j]), (m, n, j)
                    assert integral(divided_power_round_trip(term)), (m, n, j)
                    image = image + term if j % 2 else image - term
                assert integral(divided_power_round_trip(image)), (m, n)
                images.append(image)


def assert_apply_matches_reference(op, p):
    image = op.apply(p)
    assert image.terms == reference_apply(op, p), (op, p)
    assert image.nvars == p.nvars
    assert_canonical(image)


def operator_families_on_volumes(m):
    """Every node operator, ladder generator and ladder step of m applied to the volume
    of m, and the generators and steps also to the embedded restricted volume, as the
    lift applies them."""
    ladder = operator_ladder(m)
    volumes = [iterated_residue(m).poly]
    if m.rank > 1:
        volumes.append(iterated_residue(m.restriction()).poly.embed(m.rank, offset=1))
    for op in pde_system(m).ops:
        assert_apply_matches_reference(op, volumes[0])
        assert op.apply(volumes[0]).is_zero
    for op in (*ladder.generators, *ladder.steps):
        for poly in volumes:
            assert_apply_matches_reference(op, poly)


@st.composite
def operators(draw, nvars=3):
    """Operators with mixed-denominator and negative coefficients, some of order above
    every exponent the drawn polynomials reach."""
    p = draw(multipolys(nvars=nvars, max_terms=5, max_exp=draw(st.integers(0, 5))))
    return DiffOperator(p.nvars, p.terms)


@st.composite
def cancelling_sums(draw):
    """(op, s, rest) with op = (d1 - d2) * op' and s a polynomial in a1 + a2 and a3.

    d1 and d2 agree on s, so op kills it: op's pairs on s cancel on every key
    they reach, and op(s + rest) = op(rest).
    """
    a1, a2, a3 = (MultiPoly.variable(i, 3) for i in (1, 2, 3))
    s = MultiPoly.zero(3)
    for (i, j), c in draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                                          nonzero_fractions, max_size=4)).items():
        s = s + (a1 + a2) ** i * a3 ** j * c
    op = DiffOperator(3, (a1 - a2).terms) * draw(operators())
    return op, s, draw(multipolys(nvars=3))


class TestPackedApplyMatchesPairwise:
    """``DiffOperator.apply`` on packed divided powers against the pairwise product."""

    @pytest.mark.parametrize("rank, entries", [(1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1, 2, 3))])
    def test_operator_families_on_their_volumes(self, rank, entries):
        for m in every_matrix(rank, entries):
            operator_families_on_volumes(m)

    @given(small_families)
    def test_drawn_rank_two_and_three_families(self, m):
        operator_families_on_volumes(m)

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_rank_four_and_five(self, rank, entries, seed):
        rng = random.Random(7000 + 10 * rank + seed)
        m = MultiplicityMatrix(rank, tuple(rng.choice(entries) for _ in range(rank * (rank + 1) // 2)))
        operator_families_on_volumes(m)

    @given(operators(), multipolys(nvars=3, max_terms=6, max_exp=4))
    @example(DiffOperator(3, {(0, 0, 0): Fraction(-1, 2), (1, 0, 0): Fraction(2, 3)}),
             MultiPoly(3, {(2, 0, 1): Fraction(3, 5), (1, 0, 1): Fraction(-7, 4)}))
    def test_any_rational_operator_and_polynomial(self, op, p):
        assert_apply_matches_reference(op, p)
        assert_apply_matches_reference(op * Fraction(2, 3), p)
        assert (op * Fraction(2, 3)).apply(p) == op.apply(p) * Fraction(2, 3)

    @given(cancelling_sums())
    def test_cancelling_sums(self, drawn):
        op, s, rest = drawn
        assert_apply_matches_reference(op, s)
        assert_apply_matches_reference(op, s + rest)
        assert op.apply(s).is_zero
        assert op.apply(s + rest) == op.apply(rest)

    @given(operators(), st.one_of(st.just(0), nonzero_fractions))
    def test_constant_and_zero_polynomials(self, op, c):
        p = MultiPoly(3, {(0, 0, 0): c})
        assert_apply_matches_reference(op, p)
        assert op.apply(p) == MultiPoly(3, {(0, 0, 0): op.poly.coefficient((0, 0, 0)) * c})

    @given(multipolys(nvars=3))
    def test_zero_operator(self, p):
        assert_apply_matches_reference(DiffOperator.zero(3), p)
        assert DiffOperator.zero(3).apply(p).is_zero

    @given(multipolys(nvars=3, max_exp=3), st.integers(0, 2), st.integers(1, 3))
    def test_orders_above_the_polynomial_degree(self, p, index, excess):
        # d_i^(top + excess) and a mixed term of order above the total degree kill p
        top = max((max(exps) for exps in p.terms), default=0)
        degree = max(map(sum, p.terms), default=0)
        high = [0, 0, 0]
        high[index] = top + excess
        op = DiffOperator(3, {tuple(high): Fraction(5, 7), (degree, excess, 0): -3, (0, 0, 1): 1})
        assert_apply_matches_reference(op, p)
        assert op.apply(p) == partial(p, 3)


def table_of(poly):
    """The divided-power table T(p)_e = e! p_e of a polynomial, with ``Fraction`` values."""
    return MultiPoly._trusted(poly.nvars, {e: c * math.prod(map(math.factorial, e)) for e, c in poly.terms.items()})


def lift_operator(m):
    """The lift's S = D_1 - D_2 + D_3 - ..., summed with the operator algebra."""
    operator = DiffOperator.zero(m.rank)
    for j, generator in enumerate(operator_ladder(m).generators, start=1):
        operator = operator + (-1) ** (j + 1) * generator
    return operator


def assert_divided_apply_matches(op, table):
    """``op.apply(table, divided=True)`` against the table of ``op.apply`` on the polynomial
    of ``table``: the same entries, none zero, each an ``int`` when the table's values
    and the operator's weights are integers and a ``Fraction`` otherwise."""
    image = op.apply(table, divided=True)
    assert image.nvars == table.nvars
    assert image.terms == table_of(op.apply(from_divided_powers(table.nvars, table.terms, 1))).terms, (op, table)
    ints = all(type(c) is int for c in (*table.terms.values(), *op.poly.terms.values()))
    assert_canonical(image, int if ints else Fraction)
    return image


def divided_apply_families(m):
    """Every node operator, ladder generator and step, lowering operator and the lift's S
    of m on the table T(v) of m and on the embedded table of its restriction's volume."""
    ladder = operator_ladder(m)
    tables = [iterated_residue(m).table]
    if m.rank > 1:
        tables.append(iterated_residue(m.restriction()).table.embed(m.rank, offset=1))
    span = m.row_sums[0] - m.rows[0][-1]
    lowering = [lowering_operator(m, q) for q in range(1, span + 2)]
    for op in pde_system(m).ops:
        assert not assert_divided_apply_matches(op, tables[0]).terms, m  # T(v) is annihilated
        for table in tables[1:]:
            assert_divided_apply_matches(op, table)
    for op in (*ladder.generators, *ladder.steps, *lowering, lift_operator(m)):
        for table in tables:
            assert_divided_apply_matches(op, table)


def seeded_matrix(rank, entries, seed):
    rng = random.Random(4300 + 10 * rank + seed)
    return MultiplicityMatrix(rank, tuple(rng.choice(entries) for _ in range(rank * (rank + 1) // 2)))


def assert_lift_table_is_residue_table(m):
    """The lift's table equals the residue's, with ``int`` values from a residue-built
    input, and from the ``Fraction`` table of a volume made from a polynomial too."""
    v_prev, direct = iterated_residue(m.restriction()), iterated_residue(m)
    lifted = lift_volume(v_prev, m)
    assert lifted.table == direct.table, m
    assert_canonical(lifted.table, int)
    assert lift_volume(VolumePolynomial(m.restriction(), v_prev.poly), m).table == direct.table, m


def assert_lift_applies_the_signed_sum(m, monkeypatch):
    """The operator ``lift_volume`` hands to ``DiffOperator.apply``, once for each of the
    h layers below the top, is ``lift_operator(m)`` term for term, with ``int`` weights."""
    v_prev, applied, apply = iterated_residue(m.restriction()), [], DiffOperator.apply

    def recording(self, p, divided=False):
        applied.append(self)
        return apply(self, p, divided)

    with monkeypatch.context() as patch:
        patch.setattr(DiffOperator, "apply", recording)
        lift_volume(v_prev, m)
    expected = lift_operator(m)
    assert len(applied) == m.restriction_degree, m
    for op in applied:
        assert op.poly.terms == expected.poly.terms, m
        assert_canonical(op.poly, int)


class TestDividedApply:
    """``DiffOperator.apply`` with ``divided=True`` on tables T(p)_e = e! p_e against the
    table of the image of p, and the lift that runs on it against the residue's table."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_operator_families_on_every_small_matrix(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            divided_apply_families(m)

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", range(2))
    def test_operator_families_on_seeded_rank_four_and_five(self, rank, entries, seed):
        divided_apply_families(seeded_matrix(rank, entries, seed))

    @given(operators(), multipolys(nvars=3, max_terms=6, max_exp=4))
    @example(DiffOperator(3, {(0, 0, 0): Fraction(-1, 2), (1, 0, 0): Fraction(2, 3)}),
             MultiPoly(3, {(2, 0, 1): Fraction(3, 5), (1, 0, 1): Fraction(-7, 4)}))
    def test_rational_operators_on_integer_and_fraction_tables(self, op, p):
        integers = MultiPoly._trusted(3, {e: c.numerator for e, c in p.terms.items()})
        int_op = DiffOperator._trusted(3, {k: w.numerator for k, w in op.terms.items()})
        assert_divided_apply_matches(op, p)  # p's Fraction values read as a table
        assert_divided_apply_matches(op, integers)  # Fraction weights, even with denominator 1
        assert_divided_apply_matches(op * Fraction(2, 3), p)
        assert_divided_apply_matches(int_op, p)
        assert_divided_apply_matches(int_op, integers)  # int weights on an int table

    @given(cancelling_sums())
    def test_annihilated_image_is_empty(self, drawn):
        op, s, rest = drawn
        assert op.apply(table_of(s), divided=True).terms == {}
        image = assert_divided_apply_matches(op, table_of(s + rest))
        assert image == op.apply(table_of(rest), divided=True)

    def test_a_term_is_skipped_only_above_the_largest_exponent(self):
        cube = MultiPoly._trusted(2, {(3, 0): 6})  # the table of a1^3
        d2, d1_cubed = (DiffOperator(2, {k: 1}) for k in ((0, 1), (3, 0)))
        assert d2.apply(cube, divided=True).terms == {} and d2.apply(MultiPoly(2, {(3, 0): 1})).is_zero
        assert d1_cubed.apply(cube, divided=True).terms == {(0, 0): 6}
        assert d1_cubed.apply(MultiPoly(2, {(3, 0): 1})) == MultiPoly(2, {(0, 0): 6})

    @pytest.mark.parametrize("rank", [2, 3])
    def test_lift_applies_the_signed_sum_on_every_small_matrix(self, rank, monkeypatch):
        for m in every_matrix(rank, (1, 2, 3)):
            assert_lift_applies_the_signed_sum(m, monkeypatch)

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", range(2))
    def test_lift_applies_the_signed_sum_on_seeded_rank_four_and_five(self, rank, entries, seed, monkeypatch):
        assert_lift_applies_the_signed_sum(seeded_matrix(rank, entries, seed), monkeypatch)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_lift_table_on_every_small_matrix(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            assert_lift_table_is_residue_table(m)

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", range(2))
    def test_lift_table_on_seeded_rank_four_and_five(self, rank, entries, seed):
        assert_lift_table_is_residue_table(seeded_matrix(rank, entries, seed))


def operator_families_match_reference(m):
    r = m.rank
    for op, expected in zip(pde_system(m).ops, reference_pde_system(m), strict=True):
        assert op.poly.terms == expected.poly.terms, m
    ladder = operator_ladder(m)
    for step, expected in zip(ladder.steps, reference_ladder_steps(m), strict=True):
        assert step.poly.terms == expected.poly.terms, m
    span = m.row_sum(1) - m.multiplicity(1, r + 1)
    assert len(ladder.generators) == span
    for q in range(1, span + 2):
        assert lowering_operator(m, q).poly.terms == reference_lowering_operator(m, q), (m, q)
    # every operator is wrapped without the constructor's checks and keeps its int weights
    lowering = (lowering_operator(m, q) for q in range(1, span + 2))
    for op in (*pde_system(m).ops, *ladder.steps, *ladder.generators, *lowering):
        assert_canonical(op.poly, int)


class TestOperatorsMatchReference:
    """Closed-form node, lowering and ladder operators against their products."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_small_matrix(self, rank):
        for m in every_matrix(rank, (1, 2, 3)):
            operator_families_match_reference(m)

    @pytest.mark.parametrize("position", range(21))
    def test_rank_six_with_one_entry_two(self, position):
        mult = [1] * 21
        mult[position] = 2
        operator_families_match_reference(MultiplicityMatrix(6, tuple(mult)))

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_rank_four_and_five(self, rank, entries, seed):
        rng = random.Random(3000 + 10 * rank + seed)
        mult = tuple(rng.choice(entries) for _ in range(rank * (rank + 1) // 2))
        operator_families_match_reference(MultiplicityMatrix(rank, mult))


def poly_node_residuals(m, poly):
    """``node_residuals`` on poly's table from ``divided_powers``, as ``annihilates`` hands it over."""
    return node_residuals(m, divided_powers(poly))


def failing_nodes(m, poly):
    """Check ``node_residuals`` against the expanded operators and the partials; count the nonzero residuals."""
    fast = dict(poly_node_residuals(m, poly))
    assert list(fast) == list(range(m.rank, 0, -1))
    assert fast == reference_node_residuals(m, poly), (m, poly)
    for l, residual in fast.items():
        slow = partial_node_residual(m, l, poly)
        assert residual == slow and residual.render() == slow.render(), (m, l, poly)
        assert_canonical(residual)
    return sum(not residual.is_zero for residual in fast.values())


def perturbed_failures(m, rng):
    """Residuals of the volume (all zero) and of the volume plus one monomial of its degree."""
    volume = iterated_residue(m).poly
    assert failing_nodes(m, volume) == 0, m
    return failing_nodes(m, volume + MultiPoly.monomial(rng.choice(homogeneous_monomials(m.rank, m.degree))))


class TestNodeResidualMatchesExpandedOperator:
    """The node operators applied one linear factor at a time, against their expansion."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_small_matrix(self, rank):
        rng = random.Random(4000 + rank)
        failures = sum(perturbed_failures(m, rng) for m in every_matrix(rank, (1, 2, 3)))
        # at rank 1 every polynomial of the volume degree is annihilated
        assert failures > 0 or rank == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_rank_five(self, seed):
        rng = random.Random(4100 + seed)
        m = MultiplicityMatrix(5, tuple(rng.choice((1, 2)) for _ in range(15)))
        assert perturbed_failures(m, rng) > 0


class TestDividedPowerResidualMatchesPartials:
    """The divided-power residuals against ``partial``, off the volumes too."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_volumes_perturbed_by_coefficients_that_do_not_divide_e_factorial(self, rank):
        rng = random.Random(4400 + rank)
        for m in every_matrix(rank, (1, 2)):
            monomials = homogeneous_monomials(rank, m.degree)
            volume = iterated_residue(m).poly
            for coeff in (Fraction(1, 7), Fraction(-5, 11)):
                failing_nodes(m, volume + MultiPoly.monomial(rng.choice(monomials), coeff))
            failing_nodes(m, volume * Fraction(5, 11))

    @settings(max_examples=150)
    @given(multiplicity_matrices(min_rank=1, max_rank=3, max_mult=2), st.data())
    def test_any_polynomial(self, m, data):
        # non-homogeneous, any rational coefficients, the zero polynomial included
        failing_nodes(m, data.draw(multipolys(nvars=m.rank, max_terms=6, max_exp=5)))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_low_degree_polynomials_under_high_orders(self, rank):
        # every exponent at most 1, below the node orders and most m[l,r+1],
        # which must still fit under the guard bit
        rng = random.Random(4500 + rank)
        monomials = [exps for k in range(2) for exps in homogeneous_monomials(rank, k)]
        for m in every_matrix(rank, (1, 2, 3)):
            poly = MultiPoly(rank, {exps: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for exps in monomials})
            failing_nodes(m, poly)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    @pytest.mark.parametrize("value", [0, 1, Fraction(-5, 11)])
    def test_zero_and_constants(self, rank, value):
        m = MultiplicityMatrix(rank, (1,) * (rank * (rank + 1) // 2))
        assert failing_nodes(m, MultiPoly.one(rank) * value) == 0

    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_rank_one(self, mult):
        m = MultiplicityMatrix(1, (mult,))
        for degree in range(6):
            poly = MultiPoly.monomial((degree,), Fraction(3, 7))
            assert failing_nodes(m, poly) == (degree >= mult)

    @pytest.mark.parametrize("power", [3, 6])
    def test_residual_that_vanishes_only_after_the_differences(self, power):
        # node 1 applies d_1^2 (d_1 - d_2)^2 (d_1 - d_3): (a_1 + a_2)^power
        # survives d_1^2 and is killed by d_1 - d_2, a_3 is killed by d_1^2
        # and a_1^(power + 2), of degree at least the order 5, by none
        m = MultiplicityMatrix(3, (2, 1, 2, 1, 1, 1))
        a1, a2, a3 = (MultiPoly.variable(i, 3) for i in (1, 2, 3))
        killed = (a1 + a2) ** power * Fraction(1, 7)
        assert not partial(partial(killed, 1), 1).is_zero
        assert dict(poly_node_residuals(m, killed))[1].is_zero
        failing_nodes(m, killed)
        survivor = a1 ** (power + 2) + a3
        assert not dict(poly_node_residuals(m, survivor))[1].is_zero
        failing_nodes(m, survivor)


def polynomial_route_node_residuals(m, poly):
    """[(l, residual)] as ``check-pde`` took them from a polynomial before it read the
    residue's table: its own guarded fields, the least scale S and one packing pass
    straight from the ``Fraction`` coefficients."""
    r = m.rank
    width = max(max(map(max, poly.terms), default=0), *m.row_sums).bit_length() + 1
    shifts = range(width * (r - 1), -1, -width)
    places = [1 << s for s in shifts]
    guard = 1 << (width - 1)
    guards = guard * sum(places)
    scale = math.lcm(*(
        c.denominator // math.gcd(c.denominator, factorials(e)) for e, c in poly.terms.items()
    ))
    table = {
        guards + sum(map(mul, e, places)): c.numerator * (scale * factorials(e) // c.denominator)
        for e, c in poly.terms.items()
    }
    mask = 2 * guard - 1
    return [
        (l, from_divided_powers(r, {
            tuple((key >> s & mask) - guard for s in shifts): c
            for key, c in _node_image(m, l, table, places, guard).items()
        }, scale))
        for l in range(r, 0, -1)
    ]


def rendered(residuals):
    return [(l, residual.render()) for l, residual in residuals]


def assert_table_route_matches(m, rng, monkeypatch):
    """The table of ``iterated_residue`` against the divided powers of its
    polynomial, and ``node_residuals`` on tables against the polynomial route,
    on the volume and on two wrong candidates: the volume plus one monomial,
    and, through ``annihilates``, the volume plus a monomial over a prime above
    the degree, whose table is not integral, against the expanded operators."""
    v = iterated_residue(m)
    volume, table = v.poly, v.table.terms
    assert table == {e: c * factorials(e) for e, c in volume.terms.items()}, m
    assert all(type(c) is int for c in table.values()), m
    assert all(residual.is_zero for _, residual in node_residuals(m, table)), m
    assert rendered(node_residuals(m, table)) == rendered(polynomial_route_node_residuals(m, volume))

    exps = rng.choice(homogeneous_monomials(m.rank, m.degree))
    wrong = dict(table)
    wrong[exps] = wrong.get(exps, 0) + factorials(exps)
    wrong = {e: c for e, c in wrong.items() if c}
    expected = polynomial_route_node_residuals(m, volume + MultiPoly.monomial(exps))
    assert rendered(node_residuals(m, wrong)) == rendered(expected), (m, exps)

    odd = volume + MultiPoly.monomial(exps, Fraction(1, 101))
    seen = []
    exact = flowvol.diffop.node_residuals

    def recording(m, table):
        seen.append(exact(m, table))
        return seen[-1]

    monkeypatch.setattr(flowvol.diffop, "node_residuals", recording)
    verdict = annihilates(m, odd)
    monkeypatch.undo()
    (residuals,) = seen
    expected = reference_node_residuals(m, odd)
    assert verdict == all(residual.is_zero for residual in expected.values()), (m, exps)
    assert dict(residuals) == expected, (m, exps)
    assert rendered(residuals) == rendered(polynomial_route_node_residuals(m, odd)), (m, exps)


class TestResidueTableMatchesPolynomialRoute:
    """``check-pde``'s table route against the polynomial it no longer builds."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_small_matrix(self, rank, monkeypatch):
        rng = random.Random(2700 + rank)
        for m in every_matrix(rank, (1, 2, 3)):
            assert_table_route_matches(m, rng, monkeypatch)

    @pytest.mark.parametrize("rank, entries", [(4, (1, 2, 3)), (5, (1, 2))])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_rank_four_and_five(self, rank, entries, seed, monkeypatch):
        rng = random.Random(2710 + 10 * rank + seed)
        m = MultiplicityMatrix(rank, tuple(rng.choice(entries) for _ in range(rank * (rank + 1) // 2)))
        assert_table_route_matches(m, rng, monkeypatch)


def volume_check_message(check):
    with pytest.raises(_VolumeCheckError) as caught:
        check()
    return str(caught.value)


class TestResidueTableCheck:
    """The table is refused exactly where ``VolumePolynomial`` refuses its polynomial."""

    @pytest.mark.parametrize("fault, message", [
        ("zero", "volume polynomial cannot be identically zero"),
        ("degree", "volume polynomial must be homogeneous of degree 6"),
        ("corner", "corner coefficient 1/6 differs from expected 1/12"),
        ("no corner", "corner coefficient 0 differs from expected 1/12"),
        ("corner and degree", "volume polynomial must be homogeneous of degree 6"),
    ])
    def test_same_message_as_the_polynomial_check(self, fault, message, monkeypatch):
        m = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))
        table = dict(iterated_residue(m).table.terms)
        corner = m.corner_exponents
        if fault == "zero":
            table = {}
        if "degree" in fault:
            table[(0, 0, 0)] = 1
        if fault.startswith("corner"):
            table[corner] *= 2
        if fault == "no corner":
            del table[corner]
        poly = from_divided_powers(3, table, 1)
        assert volume_check_message(lambda: VolumePolynomial(m, poly)) == message
        terms = (ResidueTerm(MultiPoly._trusted(3, table), (0, 0, 0)),) if table else ()
        monkeypatch.setattr(flowvol.residue, "_iterated_sum", lambda m, order: ResidueSum(3, (), terms))
        assert volume_check_message(lambda: iterated_residue(m)) == message


class TestFoldedLatticeCountMatchesReference:
    """The DP with each row's forced root folded in, against the full-state DP."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_small_matrix_at_every_small_supply(self, rank):
        points = list(product(range(4), repeat=rank))
        for m in every_matrix(rank, (1, 2, 3)):
            for a in points:
                assert count_lattice_points(m, a) == reference_count_lattice_points(m, a), (m, a)

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_rank_four_dilations(self, seed):
        rng = random.Random(4200 + seed)
        m = MultiplicityMatrix(4, tuple(rng.choice((1, 2)) for _ in range(10)))
        self.check_dilations(m, tuple(rng.choice((1, 2)) for _ in range(4)))

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_rank_five_dilations(self, seed):
        # one entry 2 at a seeded position: degree 11; the reference DP
        # takes seconds per table once a has entries 2 as well
        mult = [1] * 15
        mult[random.Random(4300 + seed).randrange(15)] = 2
        self.check_dilations(MultiplicityMatrix(5, tuple(mult)), (1,) * 5)

    @staticmethod
    def check_dilations(m, a):
        for t in range(m.degree + 1):
            point = tuple(t * x for x in a)
            assert count_lattice_points(m, point) == reference_count_lattice_points(m, point), (m, t)


@st.composite
def matrices_with_supplies(draw):
    m = draw(multiplicity_matrices(min_rank=1, max_rank=3, max_mult=4))
    return m, tuple(draw(st.integers(min_value=0, max_value=6)) for _ in range(m.rank))


class TestRunningSumLatticeCount:
    """One shifted-list pass per parallel copy, against the full-state DP."""

    @pytest.mark.parametrize("rank", [1, 2])
    def test_up_to_five_copies_at_every_small_supply(self, rank):
        points = list(product(range(5), repeat=rank))
        for m in every_matrix(rank, (1, 2, 3, 4, 5)):
            for a in points:
                assert count_lattice_points(m, a) == reference_count_lattice_points(m, a), (m, a)

    @given(matrices_with_supplies())
    @example((MultiplicityMatrix(3, (2, 1, 3, 4, 1, 2)), (3, 0, 5)))
    @example((MultiplicityMatrix(3, (1, 4, 2, 3, 1, 1)), (6, 0, 0)))
    def test_property(self, case):
        m, a = case
        assert count_lattice_points(m, a) == reference_count_lattice_points(m, a)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_certify_deep_shaped_tables(self, seed):
        # rank 4 with 3-5 entries 2 and a a permutation of (1,1,2,2)
        rng = random.Random(4400 + seed)
        mult = [1] * 10
        for position in rng.sample(range(10), 3 + seed):
            mult[position] = 2
        m = MultiplicityMatrix(4, tuple(mult))
        a = rng.choice(sorted(set(permutations((1, 1, 2, 2)))))
        TestFoldedLatticeCountMatchesReference.check_dilations(m, a)
