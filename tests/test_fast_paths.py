"""The trusted polynomial core and the grouped residue step against the plain paths.

``reference_residue_at_zero`` is the plain form of one residue step: every
(term, depth vector) pair builds its own checked polynomial, multiplies it by
a_k^s / s! and adds it into the accumulator.  It is kept here, outside the
package, as the reference the engine's grouped step must match exactly.
"""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from flowvol import (
    DiffOperator,
    MultiPoly,
    ResidueSum,
    binomial_series_coeff,
    build_kernel,
    canonical_order,
    residue_at_zero,
    residue_in_order,
)

from conftest import multipolys, multiplicity_matrices, rational_points, small_fractions

# Every rank-2 and rank-3 matrix with entries in {1, 2, 3}.
small_families = multiplicity_matrices(min_rank=2, max_rank=3, max_mult=3)


def _bounded_vectors(slots, bound):
    if slots == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _bounded_vectors(slots - 1, bound - head):
            yield (head,) + tail


def reference_residue_at_zero(expr, var):
    """One residue step, one checked polynomial per contribution."""
    has_exp = var in expr.exp_vars
    collected = {}
    for term in expr.terms:
        budget = -term.xpow[var - 1] - 1
        if budget < 0:
            continue
        involved = [(pair, q) for pair, q in term.diff if var in pair]
        passive = tuple((pair, q) for pair, q in term.diff if var not in pair)
        for depths in _bounded_vectors(len(involved), budget):
            exp_power = budget - sum(depths)
            if not has_exp and exp_power != 0:
                continue
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
            key = (tuple(xpow), passive)
            previous = collected.get(key)
            collected[key] = coeff if previous is None else previous + coeff
    return ResidueSum.build(expr.nvars, expr.xvars - {var}, expr.exp_vars - {var}, collected)


def assert_canonical(poly):
    assert isinstance(poly.terms, dict)
    for exps, coeff in poly.terms.items():
        assert type(exps) is tuple and len(exps) == poly.nvars, exps
        assert all(type(e) is int and e >= 0 for e in exps), exps
        assert type(coeff) is Fraction, (exps, coeff)
        assert coeff != 0, exps


def naive_evaluate(poly, point):
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for value, e in zip(point, exps):
            term *= Fraction(value) ** e
        total += term
    return total


class TestResidueStepMatchesReference:
    @given(small_families)
    def test_every_order_every_step(self, m):
        start = build_kernel(m).to_sum()
        for order in permutations(canonical_order(m.rank)):
            fast = slow = start
            for var in order:
                fast = residue_at_zero(fast, var)
                slow = reference_residue_at_zero(slow, var)
                assert fast == slow
                for term in fast.terms:
                    assert_canonical(term.coeff)
            assert residue_in_order(m, order) == slow.polynomial()

    def test_cancelling_contributions_leave_no_zero_terms(self):
        # x2^-1 (x1 - x2)^-1 and -x1^-1 x2^-1 have the same residue at x2 = 0,
        # up to sign, so their contributions to one group cancel exactly.
        one = MultiPoly.one(2)
        expr = ResidueSum.build(2, (1, 2), (1, 2), {
            ((0, -1), (((1, 2), 1),)): one,
            ((-1, -1), ()): -one,
        })
        assert reference_residue_at_zero(expr, 2).is_zero
        assert residue_at_zero(expr, 2).is_zero


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

    @given(multipolys(nvars=3), st.integers(1, 3))
    def test_partial_and_embed(self, p, index):
        assert_canonical(p.partial(index))
        assert_canonical(p.embed(5, 1))
        assert p.embed(5, 1).nvars == 5

    @given(multipolys(nvars=2, max_exp=2), multipolys(nvars=2))
    def test_operator_application(self, d, p):
        assert_canonical(DiffOperator(d).apply(p))

    def test_operator_application_cancels(self):
        # (d1 - d2) kills a1 + a2: the two images cancel exactly.
        op = DiffOperator.partial(1, 2) - DiffOperator.partial(2, 2)
        image = op.apply(MultiPoly.variable(1, 2) + MultiPoly.variable(2, 2))
        assert image.terms == {}


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

    def test_zero_polynomial(self):
        value = MultiPoly.zero(2).evaluate((Fraction(3, 4), -1))
        assert type(value) is Fraction and value == 0


class TestPublicConstructorStillChecks:
    @pytest.mark.parametrize("nvars, terms", [
        (0, {}),
        (2, {(1,): 1}),
        (2, {(1, 0, 0): 1}),
        (2, {(1, -1): 1}),
        (1, {(1,): "not a number"}),
    ])
    def test_bad_input_raises(self, nvars, terms):
        with pytest.raises(ValueError):
            MultiPoly(nvars, terms)

    def test_integer_coefficients_become_fractions(self):
        assert_canonical(MultiPoly(2, {(1, 0): 3, (0, 1): 0, (0, 0): Fraction(1, 2)}))
