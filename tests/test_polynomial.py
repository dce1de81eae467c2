from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flowvol import MultiPoly, binomial_series_coeff, grlex_key, homogeneous_monomials

from conftest import multipolys, rational_points

A1 = MultiPoly.variable(1, 2)
A2 = MultiPoly.variable(2, 2)

# Reference rank-3 volume, frozen from the worked example m=(1,1,2,1,2,2).
GOLDEN_TERMS = {
    (6, 0, 0): Fraction(1, 360),
    (5, 1, 0): Fraction(1, 60),
    (5, 0, 1): Fraction(1, 120),
    (4, 2, 0): Fraction(1, 24),
    (4, 1, 1): Fraction(1, 24),
    (3, 3, 0): Fraction(1, 36),
    (3, 2, 1): Fraction(1, 12),
}
GOLDEN = MultiPoly(3, GOLDEN_TERMS)


class TestAdd:
    def test_additive_inverse(self):
        assert (A1 + (-A1)).is_zero

    def test_two_variables(self):
        assert A1 + A2 == MultiPoly(2, {(1, 0): 1, (0, 1): 1})

    def test_halves_combine(self):
        half_sq = MultiPoly(2, {(2, 0): Fraction(1, 2)})
        assert half_sq + half_sq == MultiPoly(2, {(2, 0): 1})

    def test_mismatched_variable_count(self):
        with pytest.raises(ValueError):
            A1 + MultiPoly.variable(1, 3)


class TestMul:
    def test_difference_of_squares(self):
        assert (A1 - A2) * (A1 + A2) == MultiPoly(2, {(2, 0): 1, (0, 2): -1})

    def test_square(self):
        assert A1 * A1 == MultiPoly(2, {(2, 0): 1})

    @given(multipolys())
    def test_one_is_identity(self, p):
        assert MultiPoly.one(p.nvars) * p == p

    def test_mismatched_variable_count(self):
        with pytest.raises(ValueError):
            A1 * MultiPoly.variable(1, 3)


class TestPartial:
    def test_power_rule(self):
        assert MultiPoly(2, {(2, 0): 1}).partial(1) == MultiPoly(2, {(1, 0): 2})

    def test_missing_variable(self):
        assert MultiPoly(2, {(3, 0): 1}).partial(2).is_zero

    def test_golden_poly_affine_in_third_variable(self):
        derived = GOLDEN.partial(3)
        assert all(exps[2] == 0 for exps in derived.terms)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            A1.partial(3)

    @given(multipolys(nvars=3))
    def test_partials_commute(self, p):
        assert p.partial(1).partial(2) == p.partial(2).partial(1)
        assert p.partial(2).partial(3) == p.partial(3).partial(2)


class TestEvaluate:
    def test_golden_at_ones(self):
        assert GOLDEN.evaluate((1, 1, 1)) == Fraction(2, 9)

    @given(multipolys(nvars=2))
    def test_at_origin_gives_constant_term(self, p):
        assert p.evaluate((0, 0)) == p.coefficient((0, 0))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_scaled_power_vanishes_at_origin(self, n):
        import math
        p = MultiPoly(1, {(n,): Fraction(1, math.factorial(n))})
        assert p.evaluate((0,)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GOLDEN.evaluate((1, 1))

    @given(multipolys(nvars=2), multipolys(nvars=2), rational_points(2))
    def test_evaluation_is_ring_homomorphism(self, p, q, point):
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


class TestRingAxioms:
    @given(multipolys(nvars=2), multipolys(nvars=2), multipolys(nvars=2))
    def test_associativity_and_distributivity(self, p, q, s):
        assert (p + q) + s == p + (q + s)
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s

    @given(multipolys(nvars=2), multipolys(nvars=2))
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        p = MultiPoly(2, {(1, 0): 0, (0, 1): 2})
        assert (1, 0) not in p.terms

    @given(multipolys())
    def test_rebuilding_is_identity(self, p):
        assert MultiPoly(p.nvars, p.terms) == p

    @given(st.integers(-40, 40), st.integers(-40, 40).filter(bool))
    def test_fraction_canonical_form_is_stable(self, num, den):
        once = Fraction(num, den)
        twice = Fraction(once.numerator, once.denominator)
        assert twice == once and twice.denominator > 0
        assert twice.numerator == once.numerator


class TestSeriesCoefficients:
    @pytest.mark.parametrize("k", range(6))
    def test_geometric_series(self, k):
        assert binomial_series_coeff(1, k) == 1

    def test_known_values(self):
        assert binomial_series_coeff(2, 3) == 4
        assert binomial_series_coeff(3, 2) == 6

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            binomial_series_coeff(0, 1)
        with pytest.raises(ValueError):
            binomial_series_coeff(1, -1)


class TestRendering:
    def test_golden_string(self):
        assert GOLDEN.render() == (
            "1/360*a1^6 + 1/60*a1^5*a2 + 1/120*a1^5*a3 + 1/24*a1^4*a2^2 "
            "+ 1/24*a1^4*a2*a3 + 1/36*a1^3*a2^3 + 1/12*a1^3*a2^2*a3"
        )

    def test_simple_cases(self):
        assert MultiPoly.zero(2).render() == "0"
        assert MultiPoly.one(2).render() == "1"
        assert A1.render() == "a1"
        assert (-A1).render() == "-a1"
        assert (A1 - A2).render() == "a1 - a2"
        assert MultiPoly(2, {(1, 0): Fraction(-3, 2)}).render() == "-3/2*a1"

    def test_graded_lex_order(self):
        p = MultiPoly(2, {(0, 1): 1, (2, 0): 1, (1, 1): 1, (1, 0): 1})
        assert p.render() == "a1^2 + a1*a2 + a1 + a2"

    def test_latex(self):
        p = MultiPoly(2, {(2, 0): Fraction(1, 6), (1, 1): -2})
        assert p.render_latex() == "\\frac{1}{6} a_{1}^{2} - 2 a_{1} a_{2}"
        # +-1 coefficients drop, constants keep their scalar, a negative
        # leading term takes a bare minus sign.
        p = MultiPoly(2, {(1, 0): -1, (0, 1): 1, (0, 0): Fraction(-3, 4)})
        assert p.render_latex() == "-a_{1} + a_{2} - \\frac{3}{4}"
        p = MultiPoly(2, {(3, 0): Fraction(-2, 5), (0, 2): -1, (0, 0): 1})
        assert p.render_latex() == "-\\frac{2}{5} a_{1}^{3} - a_{2}^{2} + 1"
        assert MultiPoly.constant(2, 5).render_latex() == "5"
        assert MultiPoly.zero(2).render_latex() == "0"

    def test_operator_symbols(self):
        assert MultiPoly(2, {(1, 1): 1}).render(names="d") == "d1*d2"


class TestMonomialEnumeration:
    def test_degree_two_in_three_variables(self):
        assert homogeneous_monomials(3, 2) == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        ]

    def test_count(self):
        import math
        for nvars in (1, 2, 3, 4):
            for degree in range(5):
                expected = math.comb(degree + nvars - 1, nvars - 1)
                assert len(homogeneous_monomials(nvars, degree)) == expected

    def test_sorted_by_grlex_key(self):
        monos = homogeneous_monomials(3, 4)
        assert monos == sorted(monos, key=grlex_key)


class TestEmbed:
    def test_shift_right(self):
        p = MultiPoly(2, {(2, 1): Fraction(5)})
        assert p.embed(4, 1) == MultiPoly(4, {(0, 2, 1, 0): 5})

    def test_bad_fit(self):
        with pytest.raises(ValueError):
            MultiPoly.one(3).embed(3, 1)
