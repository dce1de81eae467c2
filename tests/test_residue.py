import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from flowvol import (
    MultiPoly,
    MultiplicityMatrix,
    ResidueSum,
    ResidueTerm,
    VolumePolynomial,
    build_kernel,
    canonical_order,
    iterated_residue,
    laurent_derivative,
    laurent_residue,
    residue_at_zero,
    residue_in_order,
)

from conftest import multiplicity_matrices, small_fractions

GOLDEN_M = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))
GOLDEN_POLY = MultiPoly(3, {
    (6, 0, 0): Fraction(1, 360),
    (5, 1, 0): Fraction(1, 60),
    (5, 0, 1): Fraction(1, 120),
    (4, 2, 0): Fraction(1, 24),
    (4, 1, 1): Fraction(1, 24),
    (3, 3, 0): Fraction(1, 36),
    (3, 2, 1): Fraction(1, 12),
})


class TestBuildKernel:
    def test_rank_one(self):
        kernel = build_kernel(MultiplicityMatrix(1, (3,)))
        assert kernel.axis_orders == (3,)
        assert kernel.diff_orders == ()
        assert str(kernel) == "exp(a1*x1) / (x1^3)"

    def test_rank_two_heavy_difference(self):
        kernel = build_kernel(MultiplicityMatrix(2, (4, 1, 1)))
        assert kernel.axis_orders == (1, 1)
        assert kernel.difference_order(1, 2) == 4
        assert str(kernel) == "exp(a1*x1 + a2*x2) / (x1 * x2 * (x1 - x2)^4)"

    def test_rank_three(self):
        kernel = build_kernel(GOLDEN_M)
        assert kernel.axis_orders == (2, 2, 2)
        assert kernel.diff_orders == (((1, 2), 1), ((1, 3), 1), ((2, 3), 1))


class TestSingleResidue:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_exponential_over_power(self, order):
        state = build_kernel(MultiplicityMatrix(1, (order,))).to_sum()
        result = residue_at_zero(state, 1)
        expected = MultiPoly(1, {(order - 1,): Fraction(1, math.factorial(order - 1))})
        assert result.polynomial() == expected

    def test_bare_simple_pole(self):
        # 1/x with no exponential factor: the residue is 1.
        state = ResidueSum.build(1, [1], [], {((-1,), ()): MultiPoly.one(1)})
        assert residue_at_zero(state, 1).polynomial() == MultiPoly.one(1)

    def test_bare_double_pole_has_no_residue(self):
        state = ResidueSum.build(1, [1], [], {((-2,), ()): MultiPoly.one(1)})
        assert residue_at_zero(state, 1).polynomial().is_zero

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_simple_pole_with_difference_factor(self, n):
        # exp(a2 x2) / (x2 (x1 - x2)^n): evaluate the analytic part at x2 = 0
        state = ResidueSum.build(
            2, [1, 2], [2], {((0, -1), (((1, 2), n),)): MultiPoly.one(2)}
        )
        result = residue_at_zero(state, 2)
        assert result.terms == (
            ResidueTerm(MultiPoly.one(2), (-n, 0), ()),
        )

    def test_consumed_variable_rejected(self):
        state = build_kernel(MultiplicityMatrix(2, (1, 1, 1))).to_sum()
        once = residue_at_zero(state, 2)
        with pytest.raises(ValueError):
            residue_at_zero(once, 2)


class TestIteratedResidue:
    @pytest.mark.parametrize("order", range(1, 7))
    def test_rank_one_powers(self, order):
        v = iterated_residue(MultiplicityMatrix(1, (order,)))
        expected = MultiPoly(1, {(order - 1,): Fraction(1, math.factorial(order - 1))})
        assert v.poly == expected

    def test_rank_one_point_polytope(self):
        assert iterated_residue(MultiplicityMatrix(1, (1,))).poly == MultiPoly.one(1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rank_two_family(self, n):
        v = iterated_residue(MultiplicityMatrix(2, (n, 1, 1)))
        expected = MultiPoly(2, {(n, 0): Fraction(1, math.factorial(n))})
        assert v.poly == expected

    def test_rank_three_reference(self):
        assert iterated_residue(GOLDEN_M).poly == GOLDEN_POLY


class TestVolumeProperties:
    @given(multiplicity_matrices(max_rank=3, max_mult=2), small_fractions,
           st.tuples(small_fractions, small_fractions, small_fractions))
    def test_homogeneity(self, m, t, raw_point):
        v = iterated_residue(m)
        point = raw_point[: m.rank]
        scaled = tuple(t * x for x in point)
        assert v.poly.evaluate(scaled) == t ** m.degree * v.poly.evaluate(point)

    @given(multiplicity_matrices(max_rank=3, max_mult=2))
    def test_every_monomial_has_volume_degree(self, m):
        v = iterated_residue(m)
        assert all(sum(exps) == m.degree for exps in v.poly.terms)

    @given(multiplicity_matrices(max_rank=3, max_mult=2))
    def test_corner_coefficient(self, m):
        v = iterated_residue(m)
        assert v.poly.coefficient(m.corner_exponents) == m.corner_value

    def test_corner_scan_rank_two(self):
        for mult in product((1, 2, 3), repeat=3):
            m = MultiplicityMatrix(2, mult)
            v = iterated_residue(m)
            assert v.poly.coefficient(m.corner_exponents) == m.corner_value


class TestResidueKillsDerivatives:
    @given(st.dictionaries(st.integers(min_value=-5, max_value=5), small_fractions,
                           max_size=6))
    def test_laurent_derivative_has_no_residue(self, series):
        assert laurent_residue(laurent_derivative(series)) == 0

    def test_constant_has_no_residue(self):
        assert laurent_residue({0: Fraction(7)}) == 0
        assert laurent_residue({-1: Fraction(7)}) == 7


class TestClassicalValues:
    """Independent oracles from classical complete-graph flow polytopes."""

    @staticmethod
    def _catalan(k):
        return math.comb(2 * k, k) // (k + 1)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_unit_supply_volume_is_a_catalan_product(self, rank):
        # all multiplicities 1, supply (1, 0, ..., 0): the normalized volume
        # (degree! times the volume value) is Cat(1)*Cat(2)*...*Cat(rank-2)
        m = MultiplicityMatrix(rank, (1,) * (rank * (rank + 1) // 2))
        v = iterated_residue(m)
        normalized = math.factorial(m.degree) * v.value_at((1,) + (0,) * (rank - 1))
        assert normalized == math.prod(self._catalan(k) for k in range(1, rank - 1))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_unit_supply_counts_match_the_volume(self, rank):
        # even on this boundary supply the polytope stays full-dimensional,
        # so the dilation counts grow with the volume as leading coefficient
        from flowvol import count_lattice_points

        m = MultiplicityMatrix(rank, (1,) * (rank * (rank + 1) // 2))
        d = m.degree
        supply = (1,) + (0,) * (rank - 1)
        counts = [count_lattice_points(m, tuple(t * x for x in supply))
                  for t in range(d + 1)]
        for _ in range(d):  # forward differences: leading term is diff^d / d!
            counts = [b - a for a, b in zip(counts, counts[1:])]
        leading = Fraction(counts[0], math.factorial(d))
        assert leading == iterated_residue(m).value_at(supply)


class TestResidueOrder:
    def test_canonical_order_is_innermost_last_variable(self):
        assert canonical_order(3) == (3, 2, 1)

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            residue_in_order(MultiplicityMatrix(2, (1, 1, 1)), (1, 1))

    def test_reversed_order_changes_the_answer(self):
        m = MultiplicityMatrix(2, (1, 1, 1))
        forward = residue_in_order(m, canonical_order(2))
        backward = residue_in_order(m, (1, 2))
        assert forward == MultiPoly.variable(1, 2)
        assert backward != forward


class TestVolumePolynomialInvariants:
    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            VolumePolynomial(GOLDEN_M, MultiPoly.one(3))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            VolumePolynomial(GOLDEN_M, MultiPoly.zero(3))

    def test_rejects_wrong_corner(self):
        with pytest.raises(ValueError):
            VolumePolynomial(GOLDEN_M, MultiPoly.monomial((6, 0, 0)))

    def test_value_at(self):
        assert iterated_residue(GOLDEN_M).value_at((1, 1, 1)) == Fraction(2, 9)
