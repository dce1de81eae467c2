import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given

from flowvol import (
    MultiPoly,
    MultiplicityMatrix,
    annihilates,
    iterated_residue,
    pde_system,
    solution_space,
)
from flowvol.diffop import DiffOperator, _node_terms
from flowvol.polynomial import binomial_series_coeff, homogeneous_monomials

from conftest import multipolys, multiplicity_matrices

GOLDEN_M = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))


def d(i, n):
    return DiffOperator(MultiPoly.variable(i, n))


class TestApply:
    def test_difference_kills_symmetric_linear(self):
        op = d(1, 2) - d(2, 2)
        p = MultiPoly(2, {(1, 0): 1, (0, 1): 1})
        assert op.apply(p).is_zero

    def test_second_derivative(self):
        assert (d(1, 1) * d(1, 1)).apply(MultiPoly(1, {(3,): 1})) == MultiPoly(1, {(1,): 6})

    def test_full_system_annihilates_reference_volume(self):
        v = iterated_residue(GOLDEN_M)
        for op in pde_system(GOLDEN_M).ops:
            assert op.apply(v.poly).is_zero

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            d(1, 2).apply(MultiPoly.one(3))

    @given(multipolys(nvars=2), multipolys(nvars=2))
    def test_linear_in_the_argument(self, p, q):
        op = (d(1, 2) - d(2, 2)) * d(1, 2)
        assert op.apply(p + q) == op.apply(p) + op.apply(q)


def reference_node_terms(m, l, q, weight):
    """The u^q coefficient of the node-l product, one degree at a time.

    Each monomial of ``homogeneous_monomials`` in the trailing variables
    d_(l+1)..d_r takes its factors from the weight rows; zero products are
    dropped.
    """
    r = m.rank
    if l == r:
        return {(0,) * r: 1} if q == 0 else {}
    rows = [[weight(mult, p) for p in range(q + 1)] for mult in m.rows[l - 1][:-1]]
    terms = {}
    for powers in homogeneous_monomials(r - l, q):
        coeff = prod(row[p] for row, p in zip(rows, powers))
        if coeff:
            terms[(0,) * l + powers] = coeff
    return terms


class TestNodeTerms:
    @pytest.mark.parametrize("weight", [comb, binomial_series_coeff], ids=["comb", "series"])
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_every_degree_equals_the_enumeration(self, rank, weight):
        # the all-ones matrix and two seeded ones; every node, up to one degree
        # past the node's span (where the binomial weights vanish), at most 7
        rng = random.Random(330 + rank)
        size = rank * (rank + 1) // 2
        matrices = [(1,) * size] + [tuple(rng.randint(1, 3) for _ in range(size)) for _ in range(2)]
        for mult in matrices:
            m = MultiplicityMatrix(rank, mult)
            for l in range(1, rank + 1):
                top = min(m.row_sums[l - 1] - m.rows[l - 1][-1] + 1, 7)
                levels = list(_node_terms(m, l, top, weight))
                assert len(levels) == top + 1
                for q, level in enumerate(levels):
                    expected = reference_node_terms(m, l, q, weight)
                    assert list(level.items()) == list(expected.items()), (mult, l, q)


class TestPdeSystem:
    def test_rank_three_reference(self):
        ops = pde_system(GOLDEN_M).ops
        expected = (
            d(3, 3) * d(3, 3),
            (d(2, 3) - d(3, 3)) * d(2, 3) * d(2, 3),
            (d(1, 3) - d(2, 3)) * (d(1, 3) - d(3, 3)) * d(1, 3) * d(1, 3),
        )
        assert ops == expected

    @pytest.mark.parametrize("mult", [1, 2, 4])
    def test_rank_one(self, mult):
        ops = pde_system(MultiplicityMatrix(1, (mult,))).ops
        assert ops == (DiffOperator(MultiPoly.variable(1, 1) ** mult),)

    def test_rank_two_all_ones(self):
        ops = pde_system(MultiplicityMatrix(2, (1, 1, 1))).ops
        assert ops == (d(2, 2), (d(1, 2) - d(2, 2)) * d(1, 2))

    def test_labels_run_from_rank_down_to_one(self):
        labels = [l for l, _ in pde_system(GOLDEN_M).labeled()]
        assert labels == [3, 2, 1]

    @given(multiplicity_matrices(max_rank=3, max_mult=3))
    def test_operator_orders_match_row_sums(self, m):
        for (l, op) in pde_system(m).labeled():
            assert set(map(sum, op.poly.terms)) == {m.row_sum(l)}  # nonzero and homogeneous


class TestAnnihilates:
    def test_reference_volume(self):
        assert annihilates(GOLDEN_M, iterated_residue(GOLDEN_M).poly)

    def test_wrong_polynomial_rejected(self):
        # a1^degree has the right degree but is not in the kernel
        assert not annihilates(GOLDEN_M, MultiPoly.monomial((GOLDEN_M.degree, 0, 0)))

    @pytest.mark.parametrize("mult", range(1, 5))
    def test_rank_one_family(self, mult):
        m = MultiplicityMatrix(1, (mult,))
        assert annihilates(m, iterated_residue(m).poly)

    def test_multiplicity_mismatch(self):
        # one more root at node 3 raises the a_3 degree beyond what d_3^2 kills;
        # (lowering m[3,4] instead would give a solution of lower degree)
        other = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 3))
        assert not annihilates(GOLDEN_M, iterated_residue(other).poly)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            annihilates(MultiplicityMatrix(2, (1, 1, 1)), MultiPoly.one(3))

    @given(multiplicity_matrices(max_rank=3, max_mult=2))
    def test_residue_volume_is_always_annihilated(self, m):
        assert annihilates(m, iterated_residue(m).poly)

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_four_samples(self, seed):
        import random
        rng = random.Random(500 + seed)
        m = MultiplicityMatrix(4, tuple(rng.randint(1, 3) for _ in range(10)))
        assert annihilates(m, iterated_residue(m).poly)


class TestSolutionSpace:
    def test_rank_one_below_order(self):
        basis = solution_space(MultiplicityMatrix(1, (3,)), 2)
        assert basis == [MultiPoly(1, {(2,): Fraction(1, 2)})]

    def test_rank_one_at_order(self):
        assert solution_space(MultiplicityMatrix(1, (3,)), 3) == []

    def test_rank_two_linear(self):
        basis = solution_space(MultiplicityMatrix(2, (1, 1, 1)), 1)
        assert basis == [MultiPoly.variable(1, 2)]

    def test_rank_two_constants(self):
        basis = solution_space(MultiplicityMatrix(2, (1, 1, 1)), 0)
        assert basis == [MultiPoly.one(2)]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            solution_space(GOLDEN_M, -1)

    def test_reference_case_unique_and_normalized(self):
        basis = solution_space(GOLDEN_M, GOLDEN_M.degree)
        assert len(basis) == 1
        assert basis[0] == iterated_residue(GOLDEN_M).poly
        assert solution_space(GOLDEN_M, GOLDEN_M.degree + 1) == []

    def test_rank_four_all_ones(self):
        m = MultiplicityMatrix(4, (1,) * 10)
        basis = solution_space(m, m.degree)
        assert len(basis) == 1
        assert basis[0] == iterated_residue(m).poly

    @pytest.mark.parametrize("m", [
        MultiplicityMatrix(4, (2,) * 10),
        MultiplicityMatrix(5, (1,) * 15),
    ], ids=["r4-all-2", "r5-all-1"])
    def test_past_rank_three(self, m):
        assert solution_space(m, m.degree) == [iterated_residue(m).poly]
        assert solution_space(m, m.degree + 1) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_four_seeded(self, seed):
        rng = random.Random(900 + seed)
        m = MultiplicityMatrix(4, tuple(rng.randint(1, 2) for _ in range(10)))
        assert solution_space(m, m.degree) == [iterated_residue(m).poly]
        assert solution_space(m, m.degree + 1) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_five_seeded(self, seed):
        rng = random.Random(950 + seed)
        m = MultiplicityMatrix(5, tuple(rng.randint(1, 2) for _ in range(15)))
        assert solution_space(m, m.degree) == [iterated_residue(m).poly]
        assert solution_space(m, m.degree + 1) == []

    def test_every_degree_up_to_the_volume_degree_has_solutions(self):
        m = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))
        for degree in range(m.degree + 1):
            assert len(solution_space(m, degree)) >= 1

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_dimension_in_every_degree(self, rank):
        # [t^k] prod_l (1 - t^row_sum(l)) / (1 - t), counted as the degree-k
        # box monomials, those with every e_l < row_sum(l)
        for mult in product((1, 2), repeat=rank * (rank + 1) // 2):
            m = MultiplicityMatrix(rank, mult)
            box = Counter(map(sum, product(*map(range, m.row_sums))))
            for degree in range(m.degree + 2):
                assert len(solution_space(m, degree)) == box[degree], (m, degree)

    @pytest.mark.parametrize("mult", list(product((1, 2), repeat=3)))
    def test_rank_two_sweep(self, mult):
        m = MultiplicityMatrix(2, mult)
        volume = iterated_residue(m)
        basis = solution_space(m, m.degree)
        assert basis == [volume.poly]
        assert solution_space(m, m.degree + 1) == []
        # every degree from 0 to the volume degree admits solutions
        for degree in range(m.degree + 1):
            assert len(solution_space(m, degree)) >= 1


class TestOrderBookkeeping:
    @given(multiplicity_matrices(min_rank=3, max_rank=3, max_mult=2), multipolys(nvars=3))
    def test_application_drops_degree_by_operator_order(self, m, p):
        if p.is_zero:
            return
        degree = max(map(sum, p.terms))
        top = MultiPoly(3, {e: c for e, c in p.terms.items() if sum(e) == degree})
        for l, op in pde_system(m).labeled():
            image = op.apply(top)
            if not image.is_zero:
                assert set(map(sum, image.terms)) == {degree - m.row_sum(l)}
