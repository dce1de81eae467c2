import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, strategies as st

import flowvol.linalg
from flowvol import (
    MultiPoly,
    MultiplicityMatrix,
    annihilates,
    iterated_residue,
    pde_system,
    solution_space,
)
from flowvol.diffop import DiffOperator, _node_terms
from flowvol.linalg import integer_nullspace
from flowvol.polynomial import binomial_series_coeff, homogeneous_monomials

from conftest import multipolys, multiplicity_matrices, nonzero_fractions

GOLDEN_M = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))


def d(i, n):
    return DiffOperator.variable(i, n)


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


class TestOperatorArithmetic:
    """An operator is a ``MultiPoly`` in the symbols d: its arithmetic is the polynomial one,
    and each result is an operator.

    ``+``, ``-``, ``*`` and ``**`` build their results in the operator's own
    class.  A result built as a plain ``MultiPoly`` would still equal the
    polynomial result, since equality reads only the count and the terms, so
    its type is what tells the two apart.
    """

    @given(st.data())
    def test_every_operation_returns_the_operator_of_the_polynomial_result(self, data):
        n = data.draw(st.integers(1, 3), label="rank")
        p, q = (data.draw(multipolys(nvars=n), label=name) for name in "pq")
        a, b = DiffOperator(n, p.terms), DiffOperator(n, q.terms)
        k = data.draw(st.one_of(st.integers(-6, 6).filter(bool), nonzero_fractions), label="k")
        cases = [
            (a + b, p + q),
            (a - b, p - q),
            (a * b, p * q),
            (k * a, k * p),
            (a * k, p * k),
            (-a, -p),
            *((a ** e, p ** e) for e in range(4)),
        ]
        assert a.poly is a
        for result, poly in cases:
            assert type(result) is DiffOperator, result
            assert result == poly

    @pytest.mark.parametrize("args", [
        ("x",),
        (1.0, {(1,): 1}),
        (2, {(1,): 1}),
        (1, {(1,): True}),
    ], ids=["not-a-count", "float-count", "short-exponents", "bool-weight"])
    def test_constructor_checks_as_multipoly_does(self, args):
        with pytest.raises(ValueError):
            MultiPoly(*args)
        with pytest.raises(ValueError):
            DiffOperator(*args)


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

    @given(st.data())
    def test_any_node_and_top_equals_the_enumeration(self, data):
        # any node and top up to 10 for both weights, and the ladder steps'
        # call, the series weight at node 1 up to the restricted volume degree
        m = data.draw(multiplicity_matrices(max_rank=5))
        weight = data.draw(st.sampled_from([comb, binomial_series_coeff]))
        cases = [(data.draw(st.integers(1, m.rank)), data.draw(st.integers(0, 10)), weight)]
        if m.rank <= 4:
            cases.append((1, m.restriction_degree, binomial_series_coeff))
        for l, top, weight in cases:
            levels = _node_terms(m, l, top, weight)
            assert type(levels) is list and len(levels) == top + 1
            for q, level in enumerate(levels):
                expected = reference_node_terms(m, l, q, weight)
                assert list(level.items()) == list(expected.items()), (m, l, top, q)


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
        assert ops == (DiffOperator.variable(1, 1) ** mult,)

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

    @pytest.mark.parametrize("degree", [1.0, True, Fraction(6)])
    def test_non_int_degree_rejected(self, degree):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            solution_space(GOLDEN_M, degree)

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

    @pytest.mark.parametrize("rank, degree, dimension", [(5, 6, 125), (5, 12, 340), (5, 18, 169), (6, 12, 1919)])
    def test_dimension_in_middle_degrees(self, rank, degree, dimension):
        # the same box count at every multiplicity 2, in degrees where each of the
        # many basis vectors holds a small share of the staircase columns
        m = MultiplicityMatrix(rank, (2,) * (rank * (rank + 1) // 2))
        box = Counter(map(sum, product(*map(range, m.row_sums))))
        assert len(solution_space(m, degree)) == box[degree] == dimension

    @pytest.mark.parametrize("degree, vector, expected", [
        # columns (2,0), (1,1), (0,2): monic in the lowest column held, 0
        (2, {1: 2, 0: -3}, {(2, 0): 1, (1, 1): Fraction(-4, 3)}),
        # columns (3,0), (2,1), (1,2): the corner (1,2) is column 2, its coefficient 1/o!
        (3, {2: 2, 0: -3}, {(1, 2): Fraction(1, 2), (3, 0): Fraction(-1, 4)}),
        # a corner entry of -3, which the normalization divides out, and a lower column held
        (3, {2: -3, 1: 4, 0: 6}, {(1, 2): Fraction(1, 2), (2, 1): Fraction(-2, 3), (3, 0): Fraction(-1, 3)}),
        # a vector of the volume degree without the corner: monic in the lowest column held
        (3, {1: 4, 0: -2}, {(3, 0): 1, (2, 1): -6}),
    ])
    def test_rational_null_vectors_are_read_by_their_entries(self, degree, vector, expected, monkeypatch):
        # the operator matrices' own null vectors have come out with the common scale
        # P = 1 on every input tried (test below), so a stand-in solve gives integer
        # entries with other scales: x_e = y_e / e!, divided by the normalizing entry
        monkeypatch.setattr(flowvol.linalg, "integer_nullspace", lambda rows, ncols: [dict(vector)])
        assert solution_space(MultiplicityMatrix(2, (1, 1, 3)), degree) == [MultiPoly(2, expected)]

    @staticmethod
    def assert_null_vectors_are_integer_tables(m, solves):
        # the staircase columns, capped by D_i = sum_(l>i) (row_sum(l) - 1) (diffop docstring)
        caps = [sum(order - 1 for order in m.row_sums[i:]) for i in range(m.rank - 1, 0, -1)]
        for degree in range(m.degree + 2):
            solves.clear()
            solution_space(m, degree)
            [basis] = solves
            if degree == m.degree:
                columns = homogeneous_monomials(m.rank, degree, caps)
                [vector] = basis
                assert {columns[col]: v for col, v in vector.items()} == iterated_residue(m).table.terms, m
            else:
                assert all(vector[max(vector)] == 1 for vector in basis), (m, degree)

    @pytest.fixture
    def solves(self, monkeypatch):
        """The bases ``integer_nullspace`` returns, recorded as ``solution_space`` receives them."""
        recorded = []

        def record(rows, ncols):
            recorded.append(integer_nullspace(rows, ncols))
            return recorded[-1]

        monkeypatch.setattr(flowvol.linalg, "integer_nullspace", record)
        return recorded

    @pytest.mark.parametrize("rank, entries", [(1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1, 2, 3)), (4, (1, 2))])
    def test_null_vectors_are_the_integer_tables(self, rank, entries, solves):
        # the kernel solve yields the residue's own integer table T(v) at the volume
        # degree, and a free coordinate of 1, so the common scale P = 1, at every other
        # degree; solution_space does not rely on either (its docstring)
        for mult in product(entries, repeat=rank * (rank + 1) // 2):
            self.assert_null_vectors_are_integer_tables(MultiplicityMatrix(rank, mult), solves)

    @pytest.mark.parametrize("seed", range(3))
    def test_null_vectors_are_the_integer_tables_at_rank_five(self, seed, solves):
        rng = random.Random(5200 + seed)
        m = MultiplicityMatrix(5, tuple(rng.choice((1, 2)) for _ in range(15)))
        self.assert_null_vectors_are_integer_tables(m, solves)

    def test_middle_degree_basis_annihilates_and_is_monic(self):
        m = MultiplicityMatrix(5, (2,) * 15)
        basis = solution_space(m, 12)
        assert len(basis) == 340
        for poly in basis:
            assert annihilates(m, poly), poly
            assert poly.sorted_terms()[0][1] == 1, poly  # monic in its graded-lex leading term

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
