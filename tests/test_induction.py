import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

import flowvol.induction
from flowvol import (
    MultiPoly,
    MultiplicityMatrix,
    iterated_residue,
    lift_volume,
    lowering_operator,
    operator_ladder,
)
from flowvol.diffop import DiffOperator
from flowvol.induction import _node_terms
from flowvol.polynomial import binomial_series_coeff, homogeneous_monomials

from conftest import multiplicity_matrices

GOLDEN_M = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))


def d(i, n):
    return DiffOperator.variable(i, n)


def reference_lift(v_prev, m):
    """The lift by the layer relation as written: u_n = sum_j (-1)^(j+1) D_j u_(n-j).

    Each u_n is summed from its own D_j images, one ``apply`` per (n, j), and
    placed at a_1^(s-1+n) / (s-1+n)!.
    """
    r, base = m.rank, m.row_sums[0] - 1
    generators = operator_ladder(m).generators
    images = [v_prev.poly.embed(r, offset=1)]
    for n in range(1, m.restriction_degree + 1):
        image = MultiPoly.zero(r)
        for j in range(1, min(n, len(generators)) + 1):
            term = generators[j - 1].apply(images[n - j])
            image = image + term if j % 2 else image - term
        images.append(image)
    terms = {}
    for n, image in enumerate(images):
        for exps, coeff in image.terms.items():
            terms[(base + n,) + exps[1:]] = coeff / math.factorial(base + n)
    return MultiPoly(r, terms)


def all_matrices(rank, first_row=None):
    """Every rank-r matrix with entries in {1, 2, 3}, or those with the given first row."""
    rest = product((1, 2, 3), repeat=rank * (rank + 1) // 2 - (0 if first_row is None else rank))
    return [MultiplicityMatrix(rank, (first_row or ()) + tail) for tail in rest]


def reference_node_terms(m, q, weight):
    """The u^q coefficient of the node-1 product, one degree at a time.

    Each monomial of ``homogeneous_monomials`` in the trailing variables
    d_2..d_r takes its factors from the weight rows; zero products are
    dropped.
    """
    r = m.rank
    if r == 1:
        return {(0,): 1} if q == 0 else {}
    rows = [[weight(mult, p) for p in range(q + 1)] for mult in m.rows[0][:-1]]
    terms = {}
    for powers in homogeneous_monomials(r - 1, q):
        coeff = math.prod(row[p] for row, p in zip(rows, powers))
        if coeff:
            terms[(0,) + powers] = coeff
    return terms


def restrictions(m):
    """m and each of its restrictions down to rank 1: node 1 of the (l-1)-th is node l of m."""
    chain = [m]
    while chain[-1].rank > 1:
        chain.append(chain[-1].restriction())
    return chain


class TestNodeTerms:
    @pytest.mark.parametrize("weight", [math.comb, binomial_series_coeff], ids=["comb", "series"])
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_every_degree_equals_the_enumeration(self, rank, weight):
        # the all-ones matrix and two seeded ones, with every restriction of
        # each, up to one degree past the first row's span (where the binomial
        # weights vanish), at most 7
        rng = random.Random(330 + rank)
        size = rank * (rank + 1) // 2
        matrices = [(1,) * size] + [tuple(rng.randint(1, 3) for _ in range(size)) for _ in range(2)]
        for mult in matrices:
            for m in restrictions(MultiplicityMatrix(rank, mult)):
                top = min(m.row_sums[0] - m.rows[0][-1] + 1, 7)
                levels = list(_node_terms(m, top, weight))
                assert len(levels) == top + 1
                for q, level in enumerate(levels):
                    expected = reference_node_terms(m, q, weight)
                    assert list(level.items()) == list(expected.items()), (mult, m, q)

    @given(st.data())
    def test_any_restriction_and_top_equals_the_enumeration(self, data):
        # any restriction and top up to 10 for both weights, and the ladder
        # steps' call, the series weight up to the restricted volume degree
        m = data.draw(multiplicity_matrices(max_rank=5))
        weight = data.draw(st.sampled_from([math.comb, binomial_series_coeff]))
        cases = [(data.draw(st.sampled_from(restrictions(m))), data.draw(st.integers(0, 10)), weight)]
        if m.rank <= 4:
            cases.append((m, m.restriction_degree, binomial_series_coeff))
        for node, top, weight in cases:
            levels = _node_terms(node, top, weight)
            assert type(levels) is list and len(levels) == top + 1
            for q, level in enumerate(levels):
                expected = reference_node_terms(node, q, weight)
                assert list(level.items()) == list(expected.items()), (node, top, q)


class TestLoweringOperator:
    @given(multiplicity_matrices(min_rank=2, max_rank=4))
    def test_first_order_is_weighted_gradient(self, m):
        expected = DiffOperator.zero(m.rank)
        for i in range(2, m.rank + 1):
            expected = expected + m.multiplicity(1, i) * d(i, m.rank)
        assert lowering_operator(m, 1) == expected

    def test_unit_multiplicities_give_pure_product(self):
        # with m[1,2] = m[1,3] = 1 the squares drop out of the order-2 operator
        m = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))
        assert lowering_operator(m, 2) == d(2, 3) * d(3, 3)

    @given(multiplicity_matrices(min_rank=2, max_rank=3))
    def test_vanishes_beyond_first_row_span(self, m):
        span = m.row_sum(1) - m.multiplicity(1, m.rank + 1)
        assert lowering_operator(m, span + 1).poly.is_zero
        if span >= 1:
            assert not lowering_operator(m, span).poly.is_zero

    def test_orders_above_the_span_build_no_terms(self, monkeypatch):
        tops = []
        node_terms = flowvol.induction._node_terms

        def recording(m, top, weight):
            tops.append(top)
            return node_terms(m, top, weight)

        monkeypatch.setattr(flowvol.induction, "_node_terms", recording)
        span = GOLDEN_M.row_sum(1) - GOLDEN_M.multiplicity(1, GOLDEN_M.rank + 1)
        assert lowering_operator(GOLDEN_M, span + 5).poly.is_zero
        assert lowering_operator(GOLDEN_M, 10**6) == DiffOperator.zero(GOLDEN_M.rank)
        lowering_operator(GOLDEN_M, span)
        # each call builds its ladder, which stops at the span; no call reaches q
        assert tops == [span] * 3

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            lowering_operator(GOLDEN_M, 0)

    @given(multiplicity_matrices(min_rank=2, max_rank=4))
    def test_every_order_is_read_from_the_ladder(self, m):
        ladder = operator_ladder(m)
        span = m.row_sum(1) - m.multiplicity(1, m.rank + 1)
        assert len(ladder.generators) == span
        for q in range(1, span + 3):
            generator = ladder.generator(q)
            if q <= span:
                assert generator is ladder.generators[q - 1]
            else:
                assert generator == DiffOperator.zero(m.rank)
            assert lowering_operator(m, q) == generator

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_generating_product_identity(self, rank):
        # sum_q D_q u^q (with the empty product for q=0) must equal
        # prod_{i=2..rank} (1 + u d_i)^m[1,i]; slot 0 below is the
        # bookkeeping variable u, slots 1..rank are d_1..d_rank.
        for first_row in product((1, 2, 3), repeat=rank - 1):
            fill = [2] * (rank * (rank + 1) // 2 - rank)
            m = MultiplicityMatrix(rank, tuple(first_row) + (1,) + tuple(fill))
            span = sum(first_row)
            u = MultiPoly.variable(1, rank + 1)
            lhs = MultiPoly.one(rank + 1)
            for q in range(1, span + 2):
                term = lowering_operator(m, q).poly.embed(rank + 1, 1)
                lhs = lhs + u ** q * term
            rhs = MultiPoly.one(rank + 1)
            for i, mult in enumerate(first_row, start=2):
                factor = MultiPoly.one(rank + 1) + u * MultiPoly.variable(i + 1, rank + 1)
                rhs = rhs * factor ** mult
            assert lhs == rhs


class TestOperatorLadder:
    def test_explicit_low_steps(self):
        ladder = operator_ladder(GOLDEN_M)
        d1, d2, d3 = (ladder.generator(q) for q in (1, 2, 3))
        assert ladder.steps[0] == DiffOperator.one(3)
        assert ladder.steps[1] == d1
        assert ladder.steps[2] == d1 * d1 - d2
        assert ladder.steps[3] == d1 * d1 * d1 - 2 * (d1 * d2) + d3

    def test_steps_are_built_on_first_read_only(self):
        ladder = operator_ladder(GOLDEN_M)
        assert "steps" not in vars(ladder)
        steps = ladder.steps
        assert vars(ladder)["steps"] is steps
        assert ladder.steps is steps

    def test_generator_beyond_span_is_zero(self):
        ladder = operator_ladder(GOLDEN_M)
        assert len(ladder.generators) == 2  # m[1,2] + m[1,3]
        assert ladder.generator(3).poly.is_zero
        assert ladder.generator(99).poly.is_zero

    @pytest.mark.parametrize("q", [0, -1])
    def test_generator_order_must_be_positive(self, q):
        with pytest.raises(ValueError, match="order must be an int >= 1"):
            operator_ladder(GOLDEN_M).generator(q)

    @pytest.mark.parametrize("q", [1.5, 1.0, True, Fraction(1)])
    def test_lowering_order_must_be_an_int(self, q):
        # 1.5 once gave the zero operator and True gave D_1
        with pytest.raises(ValueError, match="order must be an int >= 1"):
            lowering_operator(GOLDEN_M, q)

    def test_non_int_order_message_names_the_type(self):
        # the message names the type, so a bool does not read as a value below 1
        with pytest.raises(ValueError) as info:
            operator_ladder(GOLDEN_M).generator(True)
        assert str(info.value) == "order must be an int >= 1, got True"

    @given(multiplicity_matrices(min_rank=2, max_rank=3))
    def test_steps_are_order_homogeneous(self, m):
        ladder = operator_ladder(m)
        assert len(ladder.steps) == m.restriction_degree + 1
        for n, step in enumerate(ladder.steps):
            if not step.poly.is_zero:
                assert set(map(sum, step.poly.terms)) == {n}

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_ladder_inverts_the_signed_lowering_series(self, rank):
        # (sum_n E_n u^n) * (1 + sum_q (-1)^q D_q u^q) must be 1 through u^h,
        # h the last ladder index; slot 0 below is u, slots 1..rank are
        # d_1..d_rank.
        for first_row in product((1, 2, 3), repeat=rank - 1):
            fill = [2] * (rank * (rank + 1) // 2 - rank)
            m = MultiplicityMatrix(rank, tuple(first_row) + (1,) + tuple(fill))
            ladder = operator_ladder(m)
            h = m.restriction_degree
            u = MultiPoly.variable(1, rank + 1)
            steps = MultiPoly.zero(rank + 1)
            for n, step in enumerate(ladder.steps):
                steps = steps + u ** n * step.poly.embed(rank + 1, 1)
            signed = MultiPoly.one(rank + 1)
            for q in range(1, sum(first_row) + 1):
                signed = signed + (-u) ** q * ladder.generator(q).poly.embed(rank + 1, 1)
            product_terms = (steps * signed).terms
            low = {exps: c for exps, c in product_terms.items() if exps[0] <= h}
            assert MultiPoly(rank + 1, low) == MultiPoly.one(rank + 1), m

    def test_rank_one_ladder_is_trivial(self):
        ladder = operator_ladder(MultiplicityMatrix(1, (4,)))
        assert ladder.generators == ()
        assert ladder.steps == (DiffOperator.one(1),)


class TestLiftVolume:
    def test_reference_case_from_given_input(self):
        # restricted volume (1/6) b1^2 (b1 + 3 b2), with b = (a2, a3)
        v_prev = iterated_residue(GOLDEN_M.restriction())
        given_poly = MultiPoly(2, {(3, 0): Fraction(1, 6), (2, 1): Fraction(1, 2)})
        assert v_prev.poly == given_poly
        lifted = lift_volume(v_prev, GOLDEN_M)
        assert lifted.poly == iterated_residue(GOLDEN_M).poly

    @pytest.mark.parametrize("n", range(1, 5))
    def test_rank_two_single_term_lift(self, n):
        m = MultiplicityMatrix(2, (n, 1, 1))
        lifted = lift_volume(iterated_residue(m.restriction()), m)
        assert lifted.poly == MultiPoly(2, {(n, 0): Fraction(1, math.factorial(n))})

    def test_rank_two_all_ones(self):
        m = MultiplicityMatrix(2, (1, 1, 1))
        lifted = lift_volume(iterated_residue(m.restriction()), m)
        assert lifted.poly == iterated_residue(m).poly == MultiPoly.variable(1, 2)

    @given(multiplicity_matrices(min_rank=2, max_rank=3, max_mult=3))
    def test_lift_agrees_with_direct_residue(self, m):
        lifted = lift_volume(iterated_residue(m.restriction()), m)
        assert lifted.poly == iterated_residue(m).poly

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_four_samples(self, seed):
        import random
        rng = random.Random(1000 + seed)
        mult = tuple(rng.randint(1, 3) for _ in range(10))
        m = MultiplicityMatrix(4, mult)
        lifted = lift_volume(iterated_residue(m.restriction()), m)
        assert lifted.poly == iterated_residue(m).poly

    @pytest.mark.parametrize("first_row", [None] + list(product((1, 2, 3), repeat=3)))
    def test_equals_the_layer_relation_on_ranks_two_and_three(self, first_row):
        # rank 2 in one case, then rank 3 one first row a case
        for m in all_matrices(2) if first_row is None else all_matrices(3, first_row):
            v_prev = iterated_residue(m.restriction())
            lifted = lift_volume(v_prev, m).poly
            assert lifted == reference_lift(v_prev, m), m
            assert {type(c) for c in lifted.terms.values()} == {Fraction}

    @pytest.mark.parametrize("rank, seed", [(4, 0), (4, 1), (4, 2), (5, 0), (5, 1)])
    def test_equals_the_layer_relation_on_seeded_matrices(self, rank, seed):
        import random
        rng = random.Random(3300 + 10 * rank + seed)
        m = MultiplicityMatrix(rank, tuple(rng.randint(1, 3) for _ in range(rank * (rank + 1) // 2)))
        v_prev = iterated_residue(m.restriction())
        assert lift_volume(v_prev, m).poly == reference_lift(v_prev, m)

    def test_lift_builds_no_steps(self, monkeypatch):
        ladders = []

        def recording(m):
            ladders.append(ladder := operator_ladder(m))
            return ladder

        monkeypatch.setattr(flowvol.induction, "operator_ladder", recording)
        lifted = lift_volume(iterated_residue(GOLDEN_M.restriction()), GOLDEN_M)
        assert lifted.poly == iterated_residue(GOLDEN_M).poly
        assert len(ladders) == 1 and "steps" not in vars(ladders[0])

    def test_operators_show_the_terms_the_benchmark_tracer_reads(self, monkeypatch):
        # flowbench's tracer reads ``.poly.terms`` of every applied operator and of
        # every ladder step; each key must be an int tuple of length r
        applied, apply = [], DiffOperator.apply

        def recording(self, p, divided=False):
            applied.append(self)
            return apply(self, p, divided)

        monkeypatch.setattr(DiffOperator, "apply", recording)
        lift_volume(iterated_residue(GOLDEN_M.restriction()), GOLDEN_M)
        assert applied
        for op in applied + list(operator_ladder(GOLDEN_M).steps):
            for key in op.poly.terms:
                assert type(key) is tuple and len(key) == GOLDEN_M.rank, (op, key)
                assert all(type(e) is int for e in key), (op, key)

    def test_wrong_restriction_rejected(self):
        other = MultiplicityMatrix(2, (2, 2, 2))
        with pytest.raises(ValueError):
            lift_volume(iterated_residue(other), GOLDEN_M)

    def test_rank_one_has_no_lift(self):
        with pytest.raises(ValueError):
            lift_volume(iterated_residue(MultiplicityMatrix(1, (2,))),
                        MultiplicityMatrix(1, (3,)))

