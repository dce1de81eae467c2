import math
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

import flowvol.oracle
from flowvol import MultiPoly, MultiplicityMatrix, compare_volume, iterated_residue
from flowvol.multiplicity import root_pairs
from flowvol.oracle import CountTable, VolumeComparison, _newton_fit, count_lattice_points, dilation_counts

GOLDEN_M = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))


def brute_force_count(m, a):
    """Enumerate integer flows edge by edge, checking node balances directly."""
    edges = []
    for (i, j) in root_pairs(m.rank):
        edges.extend([(i, j)] * m.multiplicity(i, j))
    supply = list(a) + [-sum(a)]
    bound = sum(x for x in a if x > 0)  # no copy carries more than the positive supplies

    def recurse(idx, balance):
        if idx == len(edges):
            return 1 if all(b == 0 for b in balance) else 0
        i, j = edges[idx]
        total = 0
        for flow in range(bound + 1):
            if flow > balance[i - 1]:
                break  # later edges only lower node i further
            new_balance = list(balance)
            new_balance[i - 1] -= flow
            new_balance[j - 1] += flow
            total += recurse(idx + 1, new_balance)
        return total

    return recurse(0, supply)


def reference_newton_fit(values):
    """The fit as a Fraction MultiPoly in t, from divided differences and products."""
    table = [Fraction(v) for v in values]
    coeffs = [table[0]]
    for level in range(1, len(values)):
        table = [(table[i + 1] - table[i]) / level for i in range(len(table) - 1)]
        coeffs.append(table[0])
    poly = MultiPoly.zero(1)
    basis = MultiPoly.one(1)
    t = MultiPoly.variable(1, 1)
    for node, c in enumerate(coeffs):
        poly = poly + basis * c
        basis = basis * (t - MultiPoly.one(1) * node)
    return poly


def assert_fit_matches_reference(table, fitted_values):
    """Leading coefficient and predictions for window index 0..2*len against the reference fit.

    The reference fit runs on the window index k, the dilation less
    ``table.first``.
    """
    fitted = reference_newton_fit(fitted_values)
    degree = len(fitted_values) - 1
    assert table.leading_coefficient == fitted.coefficient((degree,))
    for k in range(2 * len(fitted_values) + 1):
        predicted = table.predicted(table.first + k)
        assert type(predicted) is int
        assert predicted == fitted.evaluate((k,))


def positive_window_fit(m, a):
    """The fit as counted before the window: the forward differences of L(0..d)."""
    return _newton_fit([count_lattice_points(m, tuple(t * x for x in a)) for t in range(m.degree + 1)])


def fit_at_negative(differences, t):
    """sum_k D^k C(-t, k) for t >= 1, with C(-t, k) = (-1)^k C(t + k - 1, k)."""
    return sum(d * (-1) ** k * math.comb(t + k - 1, k) for k, d in enumerate(differences))


def copies_out(m):
    """s_i: the parallel copies leaving node i less those entering it."""
    r = m.rank
    return tuple(
        sum(m.multiplicity(i, j) for j in range(i + 1, r + 2))
        - sum(m.multiplicity(k, i) for k in range(1, i))
        for i in range(1, r + 1)
    )


class TestCounting:
    def test_rank_one_compositions(self):
        assert count_lattice_points(MultiplicityMatrix(1, (2,)), (3,)) == 4

    def test_rank_two_reference(self):
        assert count_lattice_points(MultiplicityMatrix(2, (1, 1, 1)), (1, 1)) == 2

    def test_zero_supply_has_the_empty_flow(self):
        assert count_lattice_points(GOLDEN_M, (0, 0, 0)) == 1

    @pytest.mark.parametrize("mult", list(product((1, 2), repeat=3)))
    def test_matches_brute_force_rank_two(self, mult):
        m = MultiplicityMatrix(2, mult)
        for a in product(range(4), repeat=2):
            assert count_lattice_points(m, a) == brute_force_count(m, a)

    def test_matches_brute_force_rank_three(self):
        assert count_lattice_points(GOLDEN_M, (1, 1, 1)) == brute_force_count(
            GOLDEN_M, (1, 1, 1)
        )

    @pytest.mark.parametrize("mult", list(product((1, 2), repeat=3)))
    def test_signed_supplies_match_brute_force_rank_two(self, mult):
        m = MultiplicityMatrix(2, mult)
        for a in product(range(-2, 4), repeat=2):
            assert count_lattice_points(m, a) == brute_force_count(m, a), a

    def test_signed_supplies_match_brute_force_rank_three(self):
        for a in product(range(-2, 3), repeat=3):
            assert count_lattice_points(GOLDEN_M, a) == brute_force_count(GOLDEN_M, a), a

    def test_negative_supplies_with_and_without_flow(self):
        m = MultiplicityMatrix(2, (1, 1, 1))
        assert count_lattice_points(m, (-1, 3)) == 0  # node 1 has no inflow
        assert count_lattice_points(m, (2, -1)) == 2  # node 1 sends 1 or 2 on to node 2
        assert count_lattice_points(m, (1, -2)) == 0  # node 2 cannot be fed enough

    def test_known_quadratic_family(self):
        # m=(2,1,1) at a=(2t, t): 1 + five choices layered, (2t+1)(t+1) points
        m = MultiplicityMatrix(2, (2, 1, 1))
        for t in range(5):
            assert count_lattice_points(m, (2 * t, t)) == (2 * t + 1) * (t + 1)

    def test_monotone_in_each_coordinate(self):
        m = MultiplicityMatrix(2, (2, 1, 2))
        for a in product(range(1, 4), repeat=2):
            base = count_lattice_points(m, a)
            assert count_lattice_points(m, (a[0] + 1, a[1])) >= base
            assert count_lattice_points(m, (a[0], a[1] + 1)) >= base


class TestDilationTable:
    def test_reference_counts(self):
        # (2t+1)(t+1) points at t >= 0; T = round((2*3 + 2) / 6) = 1, and
        # L(-1) = (-1)^2 K((2, 1) - s) = K(-1, 2) = 0 with s = (3, -1)
        table = dilation_counts(MultiplicityMatrix(2, (2, 1, 1)), (2, 1))
        assert table.first == -1
        assert table.counts == (0, 1, 6)
        assert table.predicted(2) == 15
        assert table.leading_coefficient == 2

    def test_window_start_balances_the_supplies(self):
        # T = round((d*sum(a) + sum_i m[i,r+1]) / (2*sum(a))), capped at d
        assert dilation_counts(GOLDEN_M, (1, 1, 1)).first == -4  # round((6*3 + 6) / 6)
        assert dilation_counts(MultiplicityMatrix(1, (2,)), (1,)).first == -1  # round(3/2) > d

    def test_count_at_zero_is_one(self):
        table = dilation_counts(GOLDEN_M, (1, 1, 1))
        assert table.counts[-table.first] == 1

    def test_window_holds_degree_plus_one_counts(self):
        table = dilation_counts(GOLDEN_M, (1, 2, 1))
        assert len(table.counts) == GOLDEN_M.degree + 1

    def test_fit_reproduces_all_tabulated_counts(self):
        m = MultiplicityMatrix(2, (1, 1, 1))
        table = dilation_counts(m, (1, 1), t_max=m.degree + 2)
        assert table.first + len(table.counts) - 1 == m.degree + 2
        for k, count in enumerate(table.counts):
            assert table.predicted(table.first + k) == count

    def test_extra_dilations_validate_the_polynomial(self):
        # predictions beyond the fitting window must match fresh counts
        for mult in ((1, 1, 1), (2, 1, 2)):
            m = MultiplicityMatrix(2, mult)
            table = dilation_counts(m, (1, 2))
            for t in range(table.first + m.degree + 1, m.degree + 3):
                fresh = count_lattice_points(m, (t, 2 * t))
                assert table.predicted(t) == fresh


class TestIntegerFit:
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
        st.integers(-12, 0),
    )
    def test_forward_differences_match_reference_fit(self, values, first):
        degree = len(values) - 1
        m = MultiplicityMatrix(1, (degree + 1,))
        table = CountTable(m, tuple(values), _newton_fit(values), first)
        assert_fit_matches_reference(table, values)

    def test_every_small_family_table_matches_reference_fit(self):
        for rank in (2, 3):
            for mult in product((1, 2), repeat=rank * (rank + 1) // 2):
                m = MultiplicityMatrix(rank, mult)
                for a in product((1, 2), repeat=rank):
                    table = dilation_counts(m, a)
                    assert_fit_matches_reference(table, table.counts)

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_count_off_the_fit_is_reported(self, monkeypatch, dilation):
        # m=(2,1,1) at a=(1,1): T = round(6/4) = 2, so the window is -2..0 and
        # every positive dilation up to t_max is checked against the fit
        m = MultiplicityMatrix(2, (2, 1, 1))
        degree = m.degree
        exact = count_lattice_points
        off = (dilation, dilation)

        def perturbed(m, point):
            count = exact(m, point)
            return count + 1 if point == off else count

        monkeypatch.setattr(flowvol.oracle, "count_lattice_points", perturbed)
        assert dilation_counts(m, (1, 1)).first == -degree
        bad = exact(m, off) + 1
        with pytest.raises(ArithmeticError, match=f"count {bad} at dilation {dilation} "):
            dilation_counts(m, (1, 1), t_max=degree + 1)


class TestWindowMatchesPositiveWindow:
    """The window around t = 0 against the fit of L(0..d), the table counted before it."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_every_small_matrix_at_every_small_point(self, rank):
        for mult in product((1, 2, 3), repeat=rank * (rank + 1) // 2):
            m = MultiplicityMatrix(rank, mult)
            d, shift = m.degree, copies_out(m)
            for a in product((1, 2), repeat=rank):
                differences = positive_window_fit(m, a)
                table = dilation_counts(m, a)
                assert table.leading_coefficient == Fraction(differences[d], math.factorial(d))
                for t in range(1, d + 1):
                    inside = count_lattice_points(m, tuple(t * x - s for x, s in zip(a, shift)))
                    assert (-1) ** d * inside == fit_at_negative(differences, t), (m, a, t)


class TestLeadingCoefficient:
    def test_rank_one_segment(self):
        assert dilation_counts(MultiplicityMatrix(1, (2,)), (1,)).leading_coefficient == 1

    def test_rank_two_linear(self):
        assert dilation_counts(MultiplicityMatrix(2, (1, 1, 1)), (1, 1)).leading_coefficient == 1

    def test_rank_three_reference(self):
        assert dilation_counts(GOLDEN_M, (1, 1, 1)).leading_coefficient == Fraction(2, 9)


class TestPolynomialRecovery:
    def test_counting_rederives_every_reference_coefficient(self):
        # interpolate the full degree-6 volume polynomial from lattice counts
        # alone and compare with the residue engine coefficient by coefficient
        import math

        from flowvol.polynomial import homogeneous_monomials

        monos = homogeneous_monomials(3, GOLDEN_M.degree)
        n = len(monos)

        def row_of(p):
            return [math.prod(Fraction(x) ** e for x, e in zip(p, mono))
                    for mono in monos]

        # primitive supply vectors only: proportional points give dependent
        # rows when interpolating a homogeneous polynomial
        echelon, chosen = [], []
        for p in product(range(1, 7), repeat=3):
            if len(chosen) == n:
                break
            if math.gcd(math.gcd(p[0], p[1]), p[2]) != 1:
                continue
            work = row_of(p)
            for pivot_col, erow in echelon:
                if work[pivot_col]:
                    factor = work[pivot_col] / erow[pivot_col]
                    work = [x - factor * y for x, y in zip(work, erow)]
            pivot_col = next((i for i, x in enumerate(work) if x), None)
            if pivot_col is not None:
                echelon.append((pivot_col, work))
                chosen.append(p)
        assert len(chosen) == n

        aug = [row_of(p) + [dilation_counts(GOLDEN_M, p).leading_coefficient] for p in chosen]
        for col in range(n):
            piv = next(i for i in range(col, n) if aug[i][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col]:
                    factor = aug[i][col]
                    aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
        recovered = MultiPoly(3, {mono: aug[i][n] for i, mono in enumerate(monos)
                                  if aug[i][n]})
        assert recovered == iterated_residue(GOLDEN_M).poly


class TestCompareVolume:
    def test_quadratic_case(self):
        report = compare_volume(MultiplicityMatrix(2, (2, 1, 1)), (2, 1))
        assert report.matches
        assert report.residue_value == report.count_value == 2

    def test_point_polytope(self):
        report = compare_volume(MultiplicityMatrix(1, (1,)), (5,))
        assert report.matches
        assert report.residue_value == 1

    def test_rank_three_reference(self):
        report = compare_volume(GOLDEN_M, (1, 1, 1))
        assert report.matches
        assert report.residue_value == report.count_value == Fraction(2, 9)

    def test_sweep_small_interior_points(self):
        for rank in (1, 2, 3):
            count = rank * (rank + 1) // 2
            for mult in product((1, 2), repeat=count):
                m = MultiplicityMatrix(rank, mult)
                for a in product((1, 2), repeat=rank):
                    assert compare_volume(m, a).matches

    @pytest.mark.parametrize(
        "m, a, t_max",
        [
            (GOLDEN_M, (1, 1), None),  # too short
            (GOLDEN_M, (1, 1, 1, 1), None),  # too long
            (GOLDEN_M, (1, Fraction(1, 2), 1), None),
            (GOLDEN_M, (1, 1.0, 1), None),
            (GOLDEN_M, (1, True, 1), None),
            (MultiplicityMatrix(1, (1,)), [True], None),
            (MultiplicityMatrix(2, (1, 1, 1)), (1, 0), None),  # on the boundary
            (MultiplicityMatrix(2, (1, 1, 1)), (2, -1), None),
            (GOLDEN_M, (1, 1, 1), 2),  # fewer dilations than the degree 6
            (MultiplicityMatrix(2, (1, 1, 1)), (1, 1), 2.5),  # the bound is not an int
            (MultiplicityMatrix(2, (1, 1, 1)), (1, 1), 2.0),
            (MultiplicityMatrix(2, (1, 1, 1)), (1, 1), True),  # at the degree 1, but a bool
        ],
    )
    def test_rejects_bad_point_or_bound(self, m, a, t_max):
        # compare_volume is where the point enters; the counting functions trust it
        with pytest.raises(ValueError):
            compare_volume(m, a, t_max)

    def test_report_holds_only_the_two_values(self):
        # the report's text is written by cli (tests/test_cli.py)
        report = compare_volume(MultiplicityMatrix(2, (1, 1, 1)), (1, 2))
        assert [field.name for field in fields(report)] == ["residue_value", "count_value"]
        assert report.residue_value == report.count_value == 1
        assert "__str__" not in vars(VolumeComparison)

    def test_non_int_bound_message_names_the_type(self):
        # the message names the type, so 2.5 does not read as a bound too small
        with pytest.raises(ValueError) as info:
            compare_volume(MultiplicityMatrix(2, (1, 1, 1)), (1, 1), t_max=2.5)
        assert str(info.value) == "need an int bound of at least 1 dilations, got 2.5"
