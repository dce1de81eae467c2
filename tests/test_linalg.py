from fractions import Fraction

from hypothesis import given, strategies as st

from flowvol.linalg import integer_nullspace

from conftest import assert_sparse_basis, dense, sparse_rows


def rank_by_fraction_elimination(rows, ncols):
    """Independent rank computation with plain rational pivoting."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                factor = a[i][col] / a[rank][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_single_row():
    basis = integer_nullspace(sparse_rows([[1, 2, 3]]), 3)
    assert len(basis) == 2
    assert_sparse_basis(basis, 3)
    for vec in basis:
        x = dense(vec, 3)
        assert x[0] + 2 * x[1] + 3 * x[2] == 0


def test_identity_has_trivial_nullspace():
    assert integer_nullspace(sparse_rows([[1, 0], [0, 1]]), 2) == []


def test_no_rows_gives_full_space():
    basis = integer_nullspace([], 3)
    assert len(basis) == 3


def test_zero_matrix():
    assert len(integer_nullspace(sparse_rows([[0, 0], [0, 0]]), 2)) == 2


def test_dependent_rows():
    basis = integer_nullspace(sparse_rows([[2, 4], [1, 2]]), 2)
    assert len(basis) == 1
    x = dense(basis[0], 2)
    assert 2 * x[0] + 4 * x[1] == 0


def test_zero_entries_are_dropped():
    assert integer_nullspace([{0: 0, 1: 3}], 2) == [{0: 1}]


def test_rows_are_not_modified():
    rows = [{0: 2, 1: 4, 2: 0}, {0: 1, 2: 3}, {1: 6, 2: 9}]
    before = [dict(row) for row in rows]
    integer_nullspace(rows, 3)
    assert rows == before


matrices = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
    min_size=0,
    max_size=5,
)


@given(matrices)
def test_vectors_solve_and_dimension_matches_rank(rows):
    ncols = 4
    basis = integer_nullspace(sparse_rows(rows), ncols)
    assert_sparse_basis(basis, ncols)
    for vec in basis:
        for row in rows:
            assert sum(c * x for c, x in zip(row, dense(vec, ncols))) == 0
    assert len(basis) == ncols - rank_by_fraction_elimination(rows, ncols)
