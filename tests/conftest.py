import os

from hypothesis import settings, strategies as st

from flowvol import MultiPoly, MultiplicityMatrix

settings.register_profile("deterministic", derandomize=True, max_examples=60, deadline=None)
settings.register_profile("stress", derandomize=False, max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
nonzero_fractions = small_fractions.filter(bool)


@st.composite
def multipolys(draw, nvars=None, max_terms=4, max_exp=3):
    n = nvars if nvars is not None else draw(st.integers(min_value=1, max_value=3))
    nterms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(n))
        terms[exps] = draw(small_fractions)
    return MultiPoly(n, terms)


@st.composite
def multiplicity_matrices(draw, min_rank=1, max_rank=3, max_mult=3):
    rank = draw(st.integers(min_value=min_rank, max_value=max_rank))
    count = rank * (rank + 1) // 2
    mult = tuple(draw(st.integers(min_value=1, max_value=max_mult)) for _ in range(count))
    return MultiplicityMatrix(rank, mult)


@st.composite
def rational_points(draw, nvars):
    return tuple(draw(small_fractions) for _ in range(nvars))


def partial(poly, index):
    """Exact partial derivative of ``poly`` in a_index (1-based): the reference the shifts must match."""
    i = index - 1
    return MultiPoly(poly.nvars, {
        exps[:i] + (exps[i] - 1,) + exps[i + 1:]: coeff * exps[i]
        for exps, coeff in poly.terms.items()
        if exps[i]
    })


def grlex_key(exponents):
    """Sort key putting monomials in descending graded-lex order: the order reference."""
    return (-sum(exponents), tuple(-e for e in exponents))


def sparse_rows(rows):
    """Dense matrix rows as the ``{column: entry}`` mappings ``integer_nullspace`` takes.

    Every entry is kept, zeros and non-integers included, so the solver's
    own checks and zero dropping see them.
    """
    return [dict(enumerate(row)) for row in rows]


def dense(vector, ncols):
    """A sparse null vector ``{column: value}`` of ``integer_nullspace`` as the list of its
    ``ncols`` coordinates, absent ones 0: the form the dense references return."""
    return [vector.get(col, 0) for col in range(ncols)]


def assert_sparse_basis(basis, ncols):
    """``integer_nullspace``'s stored form, and its common scale P (1 for an empty basis).

    Every value is a nonzero ``int`` on a key in ``range(ncols)``; each vector holds
    exactly one free column, its own, and every vector holds the same positive P there.
    The free column of a vector is its highest key, since every other key is a pivot
    column below it (``linalg`` docstring); the free columns are those of all vectors.
    """
    free = {max(vector) for vector in basis}
    assert len(free) == len(basis), basis
    scales = {vector[max(vector)] for vector in basis} or {1}
    assert len(scales) == 1 and min(scales) > 0, basis
    for vector in basis:
        assert all(type(x) is int and x for x in vector.values()), vector
        assert all(col in range(ncols) for col in vector), (vector, ncols)
        assert [col for col in vector if col in free] == [max(vector)], (vector, free)
    return scales.pop()
