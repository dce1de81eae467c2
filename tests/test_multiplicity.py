import copy
import pickle
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given

from flowvol import MultiplicityMatrix
from flowvol.multiplicity import root_pairs

from conftest import multiplicity_matrices

GOLDEN = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))


def test_pair_order():
    assert root_pairs(3) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_entry_access():
    assert GOLDEN.multiplicity(1, 4) == 2
    assert GOLDEN.multiplicity(2, 3) == 1
    assert GOLDEN.multiplicity(3, 4) == 2
    with pytest.raises(ValueError):
        GOLDEN.multiplicity(4, 3)


def test_derived_constants():
    assert sum(GOLDEN.mult) == 9
    assert GOLDEN.row_sums == (4, 3, 2)
    assert GOLDEN.degree == 6
    assert GOLDEN.restriction_degree == 3
    assert GOLDEN.corner_exponents == (3, 2, 1)
    assert GOLDEN.corner_value == Fraction(1, 12)


def test_restriction_entries():
    restricted = GOLDEN.restriction()
    assert restricted == MultiplicityMatrix(2, (1, 2, 2))
    with pytest.raises(ValueError):
        restricted.restriction().restriction()


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_restriction_drops_node_one_entrywise(rank):
    for mult in product((1, 2), repeat=rank * (rank + 1) // 2):
        m = MultiplicityMatrix(rank, mult)
        restricted = m.restriction()
        for i, j in root_pairs(rank - 1):
            assert restricted.multiplicity(i, j) == m.multiplicity(i + 1, j + 1)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_stored_rows_are_the_flat_entries_row_by_row(rank):
    pairs = root_pairs(rank)
    for mult in product((1, 2), repeat=len(pairs)):
        m = MultiplicityMatrix(rank, mult)
        assert [len(row) for row in m.rows] == list(range(rank, 0, -1))
        for (i, j), value in zip(pairs, mult):
            assert m.rows[i - 1][j - i - 1] == m.multiplicity(i, j) == value
        for l in range(1, rank + 1):
            expected = sum(value for (i, _), value in zip(pairs, mult) if i == l)
            assert m.row_sum(l) == m.row_sums[l - 1] == expected


def test_stored_rows_stay_out_of_equality_hash_and_repr():
    same = MultiplicityMatrix(3, [1, 1, 2, 1, 2, 2])
    assert same == GOLDEN and hash(same) == hash(GOLDEN)
    assert same != MultiplicityMatrix(3, (1, 1, 2, 1, 2, 1))
    assert repr(GOLDEN) == "MultiplicityMatrix(rank=3, mult=(1, 1, 2, 1, 2, 2))"


def test_derived_fields_stay_out_of_equality_hash_and_repr():
    same = MultiplicityMatrix(3, [1, 1, 2, 1, 2, 2])
    assert same.corner_value == Fraction(1, 12)
    assert same == GOLDEN and hash(same) == hash(GOLDEN) == hash((3, (1, 1, 2, 1, 2, 2)))
    assert repr(same) == repr(GOLDEN) == "MultiplicityMatrix(rank=3, mult=(1, 1, 2, 1, 2, 2))"
    assert (same.degree, same.corner_exponents) == (6, (3, 2, 1))


DERIVED = ("rows", "row_sums", "degree", "corner_exponents")


@pytest.mark.parametrize("name", ("rank", "mult") + DERIVED + ("other",))
def test_no_attribute_can_be_assigned_or_deleted(name):
    m = MultiplicityMatrix(3, (1, 1, 2, 1, 2, 2))
    with pytest.raises(AttributeError):
        setattr(m, name, getattr(m, name, 1))
    if name != "other":
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m == GOLDEN and m.degree == 6 and not hasattr(m, "other")


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_keep_the_matrix_and_its_derived_values(duplicate):
    for m in (GOLDEN, MultiplicityMatrix(1, (3,)), MultiplicityMatrix(4, (2, 1, 3, 1, 1, 2, 2, 1, 1, 3))):
        twin = duplicate(m)
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
        assert [getattr(twin, name) for name in DERIVED] == [getattr(m, name) for name in DERIVED]


@given(multiplicity_matrices())
def test_row_sums_partition_total(m):
    assert sum(m.row_sums) == sum(m.mult)


@given(multiplicity_matrices())
def test_restriction_degree_identity(m):
    assert m.restriction_degree == m.degree - m.row_sum(1) + 1
    if m.rank >= 2:
        assert m.restriction_degree == m.restriction().degree


def test_rejects_nonpositive_multiplicity():
    with pytest.raises(ValueError):
        MultiplicityMatrix(2, (1, 0, 1))
    with pytest.raises(ValueError):
        MultiplicityMatrix(2, (1, -2, 1))


def test_rejects_wrong_entry_count():
    with pytest.raises(ValueError):
        MultiplicityMatrix(2, (1, 1))
    with pytest.raises(ValueError):
        MultiplicityMatrix(0, ())


@pytest.mark.parametrize("row", [0, 4])
def test_row_sum_out_of_range(row):
    with pytest.raises(ValueError, match="out of range"):
        GOLDEN.row_sum(row)


def test_rejects_non_integer_rank():
    with pytest.raises(ValueError, match="integer"):
        MultiplicityMatrix(2.0, (1, 1, 1))


def test_rejects_booleans():
    with pytest.raises(ValueError):
        MultiplicityMatrix(2, (1, True, 1))
    with pytest.raises(ValueError):
        MultiplicityMatrix(True, (1,))


@pytest.mark.parametrize("mult, pair", [
    ((1, 0, -1), "m[1,3]"),
    ((1, 1, 1.0), "m[2,3]"),
    ((False, 1, 1), "m[1,2]"),
    ((2, "1", 0), "m[1,3]"),
])
def test_rejection_names_the_first_bad_entry(mult, pair):
    with pytest.raises(ValueError, match=rf"^multiplicity {re.escape(pair)} must be a positive integer$"):
        MultiplicityMatrix(2, mult)
