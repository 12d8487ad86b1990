from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicanonical.exactlinalg import (exact_rank, in_row_lattice, integer_det,
                                     integer_row_echelon, leading_principal_minors)


def gauss_rank(rows):
    """Independent oracle: plain Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows if row]
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, n_rows):
            factor = mat[r][col] / mat[rank][col]
            for c in range(col, n_cols):
                mat[r][c] -= factor * mat[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def permutation_det(matrix):
    """Independent oracle: Leibniz expansion (fine for n <= 5)."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


_entry = st.one_of(st.integers(-6, 6), st.integers(-10 ** 12, 10 ** 12))
matrix_strategy = st.integers(1, 6).flatmap(
    lambda cols: st.lists(
        st.one_of(st.lists(_entry, min_size=cols, max_size=cols), st.just([0] * cols)),
        min_size=1, max_size=7))


@given(matrix_strategy)
@settings(max_examples=150)
def test_rank_matches_fraction_gauss(rows):
    assert exact_rank(rows) == gauss_rank(rows)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=150)
def test_det_matches_leibniz(matrix):
    assert integer_det(matrix) == permutation_det(matrix)


def test_rank_degenerate():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[0, 3]]) == 1
    # rows given as an iterator are read once
    assert exact_rank(iter([[0, 3], [1, 1]])) == 2
    assert integer_row_echelon(iter([[2, 0], [3, 0]])) == [[1, 0]]


@pytest.mark.parametrize("rows", [[[1, 2, 3], [1, 2]], [[1, 2], [0, 0, 0]], [[0], [0, 0]]])
def test_ragged_rows_are_a_value_error(rows):
    # zip would cut every row to the shortest and rank the truncation
    with pytest.raises(ValueError, match="rows have different lengths"):
        exact_rank(rows)
    with pytest.raises(ValueError, match="rows have different lengths"):
        integer_row_echelon(rows)


def test_leading_principal_minors():
    assert leading_principal_minors([[-3, 0, 1], [0, -3, 1], [1, 1, -2]]) == [-3, 9, -12]
    assert leading_principal_minors([[2]]) == [2]


def test_det_non_square_rejected():
    with pytest.raises(ValueError):
        integer_det([[1, 2, 3], [4, 5, 6]])


def test_echelon_spans_same_lattice():
    rows = [[2, 4, 0], [3, 6, 1], [0, 0, 5]]
    echelon = integer_row_echelon(rows)
    # every original row reduces to zero against the echelon basis
    for row in rows:
        assert in_row_lattice(row, echelon)
    for row in echelon:
        assert in_row_lattice(row, rows)


def test_membership_known_cases():
    assert in_row_lattice([1, 0], [[2, 0], [3, 0]])        # gcd(2,3) = 1
    assert not in_row_lattice([1, 0], [[2, 0]])
    assert in_row_lattice([0, 0, 0], [])
    assert not in_row_lattice([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
    assert in_row_lattice([5, -5, 0], [[1, -1, 0], [0, 5, -5]])


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=100)
def test_integer_combinations_are_members(gens, coeffs):
    target = [sum(c * row[k] for c, row in zip(coeffs, gens)) for k in range(3)]
    assert in_row_lattice(target, gens)


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
@settings(max_examples=100)
def test_members_lie_in_rational_span(gens, target):
    # membership in the integer lattice implies membership in the Q-span,
    # detected by a rank comparison
    if in_row_lattice(target, gens):
        assert exact_rank(gens + [target]) == exact_rank(gens)
