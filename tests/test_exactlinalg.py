from fractions import Fraction
from itertools import permutations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicanonical import exactlinalg
from bicanonical.exactlinalg import (RANK_PRIME, _integer_rank, _rank_mod_p, exact_rank,
                                     in_row_lattice, integer_det, integer_row_echelon,
                                     leading_principal_minors)


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


_entry = st.one_of(st.integers(-6, 6), st.integers(-10 ** 12, 10 ** 12),
                   st.integers(-2 ** 250, 2 ** 250))
matrix_strategy = st.integers(1, 6).flatmap(
    lambda cols: st.lists(
        st.one_of(st.lists(_entry, min_size=cols, max_size=cols), st.just([0] * cols)),
        min_size=1, max_size=7))


@given(matrix_strategy)
@settings(max_examples=150)
def test_rank_matches_fraction_gauss(rows):
    assert exact_rank(rows) == _integer_rank(rows) == gauss_rank(rows)


P = RANK_PRIME


def _matmul(b, c):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]


@st.composite
def low_rank_products(draw):
    """B*C with B of shape rows x k and C of shape k x cols, k < min(rows, cols),
    entries small or up to 2^450 (the size framed rows at the coordinate
    cap reach)."""
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    k = draw(st.integers(0, min(rows, cols) - 1))
    bits = draw(st.sampled_from((3, 40, 250, 450)))
    entry = st.integers(-2 ** bits, 2 ** bits)
    b = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=rows, max_size=rows))
    c = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=k, max_size=k))
    return _matmul(b, c) if k else [[0] * cols for _ in range(rows)]


@st.composite
def singular_mod_p(draw):
    """L + P*N with L of rank below min(rows, cols): the rank mod P is at most
    that of L, while over Q the matrix usually has full rank, so exact_rank
    must fall back to integer elimination."""
    low = draw(low_rank_products())
    noise = st.integers(-2 ** 40, 2 ** 40)
    return [[u + P * draw(noise) for u in row] for row in low]


@given(st.one_of(low_rank_products(), singular_mod_p()))
@example([[2 * P, -P, 3 * P], [1, 2, 3], [-4, 5, 6]])
@example([[0, 1 + P, 1], [0, 1, 1 + P]])
@settings(max_examples=150, deadline=None)
def test_both_rank_routes_match_fraction_gauss(rows):
    assert exact_rank(rows) == _integer_rank(rows) == gauss_rank(rows)


def test_full_rank_over_q_but_singular_mod_p_falls_back():
    # rank 2 over Q, rank 1 mod P: the certificate fails and elimination decides
    for rows in ([[1, 1], [1, 1 + P]], [[P, 0], [0, 1]], [[3 * P, 6 * P], [1, 5]]):
        assert _rank_mod_p(rows) == 1
        assert exact_rank(rows) == 2


def _refuse(rows):
    raise AssertionError("a matrix of full rank mod P reached integer elimination")


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4], [5, 6]], [[7, 0, 0, 1]], [[0, 0], [0, 5]],
                                  [[2 ** 300, 1], [1, 2 ** 300]]])
def test_full_rank_mod_p_is_certified_without_elimination(rows):
    with patch.object(exactlinalg, "_integer_rank", _refuse):
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
