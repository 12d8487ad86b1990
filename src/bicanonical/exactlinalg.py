"""Exact linear algebra over the integers.

Everything downstream (interpolation ranks, definiteness tests, function-field
lattice membership) reduces to three primitives on matrices with integer
entries: rank over Q, integer determinants, and membership of a vector in the
Z-span of a set of integer rows.  No floating point anywhere.

The rank is certified mod a fixed prime first: the rank mod P never exceeds
the rank over Q, so a matrix of full rank mod P has full rank over Q.  Only
when the rank mod P falls short is the rank computed by gcd-normalised
integer elimination, whose entries can grow with every step.
"""

from __future__ import annotations

from math import gcd


# The prime of the full-rank certificate, the largest below 2^30, so that
# residues are single 30-bit digits of a Python int.  Over the fat-point
# matrices of the linsys benchmark sweep it ranks within 3% of 1,000,003
# and 32,749, while 2^31 - 1 takes 1.3 times as long; and unlike a prime
# below the 2^16 coordinate cap it divides no nonzero input coordinate.  A
# matrix of full rank over Q falls short mod P only when P divides all of
# its maximal minors.
RANK_PRIME = 1_073_741_789


def exact_rank(rows) -> int:
    """Rank over Q of a matrix with integer entries.

    The rank mod RANK_PRIME is computed first.  It never exceeds the rank
    over Q (a minor that vanishes over Q vanishes mod P), so when it equals
    min(nonzero rows, columns) it is the rank, proved.  Otherwise the rank
    is computed by gcd-normalised integer elimination (_integer_rank).
    Rows of different lengths are a ValueError.
    """
    work = list(rows)
    if len(set(map(len, work))) > 1:
        raise ValueError("matrix rows have different lengths")
    work = [row for row in work if any(row)]
    if not work:
        return 0
    full = min(len(work), len(work[0]))
    rank = _rank_mod_p(work)
    if rank == full:
        return rank
    return _integer_rank(work)


def _rank_mod_p(rows) -> int:
    """Rank mod RANK_PRIME of integer rows of one length, column by column:
    the first row that is nonzero in the first column becomes the pivot,
    every other row becomes p*row - c*pivot mod P (p and c their entries in
    that column, so no inverse is taken), the column is dropped, and the
    rank is the number of pivots."""
    P = RANK_PRIME
    work = [[v % P for v in row] for row in rows]
    rank = 0
    while work and work[0]:
        for i, row in enumerate(work):
            if row[0]:
                break
        else:  # no pivot in this column
            work = [row[1:] for row in work]
            continue
        pivot = work.pop(i)
        p, pivot = pivot[0], pivot[1:]
        work = [[(p * u - c * v) % P for u, v in zip(row[1:], pivot)] if (c := row[0]) else row[1:]
                for row in work]
        rank += 1
    return rank


def _integer_rank(rows) -> int:
    """Rank over Q of integer rows of one length, by integer elimination.

    A nonzero row becomes the pivot, and every other row that is nonzero in
    the pivot's first nonzero column becomes p*row - a*pivot, divided by its
    gcd (dropped when it is zero).  Rows already zero in that column are
    left alone.  The rank is the number of pivots.
    """
    work = [row for row in rows if any(row)]
    rank = 0
    while work:
        pivot = work.pop()
        col = next(c for c, v in enumerate(pivot) if v)
        p = pivot[col]
        rank += 1
        rest = []
        for row in work:
            a = row[col]
            if a:
                row = [p * u - a * v for u, v in zip(row, pivot)]
                g = gcd(*row)
                if g == 0:
                    continue
                if g > 1:
                    row = [u // g for u in row]
            rest.append(row)
        work = rest
    return rank


def integer_det(matrix) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    mat = [list(map(int, row)) for row in matrix]
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                mat[r][c] = (mat[r][c] * mat[col][col] - mat[r][col] * mat[col][c]) // prev
            mat[r][col] = 0
        prev = mat[col][col]
    return sign * prev


def leading_principal_minors(matrix) -> list[int]:
    """The determinants of the top-left k-by-k blocks, k = 1..n."""
    n = len(matrix)
    return [integer_det([row[: k + 1] for row in matrix[: k + 1]]) for k in range(n)]


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_row_echelon(rows) -> list[list[int]]:
    """Echelon basis of the Z-row-lattice spanned by the given integer rows.

    Only unimodular row operations (extended-gcd combinations of row pairs)
    are used, so the returned rows span exactly the same integer lattice.
    Pivot columns strictly increase, pivots are positive, and rows of
    different lengths are a ValueError.
    """
    work = [list(map(int, r)) for r in rows]
    if len(set(map(len, work))) > 1:
        raise ValueError("matrix rows have different lengths")
    work = [r for r in work if any(r)]
    if not work:
        return []
    n_cols = len(work[0])
    echelon: list[list[int]] = []
    col = 0
    while work and col < n_cols:
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            col += 1
            continue
        pivot_row = nz[0]
        for other in nz[1:]:
            a, b = pivot_row[col], other[col]
            g, x, y = _xgcd(a, b)
            # the 2x2 matrix [[x, y], [-b//g, a//g]] has determinant 1
            combined = [x * u + y * v for u, v in zip(pivot_row, other)]
            cleared = [(-b // g) * u + (a // g) * v for u, v in zip(pivot_row, other)]
            pivot_row = combined
            if any(cleared):
                rest.append(cleared)
        if pivot_row[col] < 0:
            pivot_row = [-u for u in pivot_row]
        echelon.append(pivot_row)
        work = rest
        col += 1
    return echelon


def in_row_lattice(target, rows) -> bool:
    """Is `target` an integer combination of the given integer rows?"""
    echelon = integer_row_echelon(rows)
    t = list(map(int, target))
    if echelon and len(t) != len(echelon[0]):
        raise ValueError("target length does not match the generators")
    for row in echelon:
        col = next(i for i, v in enumerate(row) if v != 0)
        if t[col] % row[col] != 0:
            return False
        q = t[col] // row[col]
        t = [u - q * v for u, v in zip(t, row)]
    return not any(t)
