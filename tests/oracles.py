"""Second routes and fixtures that only the tests use.

Each function here recomputes or builds something the library does not
need for its own outputs: Riemann-Hurwitz over Q (against covers.rh_genus),
point parsing through Fraction (against the integer parsing of
linsys.ProjectivePoint), projectivities of a configuration (h^0 is invariant
under them), group addition and the character pairing on coordinate tuples,
the span of generators by coset closure (against the kernel scan
grouplib._annihilated), the inverse of an automorphism, the image of one
element by a dot product with each matrix row (against the image table of
grouplib.Automorphism), the automorphism check by an exhaustive scan of the
group (against the listed images of grouplib.Automorphism), the pullback
chi o psi of one character (against the columns of
beauville.minus_pullbacks) and its untransposed misreading (which the
descent check must catch), the charged degree of one character by one
pairing per branch element (against the table of
covers.BranchDataP1.charged_degrees and the dual-basis degrees of its
validation), fixed points and graph freeness by repeated addition (against
the multiples of beauville.fixed_point_elements and is_free), the 225
Fermat bimonomials, the Fermat weight check at all 5^6 residue tuples
(against fermat.verify_weight_derivation), the intersection number as the
full Gram product (against the nonzero entries that
piclattice.DivisorClass.dot sums), membership of a ratio in the
lattice spanned by generators, brought to echelon form anew for each
target (against the one shared basis of fermat.fermat_report), the
dual-basis line bundle degrees of P^1 branch data, and the Inoue building
data.  The library does not import this module.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm

from bicanonical.covers import BranchDataSurface, InvalidCoverData
from bicanonical.exactlinalg import in_row_lattice
from bicanonical.fermat import BiMonomial
from bicanonical.grouplib import Automorphism, GroupError
from bicanonical.linsys import PointConfig, ProjectivePoint
from bicanonical.piclattice import quadrilateral_catalog


def rh_genus_numeric(cover_degree: int, branch) -> int:
    """Riemann-Hurwitz over P^1 with branch points given as (count, inertia
    order) pairs: 2 - 2g = deg * (2 - sum over branch points of (1 - 1/ord))."""
    if cover_degree < 1:
        raise InvalidCoverData("a cover has degree >= 1")
    ram = Fraction(0)
    for count, order in branch:
        ram += count * (1 - Fraction(1, order))
    chi_top = cover_degree * (2 - ram)
    if chi_top.denominator != 1:
        raise InvalidCoverData("Riemann-Hurwitz gives a non-integral Euler number")
    chi_top = int(chi_top)
    if chi_top % 2 != 0:
        raise InvalidCoverData("Riemann-Hurwitz gives an odd Euler number")
    return (2 - chi_top) // 2


_COORDINATE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def to_fraction(x) -> Fraction:
    """An exact point coordinate as a Fraction: an int, a Fraction or a string
    "p" or "p/q"; a float, an exponent or a decimal string is refused."""
    if isinstance(x, float):
        raise TypeError("point coordinates must be exact (int, Fraction or 'p/q' string)")
    if isinstance(x, str) and not _COORDINATE.fullmatch(x):
        raise ValueError(f"point coordinate {x!r} is not an integer or a fraction p/q")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"point coordinate {x!r} has a zero denominator") from None


def fraction_point(coords) -> tuple[int, int, int]:
    """The coprime integer triple of a point, by way of Fractions: each
    coordinate reduced, scaled by the lcm of the denominators, divided by
    the gcd, signs kept."""
    values = [to_fraction(c) for c in coords]
    if len(values) != 3 or not any(values):
        raise ValueError("a projective point needs three coordinates, not all zero")
    denom = lcm(*(c.denominator for c in values))
    ints = [c.numerator * (denom // c.denominator) for c in values]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def apply_projectivity(cfg: PointConfig, matrix) -> PointConfig:
    """Transform every point by an exact invertible 3x3 matrix; incidence
    assertions carry over (projectivities preserve collinearity)."""
    (a, b, c), (d, e, f), (g, h, i) = matrix
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 0:
        raise ValueError("projectivity matrix is singular")
    new_points = tuple(ProjectivePoint(tuple(sum(x * y for x, y in zip(row, p.coords))
                                             for row in matrix))
                       for p in cfg.points)
    return PointConfig(new_points, cfg.labels, cfg.incidences)


def _same_rank(group, *vectors) -> None:
    """GroupError unless every vector has one coordinate per factor, so that
    zip never cuts one short."""
    if any(len(v) != group.rank for v in vectors):
        raise GroupError("coordinate length does not match the group rank")


def add(group, x, y) -> tuple[int, ...]:
    """x + y in the group, for coordinate tuples (on tuples + concatenates)."""
    _same_rank(group, x, y)
    return tuple((a + b) % m for a, b, m in zip(x, y, group.moduli))


def neg(group, x) -> tuple[int, ...]:
    """-x in the group."""
    _same_rank(group, x)
    return tuple(-a % m for a, m in zip(x, group.moduli))


def pairing(group, chi, g) -> int:
    """The exponent of the root of unity chi(g) modulo the group exponent:
    sum chi_i g_i weight_i, for coordinate tuples of the group."""
    _same_rank(group, chi, g)
    return sum(c * x * w for c, x, w in zip(chi, g, group.weights)) % group.exponent


def span(group, generators) -> frozenset[tuple[int, ...]]:
    """The subgroup generated by the given coordinate tuples, by coset
    closure.  A generator already in the subgroup H so far adds nothing; any
    other adds the cosets H + k*gen for k = 1..r-1, where r is the least
    integer with r*gen in H, so no sum is formed twice."""
    members = [(0,) * group.rank]
    seen = set(members)
    for gen in generators:
        step, multiples = gen, []          # gen, 2*gen, ..., (r-1)*gen
        while step not in seen:
            multiples.append(step)
            step = add(group, step, gen)
        cosets = [add(group, h, k) for k in multiples for h in members]
        members += cosets
        seen.update(cosets)
    return frozenset(members)


def inverse(psi: Automorphism) -> Automorphism:
    """The inverse automorphism, read off the whole group."""
    lookup = {psi(g): g for g in psi.group.elements()}
    return Automorphism.from_images(psi.group, [lookup[gen] for gen in psi.group.generators()])


def matrix_image(matrix, moduli, coords) -> tuple[int, ...]:
    """The arithmetic route of an automorphism: the reduced coordinates of
    the image of coords, one dot product with each row of the matrix."""
    return tuple(sum(a * c for a, c in zip(row, coords)) % m for row, m in zip(matrix, moduli))


def automorphism_error(group, matrix) -> str | None:
    """The message with which the exhaustive check rejects a matrix over the
    group, or None if it is an automorphism: the shape, then the
    homomorphism condition on every entry, then one image per element,
    found by applying the matrix to every coordinate vector of the group."""
    moduli, n = group.moduli, group.rank
    if len(matrix) != n or any(len(row) != n for row in matrix):
        return "automorphism matrix has the wrong shape"
    if any((moduli[j] * matrix[i][j]) % moduli[i] for i in range(n) for j in range(n)):
        return "matrix does not define a homomorphism"
    images = {matrix_image(matrix, moduli, coords)
              for coords in itertools.product(*(range(m) for m in moduli))}
    if len(images) != group.order:
        return "matrix is not invertible over the group"
    return None


def pullback(psi: Automorphism, chi) -> tuple[int, ...]:
    """The coordinates of chi o psi, for the coordinates of a character chi
    of psi's group.  Coordinate j of e_i o psi is M[i][j] m_j / m_i modulo
    m_j, an integer by the homomorphism check, so the matrix acts
    transposed."""
    group, matrix = psi.group, psi.matrix
    _same_rank(group, chi)
    moduli = group.moduli
    return tuple(sum(c * matrix[i][j] * m // moduli[i] for i, c in enumerate(chi)) % m
                 for j, m in enumerate(moduli))


def untransposed_minus_pullbacks(psi: Automorphism) -> list[tuple[int, ...]]:
    """A wrong Gamma-perp, for tests of the descent check: its first factors
    with the matrix acting on characters untransposed, -psi(chi) in place of
    -(chi o psi)."""
    return [neg(psi.group, psi(chi)) for chi in psi.group.coordinate_vectors()]


def charged_degree(data, chi) -> int:
    """Total branch degree of P^1 branch data on the elements outside
    ker(chi), for the coordinates of a character chi of its group: one
    pairing per branch element."""
    _same_rank(data.group, chi)
    return sum(d for g, d in data.degrees.items() if pairing(data.group, chi, g))


def fixed_elements_of(data) -> frozenset[tuple[int, ...]]:
    """The elements with fixed points on a P^1 cover: the multiples of each
    branch element, by repeated addition, until they reach zero."""
    fixed = set()
    for gamma in data.degrees:
        power = gamma
        while any(power):
            fixed.add(power)
            power = add(data.group, power, gamma)
    return frozenset(fixed)


def free_with_witness(psi: Automorphism, fix1, fix2) -> tuple[bool, tuple[int, ...] | None]:
    """Freeness of the graph of psi: the nonzero elements g of fix1 with
    psi(g) in fix2, and the least of them."""
    violations = sorted(g for g in fix1 if psi(g) in fix2 and any(g))
    return (False, violations[0]) if violations else (True, None)


def all_bimonomials() -> list[BiMonomial]:
    """All 225 bicanonical monomials, lexicographic in (i, j, alpha, beta)."""
    return [BiMonomial(i, j, a, b)
            for i in range(5) for j in range(5 - i)
            for a in range(5) for b in range(5 - a)]


def weight_derivation_at_all_tuples(factor_weight, weight_coefficients, psi) -> bool:
    """The Fermat weight check by direct comparison at all 5^6 residue tuples
    (a, b, i, j, alpha, beta): for each g = (a, b) of psi's group, the 625
    sums factor_weight(g, i, j) + factor_weight(psi(g), alpha, beta) against
    the 625 closed values a A + b B, all mod 5."""
    residues = list(itertools.product(range(5), repeat=2))
    coefficients = [weight_coefficients(i, j, alpha, beta)
                    for i, j in residues for alpha, beta in residues]
    for u in psi.group.elements():
        v = psi(u)
        a, b = u
        left = [factor_weight(u, i, j) for i, j in residues]
        right = [factor_weight(v, alpha, beta) for alpha, beta in residues]
        direct = [(x + y) % 5 for x in left for y in right]
        if direct != [(a * A + b * B) % 5 for A, B in coefficients]:
            return False
    return True


def gram_product(a, b) -> int:
    """The intersection number a . b as the full product a G b over every
    entry of the Gram matrix G, zeros included."""
    g = a.lattice.gram
    return sum(a.coeffs[i] * g[i][j] * b.coeffs[j]
               for i in range(len(g)) for j in range(len(g)))


def field_lattice_contains(target, generators) -> bool:
    """Exact membership of an exponent tuple in the Z-span of the given
    exponent tuples, with the generators brought to echelon form for this one
    target."""
    return in_row_lattice(target, generators)


def dual_basis_degrees(group, data) -> tuple[int, ...]:
    """The line bundle degrees forced by the branch divisors (degree of L_i is
    half the branch degree charged by the i-th dual basis character)."""
    out = []
    for i in range(group.rank):
        chi = group.generators()[i]
        s = charged_degree(data, chi)
        if s % 2 != 0:
            raise InvalidCoverData(f"charged branch degree {s} for character {chi} is odd")
        out.append(s // 2)
    return tuple(out)


def inoue_building_data() -> BranchDataSurface:
    """Building data of the Z_2 x Z_2 cover of the quadrilateral blowup whose
    minimal model is the Inoue surface with K^2 = 7: branch classes assembled
    from the catalog divisors (one general member of |f_1| counted twice) and
    the two square roots L_1, L_2."""
    cat = quadrilateral_catalog()
    comps = ((cat.Delta[0], cat.f[1], cat.S[0], cat.S[1]),
             (cat.Delta[1], cat.f[2]),
             (cat.Delta[2], cat.f[0], cat.f[0], cat.S[2], cat.S[3]))
    D = tuple(sum(parts, cat.lattice.zero()) for parts in comps)
    L1 = cat.lattice.cls({"l": 5, "e1": -1, "e2": -2, "e3": -1, "e4": -3, "e5": -2, "e6": -2})
    L2 = cat.lattice.cls({"l": 6, "e1": -2, "e2": -2, "e3": -2, "e4": -2, "e5": -3, "e6": -3})
    return BranchDataSurface(cat.lattice, D, (L1, L2), components=comps)
