"""Product-quotient surfaces S = (C1 x C2) / Gamma.

Two curves C_i are built as G-covers of P^1 from branch data; the graph
Gamma of an automorphism psi of G must act freely on the product, which is a
finite check on the inertia elements of the two covers.  The quotient is a
minimal surface of general type with chi = 1, K^2 = 8, p_g = q = 0, and its
bicanonical system decomposes along the characters of Gamma-perp as sections
of O(b1, b2) twisted down by the product eigensheaves.  Summing the pieces
must give K^2 + chi = 9; the characters with a nonzero piece determine the
subgroup of the residual group acting trivially on the bicanonical image.

Everything is computed in G itself, on coordinate tuples.  Gamma-perp is
{(-(chi o psi), chi)} for the characters chi of G, and (G x G)/Gamma is G
through (a, b) -> b - psi(a), under which (chi1, chi2) in Gamma-perp
descends to chi2: its value on the representative (0, g).  The pullback is
linear, so the first factors -(chi o psi), in the order of the characters
chi, are listed one coordinate at a time by AbelianGroup.linear_values on a
column of the transposed matrix (minus_pullbacks), with no dot product per
character.  Each curve's eigensheaf degrees come from its table of charged
degrees, computed once per curve (BranchDataP1.charged_degrees).  The
descent is checked directly on the graph generators (g, psi(g)), a second
route to Gamma-perp, as weighted dot products.  The fixed points of the two
curves, the freeness test, the contributing characters and their common
kernel, the verdict, are all coordinate tuples.
"""

from __future__ import annotations

from operator import mul

from .covers import (BranchDataP1, CoverInvariants, InternalInconsistency,
                     InvalidCoverData, Verdict, eigensheaf_degrees, genus_from_degrees,
                     make_verdict, rh_genus, validate_building_data)
from .grouplib import Automorphism, Subgroup, common_kernel


def fixed_point_elements(data: BranchDataP1) -> frozenset[tuple[int, ...]]:
    """Coordinates of the elements of G with fixed points on the cover
    curve: every nonzero element of an inertia subgroup <gamma> over a branch
    point, that is k * gamma for 0 < k < ord(gamma)."""
    moduli = data.group.moduli
    return frozenset(tuple(k * c % m for c, m in zip(coords, moduli))
                     for coords, order, _ in data.inertia for k in range(1, order))


def is_free(psi: Automorphism, fix1, fix2) -> tuple[bool, tuple[int, ...] | None]:
    """Does the graph of psi act freely?  (g, psi(g)) has a fixed point on the
    product iff g has one on the first curve and psi(g) has one on the second.
    fix1 and fix2 hold the coordinates of nonzero elements.  Returns (flag,
    witness); the witness is the smallest violating coordinate tuple."""
    violations = [g for g in fix1 if psi(g) in fix2]
    if violations:
        return False, min(violations)
    return True, None


def beauville_invariants(g1: int, g2: int, order: int) -> CoverInvariants:
    """chi = 1, K^2 = 8, p_g = q = 0 for a free product-quotient of curves of
    genera g1, g2 by a group of order (g1 - 1)(g2 - 1)."""
    if (g1 - 1) * (g2 - 1) != order:
        raise InvalidCoverData(
            f"invariant mismatch: (g1-1)(g2-1) = {(g1 - 1) * (g2 - 1)} != |G| = {order}")
    return CoverInvariants(K2=8, chi=1, pg=0, q=0)


def two_k_bidegree(branch1: BranchDataP1, branch2: BranchDataP1) -> tuple[int, int]:
    """Bidegree (b1, b2) of the line bundle on P^1 x P^1 whose pullback is
    2K_S: twice the canonical class of the quadric plus the full branch
    divisor, so b_i = (total branch degree of curve i) - 4.  Only covers with
    all inertia of order 2 are supported."""
    for data in (branch1, branch2):
        if any(order != 2 for _, order, _ in data.inertia):
            raise InvalidCoverData("bidegree formula requires all inertia groups of order 2")
    return branch1.total_degree() - 4, branch2.total_degree() - 4


def _h0_p1xp1(a: int, b: int) -> int:
    return (a + 1) * (b + 1) if a >= 0 and b >= 0 else 0


class EigenEntry:
    def __init__(self, character: tuple[int, ...], bidegree: tuple[int, int], dimension: int):
        self.character = character  # chi1's coordinates, then chi2's: (chi1, chi2) in Gamma-perp
        self.bidegree = bidegree    # of the product eigensheaf M_chi
        self.dimension = dimension


class BicanonicalReport:
    def __init__(self, genera: tuple[int, int], invariants: CoverInvariants,
                 bidegree: tuple[int, int], entries: list[EigenEntry], p2: int,
                 kernel: Subgroup, verdict: Verdict):
        self.genera, self.invariants, self.bidegree = genera, invariants, bidegree
        self.entries, self.p2, self.verdict = entries, p2, verdict
        self.kernel = kernel  # inside G, identified with (G x G)/Gamma


def minus_pullbacks(psi: Automorphism) -> list[tuple[int, ...]]:
    """-(chi o psi) for every character chi of the group of psi, in the order
    of coordinate_vectors(): the first factors of Gamma-perp.  Coordinate j
    of e_i o psi is M[i][j] m_j / m_i, an integer by the homomorphism check,
    so the matrix acts transposed, and coordinate j of chi o psi is the
    linear form of column j rescaled, listed for every chi at once."""
    group, matrix = psi.group, psi.matrix
    moduli = group.moduli
    columns = []
    for j, n in enumerate(moduli):
        pulled = group.linear_values([matrix[i][j] * n // m for i, m in enumerate(moduli)])
        columns.append([-v % n for v in pulled])
    return list(zip(*columns))


def bicanonical_report(psi: Automorphism, branch1: BranchDataP1,
                       branch2: BranchDataP1) -> BicanonicalReport:
    """The bicanonical eigentable and verdict of the quotient of the two
    covers, both of them covers for the group of psi."""
    group = psi.group
    for number, data in enumerate((branch1, branch2), 1):
        if data.group.moduli != group.moduli:
            raise InvalidCoverData(f"curve {number} is a cover for the group "
                                   f"{data.group.moduli}, not for {group.moduli}")
        validate_building_data(data).require(f"curve {number}")

    g1, g2 = rh_genus(branch1), rh_genus(branch2)
    invariants = beauville_invariants(g1, g2, group.order)

    free, witness = is_free(psi, fixed_point_elements(branch1), fixed_point_elements(branch2))
    if not free:
        raise InvalidCoverData(f"the graph action is not free: witness {witness}")

    bidegree = two_k_bidegree(branch1, branch2)
    table1, table2 = eigensheaf_degrees(branch1), eigensheaf_degrees(branch2)
    # the two genus routes must agree before we rely on the tables
    for g, table in ((g1, table1), (g2, table2)):
        if genus_from_degrees(table.values()) != g:
            raise InternalInconsistency("eigensheaf table disagrees with Riemann-Hurwitz")

    # Gamma-perp comes straight from psi: (-(chi2 o psi), chi2) for every
    # character chi2 of G.  minus_pullbacks lists the first factors in the
    # order of coordinate_vectors(), which is the key order of table2
    entries = []
    for (chi2, d2), chi1 in zip(table2.items(), minus_pullbacks(psi)):
        d1 = table1[chi1]
        dim = _h0_p1xp1(bidegree[0] - d1, bidegree[1] - d2)
        entries.append(EigenEntry(chi1 + chi2, (d1, d2), dim))
    entries.sort(key=lambda e: e.character)

    # each contributing pair must kill the graph generators (g, psi(g)); it
    # then descends to its second factor on G = (G x G)/Gamma.  The pairing
    # is a dot product with the weighted coordinates of g and of psi(g).  A
    # row is joined from two rank-sized tuples: CPython frees a tuple(map(...))
    # of length 2 * rank to a free list that only the chi1 + chi2 joins above
    # draw from, which then grows by rank tuples per report up to its cap.
    weights, ex, rank = group.weights, group.exponent, group.rank
    graph = [tuple(map(mul, unit, weights)) + tuple(map(mul, psi(unit), weights))
             for unit in group.generators()]
    contributing = []
    for entry in entries:
        if entry.dimension > 0:
            if any(sum(map(mul, entry.character, row)) % ex for row in graph):
                raise InternalInconsistency(
                    f"character {entry.character} does not vanish on the graph, "
                    "so it does not descend")
            contributing.append(entry.character[rank:])

    p2 = sum(e.dimension for e in entries)
    if p2 != invariants.K2 + invariants.chi:
        raise InternalInconsistency(
            f"eigentable sums to {p2}, expected K^2 + chi = "
            f"{invariants.K2 + invariants.chi}")
    kernel = common_kernel(contributing, group)
    return BicanonicalReport((g1, g2), invariants, bidegree, entries, p2,
                             kernel, make_verdict(kernel))
