"""The Z_5 x Z_5 quotient of the product of two Fermat quintics.

The group element (a, b) scales the plane coordinates by (eps^a, eps^b, 1).
A bicanonical monomial on the product,

    x^i y^j z^(4-i-j) * x1^alpha y1^beta z1^(4-alpha-beta),

picks up the fifth root of unity with exponent

    l = a (2 + i + alpha - beta) + b (3 + j + alpha + 2 beta)   (mod 5)

under the graph action of (a, b) (the automorphism sends (1,0) to (1,-1) and
(0,1) to (1,2)).  Filtering all 225 monomials by l = 0 for every (a, b)
produces a 9-dimensional invariant basis; ratios of those monomials generate
the function field of the bicanonical image, and membership questions in
that field reduce to exact integer lattice computations on exponent vectors.
The residual group G = (G x G)/Gamma acts on the invariant monomials by the
weight of (0, g), the representative of the class of g, so its characters
and kernel are computed in G itself.
"""

from __future__ import annotations

import itertools

from . import beauville
from .covers import CoverInvariants, InternalInconsistency, Verdict, make_verdict
from .exactlinalg import in_row_lattice, integer_row_echelon
from .grouplib import AbelianGroup, Automorphism, Subgroup, common_kernel

FERMAT_GROUP = AbelianGroup((5, 5))
FERMAT_GENERATORS = FERMAT_GROUP.generators()
FERMAT_DEGREE = 5
FERMAT_GENUS = (FERMAT_DEGREE - 1) * (FERMAT_DEGREE - 2) // 2  # plane curve genus


def fermat_psi() -> Automorphism:
    """The gluing automorphism: (1,0) -> (1,-1) and (0,1) -> (1,2)."""
    return Automorphism.from_images(FERMAT_GROUP, [(1, -1), (1, 2)])


_VARIABLES = ("x", "y", "z", "x1", "y1", "z1")


class BiMonomial:
    """Exponent data (i, j; alpha, beta) of the bicanonical monomial
    x^i y^j z^(4-i-j) x1^alpha y1^beta z1^(4-alpha-beta)."""

    def __init__(self, i: int, j: int, alpha: int, beta: int):
        self.i, self.j, self.alpha, self.beta = i, j, alpha, beta
        if min(i, j, alpha, beta) < 0:
            raise ValueError("exponents must be nonnegative")
        if i + j > 4 or alpha + beta > 4:
            raise ValueError("each factor has total degree 4")

    def exponents(self) -> tuple[int, int, int, int, int, int]:
        return (self.i, self.j, 4 - self.i - self.j,
                self.alpha, self.beta, 4 - self.alpha - self.beta)

    def __str__(self):
        parts = []
        for var, e in zip(_VARIABLES, self.exponents()):
            if e == 0:
                continue
            parts.append(var if e == 1 else f"{var}^{e}")
        return "*".join(parts) if parts else "1"


def weight_coefficients(i: int, j: int, alpha: int, beta: int) -> tuple[int, int]:
    """The closed weight formula: the monomial of exponents (i, j; alpha,
    beta) picks up the exponent a A + b B (mod 5) under the graph action of
    (a, b), for the returned (A, B).  The one home of the formula, used by
    invariant_monomials() and the exhaustive check."""
    return 2 + i + alpha - beta, 3 + j + alpha + 2 * beta


def factor_weight(u, i: int, j: int) -> int:
    """First-principles weight of u = (a, b) on one quintic: a bicanonical
    monomial of exponents (i, j) transforms with exponent a(i+2) + b(j+2),
    because a regular 1-form is the residue of g/(quintic) dx dy dz with
    deg g = 2 and the volume form itself contributes a + b."""
    a, b = u
    return (a * (i + 2) + b * (j + 2)) % 5


def verify_weight_derivation() -> bool:
    """Check that the closed weight formula agrees with the factorwise action
    of (g, psi(g)) at every one of the 5^6 residue tuples (a, b, i, j, alpha,
    beta) mod 5, without listing them.

    Write x = (i, j) and y = (alpha, beta).  The direct weight of g = (a, b)
    is the outer sum L(x) + R(y) of the factor tables L of g and R of psi(g);
    the closed one is a A(x, y) + b B(x, y).  As G holds (1, 0) and (0, 1),
    agreement forces A and B to be outer sums as well, that is separable mod
    5: A(x, y) = A(x, 0) + A(0, y) - A(0, 0), and likewise B, at all 625
    pairs (x, y).  Then the closed weight of g is the outer sum of
    P(x) = a A(x, 0) + b B(x, 0) and Q(y) = a (A(0, y) - A(0, 0)) +
    b (B(0, y) - B(0, 0)), and two outer sums agree at every entry exactly
    when L - P and R - Q are constants whose sum is 0 mod 5.  So the 625
    closed pairs are tested once for separability, and each g compares 25 + 25
    values, with the verdict of the comparison at all 5^6 tuples.  The factor
    table of each of the 25 elements is computed once, and R is the table of
    psi(g)."""
    psi = fermat_psi()
    residues = list(itertools.product(range(5), repeat=2))
    table = [[weight_coefficients(i, j, alpha, beta) for alpha, beta in residues]
             for i, j in residues]
    first = table[0]  # x = (0, 0)
    A00, B00 = first[0]
    for row in table:
        Ax0, Bx0 = row[0]
        for (A, B), (A0y, B0y) in zip(row, first):
            if (A - Ax0 - A0y + A00) % 5 or (B - Bx0 - B0y + B00) % 5:
                return False
    p_pairs = [row[0] for row in table]
    q_pairs = [(A - A00, B - B00) for A, B in first]
    elements = FERMAT_GROUP.elements()
    # the factor table of every element, once: psi(u) is again an element
    factor = {u: [factor_weight(u, i, j) for i, j in residues] for u in elements}
    for u in elements:
        a, b = u
        left = {(w - a * A - b * B) % 5 for w, (A, B) in zip(factor[u], p_pairs)}
        right = {(w - a * A - b * B) % 5 for w, (A, B) in zip(factor[psi(u)], q_pairs)}
        if len(left) != 1 or len(right) != 1 or (left.pop() + right.pop()) % 5:
            return False
    return True


def invariant_monomials() -> list[BiMonomial]:
    """The monomials invariant under the whole graph action: both closed
    coefficients vanish mod 5 (weight 0 for the two generators suffices,
    hence for all 25 elements).  Only the survivors become BiMonomials."""
    return [BiMonomial(i, j, alpha, beta)
            for i in range(5) for j in range(5 - i)
            for alpha in range(5) for beta in range(5 - alpha)
            for A, B in [weight_coefficients(i, j, alpha, beta)]
            if A % 5 == 0 and B % 5 == 0]


class RatioVector:
    """Exponent vector in Z^6 of a ratio of bidegree-(4,4) monomials; the
    exponents over each factor's variables sum to zero."""

    def __init__(self, exponents: tuple[int, int, int, int, int, int]):
        self.exponents = exponents
        if len(exponents) != 6:
            raise ValueError("need six exponents")
        if sum(exponents[:3]) != 0 or sum(exponents[3:]) != 0:
            raise ValueError("a ratio has degree zero on each factor")

    @classmethod
    def of(cls, **exps) -> "RatioVector":
        unknown = set(exps) - set(_VARIABLES)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        return cls(tuple(int(exps.get(v, 0)) for v in _VARIABLES))


def monomial_ratio(m1: BiMonomial, m2: BiMonomial) -> RatioVector:
    return RatioVector(tuple(a - b for a, b in zip(m1.exponents(), m2.exponents())))


def combination_vector(combo) -> tuple[int, ...]:
    total = [0] * 6
    for monomial, power in combo:
        for k, e in enumerate(monomial.exponents()):
            total[k] += power * e
    return tuple(total)


def verify_ratio_identity(target: RatioVector, combo) -> bool:
    """Does the product of the given monomial powers equal the target ratio?
    Exponent-vector equality is enough: the single relation on the quintic is
    additive and never identifies distinct monomials."""
    return combination_vector(combo) == target.exponents


def ratio_lattice(monomials) -> list[RatioVector]:
    """Generators of the lattice of ratios: m / m0 for a fixed base monomial.
    Any base gives the same lattice since differences of differences span it."""
    ms = list(monomials)
    if len(ms) < 2:
        return []
    base = ms[0]
    return [monomial_ratio(m, base) for m in ms[1:]]


def x5_over_z5() -> RatioVector:
    return RatioVector.of(x=5, z=-5)


def x1_5_over_z1_5() -> RatioVector:
    return RatioVector.of(x1=5, z1=-5)


def builtin_ratio_identities(monomials) -> list[
        tuple[str, RatioVector, list[tuple[BiMonomial, int]]]]:
    """The two displayed factorisations of the quotient-map coordinate
    functions as products of the given invariant monomials.  A named
    monomial that is not among them is an InternalInconsistency: the weight
    formula has drifted."""
    m = {str(mono): mono for mono in monomials}
    try:
        first = [(m["x^3*y*x1^2*y1^2"], 1), (m["x^4*y1*z1^3"], 1),
                 (m["x^2*y*z*x1*z1^3"], -1), (m["z^4*x1*y1^3"], -1)]
        second = [(m["z^4*x1*y1^3"], 2), (m["y^3*z*y1^2*z1^2"], 1),
                  (m["x^3*y*x1^2*y1^2"], 2), (m["x^2*y*z*x1*z1^3"], -1),
                  (m["x*y*z^2*y1^3*z1"], -4)]
    except KeyError as exc:
        raise InternalInconsistency(f"the ratio identities use {exc.args[0]}, "
                                    "which is not an invariant monomial") from None
    return [("x^5/z^5", x5_over_z5(), first),
            ("x1^5/z1^5", x1_5_over_z1_5(), second)]


def residual_character(m: BiMonomial) -> tuple[int, int]:
    """Coordinates of the character by which the residual group
    G = (G x G)/Gamma scales an invariant monomial.  Under (a, b) -> b - psi(a)
    the class of g has the representative (0, g), which acts on the second
    factor alone."""
    return FERMAT_GROUP.reduce(
        [factor_weight(gen, m.alpha, m.beta) for gen in FERMAT_GENERATORS])


def residual_kernel(monomials) -> Subgroup:
    """Elements of the residual group acting trivially on every ratio of the
    given monomials: the common kernel of the difference characters, which
    is all of G for fewer than two monomials."""
    chars = [residual_character(m) for m in monomials]
    diffs = [FERMAT_GROUP.reduce([c - b for c, b in zip(chi, chars[0])]) for chi in chars[1:]]
    return common_kernel(diffs, FERMAT_GROUP)


def fermat_fixed_elements() -> frozenset[tuple[int, int]]:
    """Coordinates of the elements of G with fixed points on the Fermat
    quintic, in the form beauville.is_free reads.

    (a, b) acts as diag(eps^a, eps^b, 1); a point with all coordinates
    nonzero forces a = b = 0, and the quintic meets each coordinate line
    {x = 0}, {y = 0}, {z = 0} (but no coordinate point), so the elements with
    fixed points are exactly those of shape (a, 0), (0, b) and (a, a).
    """
    return frozenset(coords for t in range(1, 5) for coords in ((t, 0), (0, t), (t, t)))


class FermatReport:
    def __init__(self, invariants: CoverInvariants, action_free: bool,
                 monomials: list[BiMonomial], weight_identity: bool,
                 ratio_checks: list[tuple[str, bool]],
                 lattice_memberships: list[tuple[str, bool]], kernel: Subgroup, verdict: Verdict):
        self.invariants, self.action_free, self.monomials = invariants, action_free, monomials
        self.weight_identity, self.ratio_checks = weight_identity, ratio_checks
        self.lattice_memberships, self.kernel, self.verdict = lattice_memberships, kernel, verdict


def fermat_report() -> FermatReport:
    """End-to-end analysis of the quotient surface: invariants, invariant
    monomial basis, the function-field lattice facts, and the verdict on the
    bicanonical map."""
    psi = fermat_psi()
    fixed = fermat_fixed_elements()
    free, witness = beauville.is_free(psi, fixed, fixed)
    if not free:
        raise InternalInconsistency(f"the graph action has a fixed point at {witness}")
    invariants = beauville.beauville_invariants(FERMAT_GENUS, FERMAT_GENUS,
                                                FERMAT_GROUP.order)
    monomials = invariant_monomials()
    # one echelon basis of the ratio lattice serves both memberships
    basis = integer_row_echelon([g.exponents for g in ratio_lattice(monomials)])
    ratio_checks = [(name, verify_ratio_identity(target, combo))
                    for name, target, combo in builtin_ratio_identities(monomials)]
    memberships = [("x^5/z^5", in_row_lattice(x5_over_z5().exponents, basis)),
                   ("x1^5/z1^5", in_row_lattice(x1_5_over_z1_5().exponents, basis))]
    kernel = residual_kernel(monomials)
    return FermatReport(invariants, free, monomials, verify_weight_derivation(),
                        ratio_checks, memberships, kernel, make_verdict(kernel))
