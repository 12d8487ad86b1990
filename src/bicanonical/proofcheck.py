"""Mechanical replay of the numeric case analyses excluding bicanonical
degree 4 for K^2 = 7, 8 and degree > 2 for K^2 = 9.

If the bicanonical map of a minimal surface S with p_g = 0 had degree 4, its
image would be a linearly normal surface of degree K^2 in P^(K^2); the
classification of such surfaces pins the image down to (for K^2 = 7) the
anticanonical blowup of the plane in two points, and (for K^2 = 8) either the
Veronese of a quadric or the anticanonical blowup in one point.  Pulling the
hyperplane decomposition H = 2l + l0 back along the degree-4 map yields
double-cover data whose invariants violate the bound K_Y^2 >= 16 (q(Y) - 1)
in every branch; this module recomputes those tables from the lattice
numerics and verifies each contradiction.  The two blowup images share one
builder of the cover 2(K - L) = L0, the K^2 = 7 branch-divisible cover is
derived from that cover's M = K - L, and each lemma 3.2 case of
lemma32_cases records whether its identities hold.
"""

from __future__ import annotations

from .covers import (CoverInvariants, DoubleCoverInput, InternalInconsistency,
                     double_cover_invariants)
from .piclattice import (is_negative_definite, make_blowup_lattice,
                         make_quadric_lattice, pullback_numerics)

BICANONICAL_DEGREE = 4  # the degree assumed for contradiction

# Section counts quoted from the geometry of the classified images; they are
# inputs to the tables, not recomputed here.
H0_TWISTED_CUBIC_RESIDUAL = 4   # h^0(2K_S - L): L maps onto a twisted cubic in P^3
H0_HALF_BRANCH_RESIDUAL = 3     # h^0(2K_S - L - D) in the branch-divisible case
H0_QUADRIC_HYPERPLANE = 4       # h^0 of the pulled-back hyperplane of a quadric
H0_LINE_PLUS_PENCIL = 5         # h^0(L + L0) on the one-point blowup case


def check_corollary(K2_Y: int, q_Y: int) -> bool:
    """The double-cover bound K_Y^2 >= 16 (q(Y) - 1); False is the
    contradiction the case tables aim for."""
    if q_Y < 0:
        raise ValueError("irregularity cannot be negative")
    return K2_Y >= 16 * (q_Y - 1)


class CaseRecord:
    def __init__(self, label: str, cover: DoubleCoverInput, invariants: CoverInvariants,
                 bound_holds: bool):
        self.label, self.cover = label, cover
        self.invariants, self.bound_holds = invariants, bound_holds

    @property
    def contradiction(self) -> bool:
        return not self.bound_holds


EXPECTED_CASE_TUPLES = {
    "K7-irreducible": (16, 2, 4, 3),
    "K7-divisible": (14, 2, 3, 2),
    "K8-veronese": (16, 2, 4, 3),
    "K8-blowup": (24, 3, 5, 3),
}


def _blowup_pullback_numerics(n_points: int):
    """Intersection numbers of L = phi^* l and L0 = phi^* l0 on S, where the
    image is the anticanonical blowup of the plane at n points and l0 is the
    line through them; the hyperplane is 2l + l0, so 2K_S = 2L + L0."""
    lat = make_blowup_lattice(n_points)
    line = lat.basis("l")
    l0 = line
    for i in range(1, n_points + 1):
        l0 = l0 - lat.basis(f"e{i}")
    L_sq = pullback_numerics(BICANONICAL_DEGREE, line, line)
    L_L0 = pullback_numerics(BICANONICAL_DEGREE, line, l0)
    L0_sq = pullback_numerics(BICANONICAL_DEGREE, l0, l0)
    # intersections with K_S = L + L0/2 must be integers
    twoK_L = 2 * L_sq + L_L0
    twoK_L0 = 2 * L_L0 + L0_sq
    twoK_sq = 4 * L_sq + 4 * L_L0 + L0_sq
    if twoK_L % 2 or twoK_L0 % 2 or twoK_sq % 4:
        raise InternalInconsistency("pullback numerics are not integral")
    return {"L_sq": L_sq, "L_L0": L_L0, "L0_sq": L0_sq,
            "K_L": twoK_L // 2, "K_L0": twoK_L0 // 2, "K_sq": twoK_sq // 4}


def _case_blowup(label: str, num: dict, h0_K_plus_M: int) -> DoubleCoverInput:
    """The double cover defined by 2(K - L) = L0, so M = K - L, when the
    image is the anticanonical blowup of the plane at n points, from that
    blowup's pullback numerics: n = 2 for K^2 = 7 (L0 irreducible or a sum
    of two (-3)-curves), n = 1 for K^2 = 8."""
    return DoubleCoverInput(label, chi_base=1, pg_base=0, K2_base=num["K_sq"],
                            M_sq=num["K_sq"] - 2 * num["K_L"] + num["L_sq"],
                            M_K=num["K_sq"] - num["K_L"], h0_K_plus_M=h0_K_plus_M)


def _case_k7_divisible(irreducible: DoubleCoverInput, num: dict) -> DoubleCoverInput:
    """K^2 = 7, the etale cover defined by 2(K - L - D) = 0 when L0 = 2D: its
    M' = M - D, for the M = K - L of the irreducible case, has
    M'^2 = M^2 - M.L0 + L0^2/4 and M'.K = M.K - K.L0/2."""
    M_L0 = num["K_L0"] - num["L_L0"]
    M_sq_times4 = 4 * irreducible.M_sq - 4 * M_L0 + num["L0_sq"]
    M_K_times2 = 2 * irreducible.M_K - num["K_L0"]
    if M_sq_times4 % 4 or M_K_times2 % 2:
        raise InternalInconsistency("half-branch numerics are not integral")
    return DoubleCoverInput("K7-divisible", chi_base=1, pg_base=0,
                            K2_base=irreducible.K2_base, M_sq=M_sq_times4 // 4,
                            M_K=M_K_times2 // 2,
                            h0_K_plus_M=H0_HALF_BRANCH_RESIDUAL)


def _case_k8_veronese() -> DoubleCoverInput:
    """K^2 = 8, image the Veronese of a quadric: 2K_S = 2A makes K - A a
    2-torsion class, giving an etale double cover."""
    quadric = make_quadric_lattice()
    hyperplane = quadric.cls((1, 1))
    A_sq = pullback_numerics(BICANONICAL_DEGREE, hyperplane, hyperplane)
    # K is numerically A, so M = K - A has M^2 = M.K = 0 and K^2 = A^2
    return DoubleCoverInput("K8-veronese", chi_base=1, pg_base=0,
                            K2_base=A_sq, M_sq=0, M_K=0,
                            h0_K_plus_M=H0_QUADRIC_HYPERPLANE)


def run_case_table() -> list[CaseRecord]:
    """All four degree-4 branches, each ending in a contradiction with the
    double-cover bound.  Any drift from the stored expected tuples raises."""
    records = []
    num7 = _blowup_pullback_numerics(2)
    irreducible = _case_blowup("K7-irreducible", num7, H0_TWISTED_CUBIC_RESIDUAL)
    for cover in (irreducible, _case_k7_divisible(irreducible, num7), _case_k8_veronese(),
                  _case_blowup("K8-blowup", _blowup_pullback_numerics(1),
                               H0_LINE_PLUS_PENCIL)):
        inv = double_cover_invariants(cover)
        expected = EXPECTED_CASE_TUPLES[cover.label]
        if inv.as_tuple() != expected:
            raise InternalInconsistency(
                f"{cover.label}: computed {inv.as_tuple()}, expected {expected}")
        records.append(CaseRecord(cover.label, cover, inv,
                                  check_corollary(inv.K2, inv.q)))
    return records


def reider_enumeration(K2: int) -> set[int]:
    """K^2 = 9 only: the second cohomology is generated up to torsion by a
    class L with L^2 = 1 and K = 3L, so an effective divisor violating
    birationality satisfies KC - 2 <= C^2 < KC/2 < 2 with C = mL.  Returns
    the admissible multiples m."""
    if K2 != 9:
        raise ValueError("the unimodular enumeration applies only to K^2 = 9")
    admissible = set()
    for m in range(1, 11):
        C_sq = m * m
        K_C = 3 * m
        # C^2 < KC/2 < 2, doubled to stay in integers
        if K_C - 2 <= C_sq and 2 * C_sq < K_C < 4:
            admissible.add(m)
    return admissible


class StrictTransformCase:
    def __init__(self, a: int, theta_C: int, C_sq: int, consistent: bool):
        self.a, self.theta_C, self.C_sq, self.consistent = a, theta_C, C_sq, consistent


class RationalCurveReport:
    def __init__(self, K_L0: int, L0_sq: int, divisible_by_two: bool,
                 cases: tuple[StrictTransformCase, ...], excluded_negative_definite: bool):
        self.K_L0, self.L0_sq, self.divisible_by_two = K_L0, L0_sq, divisible_by_two
        self.cases, self.excluded_negative_definite = cases, excluded_negative_definite


def lemma32_cases() -> RationalCurveReport:
    """Numeric skeleton of the structure of L0 on the K^2 = 7 surface:
    K.L0 = 2 and L0^2 = -4 from the pullback numerics; writing L0 = C + a*theta
    with theta a (-2)-curve orthogonal to L0 forces theta.C = 2a and
    C^2 = -4 - 2a^2; and the configuration of two (-3)-curves meeting the
    (-2)-curve once each would span a negative definite rank-3 lattice, which
    the signature (1, 2) of the relevant cohomology cannot contain."""
    num = _blowup_pullback_numerics(2)
    cases = []
    for a in range(3):
        theta_C = 2 * a
        C_sq = -4 - 2 * a * a
        # the defining relations of the decomposition, re-checked symbolically
        L0_theta = theta_C + a * (-2)
        L0_sq = C_sq + 2 * a * theta_C + a * a * (-2)
        cases.append(StrictTransformCase(a, theta_C, C_sq,
                                         L0_theta == 0 and L0_sq == -4))
    gram = ((-3, 0, 1), (0, -3, 1), (1, 1, -2))
    return RationalCurveReport(
        K_L0=num["K_L0"], L0_sq=num["L0_sq"],
        divisible_by_two=num["L0_sq"] % 4 == 0,  # L0 = 2(K - L), so L0^2 = 4(K-L)^2
        cases=tuple(cases),
        excluded_negative_definite=is_negative_definite(gram))
