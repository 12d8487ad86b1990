"""Invariants of double covers and building data for Z_2^n abelian covers.

A double cover defined by 2M = D has

    K_Y^2    = 2 (K_S + M)^2,
    chi(O_Y) = 2 chi(O_S) + M(K_S + M)/2,
    p_g(Y)   = p_g(S) + h^0(S, K_S + M),

and q = p_g + 1 - chi.  For a Z_2^n cover of P^1 given by branch divisors
D_gamma (one per nonzero gamma) the character eigensheaf has degree

    deg L_chi = (1/2) * sum of deg D_gamma over gamma outside ker chi,

which specialises on the dual basis characters to the defining relations
2 L_i = sum eps_i(gamma) D_gamma of the building data.  The building-data
check charges only those rank characters; the eigensheaf table needs all
|G| of them, so each curve computes its charged degrees once, in one table
grown coordinate by coordinate from the pairing values of each branch
element (BranchDataP1.charged_degrees), and only after the checks that can
reject the data.  The genus of the cover curve then comes out of either
Riemann-Hurwitz or the eigensheaf table; the two routes are independent and
are cross-checked throughout.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from .grouplib import AbelianGroup, Subgroup, common_kernel, order_of
from .piclattice import DivisorClass, Lattice, canonical_class


class InvalidCoverData(ValueError):
    """Branch data or numeric cover input that fails a validity condition."""


class InvalidBranchDivisor(InvalidCoverData):
    """A branch divisor that fails a validity condition; `element` is the
    coordinate tuple of the group element indexing it, as the branch data
    keys it."""

    def __init__(self, message: str, element):
        super().__init__(message)
        self.element = element


class InvalidCoverClass(InvalidCoverData):
    """An input error (a linsys size cap) raised while h^0 of a class of a
    Z_2 x Z_2 cover was taken; `inputs` names the building data the class is
    built from: "D" for the branch divisors, "L1" or "L2" for a line bundle."""

    def __init__(self, message: str, inputs: tuple[str, ...]):
        super().__init__(message)
        self.inputs = inputs


class InternalInconsistency(RuntimeError):
    """A consistency identity (eigentable sum, stored value, freeness) failed."""


Z22_COVER = "Z2 x Z2 cover"  # how validation errors name a surface cover


class CoverInvariants:
    def __init__(self, K2: int, chi: int, pg: int, q: int):
        self.K2, self.chi, self.pg, self.q = K2, chi, pg, q
        if q != pg + 1 - chi:
            raise InvalidCoverData("q must equal p_g + 1 - chi")
        if pg < 0:
            raise InvalidCoverData("p_g must be >= 0")

    def __eq__(self, other):
        if not isinstance(other, CoverInvariants):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def is_geometric(self) -> bool:
        """Whether the tuple can belong to a connected surface (q >= 0).
        Formal inputs (e.g. branch data of a disconnected cover) may fail this."""
        return self.q >= 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.K2, self.chi, self.pg, self.q)


class DoubleCoverInput:
    """Numerics of a double cover 2M = D: the base invariants, the two
    intersection numbers of M, and h^0(K_S + M)."""

    def __init__(self, label: str, chi_base: int, pg_base: int, K2_base: int,
                 M_sq: int, M_K: int, h0_K_plus_M: int):
        self.label, self.chi_base, self.pg_base, self.K2_base = label, chi_base, pg_base, K2_base
        self.M_sq, self.M_K, self.h0_K_plus_M = M_sq, M_K, h0_K_plus_M
        if h0_K_plus_M < 0:
            raise InvalidCoverData("a section-space dimension cannot be negative")


def double_cover_invariants(inp: DoubleCoverInput) -> CoverInvariants:
    m_k_plus_m = inp.M_K + inp.M_sq
    if m_k_plus_m % 2 != 0:
        raise InvalidCoverData(
            f"{inp.label}: M(K+M) = {m_k_plus_m} is odd, so chi is not an integer")
    K2 = 2 * (inp.K2_base + 2 * inp.M_K + inp.M_sq)
    chi = 2 * inp.chi_base + m_k_plus_m // 2
    pg = inp.pg_base + inp.h0_K_plus_M
    return CoverInvariants(K2, chi, pg, pg + 1 - chi)


class ValidationCheck:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail


class ValidationReport:
    def __init__(self, checks: tuple[ValidationCheck, ...]):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> ValidationCheck | None:
        return next((c for c in self.checks if not c.passed), None)

    def require(self, what: str) -> "ValidationReport":
        """This report if every check passed, else InvalidCoverData naming a failure."""
        fail = self.first_failure()
        if fail is not None:
            raise InvalidCoverData(f"{what} building data invalid, failed relation: "
                                   f"{fail.name} ({fail.detail})")
        return self


class BranchDataP1:
    """Branch data of an abelian cover of P^1.

    entries maps nonzero group elements, as tuples of reduced residues (see
    AbelianGroup.reduce), to branch divisors, given either as a plain degree
    or as a tuple of distinct point labels; line_bundles holds
    the degrees of L_1..L_n attached to the dual basis characters.  Zero
    divisors may simply be omitted.  The branch elements are also kept as
    the inertia list of (coordinates, order, degree), so Riemann-Hurwitz and
    the fixed points read each order once.  The building-data checks run
    once (`validation`), and so does the table of the charged degrees of all
    characters (`charged_degrees`), on demand.
    """

    def __init__(self, group: AbelianGroup, entries, line_bundles=None):
        self.group = group
        moduli = group.moduli
        degrees: dict[tuple[int, ...], int] = {}
        points: dict[tuple[int, ...], tuple[str, ...]] = {}
        for gamma, value in entries.items():
            if (type(gamma) is not tuple or len(gamma) != len(moduli)
                    or not all(type(c) is int and 0 <= c < m for c, m in zip(gamma, moduli))):
                raise InvalidCoverData("branch divisors must be indexed by group elements, "
                                       "as tuples of reduced residues")
            if not any(gamma):
                raise InvalidBranchDivisor("only nonzero elements carry branch divisors", gamma)
            if isinstance(value, int):
                deg = value
            else:
                pts = tuple(value)
                if len(set(pts)) != len(pts):
                    raise InvalidBranchDivisor(f"repeated branch point in D_{gamma}", gamma)
                points[gamma] = pts
                deg = len(pts)
            if deg < 0:
                raise InvalidBranchDivisor("a branch divisor has nonnegative degree", gamma)
            if deg:
                degrees[gamma] = deg
        self.degrees = degrees
        self.points = points
        self.line_bundles = None if line_bundles is None else tuple(int(x) for x in line_bundles)
        if self.line_bundles is not None and len(self.line_bundles) != group.rank:
            raise InvalidCoverData("need one line bundle degree per generator")
        self.inertia = [(g, order_of(g, moduli), d) for g, d in degrees.items()]

    def total_degree(self) -> int:
        return sum(self.degrees.values())

    @cached_property
    def charged_degrees(self) -> list[int]:
        """The charged degree of every character, in the order of
        coordinate_vectors().  The pairing of chi with a branch element g is
        linear in chi, with the weighted coordinates of g as coefficients, so
        linear_values lists it for every character at once; the element's
        degree is then added where the value is nonzero modulo the exponent,
        with no per-character dot product."""
        group = self.group
        weights, ex = group.weights, group.exponent
        table = [0] * group.order
        for g, d in self.degrees.items():
            values = group.linear_values(tuple(map(mul, g, weights)))
            table = [t + d if v % ex else t for t, v in zip(table, values)]
        return table

    @cached_property
    def validation(self) -> ValidationReport:
        """The P^1 building-data checks (see validate_building_data)."""
        checks = []
        seen: dict[str, tuple[int, ...]] = {}
        support_ok, support_detail = True, ""
        for gamma, pts in self.points.items():
            for p in pts:
                if p in seen:
                    support_ok = False
                    support_detail = f"point {p} appears in D_{seen[p]} and in D_{gamma}"
                seen[p] = gamma
        checks.append(ValidationCheck("branch supports disjoint", support_ok, support_detail))
        if self.line_bundles is None:
            checks.append(ValidationCheck("line bundles given", False,
                                          "no line bundle degrees were supplied"))
        else:
            # e_i pairs with a reduced gamma to gamma_i exponent / m_i, which
            # is nonzero exactly when gamma_i is
            for i in range(self.group.rank):
                charged = sum(d for g, d in self.degrees.items() if g[i])
                checks.append(ValidationCheck(
                    f"2L{i + 1} matches the charged branch degree",
                    2 * self.line_bundles[i] == charged,
                    f"2*{self.line_bundles[i]} vs {charged}"))
        return ValidationReport(tuple(checks))

    def sorted_entries(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.degrees.items())


def validate_building_data(data) -> ValidationReport:
    """Check the defining relations of the building data.

    On P^1 the relations are numeric: 2 deg L_i = charged branch degree for
    each dual basis character, plus disjointness of the supports.  On a
    surface they are exact lattice identities: 2L_1 = D_2 + D_3 and
    2L_2 = D_1 + D_3.  Failures are reported, not raised.  The data computes
    its report once, so every call returns the same report.
    """
    return data.validation


def rh_genus(data: BranchDataP1) -> int:
    """Genus of the cover curve: each branch point of D_gamma has cyclic
    inertia generated by gamma.  Riemann-Hurwitz in integers: the Euler
    number is 2n - sum of deg * (n - n/ord(gamma)) with n = |G|, exact since
    ord(gamma) divides n."""
    n = data.group.order
    chi_top = 2 * n - sum(deg * (n - n // order) for _, order, deg in data.inertia)
    if chi_top % 2 != 0:
        raise InvalidCoverData("Riemann-Hurwitz gives an odd Euler number")
    return (2 - chi_top) // 2


def eigensheaf_degrees(data: BranchDataP1) -> dict[tuple[int, ...], int]:
    """Degree of the eigensheaf L_chi for every character chi, keyed by its
    coordinates in the order of coordinate_vectors(); the trivial character
    has degree 0.  beauville.bicanonical_report relies on that key order.
    For a 2-elementary group deg L_chi is half the charged branch degree,
    read off the data's table of charged degrees (charged_degrees), which
    is built on the first call.  Groups with a factor of order > 2 would
    need the general eigensheaf formula, which is out of scope here, so they
    are rejected outright rather than guessed at."""
    if any(m != 2 for m in data.group.moduli):
        raise InvalidCoverData(
            "eigensheaf degrees are implemented only for groups of exponent 2")
    table = {}
    for chi, s in zip(data.group.coordinate_vectors(), data.charged_degrees):
        if s % 2 != 0:
            raise InvalidCoverData(f"charged branch degree {s} for character {chi} is odd")
        table[chi] = s // 2
    return table


def genus_from_degrees(degrees) -> int:
    """g = 1 - sum over characters of (1 - deg L_chi): the genus of the cover
    from its eigensheaf degrees, independent of the Riemann-Hurwitz route."""
    return 1 - sum(1 - d for d in degrees)


class BranchDataSurface:
    """Building data of a Z_2 x Z_2 cover of a rational surface: branch
    classes D_1, D_2, D_3 and line bundle classes L_1, L_2 (L_3 is forced to
    be L_1 + L_2 - D_3).  `components` may list the irreducible pieces of
    each D_i when they are known, which lets reports count the (-2)-curves
    inside the branch locus."""

    def __init__(self, lattice: Lattice, D, L, components=None):
        D = tuple(D)
        L = tuple(L)
        if len(D) != 3 or len(L) != 2:
            raise InvalidCoverData("need branch classes D1,D2,D3 and bundles L1,L2")
        for cls in (*D, *L):
            if cls.lattice != lattice:
                raise InvalidCoverData("all classes must live on the given lattice")
        self.lattice = lattice
        self.D = D
        self.L = (L[0], L[1], L[0] + L[1] - D[2])
        self.components = None
        if components is not None:
            components = tuple(tuple(part) for part in components)
            if len(components) != 3:
                raise InvalidCoverData("need one component list per branch class")
            self.components = components

    def total_branch(self) -> DivisorClass:
        return self.D[0] + self.D[1] + self.D[2]

    @cached_property
    def validation(self) -> ValidationReport:
        """The surface building-data checks (see validate_building_data)."""
        checks = []
        relations = (("2L1 = D2 + D3", 2 * self.L[0], self.D[1] + self.D[2]),
                     ("2L2 = D1 + D3", 2 * self.L[1], self.D[0] + self.D[2]))
        for name, lhs, rhs in relations:
            checks.append(ValidationCheck(name, lhs == rhs, f"{lhs} vs {rhs}"))
        if self.components is not None:
            for i, parts in enumerate(self.components):
                total = self.lattice.zero()
                for part in parts:
                    total = total + part
                checks.append(ValidationCheck(
                    f"components of D{i + 1} sum to D{i + 1}", total == self.D[i],
                    f"{total} vs {self.D[i]}"))
        return ValidationReport(tuple(checks))


def z22_surface_cover_invariants(data: BranchDataSurface, h0) -> CoverInvariants:
    """Invariants of the Z_2 x Z_2 cover X of a rational surface:
    p_g from the three h^0(K + L_i), chi from 4 + sum L_i(K+L_i)/2 (the base
    is rational, chi = 1), and K_X^2 from 2K_X = pullback of (2K + D)."""
    validate_building_data(data).require(Z22_COVER)
    K = canonical_class(data.lattice)
    pg = sum(_named_h0(h0, f"K + L{i}", K + Li, (f"L{i}",)) for i, Li in enumerate(data.L, 1))
    s = sum(Li.dot(K + Li) for Li in data.L)
    if s % 2 != 0:
        raise InvalidCoverData("sum of L_i(K + L_i) is odd, so chi is not an integer")
    chi = 4 + s // 2
    two_K_up = 2 * K + data.total_branch()
    K2 = two_K_up.dot(two_K_up)  # degree 4 cover: (2K_X)^2 = 4 (2K+D)^2
    return CoverInvariants(K2, chi, pg, pg + 1 - chi)


def _named_h0(h0, role: str, cls: DivisorClass, inputs: tuple[str, ...]) -> int:
    """h0(cls), where an input error (a linsys size cap) names the class, its
    role in the cover, such as K + L2 or 2K + D - L1, and the inputs it is
    built from (see InvalidCoverClass)."""
    try:
        return h0(cls)
    except ValueError as exc:
        raise InvalidCoverClass(f"h0({role}) = h0({cls}): {exc}", inputs) from exc


def projection_decomposition(total: DivisorClass, bundles, h0) -> list[tuple[str, DivisorClass, int]]:
    """The decomposition by characters of the sections of the pullback of
    `total` = 2K + D along a Z_2 x Z_2 cover: the invariant part h^0(total)
    and one twisted part h^0(total - L_i) per nontrivial character."""
    out = [("1", total, _named_h0(h0, "2K + D", total, ("D",)))]
    for i, Li in enumerate(bundles, start=1):
        cls = total - Li
        out.append((f"chi{i}", cls, _named_h0(h0, f"2K + D - L{i}", cls, ("D", f"L{i}"))))
    return out


class Verdict:
    """Outcome of a bicanonical-degree computation: the subgroup acting
    trivially on the bicanonical sections, and the resulting degree (1 when
    the kernel is trivial; 2 when the kernel is an involution, which is the
    maximum the degree bound allows; undetermined otherwise)."""

    def __init__(self, kernel: Subgroup, degree: int | None):
        self.kernel, self.degree = kernel, degree

    @property
    def birational(self) -> bool:
        return self.kernel.order == 1


def make_verdict(kernel: Subgroup) -> Verdict:
    if kernel.order == 1:
        return Verdict(kernel, 1)
    if kernel.order == 2:
        # the map factors through the involution, and the degree bound for
        # minimal surfaces with p_g = 0 and K^2 = 7, 8 caps the degree at 2
        return Verdict(kernel, 2)
    return Verdict(kernel, None)


_Z22 = AbelianGroup((2, 2))
# for each nonzero element gamma_i = (1, 0), (0, 1), (1, 1) the coordinates
# of the unique nontrivial character chi_i orthogonal to it
Z22_CHIS = ((0, 1), (1, 0), (1, 1))


def z22_element_name(g: tuple[int, int]) -> str:
    names = {(0, 0): "0", (1, 0): "γ₁", (0, 1): "γ₂", (1, 1): "γ₃"}
    return names[g]


class Z22CoverReport:
    def __init__(self, invariants: CoverInvariants, K2_minimal: int | None,
                 total_class: DivisorClass, eigentable: list[tuple[str, DivisorClass, int]],
                 p2: int, kernel: Subgroup, verdict: Verdict):
        self.invariants = invariants    # of the cover X, before contractions
        self.K2_minimal = K2_minimal    # after contracting the lifted (-1)-curves
        self.total_class = total_class  # 2K + D, whose pullback is 2K_X
        self.eigentable, self.p2, self.kernel, self.verdict = eigentable, p2, kernel, verdict


def z22_bicanonical_report(data: BranchDataSurface, h0) -> Z22CoverReport:
    """Full bicanonical analysis of a Z_2 x Z_2 cover: invariants, the
    character eigentable of the bicanonical sections, and the subgroup of the
    Galois group acting trivially on them."""
    inv = z22_surface_cover_invariants(data, h0)
    K = canonical_class(data.lattice)
    total = 2 * K + data.total_branch()
    table = projection_decomposition(total, data.L, h0)
    p2 = sum(dim for _, _, dim in table)

    K2_min = None
    if data.components is not None:
        minus_two = sum(1 for parts in data.components for part in parts
                        if part.self_intersection() == -2)
        # each (-2)-curve in the branch pulls back to two disjoint (-1)-curves
        K2_min = inv.K2 + 2 * minus_two
    if not inv.is_geometric():
        raise InternalInconsistency(
            f"computed q = {inv.q} < 0: the data does not describe a connected surface")
    if K2_min is not None and p2 != inv.chi + K2_min:
        raise InternalInconsistency(
            f"eigentable sums to {p2}, expected chi + K^2 = {inv.chi + K2_min}")

    contributing = [Z22_CHIS[i] for i, (_, _, dim) in enumerate(table[1:]) if dim > 0]
    kernel = common_kernel(contributing, _Z22)
    return Z22CoverReport(inv, K2_min, total, table, p2, kernel, make_verdict(kernel))
