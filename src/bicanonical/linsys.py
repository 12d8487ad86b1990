"""Exact dimensions of linear systems of plane curves with assigned base
multiplicities.

h^0 of a class d*l - sum(m_i e_i) on the blowup of P^2 equals the dimension of
the space of degree-d forms vanishing to order m_i at the corresponding
points.  That dimension is (d+1)(d+2)/2 minus the rank of the interpolation
matrix whose rows are the partial derivatives of order t_i = min(m_i - 1, d)
at P_i.  By Euler's relation e*G = sum x_j dG/dx_j for a form G of degree
e >= 1, the vanishing of every order-t partial at P forces the vanishing of
every lower one, so these rows cut out the same space as all partials of
order < m_i; for m_i - 1 > d the order-d partials are multiples of the
coefficients and already force F = 0.  A point is scaled to coprime
integer coordinates once, when it is parsed (ProjectivePoint), and stays an
integer triple from there on, so the rows are integers and the rank is
computed exactly.  Parsing itself is in integers: an int is its own
numerator, and a string "p" or "p/q" is split into two ints; only other
exact types (Fraction, bool, ...) go through Fraction.  On special point
configurations (such as the complete quadrilateral) this rank drops below
the generic count, which is precisely the phenomenon the computations here
need to capture; no genericity assumption is ever made.

h0_fat_points first frames the system.  h^0 does not change under a
projectivity, so up to three linearly independent points, heaviest first
(ties by index), are sent to the coordinate vertices e_k by the integer
adjugate of the matrix whose columns are their coordinates (completed by
unit vectors to a basis).  At e_k the order-t_k partials are single-entry
rows, one for each monomial whose k-th exponent is >= d - t_k, so the rows
of the frame points span exactly the coordinate subspace of those killed
monomials.  The rank of all rows is therefore the number of killed
monomials plus the rank of the other points' rows restricted to the alive
columns, those with every frame exponent <= d - 1 - t_k, and
h^0 = |alive| - rank of the restricted rows, with no approximation.  The
moved points are kept as primitive integer triples, and only the alive
columns of the other points' rows are built.  When no point outside the
frame has m > 0 (every condition sits on at most three independent points),
there are no such rows: h^0 = |alive|, and no matrix is built or ranked.

Before framing, h0_fat_points strips each line L of the configuration whose
points carry sum(m_k) > d (Bezout): every form of the system vanishes on L,
so L divides it, and h^0(d; m) = h^0(d - 1; m') with m'_k = max(m_k - 1, 0)
on L and m'_k = m_k off it, until no line qualifies (h^0 = 0 once d < 0).
The lines are PointConfig.lines.  No line carries more than sum(m), so the
search is skipped when sum(m) <= d: that gate only skips work.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import gcd, lcm, perm

from .exactlinalg import exact_rank
from .piclattice import DivisorClass, blowup_labels


# Caps on the sizes that drive elimination: the degree sets the number of
# columns (and, with the multiplicities, of rows) of the interpolation
# matrix, and each fixed component stripped by h0_class is one loop step and
# one trace note.
MAX_DEGREE = 12
MAX_FIXED_COMPONENTS = 100
# The command line caps each coprime integer coordinate of an input point:
# the entries of the interpolation rows are powers of these coordinates (of
# products of three of them after framing, which are not capped), so their
# size sets the cost of each elimination step.
MAX_COORDINATE = 2**16
# a coordinate string is an integer or a fraction p/q in ASCII digits; int
# would also read the digits of other scripts, and Fraction exponents
# ("1e1000") and decimals, whose size nothing else bounds
_COORDINATE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _ratio(x) -> tuple[int, int]:
    """An exact coordinate as (numerator, denominator), the denominator
    positive but not necessarily coprime to the numerator ("2/4" gives
    (2, 4)).  Plain ints and coordinate strings are read as integers; any
    other exact type goes through Fraction."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        if not _COORDINATE.fullmatch(x):
            raise ValueError(f"point coordinate {x!r} is not an integer or a fraction p/q")
        numerator, _, denominator = x.partition("/")
        numerator, denominator = int(numerator), int(denominator or 1)
        if denominator == 0:
            raise ValueError(f"point coordinate {x!r} has a zero denominator")
        return numerator, denominator
    if isinstance(x, float):
        raise TypeError("point coordinates must be exact (int, Fraction or 'p/q' string)")
    value = Fraction(x)
    return value.numerator, value.denominator


class ProjectivePoint:
    """A point of P^2.  Any exact triple (ints, Fractions or 'p/q' strings)
    is scaled once to coprime integers, keeping its signs, so coords holds
    the coprime integer triple."""

    def __init__(self, coords):
        values = [_ratio(c) for c in coords]
        if len(values) != 3 or not any(n for n, _ in values):
            raise ValueError("a projective point needs three coordinates, not all zero")
        denom = lcm(*(d for _, d in values))
        self.coords: tuple[int, int, int] = _primitive([n * (denom // d) for n, d in values])

    @classmethod
    def of(cls, x, y, z) -> "ProjectivePoint":
        return cls((x, y, z))

    def same_point(self, other: "ProjectivePoint") -> bool:
        # coprime integer triples of one point differ at most by their sign
        a, b = self.coords, other.coords
        return a == b or a == tuple(-c for c in b)


def _primitive(v) -> tuple[int, int, int]:
    """The nonzero integer vector v divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(c // g for c in v)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def collinear(p: ProjectivePoint, q: ProjectivePoint, r: ProjectivePoint) -> bool:
    return _dot(_cross(p.coords, q.coords), r.coords) == 0


class ConfigError(ValueError):
    """An invalid PointConfig; `field` names the offending field: "points",
    "labels", "labels[i]" (0-based) or "incidences"."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


class PointConfig:
    """Labelled points plus incidence assertions.

    Each incidence ((i, j), k) asserts that point k lies on the line through
    points i and j (1-based labels, each in 1..n); all assertions, pairwise
    distinctness of the points and of the labels are verified exactly at
    construction time.
    """

    def __init__(self, points: tuple[ProjectivePoint, ...], labels: tuple[str, ...],
                 incidences: tuple[tuple[tuple[int, int], int], ...] = ()):
        self.points, self.labels, self.incidences = points, labels, incidences
        if len(points) != len(labels):
            raise ConfigError("one label per point, please", "labels")
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ConfigError(f"duplicate label {label!r}", f"labels[{i}]")
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                if points[a].same_point(points[b]):
                    raise ConfigError(f"points {labels[a]} and {labels[b]} coincide", "points")
        n = len(points)
        for (i, j), k in incidences:
            # a label of 0 or below would silently read points[-1] or earlier
            if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
                raise ConfigError(f"incidence (({i}, {j}), {k}) has a label outside 1..{n}",
                                  "incidences")
            if not collinear(points[i - 1], points[j - 1], points[k - 1]):
                raise ValueError(
                    f"asserted incidence fails: {labels[k - 1]} is not on the "
                    f"line {labels[i - 1]}{labels[j - 1]}")

    @cached_property
    def lines(self) -> tuple[tuple[int, ...], ...]:
        """The maximal collinear sets of at least two points, as index tuples,
        computed once: a configuration's points are never rebound."""
        ints = [p.coords for p in self.points]
        # a line grows on its first two points and drops the other pairs it covers
        lines = {pair: pair for pair in combinations(range(len(ints)), 2)}
        for a, b, c in combinations(range(len(ints)), 3):
            if not _dot(_cross(ints[a], ints[b]), ints[c]):
                if (a, b) in lines:
                    lines[a, b] += (c,)
                lines.pop((a, c), None)
                lines.pop((b, c), None)
        return tuple(lines.values())

    @property
    def n_points(self) -> int:
        return len(self.points)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


@cache
def quadrilateral_config() -> PointConfig:
    """The six special points of a complete quadrilateral: vertices P1..P4 and
    the two extra diagonal points P5 = P1P2 ^ P3P4, P6 = P1P4 ^ P2P3.  Built
    and verified once: every caller shares this one instance, so no caller may
    rebind its attributes."""
    pts = (ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(0, 1, 0),
           ProjectivePoint.of(0, 0, 1), ProjectivePoint.of(1, 1, 1),
           ProjectivePoint.of(1, 1, 0), ProjectivePoint.of(0, 1, 1))
    return PointConfig(
        points=pts,
        labels=("P1", "P2", "P3", "P4", "P5", "P6"),
        incidences=(((1, 2), 5), ((3, 4), 5), ((1, 4), 6), ((2, 3), 6)),
    )


class FatPointSystem:
    def __init__(self, degree: int, multiplicities: tuple[int, ...]):
        self.degree, self.multiplicities = degree, multiplicities
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be between 0 and {MAX_DEGREE}, got {degree}")
        if any(m < 0 for m in multiplicities):
            raise ValueError("multiplicities must be >= 0")


def _partial_tables(value: int, d: int, t: int) -> list[list[int]]:
    """table[k][a] = the k-th derivative of v^a at v = value, for a <= d, k <= t."""
    powers = [value ** e for e in range(d + 1)]
    return [[perm(a, k) * powers[a - k] if a >= k else 0 for a in range(d + 1)]
            for k in range(t + 1)]


def interpolation_matrix(points, system: FatPointSystem, monomials) -> list[list[int]]:
    """One integer row per vanishing condition, one column per monomial.

    points are integer triples, one per multiplicity of the system, and
    monomials the exponent triples (a, b, c) of the degree-d monomials to
    build columns for.  A point of multiplicity m > 0 gives its partials of
    order min(m - 1, d) (the lower orders follow, see the module
    docstring); a point of multiplicity 0 gives none.
    """
    d = system.degree
    if len(points) != len(system.multiplicities):
        raise ValueError("need one multiplicity per point")
    rows = []
    for point, m in zip(points, system.multiplicities):
        if m == 0:
            continue
        t = min(m - 1, d)
        x, y, z = (_partial_tables(v, d, t) for v in point)
        for dx in range(t, -1, -1):
            for dy in range(t - dx, -1, -1):
                px, py, pz = x[dx], y[dy], z[t - dx - dy]
                rows.append([px[a] * py[b] * pz[c] for a, b, c in monomials])
    return rows


def _independent(v, basis) -> bool:
    """Whether the nonzero integer vector v lies outside the span of the
    independent vectors in basis (at most two)."""
    if not basis:
        return True
    if len(basis) == 1:
        return any(_cross(basis[0], v))
    return _dot(_cross(*basis), v) != 0


def h0_fat_points(cfg: PointConfig, system: FatPointSystem) -> int:
    """dim of degree-d forms with multiplicity >= m_i at each P_i.

    The lines the system meets negatively are stripped, then up to three
    independent points, heaviest first, are moved to the coordinate vertices
    (the frame); only the monomials their conditions leave alive and the
    conditions of the other points are eliminated (see the module docstring).
    """
    mult = list(system.multiplicities)
    if len(mult) != cfg.n_points:
        raise ValueError("need one multiplicity per configured point")
    d = system.degree
    # strip each line the system meets negatively (Bezout, module docstring)
    while sum(mult) > d:
        for line in cfg.lines:
            if sum(map(mult.__getitem__, line)) > d:
                break
        else:  # no line qualifies
            break
        d -= 1
        if d < 0:
            return 0
        for k in line:
            mult[k] = max(mult[k] - 1, 0)
    ints = [p.coords for p in cfg.points]
    frame: list[int] = []
    for i in sorted(range(len(mult)), key=lambda i: -mult[i]):
        if mult[i] == 0 or len(frame) == 3:
            break
        if _independent(ints[i], [ints[j] for j in frame]):
            frame.append(i)
    basis = [ints[i] for i in frame]
    for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        if len(basis) < 3 and _independent(unit, basis):
            basis.append(unit)
    # the rows of the adjugate of the matrix with columns b0, b1, b2: it
    # sends b_k to det * e_k, and is invertible, so h0 does not change
    adjugate = (_cross(basis[1], basis[2]), _cross(basis[2], basis[0]),
                _cross(basis[0], basis[1]))
    # exponent k of an alive monomial is at most d - 1 - t_k at frame point k
    limit = [d] * 3
    for k, i in enumerate(frame):
        limit[k] = d - 1 - min(mult[i] - 1, d)
    # the degree-d monomials (a, b, c) within the limits, a then b descending
    la, lb, lc = limit
    alive = [(a, b, d - a - b) for a in range(min(la, d), -1, -1)
             for b in range(min(lb, d - a), max(d - a - lc, 0) - 1, -1)]
    if not alive:
        return 0
    rest = list(mult)
    for i in frame:
        rest[i] = 0
    # only the points outside the frame with m > 0 add rows
    others = [i for i, m in enumerate(rest) if m > 0]
    if not others:
        return len(alive)
    moved = [_primitive([_dot(row, ints[i]) for row in adjugate]) for i in others]
    system = FatPointSystem(d, tuple(rest[i] for i in others))
    return len(alive) - exact_rank(interpolation_matrix(moved, system, alive))


def h0_class(cfg: PointConfig, cls: DivisorClass, trace: list[str] | None = None) -> int:
    """h^0 of a divisor class d*l - sum(m_i e_i) on the blowup at the
    configured points.

    Negative multiplicities (a summand +e_i) are removed one copy at a time
    as fixed components; each removal is legitimate because the class meets
    e_i negatively at that step, and is recorded in `trace` when given.
    The notes list only these curves, not the lines h0_fat_points strips.
    """
    lattice = cls.lattice
    if lattice.kind != "blowup" or lattice.labels != blowup_labels(cfg.n_points):
        raise ValueError("class does not live on the blowup at the configured points")
    # the basis is (l, e1, ..., en), so the coefficients are d, -m1, ..., -mn
    d, *rest = cls.coeffs
    if d < 0:
        if trace is not None:
            trace.append(f"negative degree d={d}: empty system")
        return 0
    mult = [-c for c in rest]
    fixed = -sum(m for m in mult if m < 0)
    if fixed > MAX_FIXED_COMPONENTS:
        raise ValueError(f"{fixed} fixed components exceed the limit of {MAX_FIXED_COMPONENTS}")
    for i in range(cfg.n_points):
        while mult[i] < 0:
            # cls . e_i equals the current m_i, so a negative value certifies
            # that e_i is a fixed component
            if trace is not None:
                trace.append(f"removed fixed component e{i + 1} (class meets it in {mult[i]})")
            mult[i] += 1
    return h0_fat_points(cfg, FatPointSystem(d, tuple(mult)))
