import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, perm
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bicanonical.exactlinalg import _integer_rank, exact_rank
from bicanonical import cli, exactlinalg, linsys
from bicanonical.linsys import (ConfigError, FatPointSystem, PointConfig, ProjectivePoint, _ratio,
                                collinear, h0_class, h0_fat_points, interpolation_matrix,
                                quadrilateral_config)
from bicanonical.linsys import MAX_COORDINATE, MAX_DEGREE, MAX_FIXED_COMPONENTS
from bicanonical.piclattice import Lattice, make_blowup_lattice, quadrilateral_catalog
from oracles import apply_projectivity, fraction_point, to_fraction


@pytest.fixture(scope="module")
def cfg():
    return quadrilateral_config()


@pytest.fixture(scope="module")
def lat():
    return make_blowup_lattice(6)


def test_quadrilateral_incidences(cfg):
    def on_a_line(i, j, k):  # 1-based, as in the incidence assertions
        return collinear(cfg.points[i - 1], cfg.points[j - 1], cfg.points[k - 1])

    # P5 on the line P3P4 (and P1P2); P6 on P1P4 and P2P3
    assert on_a_line(3, 4, 5)
    assert on_a_line(1, 2, 5)
    assert on_a_line(1, 4, 6)
    assert on_a_line(2, 3, 6)
    assert not on_a_line(1, 2, 3)


def test_quadrilateral_lines(cfg):
    # a second route to the configuration: the lines through three points
    # are exactly the four asserted incidences, and the other three lines
    # are the diagonals P1P3, P2P4 and P5P6
    asserted = {tuple(sorted((i - 1, j - 1, k - 1))) for (i, j), k in cfg.incidences}
    assert {line for line in cfg.lines if len(line) >= 3} == asserted
    assert {line for line in cfg.lines if len(line) == 2} == {(0, 2), (1, 3), (4, 5)}
    assert len(cfg.lines) == 7
    assert quadrilateral_config().lines is cfg.lines


def test_quadrilateral_config_is_built_once(cfg, lat):
    assert quadrilateral_config() is quadrilateral_config() is cfg
    # the shared configuration still gives the inoue7 and quadrilateral values
    assert h0_class(cfg, lat.cls((9, -3, -4, -3, -4, -4, -4))) == 7
    assert h0_fat_points(cfg, FatPointSystem(5, (1, 2, 1, 2, 2, 2))) == 7


def test_incidence_assertions_are_verified():
    pts = (ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(0, 1, 0),
           ProjectivePoint.of(0, 0, 1))
    with pytest.raises(ValueError):
        PointConfig(pts, ("A", "B", "C"), incidences=(((1, 2), 3),))


@pytest.mark.parametrize("incidence", [((0, 1), 2), ((1, 2), 7), ((-1, 2), 3), ((1, 2), 4)])
def test_incidence_labels_are_range_checked(incidence):
    # collinear points, so a label 0 read as points[-1] would pass the check
    pts = (ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(0, 1, 0),
           ProjectivePoint.of(1, 1, 0))
    with pytest.raises(ConfigError, match=r"has a label outside 1\.\.3") as err:
        PointConfig(pts, ("A", "B", "C"), incidences=(incidence,))
    assert err.value.field == "incidences"
    assert PointConfig(pts, ("A", "B", "C"), incidences=(((1, 2), 3),)).incidences


def test_coincident_points_rejected():
    pts = (ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(2, 0, 0))
    with pytest.raises(ConfigError, match="points A and B coincide") as err:
        PointConfig(pts, ("A", "B"))
    assert err.value.field == "points"


def test_labels_are_one_per_point_and_distinct():
    pts = (ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(0, 1, 0),
           ProjectivePoint.of(0, 0, 1))
    with pytest.raises(ConfigError, match="one label per point") as err:
        PointConfig(pts, ("A", "B"))
    assert err.value.field == "labels"
    with pytest.raises(ConfigError, match="duplicate label 'A'") as err:
        PointConfig(pts, ("A", "B", "A"))
    assert err.value.field == "labels[2]"


def test_exact_coordinates_required():
    with pytest.raises(TypeError):
        ProjectivePoint.of(0.5, 1, 1)
    with pytest.raises(TypeError):
        ProjectivePoint((1, 0.5, 1))
    assert ProjectivePoint.of("1/2", 1, 1).same_point(ProjectivePoint.of(1, 2, 2))
    # coords is the coprime integer triple, signs kept
    assert ProjectivePoint.of("-1/2", 0, Fraction(3, 4)).coords == (-2, 0, 3)
    assert ProjectivePoint((-4, -6, 0)).coords == (-2, -3, 0)


_rational = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)


@given(st.tuples(_rational, _rational, _rational).filter(any), _rational.filter(bool))
@settings(max_examples=200)
def test_a_point_is_stored_as_coprime_integers(p, lam):
    point, scaled = ProjectivePoint.of(*p), ProjectivePoint.of(*(lam * c for c in p))
    for q in (point, scaled):
        assert all(type(c) is int for c in q.coords)
        assert gcd(*q.coords) == 1
    assert scaled.same_point(point)
    # the scale is taken out without canonicalising the sign
    assert scaled.coords == tuple(c if lam > 0 else -c for c in point.coords)


def test_collinear_determinant():
    a, b = ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(0, 1, 0)
    assert collinear(a, b, ProjectivePoint.of(1, 1, 0))
    assert not collinear(a, b, ProjectivePoint.of(1, 1, 1))


def test_h0_fat_points_reference_values(cfg):
    # anticanonical-plus-pencil class: quintics double at P2,P4,P5,P6,
    # simple at P1,P3
    assert h0_fat_points(cfg, FatPointSystem(5, (1, 2, 1, 2, 2, 2))) == 7
    # all conics
    assert h0_fat_points(cfg, FatPointSystem(2, (0,) * 6)) == 6
    # quartics double at P1,P2,P3,P5,P6 and through P4: the four sides form a
    # fixed quartic, so the system is a single curve despite a negative
    # generic count
    assert h0_fat_points(cfg, FatPointSystem(4, (2, 2, 2, 1, 2, 2))) == 1
    # lines through the three corner points
    assert h0_fat_points(cfg, FatPointSystem(1, (1, 1, 1, 0, 0, 0))) == 0
    # cubics double at P2,P4 and through the other four points
    assert h0_fat_points(cfg, FatPointSystem(3, (1, 2, 1, 2, 1, 1))) == 0
    # degree 9: the invariant bicanonical class with the four sides as fixed
    # components; must agree with the quintic count above
    assert h0_fat_points(cfg, FatPointSystem(9, (3, 4, 3, 4, 4, 4))) == 7


def test_h0_class_reference_values(cfg, lat):
    cat = quadrilateral_catalog()
    assert h0_class(cfg, cat.K + lat.cls((5, -1, -2, -1, -3, -2, -2))) == 0
    assert h0_class(cfg, cat.K + lat.cls((6, -2, -2, -2, -2, -3, -3))) == 0
    assert h0_class(cfg, lat.cls((1, -1, -1, -1, 0, 0, 0))) == 0
    assert h0_class(cfg, lat.cls((5, -1, -2, -1, -3, -3, -3))) == 0
    assert h0_class(cfg, lat.cls((3, -1, -2, -1, -2, -1, -1))) == 0
    assert h0_class(cfg, lat.zero()) == 1
    assert h0_class(cfg, lat.cls((9, -3, -4, -3, -4, -4, -4))) == 7


def test_h0_class_negative_degree(cfg, lat):
    trace = []
    assert h0_class(cfg, lat.cls((-1, 0, 0, 0, 0, 0, 0)), trace=trace) == 0
    assert any("negative degree" in t for t in trace)


def test_h0_class_fixed_component_removal(cfg):
    cat = quadrilateral_catalog()
    # f1 - Delta1 contains e1 and e3 with positive sign; both get peeled off
    cls = cat.f[0] - cat.Delta[0]
    trace = []
    value = h0_class(cfg, cls, trace=trace)
    assert value == 0
    assert len(trace) == 2
    assert any("e1" in t for t in trace) and any("e3" in t for t in trace)
    # peeling exceptional curves off the zero class changes nothing
    assert h0_class(cfg, cat.e[0] + cat.e[1]) == 1


def test_h0_class_refuses_a_blowup_basis_in_another_order(cfg, lat):
    # the coefficients are read by position, so only the basis (l, e1, ..., e6)
    # is accepted; a hand-built "blowup" lattice of the right rank is not it
    reordered = Lattice(("l", "e2", "e1", "e3", "e4", "e5", "e6"), lat.gram, "blowup")
    cls = reordered.cls((9, -3, -4, -3, -4, -4, -4))
    with pytest.raises(ValueError, match="does not live on the blowup at the configured points"):
        h0_class(cfg, cls)
    renamed = Lattice(("h",) + lat.labels[1:], lat.gram, "blowup")
    with pytest.raises(ValueError, match="does not live on the blowup"):
        h0_class(cfg, renamed.zero())
    by_hand = Lattice(lat.labels, lat.gram, "blowup")
    assert h0_class(cfg, by_hand.cls((9, -3, -4, -3, -4, -4, -4))) == 7


def test_h0_depends_only_on_the_class(cfg):
    cat = quadrilateral_catalog()
    one_way = (-cat.K) + cat.f[0]
    other_way = cat.Delta[0] + 2 * cat.Delta[1] + 2 * cat.Delta[2]
    assert one_way == other_way
    assert h0_class(cfg, one_way) == h0_class(cfg, other_way) == 7


def _random_unimodular(rng, size=3, steps=8):
    mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(size):
            mat[i][k] += c * mat[j][k]
    return mat


REFERENCE_SYSTEMS = [
    (FatPointSystem(5, (1, 2, 1, 2, 2, 2)), 7),
    (FatPointSystem(4, (2, 2, 2, 1, 2, 2)), 1),
    (FatPointSystem(3, (1, 2, 1, 2, 1, 1)), 0),
    (FatPointSystem(9, (3, 4, 3, 4, 4, 4)), 7),
]


def test_h0_invariant_under_projectivities(cfg):
    rng = random.Random(20240817)
    for trial in range(4):
        moved = apply_projectivity(cfg, _random_unimodular(rng))
        for system, expected in REFERENCE_SYSTEMS:
            assert h0_fat_points(moved, system) == expected


def test_projectivity_must_be_invertible(cfg):
    with pytest.raises(ValueError):
        apply_projectivity(cfg, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_generic_position_bound(cfg):
    # h0 >= (d+1)(d+2)/2 - sum m(m+1)/2 always; on this special configuration
    # the quartic system exceeds the bound strictly
    for system, value in REFERENCE_SYSTEMS:
        bound = ((system.degree + 1) * (system.degree + 2) // 2
                 - sum(m * (m + 1) // 2 for m in system.multiplicities))
        assert value >= bound
    quartic = FatPointSystem(4, (2, 2, 2, 1, 2, 2))
    generic = (4 + 1) * (4 + 2) // 2 - sum(m * (m + 1) // 2 for m in quartic.multiplicities)
    assert h0_fat_points(cfg, quartic) == 1 > max(generic, 0)


@given(st.integers(0, 4),
       st.lists(st.integers(0, 2), min_size=6, max_size=6),
       st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_h0_monotonicity(d, mult, bump_at):
    cfg = quadrilateral_config()
    base = h0_fat_points(cfg, FatPointSystem(d, tuple(mult)))
    # extra vanishing condition never increases h0
    bumped = list(mult)
    bumped[bump_at % 6] += 1
    assert h0_fat_points(cfg, FatPointSystem(d, tuple(bumped))) <= base
    # raising the degree never decreases it
    assert h0_fat_points(cfg, FatPointSystem(d + 1, tuple(mult))) >= base


def test_system_validation():
    with pytest.raises(ValueError):
        FatPointSystem(-1, ())
    with pytest.raises(ValueError):
        FatPointSystem(2, (1, -1))


def oracle_h0(cfg, system):
    """Independent route: every Fraction partial of order < m_i at P_i,
    ranked by plain Gaussian elimination over Fraction."""
    d = system.degree
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    rows = []
    for point, m in zip(cfg.points, system.multiplicities):
        x, y, z = point.coords
        for order in range(m):
            for dx in range(order + 1):
                for dy in range(order + 1 - dx):
                    dz = order - dx - dy
                    rows.append([
                        Fraction(perm(a, dx) * perm(b, dy) * perm(c, dz))
                        * x ** (a - dx) * y ** (b - dy) * z ** (c - dz)
                        if a >= dx and b >= dy and c >= dz else Fraction(0)
                        for a, b, c in monos])
    rank = 0
    for col in range(len(monos)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [u - factor * v for u, v in zip(rows[r], rows[rank])]
        rank += 1
    return len(monos) - rank


_coordinate = st.one_of(st.just(0), st.integers(-3, 3),
                        st.fractions(-3, 3, max_denominator=7))
_point = st.tuples(_coordinate, _coordinate, _coordinate).filter(any)
_nonzero = st.fractions(-3, 3, max_denominator=5).filter(bool)


@st.composite
def fat_point_cases(draw):
    """A configuration of 1-4 distinct points, sometimes with a forced
    collinear triple, and a system with d in 0..8 and m in 0..5, where
    m = d + 1 and m = d + 2 are drawn often."""
    coords = draw(st.lists(_point, min_size=1, max_size=4))
    if len(coords) >= 3 and draw(st.booleans()):
        lam, mu = draw(st.tuples(_nonzero, _nonzero))
        coords[2] = tuple(lam * p + mu * q for p, q in zip(coords[0], coords[1]))
    points = []
    for c in filter(any, coords):
        point = ProjectivePoint.of(*c)
        if not any(point.same_point(q) for q in points):
            points.append(point)
    cfg = PointConfig(tuple(points), tuple(f"P{i}" for i in range(len(points))))
    d = draw(st.integers(0, 8))
    near = sorted({min(d + 1, 5), min(d + 2, 5)})
    mult = draw(st.lists(st.one_of(st.integers(0, 5), st.sampled_from(near)),
                         min_size=cfg.n_points, max_size=cfg.n_points))
    return cfg, FatPointSystem(d, tuple(mult))


def _framed_case(coords, d, mult):
    points = tuple(ProjectivePoint.of(*c) for c in coords)
    return (PointConfig(points, tuple(f"P{i}" for i in range(len(points)))),
            FatPointSystem(d, tuple(mult)))


@given(fat_point_cases())
# three collinear heavy points: the third is outside the frame and reaches
# the matrix
@example(_framed_case([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 4, (3, 3, 3)))
# a frame point with m > d + 1, beside a simple point
@example(_framed_case([(1, 2, 0), (0, 1, 1)], 3, (6, 1)))
# a single point: a frame-only system
@example(_framed_case([(2, -1, 3)], 3, (2,)))
# a 3-point line whose third point has m > 0, stripped twice
@example(_framed_case([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 3)], 4, (3, 2, 2, 1)))
# a point with m = 0 on a stripped line
@example(_framed_case([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 3, (3, 2, 0, 1)))
# a line through two points whose sum equals the degree is not stripped
@example(_framed_case([(1, 0, 0), (0, 1, 0)], 2, (1, 1)))
# strips repeated until d < 0
@example(_framed_case([(1, 0, 0), (0, 1, 0)], 2, (5, 5)))
# the inoue7 system: the four sides of the quadrilateral are stripped
@example((quadrilateral_config(), FatPointSystem(9, (3, 4, 3, 4, 4, 4))))
@settings(max_examples=80, deadline=None)
def test_h0_matches_the_full_fraction_matrix(case):
    cfg, system = case
    assert h0_fat_points(cfg, system) == oracle_h0(cfg, system)


def test_oracle_sees_the_special_position(cfg):
    # the quartic system of the quadrilateral exceeds its generic count
    assert oracle_h0(cfg, FatPointSystem(4, (2, 2, 2, 1, 2, 2))) == 1
    assert oracle_h0(cfg, FatPointSystem(5, (1, 2, 1, 2, 2, 2))) == 7


def _row_bound(system):
    ts = [min(m - 1, system.degree) for m in system.multiplicities if m > 0]
    return sum((t + 1) * (t + 2) // 2 for t in ts)


def all_monomials(d):
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def full_matrix(cfg, system):
    """The interpolation matrix over every degree-d monomial."""
    return interpolation_matrix([p.coords for p in cfg.points], system,
                                all_monomials(system.degree))


@given(st.integers(0, 10), st.lists(st.integers(0, 12), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_interpolation_rows_are_the_top_order_partials(d, mult):
    system = FatPointSystem(d, tuple(mult))
    rows = full_matrix(quadrilateral_config(), system)
    assert len(rows) == _row_bound(system)
    assert all(type(x) is int for row in rows for x in row)


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
                .filter(any), min_size=1, max_size=4),
       st.integers(0, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_columns_built_are_the_columns_asked_for(points, d, data):
    system = FatPointSystem(d, tuple(data.draw(st.lists(
        st.integers(0, 4), min_size=len(points), max_size=len(points)))))
    monos = all_monomials(d)
    alive = sorted(data.draw(st.sets(st.sampled_from(range(len(monos))))))
    full = interpolation_matrix(points, system, monos)
    assert interpolation_matrix(points, system, [monos[j] for j in alive]) == \
        [[row[j] for j in alive] for row in full]


def test_multiplicity_far_above_the_degree(cfg):
    system = FatPointSystem(5, (40, 0, 0, 0, 0, 0))
    assert len(full_matrix(cfg, system)) == 21
    assert h0_fat_points(cfg, system) == 0


def test_zero_denominator_coordinate_is_a_value_error():
    for coordinate in ("1/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            ProjectivePoint.of(coordinate, 1, 1)


@pytest.mark.parametrize("coordinates", [("٣/٤", 1, "１"), ("٣", 1, 1), (1, "1/٢", 1),
                                         (1, 1, "１２")])
def test_coordinate_digits_are_ascii(coordinates):
    # int() reads the digits of every script, so the pattern must not
    bad = next(c for c in coordinates if isinstance(c, str))
    with pytest.raises(ValueError, match="is not an integer or a fraction p/q") as err:
        ProjectivePoint.of(*coordinates)
    assert str(err.value) == f"point coordinate {bad!r} is not an integer or a fraction p/q"


def _outcome(parse, value):
    """What parse(value) returns, or the type and text of what it raises."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# exact coordinates: ints, unreduced p/q strings with leading zeros,
# Fractions and bools
_exact_coordinate = st.one_of(
    st.integers(-10 ** 30, 10 ** 30), st.integers(-3, 3),
    st.from_regex(r"-?0*[0-9]{1,8}(/0*[0-9]{1,6})?", fullmatch=True),
    st.sampled_from(["-0", "0/7", "-0/3", "007", "2/4", "-6/0004", "00/01"]),
    st.fractions(), st.booleans())
# and what must be refused: zero denominators, floats, exponent, decimal and
# padded strings, digits of other scripts, strings past the interpreter's
# digit limit, None
_coordinate_input = st.one_of(
    _exact_coordinate, st.floats(), st.none(),
    st.from_regex(r"-?\d{1,4}(/\d{1,3})?", fullmatch=True).filter(lambda x: not x.isascii()),
    st.sampled_from(["1/0", "0/0", "-5/00", "1e3", "1.5", " 1", "1 ", "+1", "1/-2", "", "/2",
                     "1/", "--1", "1_000", "1" * 4301, "1/" + "2" * 4301, "-" + "9" * 4301]))


def _ratio_as_fraction(x):
    numerator, denominator = _ratio(x)
    assert type(numerator) is int and type(denominator) is int and denominator > 0
    return Fraction(numerator, denominator)


@given(_coordinate_input)
@example("2/4")
@example("-0")
@example("1/0")
@settings(max_examples=200)
def test_ratio_matches_the_fraction_route(x):
    assert _outcome(_ratio_as_fraction, x) == _outcome(to_fraction, x)


@given(st.one_of(st.lists(_exact_coordinate, min_size=3, max_size=3),
                 st.lists(_coordinate_input, max_size=4)))
@example(["2/4", "1/2", 1])
@example(["-0", 0, "0/5"])
@example([1, 2])
@example([1, 2, 3, 4])
@example([True, "-2/4", Fraction(3, 6)])
@settings(max_examples=200)
def test_point_parsing_matches_the_fraction_route(coords):
    """The coprime triple, or the exception type and text, of the integer
    parser equal those of the Fraction route."""
    parsed = _outcome(lambda c: ProjectivePoint(tuple(c)).coords, coords)
    assert parsed == _outcome(fraction_point, coords)


def test_degree_is_capped(cfg):
    assert h0_fat_points(cfg, FatPointSystem(MAX_DEGREE, (0,) * 6)) == \
        (MAX_DEGREE + 1) * (MAX_DEGREE + 2) // 2
    with pytest.raises(ValueError, match="degree must be between 0 and"):
        FatPointSystem(MAX_DEGREE + 1, (0,) * 6)


def test_fixed_components_are_capped_before_any_is_stripped(cfg, lat):
    trace = []
    assert h0_class(cfg, lat.cls({"l": 2, "e1": MAX_FIXED_COMPONENTS}), trace=trace) == 6
    assert len(trace) == MAX_FIXED_COMPONENTS
    trace = []
    with pytest.raises(ValueError, match="fixed components exceed"):
        h0_class(cfg, lat.cls({"l": 2, "e1": 3_000_000, "e2": 1}), trace=trace)
    assert trace == []


def unframed_h0(cfg, system):
    """The integer route without a frame: every condition of every point,
    eliminated over all degree-d monomials."""
    n_monomials = (system.degree + 1) * (system.degree + 2) // 2
    return n_monomials - exact_rank(full_matrix(cfg, system))


_VERTICES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@st.composite
def framed_cases(draw):
    """4-10 distinct points and a system with d in 0..8, m in 0..5.

    Layouts: free points; the three heaviest points collinear; all points
    on one line.  Some points are moved to the coordinate vertices, and
    sometimes fewer than three points have m > 0.
    """
    n = draw(st.integers(4, 10))
    p, q = draw(_point), draw(_point)
    assume(not ProjectivePoint.of(*p).same_point(ProjectivePoint.of(*q)))
    layout = draw(st.sampled_from(("free", "collinear-heaviest", "one-line")))
    if layout == "one-line":
        ts = draw(st.lists(_nonzero, min_size=n - 2, max_size=n - 2, unique=True))
        coords = [p, q] + [tuple(a + t * b for a, b in zip(p, q)) for t in ts]
    else:
        coords = [p, q] + draw(st.lists(_point, min_size=n - 2, max_size=n - 2))
        if layout == "collinear-heaviest":
            lam, mu = draw(st.tuples(_nonzero, _nonzero))
            coords[2] = tuple(lam * a + mu * b for a, b in zip(p, q))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        coords[i] = draw(st.sampled_from(_VERTICES))
    distinct = []
    for c in coords:
        if any(c) and not any(ProjectivePoint.of(*c).same_point(ProjectivePoint.of(*o))
                              for o in distinct):
            distinct.append(c)
    assume(len(distinct) >= 4)
    d = draw(st.integers(0, 8))
    near = sorted({min(d + 1, 5), min(d + 2, 5)})
    mult = draw(st.lists(st.one_of(st.integers(0, 5), st.sampled_from(near)),
                         min_size=len(distinct), max_size=len(distinct)))
    if layout == "collinear-heaviest":  # heaviest first, ties by index
        mult = sorted(mult, reverse=True)
    n_active = draw(st.one_of(st.just(len(distinct)), st.integers(0, 2)))
    mult[n_active:] = [0] * (len(distinct) - n_active)
    return _framed_case(distinct, d, mult)


@given(framed_cases())
# the three heaviest points collinear: the third is skipped for the next one
@example(_framed_case([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 3), (2, -1, 1)],
                      4, (3, 3, 3, 2, 1)))
# points at the vertices, one of them unused, and the heaviest points on a line
@example(_framed_case([(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)],
                      5, (0, 3, 3, 3, 1)))
# all points on one line, every one double
@example(_framed_case([(1, 0, 1), (0, 1, 1), (1, 1, 2), (1, -1, 0), (2, 1, 3)],
                      4, (2, 2, 2, 2, 2)))
# m >= d + 1 at one point, fewer than three points with m > 0
@example(_framed_case([(1, 2, 0), (3, 0, Fraction(1, 7)), (1, 1, 1), (2, 3, 5)],
                      3, (4, 1, 0, 0)))
# a 3-point line whose third point has m > 0, stripped twice
@example(_framed_case([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 3)], 4, (3, 2, 2, 1)))
# a point with m = 0 on a stripped line
@example(_framed_case([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 3, (3, 2, 0, 1)))
# strips repeated until d < 0
@example(_framed_case([(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 3, 5)], 2, (5, 5, 0, 0)))
# the inoue7 system: the four sides of the quadrilateral are stripped
@example((quadrilateral_config(), FatPointSystem(9, (3, 4, 3, 4, 4, 4))))
@settings(max_examples=120, deadline=None)
def test_frame_matches_the_unframed_route(case):
    cfg, system = case
    assert h0_fat_points(cfg, system) == unframed_h0(cfg, system)


@st.composite
def frame_only_cases(draw):
    """1-3 independent points with m > 0 (m up to 10, so m > d + 1 occurs)
    and up to four more points with m = 0, in a random order."""
    heavy = [ProjectivePoint.of(*c) for c in draw(st.lists(_point, min_size=1, max_size=3))]
    if len(heavy) == 2:
        assume(not heavy[0].same_point(heavy[1]))
    if len(heavy) == 3:
        assume(not collinear(*heavy))
    points = list(heavy)
    for c in draw(st.lists(_point, max_size=4)):
        point = ProjectivePoint.of(*c)
        if not any(point.same_point(q) for q in points):
            points.append(point)
    mult = draw(st.lists(st.integers(1, 10), min_size=len(heavy), max_size=len(heavy)))
    mult += [0] * (len(points) - len(heavy))
    order = draw(st.permutations(range(len(points))))
    cfg = PointConfig(tuple(points[i] for i in order),
                      tuple(f"P{i}" for i in range(len(points))))
    return cfg, FatPointSystem(draw(st.integers(0, 8)), tuple(mult[i] for i in order))


def _refuse(*args):
    raise AssertionError("a frame-only system reached the elimination")


@given(frame_only_cases())
@example(_framed_case([(1, 0, 0), (1, 1, 1), (2, -1, 3), (0, 1, 0)], 5, (0, 2, 3, 1)))
@settings(max_examples=80, deadline=None)
def test_a_frame_only_system_builds_no_matrix(case):
    """When every positive multiplicity sits on at most three independent
    points, the frame kills every condition: no matrix is built or ranked."""
    cfg, system = case
    with patch.object(linsys, "interpolation_matrix", _refuse), \
            patch.object(linsys, "exact_rank", _refuse):
        value = h0_fat_points(cfg, system)
    assert value == unframed_h0(cfg, system)


def test_interpolation_points_and_multiplicities_have_one_length():
    # zip would build rows for the shorter side only
    monomials = all_monomials(2)
    with pytest.raises(ValueError, match="one multiplicity per point"):
        interpolation_matrix([(1, 0, 0)], FatPointSystem(2, (1, 1)), monomials)
    with pytest.raises(ValueError, match="one multiplicity per point"):
        interpolation_matrix([(1, 0, 0), (0, 1, 0)], FatPointSystem(2, (1,)), monomials)


def test_inoue7_builds_one_small_matrix():
    """The lines of the quadrilateral are stripped before framing, so the
    whole inoue7 eigentable ranks one matrix of at most 5 rows."""
    shapes = []

    def spy(points, system, monomials):
        rows = interpolation_matrix(points, system, monomials)
        shapes.append((len(rows), len(monomials)))
        return rows

    payload = json.loads(cli.builtin_scenario_text("inoue7"))
    with patch.object(linsys, "interpolation_matrix", spy):
        cli.run_scenario(payload)
    assert len(shapes) <= 1 and all(rows <= 5 for rows, _ in shapes)


@given(framed_cases())
@settings(max_examples=100, deadline=None)
def test_lines_are_maximal_and_cover_each_pair_once(case):
    cfg, _ = case
    pts = cfg.points
    pairs = sorted(pair for line in cfg.lines for pair in combinations(line, 2))
    assert pairs == list(combinations(range(cfg.n_points), 2))
    for line in cfg.lines:
        a, b = line[:2]
        assert line == tuple(k for k in range(cfg.n_points) if collinear(pts[a], pts[b], pts[k]))


def _capped_payload(points):
    """Degree 12, the degree cap, with multiplicity 4 at every point."""
    return {"kind": "linsys", "points": points,
            "systems": [{"degree": 12,
                         "multiplicities": {f"P{i}": 4 for i in range(1, len(points) + 1)}}]}


def test_a_capped_system_runs_within_its_budget():
    """Ten random points with coordinates at the cap, d = 12, every m = 4:
    one 70 x 61 matrix of entries up to about 2^450, of full rank mod p.  It
    runs in under 0.5 s (best of 3), and the integer route, which takes
    seconds on it, gives the same h0."""
    rng = random.Random(1)
    points = [[rng.randint(-MAX_COORDINATE, MAX_COORDINATE) for _ in range(3)]
              for _ in range(10)]
    built = []

    def spy(points, system, monomials):
        rows = interpolation_matrix(points, system, monomials)
        built.append((rows, len(monomials)))
        return rows

    times = []
    with patch.object(linsys, "interpolation_matrix", spy):
        for _ in range(3):
            start = time.perf_counter()
            result, _ = cli.run_scenario(_capped_payload(points))
            times.append(time.perf_counter() - start)
    rows, n_alive = built[0]
    assert (len(rows), n_alive) == (70, 61)
    assert min(times) < 0.5
    assert result["systems"][0]["h0"] == n_alive - _integer_rank(rows)


def test_a_rank_deficient_capped_system_falls_back():
    """Ten points (t^2, ts, s^2) of the conic y^2 = xz, coordinates near the
    cap, d = 12, every m = 4.  The conic C meets the system in 24 < 40, so it
    is a component; so again at d = 10, m = 3 (20 < 30) and at d = 8, m = 2
    (16 < 20).  The sextics through the ten points are then C times the
    15 quartics plus a 13 - 10 = 3 dimensional restriction to C = P^1, so
    h0 = 18.  The framed matrix is rank-deficient, so its rank is not full
    mod p either, and integer elimination decides it."""
    params = [(-119, 33), (5, 61), (251, 231), (227, 195), (143, 222),
              (-254, 229), (-152, 163), (134, 111), (176, 15), (-29, 225)]
    points = [[t * t, t * s, s * s] for t, s in params]
    assert max(abs(c) for p in points for c in p) <= MAX_COORDINATE
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return _integer_rank(rows)

    with patch.object(exactlinalg, "_integer_rank", spy):
        result, _ = cli.run_scenario(_capped_payload(points))
    assert result["systems"][0]["h0"] == 18
    assert calls == [70]
