"""Randomized property suites: the two independent genus formulas agree on
random valid branch data, interpolation dimensions are projectively invariant,
and every fuzzed product-quotient spec has bicanonical eigentable summing to
K^2 + chi = 9."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicanonical.beauville import bicanonical_report, fixed_point_elements, is_free
from bicanonical.covers import (BranchDataP1, InvalidCoverData, eigensheaf_degrees,
                                genus_from_degrees, rh_genus, validate_building_data)
from bicanonical.grouplib import Automorphism, GroupError, make_group, order_of
from bicanonical.linsys import FatPointSystem, h0_fat_points, quadrilateral_config
from oracles import apply_projectivity, dual_basis_degrees, inverse, pairing, rh_genus_numeric


def _fix_parity(group, degrees):
    """Bump the degree at generator gamma_i whenever the i-th dual basis
    character sees an odd charged degree; the dual basis pairing is diagonal
    on generators, so each bump repairs exactly one character."""
    gens = group.generators()
    for i in range(group.rank):
        charged = sum(d for g, d in degrees.items() if pairing(group, gens[i], g) != 0)
        if charged % 2:
            degrees[gens[i]] = degrees.get(gens[i], 0) + 1
    return degrees


@st.composite
def branch_data(draw):
    n = draw(st.integers(1, 4))
    group = make_group([2] * n)
    nonzero = [g for g in group.elements() if any(g)]
    budget = draw(st.integers(0, 8 - n))
    degrees: dict = {}
    for _ in range(budget):
        g = nonzero[draw(st.integers(0, len(nonzero) - 1))]
        degrees[g] = degrees.get(g, 0) + 1
    degrees = _fix_parity(group, degrees)
    degrees = {g: d for g, d in degrees.items() if d}
    data = BranchDataP1(group, degrees)
    return BranchDataP1(group, degrees,
                        line_bundles=dual_basis_degrees(group, data))


@given(branch_data())
@settings(max_examples=150, deadline=None)
def test_genus_formulas_agree(data):
    assert sum(data.degrees.values()) <= 8
    assert validate_building_data(data).ok
    table = eigensheaf_degrees(data)
    assert list(table) == list(data.group.coordinate_vectors())
    assert rh_genus(data) == genus_from_degrees(table.values())
    # parity of every charged degree is what makes the table integral
    for chi, degree in table.items():
        assert 2 * degree == data.charged_degree(chi)


@given(branch_data())
@settings(max_examples=100, deadline=None)
def test_charged_degree_matches_the_pairing_route(data):
    for chi in data.group.characters():
        assert data.charged_degree(chi) == sum(
            d for g, d in data.degrees.items() if pairing(data.group, chi, g) != 0)
    # the building-data checks run once per curve
    assert validate_building_data(data) is validate_building_data(data)


def _rh_outcome(genus, *args):
    try:
        return genus(*args)
    except InvalidCoverData as exc:
        return str(exc)


@given(st.sampled_from([(2,), (2, 2), (2, 2, 2), (3,), (4,), (2, 4), (3, 3), (5, 5)]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_integer_riemann_hurwitz_matches_the_rational_route(moduli, data):
    group = make_group(moduli)
    nonzero = [g for g in group.elements() if any(g)]
    degrees = data.draw(st.dictionaries(st.sampled_from(nonzero), st.integers(1, 5),
                                        max_size=4))
    branch = BranchDataP1(group, degrees)
    numeric = _rh_outcome(rh_genus_numeric, group.order,
                          [(deg, order_of(g, moduli)) for g, deg in degrees.items()])
    assert _rh_outcome(rh_genus, branch) == numeric


def test_integer_riemann_hurwitz_rejects_an_odd_euler_number():
    group = make_group([2])
    branch = BranchDataP1(group, {(1,): 3})   # 2*2 - 3*1 = 1
    with pytest.raises(InvalidCoverData, match="odd Euler number"):
        rh_genus_numeric(2, [(3, 2)])
    with pytest.raises(InvalidCoverData, match="odd Euler number"):
        rh_genus(branch)


def test_charged_degree_of_a_character_of_another_group():
    group, other = make_group([2, 2]), make_group([2, 2, 2])
    data = BranchDataP1(group, {(1, 0): 2})
    chi = other.reduce([1, 0, 0])
    with pytest.raises(GroupError, match="coordinate length"):
        pairing(group, chi, (1, 0))
    # charged_degree reads the coordinates of a character of data.group; an
    # equal group built apart is the same group, and gives the same degree
    # as the pairing route
    same = make_group([2, 2]).reduce([1, 0])
    assert data.charged_degree(same) == 2 == sum(
        d for g, d in data.degrees.items() if pairing(group, same, g) != 0)


def _random_unimodular(rng, size=3, steps=10):
    mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        for k in range(size):
            mat[i][k] += c * mat[j][k]
    return mat


def test_h0_projective_invariance():
    cfg = quadrilateral_config()
    systems = [
        (FatPointSystem(5, (1, 2, 1, 2, 2, 2)), 7),
        (FatPointSystem(4, (2, 2, 2, 1, 2, 2)), 1),
        (FatPointSystem(1, (1, 1, 1, 0, 0, 0)), 0),
        (FatPointSystem(9, (3, 4, 3, 4, 4, 4)), 7),
    ]
    rng = random.Random(97)
    for trial in range(5):  # five exceeds the required three
        moved = apply_projectivity(cfg, _random_unimodular(rng))
        for system, expected in systems:
            assert h0_fat_points(moved, system) == expected


# admissible branch degree totals: (t1 - 4)(t2 - 4) = 16 / |G| makes the
# genera satisfy (g1 - 1)(g2 - 1) = |G|
_TOTALS = {2: [(5, 8), (6, 6), (8, 5)], 3: [(5, 6), (6, 5)], 4: [(5, 5)]}


def _random_valid_branch(rng, group, total):
    nonzero = [g for g in group.elements() if any(g)]
    for _ in range(120):
        degrees: dict = {}
        for _ in range(total):
            g = rng.choice(nonzero)
            degrees[g] = degrees.get(g, 0) + 1
        data = BranchDataP1(group, degrees)
        if all(data.charged_degree(chi) % 2 == 0 for chi in group.coordinate_vectors()):
            return BranchDataP1(group, degrees,
                                line_bundles=dual_basis_degrees(group, data))
    return None


def _random_automorphism(rng, group):
    for _ in range(60):
        images = [[rng.randrange(2) for _ in range(group.rank)]
                  for _ in range(group.rank)]
        try:
            return Automorphism.from_images(group, images)
        except GroupError:
            continue
    return None


def test_fuzzed_product_quotients_sum_to_nine():
    rng = random.Random(20240414)
    found = 0
    genera_seen = set()
    for _ in range(1500):
        n = rng.choice([2, 3, 4])
        group = make_group([2] * n)
        t1, t2 = rng.choice(_TOTALS[n])
        b1 = _random_valid_branch(rng, group, t1)
        b2 = _random_valid_branch(rng, group, t2)
        if b1 is None or b2 is None:
            continue
        psi = _random_automorphism(rng, group)
        if psi is None:
            continue
        if not is_free(psi, fixed_point_elements(b1), fixed_point_elements(b2))[0]:
            continue
        report = bicanonical_report(psi, b1, b2)
        assert report.p2 == 9 == report.invariants.K2 + report.invariants.chi
        genera_seen.add(report.genera)
        found += 1
    assert found >= 30, f"fuzzer produced only {found} valid specs"
    assert len(genera_seen) >= 2


def test_fuzzed_freeness_symmetry():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        n = rng.choice([2, 3])
        group = make_group([2] * n)
        psi = _random_automorphism(rng, group)
        if psi is None:
            continue
        elements = [g for g in group.elements() if any(g)]
        fix1 = frozenset(rng.sample(elements, rng.randrange(len(elements) + 1)))
        fix2 = frozenset(rng.sample(elements, rng.randrange(len(elements) + 1)))
        assert is_free(psi, fix1, fix2)[0] == is_free(inverse(psi), fix2, fix1)[0]
        checked += 1
    assert checked >= 100
