from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bicanonical import beauville
from bicanonical.beauville import (beauville_invariants, bicanonical_report,
                                   fixed_point_elements, is_free, minus_pullbacks,
                                   two_k_bidegree)
from bicanonical.covers import BranchDataP1, InternalInconsistency, InvalidCoverData
from bicanonical.fermat import fermat_psi
from bicanonical.grouplib import Automorphism, GroupError, make_group
from oracles import (add, automorphism_error, fixed_elements_of, free_with_witness, inverse,
                     neg, pairing, pullback, untransposed_minus_pullbacks)


def identity(group):
    return Automorphism.from_images(group, group.generators())


def spec_of(G, psi, c1, c2):
    return SimpleNamespace(group=G, psi=psi, branch1=c1, branch2=c2)


def report_of(spec):
    return bicanonical_report(spec.psi, spec.branch1, spec.branch2)


def factors(G, entry):
    """The pair (chi1, chi2) of characters an eigentable entry stands for."""
    return entry.character[:G.rank], entry.character[G.rank:]


def z23_spec():
    G = make_group([2, 2, 2])
    g1, g2, g3 = G.generators()
    psi = Automorphism.from_images(G, [(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    c1 = BranchDataP1(G, {g1: ("P1", "P2"), g2: ("P3", "P4"), g3: ("P5", "P6")},
                      line_bundles=[1, 1, 1])
    c2 = BranchDataP1(G, {g1: ("Q1",), g2: ("Q2",), add(G, g1, g2): ("Q3",),
                          g3: ("Q4", "Q5")}, line_bundles=[1, 1, 1])
    return spec_of(G, psi, c1, c2)


def z24_spec():
    G = make_group([2, 2, 2, 2])
    gens = G.generators()
    g0 = (1, 1, 1, 1)
    psi = Automorphism.from_images(G, [(1, 0, 1, 0), (0, 1, 0, 1),
                                       (1, 0, 0, 1), (1, 0, 1, 1)])

    def curve(prefix):
        entries = {g0: (f"{prefix}0",)}
        entries.update({gens[i]: (f"{prefix}{i + 1}",) for i in range(4)})
        return BranchDataP1(G, entries, line_bundles=[1, 1, 1, 1])

    return spec_of(G, psi, curve("P"), curve("Q"))


def test_fixed_point_elements():
    spec = z23_spec()
    G = spec.group
    fixed = fixed_point_elements(spec.branch1)
    assert fixed == frozenset(G.generators())
    empty = BranchDataP1(G, {}, line_bundles=[0, 0, 0])
    assert fixed_point_elements(empty) == frozenset()
    spec4 = z24_spec()
    fixed4 = fixed_point_elements(spec4.branch1)
    assert len(fixed4) == 5
    assert (1, 1, 1, 1) in fixed4


def test_fixed_point_elements_include_whole_inertia():
    G = make_group([4])
    data = BranchDataP1(G, {(1,): 1})
    fixed = fixed_point_elements(data)
    assert fixed == frozenset({(1,), (2,), (3,)})


def test_is_free_examples():
    spec = z23_spec()
    fix1 = fixed_point_elements(spec.branch1)
    fix2 = fixed_point_elements(spec.branch2)
    free, witness = is_free(spec.psi, fix1, fix2)
    assert free and witness is None
    ident = identity(spec.group)
    free, witness = is_free(ident, fix1, fix2)
    assert not free
    assert witness in fix1 and ident(witness) in fix2 and any(witness)
    spec4 = z24_spec()
    assert is_free(spec4.psi, fixed_point_elements(spec4.branch1),
                   fixed_point_elements(spec4.branch2))[0]


def test_is_free_inverse_symmetry():
    for spec in (z23_spec(), z24_spec()):
        fix1 = fixed_point_elements(spec.branch1)
        fix2 = fixed_point_elements(spec.branch2)
        assert is_free(spec.psi, fix1, fix2)[0] == is_free(inverse(spec.psi), fix2, fix1)[0]
    # and in a non-free situation
    G = make_group([2, 2])
    psi = Automorphism.from_images(G, [(0, 1), (1, 0)])
    fix1 = frozenset({(1, 0)})
    fix2 = frozenset({(0, 1)})
    assert not is_free(psi, fix1, fix2)[0]
    assert not is_free(inverse(psi), fix2, fix1)[0]


@st.composite
def _z2n_specs(draw):
    """A random automorphism of Z2^n (n = 2, 3, 4) and two branch data,
    each on up to six nonzero elements with degrees 0 to 3."""
    n = draw(st.integers(2, 4))
    group = make_group([2] * n)
    nonzero = [c for c in group.coordinate_vectors() if any(c)]

    def curve():
        chosen = draw(st.lists(st.sampled_from(nonzero), max_size=6, unique=True))
        return BranchDataP1(group, {c: draw(st.integers(0, 3)) for c in chosen})

    matrix = tuple(tuple(draw(st.integers(0, 1)) for _ in range(n)) for _ in range(n))
    assume(automorphism_error(group, matrix) is None)
    return spec_of(group, Automorphism(group, matrix), curve(), curve())


@given(_z2n_specs())
@example(z23_spec())
@example(z24_spec())
@settings(max_examples=200, deadline=None)
def test_freeness_on_coordinates_matches_the_object_route(spec):
    # the oracle route finds the fixed elements by repeated addition
    added1, added2 = fixed_elements_of(spec.branch1), fixed_elements_of(spec.branch2)
    fix1, fix2 = fixed_point_elements(spec.branch1), fixed_point_elements(spec.branch2)
    assert fix1 == added1 and fix2 == added2
    assert is_free(spec.psi, fix1, fix2) == free_with_witness(spec.psi, added1, added2)


@st.composite
def _automorphisms(draw):
    """A random automorphism of Z2^n (n = 1 to 4), Z3^2 or Z4 x Z2, from
    random images of the generators; draws that are no automorphism are
    rejected."""
    moduli = draw(st.sampled_from([(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (4, 2)]))
    group = make_group(moduli)
    images = [tuple(draw(st.integers(0, m - 1)) for m in moduli) for _ in moduli]
    try:
        return Automorphism.from_images(group, images)
    except GroupError:
        assume(False)


@given(_automorphisms())
@example(Automorphism.from_images(make_group([3, 3]), [(1, 1), (0, 1)]))
@example(Automorphism.from_images(make_group([4, 2]), [(1, 1), (2, 1)]))
@settings(max_examples=200, deadline=None)
def test_grown_gamma_perp_matches_the_pullback_of_every_character(psi):
    G = psi.group
    assert minus_pullbacks(psi) == [neg(G, pullback(psi, chi2))
                                    for chi2 in G.coordinate_vectors()]


def test_gamma_perp_of_the_fermat_automorphism_matches_the_pullback_of_every_character():
    # over Z5^2, where -(chi o psi) and chi o psi differ
    psi = fermat_psi()
    G = psi.group
    grown = minus_pullbacks(psi)
    assert grown == [neg(G, pullback(psi, chi2)) for chi2 in G.coordinate_vectors()]
    assert grown != [pullback(psi, chi2) for chi2 in G.coordinate_vectors()]


def test_beauville_invariants():
    for g1, g2, order in ((5, 3, 8), (5, 5, 16), (6, 6, 25)):
        inv = beauville_invariants(g1, g2, order)
        assert inv.as_tuple() == (8, 1, 0, 0)
        assert inv.K2 == 8 * inv.chi
    with pytest.raises(InvalidCoverData):
        beauville_invariants(5, 3, 16)


def test_two_k_bidegree():
    spec = z23_spec()
    assert two_k_bidegree(spec.branch1, spec.branch2) == (2, 1)
    spec4 = z24_spec()
    assert two_k_bidegree(spec4.branch1, spec4.branch2) == (1, 1)
    G2 = make_group([2])
    four = BranchDataP1(G2, {(1,): 4})
    assert two_k_bidegree(four, four) == (0, 0)
    G4 = make_group([4])
    bad = BranchDataP1(G4, {(1,): 4})
    with pytest.raises(InvalidCoverData):
        two_k_bidegree(bad, bad)


def test_induced_character_is_representative_independent():
    # (chi1, chi2) descends to chi2 on G = (G x G)/Gamma, read off (0, g); on
    # any other representative (a, psi(a) + g) of the same class it agrees
    spec = z23_spec()
    G, psi = spec.group, spec.psi
    report = report_of(spec)
    for entry in report.entries:
        chi1, chi2 = factors(G, entry)
        for g in G.elements():
            for a in G.elements():
                assert (pairing(G, chi1, a) + pairing(G, chi2, add(G, psi(a), g))) \
                    % G.exponent == pairing(G, chi2, g)


def test_induced_character_requires_descent(monkeypatch):
    # an untransposed pullback, chi -> psi(chi), builds pairs that do not kill
    # the graph; the descent check on the contributing pairs catches them
    monkeypatch.setattr(beauville, "minus_pullbacks", untransposed_minus_pullbacks)
    with pytest.raises(InternalInconsistency, match="does not descend"):
        report_of(z24_spec())


EXPECTED_Z23_TABLE = {
    (0, 0, 0, 0, 0, 0): ((0, 0), 6),
    (1, 0, 1, 1, 0, 0): ((2, 1), 1),
    (0, 1, 1, 0, 1, 0): ((2, 1), 1),
    (1, 1, 0, 1, 1, 0): ((2, 1), 1),
    (1, 1, 1, 0, 0, 1): ((3, 1), 0),
    (0, 1, 0, 1, 0, 1): ((1, 2), 0),
    (1, 0, 0, 0, 1, 1): ((1, 2), 0),
    (0, 0, 1, 1, 1, 1): ((1, 2), 0),
}


def test_bicanonical_report_z23():
    report = report_of(z23_spec())
    assert report.genera == (5, 3)
    assert report.bidegree == (2, 1)
    assert report.p2 == 9
    table = {e.character: (e.bidegree, e.dimension) for e in report.entries}
    assert [e.character for e in report.entries] == sorted(table)
    assert table == EXPECTED_Z23_TABLE
    assert report.kernel.elements() == [(0, 0, 0), (0, 0, 1)]
    assert report.degree == 2


def test_bicanonical_report_z24():
    report = report_of(z24_spec())
    assert report.genera == (5, 5)
    assert report.bidegree == (1, 1)
    dims = sorted((e.dimension for e in report.entries), reverse=True)
    assert dims == [4, 1, 1, 1, 1, 1] + [0] * 10
    assert report.p2 == 9
    assert report.kernel.order == 1
    assert report.degree == 1


def test_eigentable_supported_on_gamma_perp_only():
    spec = z23_spec()
    G, psi = spec.group, spec.psi
    report = report_of(spec)
    table = {e.character: e.dimension for e in report.entries}
    assert len(table) == G.order
    assert table[(0, 0, 0, 0, 0, 0)] == 6
    assert (1, 0, 0, 0, 0, 0) not in table
    for chi1, chi2 in (factors(G, e) for e in report.entries):
        assert all((pairing(G, chi1, g) + pairing(G, chi2, psi(g))) % 2 == 0
                   for g in G.elements())


def test_unramified_spec_rejected():
    G = make_group([2, 2, 2])
    psi = Automorphism.from_images(G, [(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    empty = BranchDataP1(G, {}, line_bundles=[0, 0, 0])
    with pytest.raises(InvalidCoverData, match="mismatch"):
        bicanonical_report(psi, empty, empty)


def test_non_free_spec_rejected():
    spec = z23_spec()
    with pytest.raises(InvalidCoverData, match="not free"):
        bicanonical_report(identity(spec.group), spec.branch1, spec.branch2)


def test_split_factors_recorded():
    # chi2 runs over the characters of G once, and chi1 = -(chi2 o psi)
    spec = z23_spec()
    G, psi = spec.group, spec.psi
    report = report_of(spec)
    assert sorted(chi2 for _, chi2 in (factors(G, e) for e in report.entries)) == \
        G.characters()
    for chi1, chi2 in (factors(G, e) for e in report.entries):
        for g in G.elements():
            assert pairing(G, chi1, g) == -pairing(G, chi2, psi(g)) % G.exponent


def test_invalid_curve_is_named_by_its_number():
    spec = z23_spec()
    G = spec.group
    g1, g2, g3 = G.generators()
    spec.branch2 = BranchDataP1(G, {g1: ("Q1",), g2: ("Q2",), add(G, g1, g2): ("Q3",),
                                    g3: ("Q4", "Q5")}, line_bundles=[1, 2, 1])
    with pytest.raises(InvalidCoverData,
                       match=r"^curve 2 building data invalid, failed relation: 2L2 "):
        report_of(spec)


def test_curves_over_another_group_rejected():
    spec = z23_spec()
    G4 = make_group([2, 2, 2, 2])
    other = BranchDataP1(G4, {g: 1 for g in G4.generators()}, line_bundles=[1, 1, 1, 1])
    with pytest.raises(InvalidCoverData,
                       match=r"^curve 2 is a cover for the group \(2, 2, 2, 2\), "
                             r"not for \(2, 2, 2\)$"):
        bicanonical_report(spec.psi, spec.branch1, other)
    with pytest.raises(InvalidCoverData, match="^curve 1 is a cover for the group"):
        bicanonical_report(spec.psi, other, spec.branch2)
    # an equal group built apart is the same group
    apart = make_group([2, 2, 2])
    assert apart is not spec.group
    twin = BranchDataP1(apart, spec.branch2.points, line_bundles=spec.branch2.line_bundles)
    report = bicanonical_report(spec.psi, spec.branch1, spec.branch2)
    twin_report = bicanonical_report(spec.psi, spec.branch1, twin)
    assert (twin_report.p2, twin_report.kernel.members) == (report.p2, report.kernel.members)
