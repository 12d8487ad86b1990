import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicanonical.covers import (BranchDataP1, BranchDataSurface, CoverInvariants,
                                DoubleCoverInput, InternalInconsistency,
                                InvalidCoverData, double_cover_invariants,
                                eigensheaf_degrees, genus_from_degrees, make_verdict,
                                projection_decomposition, rh_genus, validate_building_data,
                                z22_bicanonical_report, z22_element_name,
                                z22_surface_cover_invariants)
from bicanonical.grouplib import Subgroup, make_group
from bicanonical.linsys import h0_class, quadrilateral_config
from bicanonical.piclattice import make_blowup_lattice, quadrilateral_catalog
from oracles import (add, charged_degree, dual_basis_degrees, inoue_building_data, pairing,
                     rh_genus_numeric)


@pytest.fixture(scope="module")
def h0():
    cfg = quadrilateral_config()
    return lambda cls: h0_class(cfg, cls)


def test_verdict_degree_is_known_only_up_to_an_involution():
    group = make_group((2, 2))
    elements = group.elements()
    assert make_verdict(Subgroup(group, elements[:1])).degree == 1
    assert make_verdict(Subgroup(group, elements[:2])).degree == 2
    whole = Subgroup(group, elements)
    assert whole.order == 4
    assert make_verdict(whole).degree is None


# ------------------------------------------------------------- double covers

def test_double_cover_case_values():
    # K^2=7 image with irreducible pullback of the two-point line
    inv = double_cover_invariants(DoubleCoverInput("a", 1, 0, 7, -1, 1, 4))
    assert inv.as_tuple() == (16, 2, 4, 3)
    # K^2=7, branch divisible by two: etale cover
    inv = double_cover_invariants(DoubleCoverInput("b", 1, 0, 7, 0, 0, 3))
    assert inv.as_tuple() == (14, 2, 3, 2)
    # K^2=8, one-point blowup image
    inv = double_cover_invariants(DoubleCoverInput("c", 1, 0, 8, 0, 2, 5))
    assert inv.as_tuple() == (24, 3, 5, 3)


def test_double_cover_trivial_branch():
    inv = double_cover_invariants(DoubleCoverInput("etale", 2, 1, 6, 0, 0, 1))
    assert inv.K2 == 12 and inv.chi == 4


def test_double_cover_rejects_half_integral_chi():
    with pytest.raises(InvalidCoverData):
        double_cover_invariants(DoubleCoverInput("odd", 1, 0, 7, 0, 1, 0))


def test_invariants_require_consistency():
    with pytest.raises(InvalidCoverData):
        CoverInvariants(K2=1, chi=1, pg=0, q=1)
    with pytest.raises(InvalidCoverData):
        CoverInvariants(K2=1, chi=1, pg=-1, q=-1)
    assert not CoverInvariants(K2=12, chi=4, pg=0, q=-3).is_geometric()


# ---------------------------------------------------------- branch data on P1

def z23_curves():
    G = make_group([2, 2, 2])
    g1, g2, g3 = G.generators()
    c1 = BranchDataP1(G, {g1: ("P1", "P2"), g2: ("P3", "P4"), g3: ("P5", "P6")},
                      line_bundles=[1, 1, 1])
    c2 = BranchDataP1(G, {g1: ("Q1",), g2: ("Q2",), add(G, g1, g2): ("Q3",),
                          g3: ("Q4", "Q5")}, line_bundles=[1, 1, 1])
    return G, c1, c2


def z24_curve(labels):
    G = make_group([2, 2, 2, 2])
    gens = G.generators()
    g0 = (1, 1, 1, 1)
    entries = {g0: (labels[0],)}
    entries.update({gens[i]: (labels[i + 1],) for i in range(4)})
    return G, BranchDataP1(G, entries, line_bundles=[1, 1, 1, 1])


def test_validate_p1_building_data():
    _, c1, c2 = z23_curves()
    assert validate_building_data(c1).ok
    assert validate_building_data(c2).ok


def test_validate_detects_wrong_bundle_degree():
    G = make_group([2, 2, 2])
    g1, g2, g3 = G.generators()
    bad = BranchDataP1(G, {g1: ("P1", "P2"), g2: ("P3", "P4"), g3: ("P5", "P6")},
                       line_bundles=[2, 1, 1])
    report = validate_building_data(bad)
    assert not report.ok
    assert "2L1" in report.first_failure().name


def test_validate_detects_overlapping_supports():
    G = make_group([2, 2, 2])
    g1, g2, _ = G.generators()
    data = BranchDataP1(G, {g1: ("P1", "P2"), g2: ("P2",)}, line_bundles=[1, 1, 1])
    report = validate_building_data(data)
    assert any(not c.passed and "disjoint" in c.name for c in report.checks)


def test_branch_data_rejects_zero_element():
    G = make_group([2, 2])
    with pytest.raises(InvalidCoverData):
        BranchDataP1(G, {(0, 0): 2})


@pytest.mark.parametrize("key", [(1, 0, 0), (1,), (3, 0), (-1, 0), (1.0, 0), (True, 0), "10"])
def test_branch_data_rejects_keys_that_are_not_reduced_tuples(key):
    # the charged degrees and inertia orders read the key's residues as they
    # are, so an unreduced or wrong-length key would give wrong numbers
    G = make_group([2, 2])
    with pytest.raises(InvalidCoverData, match="indexed by group elements"):
        BranchDataP1(G, {(0, 1): 2, key: 2})
    assert BranchDataP1(G, {(0, 1): 2, (1, 0): 2}).inertia == [((0, 1), 2, 2), ((1, 0), 2, 2)]


def test_dual_basis_degrees():
    G, c1, c2 = z23_curves()
    assert dual_basis_degrees(G, c1) == (1, 1, 1)
    assert dual_basis_degrees(G, c2) == (1, 1, 1)
    g1, _, _ = G.generators()
    odd = BranchDataP1(G, {g1: 3})
    with pytest.raises(InvalidCoverData):
        dual_basis_degrees(G, odd)


# ------------------------------------------------------------ genus formulas

def test_rh_genus_values():
    G, c1, c2 = z23_curves()
    assert rh_genus(c1) == 5
    assert rh_genus(c2) == 3
    _, d1 = z24_curve(("P0", "P1", "P2", "P3", "P4"))
    assert rh_genus(d1) == 5
    assert rh_genus_numeric(1, []) == 0  # identity cover of P^1


def test_eigensheaf_degrees_tables():
    G, c1, c2 = z23_curves()
    t1 = eigensheaf_degrees(c1)
    assert sorted(t1.values()) == [0, 1, 1, 1, 2, 2, 2, 3]
    assert t1[0, 0, 0] == 0
    assert t1[1, 0, 0] == 1
    t2 = eigensheaf_degrees(c2)
    assert t2[1, 1, 0] == 1
    _, d1 = z24_curve(("P0", "P1", "P2", "P3", "P4"))
    t4 = eigensheaf_degrees(d1)
    assert sorted(t4.values()) == [0] + [1] * 10 + [2] * 5


@st.composite
def _branch_data(draw):
    """Branch data over a random group with moduli 2 to 6, on up to six
    nonzero elements, each divisor a degree 0 to 4 or a list of points."""
    moduli = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    group = make_group(moduli)
    nonzero = [c for c in group.coordinate_vectors() if any(c)]
    chosen = draw(st.lists(st.sampled_from(nonzero), max_size=6, unique=True))
    entries = {}
    for k, c in enumerate(chosen):
        degree = draw(st.integers(0, 4))
        entries[c] = draw(st.sampled_from([degree, tuple(f"P{k}.{i}" for i in range(degree))]))
    return BranchDataP1(group, entries)


@given(_branch_data())
@example(BranchDataP1(make_group([2, 3, 4]), {(1, 0, 0): 1, (0, 2, 1): 2, (1, 1, 3): 3}))
@example(BranchDataP1(make_group([6, 4]), {(3, 0): ("P", "Q"), (2, 2): 1, (5, 1): 4}))
@example(BranchDataP1(make_group([5]), {}))
@settings(max_examples=200, deadline=None)
def test_charged_degree_table_matches_the_per_character_route(data):
    group = data.group
    assert data.charged_degrees == [charged_degree(data, chi)
                                    for chi in group.coordinate_vectors()]


@given(_branch_data())
@example(BranchDataP1(make_group([6, 4]), {(3, 0): ("P", "Q"), (2, 2): 1, (5, 1): 4}))
@settings(max_examples=100, deadline=None)
def test_dual_basis_checks_charge_what_the_per_character_route_charges(data):
    group = data.group
    unchecked = BranchDataP1(group, data.degrees, line_bundles=[0] * group.rank)
    details = [check.detail for check in unchecked.validation.checks[1:]]
    assert details == [f"2*0 vs {charged_degree(data, unit)}" for unit in group.generators()]


def test_eigensheaf_degrees_are_keyed_in_coordinate_order():
    for data in (*z23_curves()[1:], z24_curve("ABCDE")[1]):
        table = eigensheaf_degrees(data)
        assert list(table) == list(data.group.coordinate_vectors())
        assert list(table.values()) == [charged_degree(data, chi) // 2 for chi in table]


def test_eigensheaf_names_the_first_odd_character():
    G = make_group([2, 2])
    data = BranchDataP1(G, {(1, 0): 1, (0, 1): 2})
    # (0, 1) charges D_(0, 1) of even degree 2; (1, 0) is the first odd one
    with pytest.raises(InvalidCoverData,
                       match=r"^charged branch degree 1 for character \(1, 0\) is odd$"):
        eigensheaf_degrees(data)


def test_eigensheaf_rejects_non_two_elementary():
    G = make_group([5, 5])
    data = BranchDataP1(G, {(1, 0): 2})
    with pytest.raises(InvalidCoverData):
        eigensheaf_degrees(data)


def test_genus_from_eigensheaf_degrees_matches():
    _, c1, c2 = z23_curves()
    assert genus_from_degrees(eigensheaf_degrees(c1).values()) == 5 == rh_genus(c1)
    assert genus_from_degrees(eigensheaf_degrees(c2).values()) == 3 == rh_genus(c2)
    _, d1 = z24_curve(("P0", "P1", "P2", "P3", "P4"))
    assert genus_from_degrees(eigensheaf_degrees(d1).values()) == 5
    assert genus_from_degrees([0]) == 0  # the table of the identity cover


def test_parity_of_charged_degrees():
    G, c1, c2 = z23_curves()
    for data in (c1, c2):
        assert len(data.charged_degrees) == G.order
        assert all(s % 2 == 0 for s in data.charged_degrees)


# --------------------------------------------------------- the surface cover

def test_surface_building_data_valid(h0):
    data = inoue_building_data()
    report = validate_building_data(data)
    assert report.ok
    assert data.L[2] == data.lattice.cls((4, -2, -2, -2, -1, -1, -1))


def test_surface_cover_invariants(h0):
    data = inoue_building_data()
    inv = z22_surface_cover_invariants(data, h0)
    assert inv.as_tuple() == (-1, 1, 0, 0)
    K = data.lattice.cls((-3, 1, 1, 1, 1, 1, 1))
    assert all(Li.dot(K + Li) == -2 for Li in data.L)


def test_surface_cover_etale_trivial_case(h0):
    lat = make_blowup_lattice(6)
    data = BranchDataSurface(lat, (lat.zero(), lat.zero(), lat.zero()),
                             (lat.zero(), lat.zero()))
    inv = z22_surface_cover_invariants(data, h0)
    assert inv.chi == 4           # 4 * chi(base)
    assert inv.K2 == 4 * 3        # 4 * K^2 of the six-point blowup
    # that tuple cannot belong to a connected surface, and the full report
    # refuses to pretend otherwise
    with pytest.raises(InternalInconsistency):
        z22_bicanonical_report(data, h0)


def test_surface_validation_failure_propagates(h0):
    cat = quadrilateral_catalog()
    good = inoue_building_data()
    # drop one copy of f1 from D3
    D = (good.D[0], good.D[1], good.D[2] - cat.f[0])
    broken = BranchDataSurface(cat.lattice, D, (good.L[0], good.L[1]))
    assert not validate_building_data(broken).ok
    with pytest.raises(InvalidCoverData):
        z22_surface_cover_invariants(broken, h0)


def test_projection_decomposition(h0):
    cat = quadrilateral_catalog()
    data = inoue_building_data()
    total = -cat.K + cat.f[0] + cat.S[0] + cat.S[1] + cat.S[2] + cat.S[3]
    dims = [dim for _, _, dim in projection_decomposition(total, data.L, h0)]
    assert dims == [7, 1, 0, 0]
    zero_total = cat.lattice.zero()
    dims0 = [dim for _, _, dim in projection_decomposition(zero_total, data.L, h0)]
    assert dims0 == [1, 0, 0, 0]


def test_z22_report(h0):
    data = inoue_building_data()
    report = z22_bicanonical_report(data, h0)
    assert report.K2_minimal == 7
    assert report.p2 == 8
    assert report.invariants.chi + report.K2_minimal == report.p2
    assert [dim for _, _, dim in report.eigentable] == [7, 1, 0, 0]
    assert [z22_element_name(g) for g in report.kernel.elements()] == ["0", "γ₁"]
    assert not report.verdict.birational
    assert report.verdict.degree == 2


def test_z22_naming_convention():
    from bicanonical.covers import Z22_CHIS

    G = make_group([2, 2])
    gammas = [(1, 0), (0, 1), (1, 1)]
    # chi_i is the unique nontrivial character orthogonal to gamma_i
    for i in range(3):
        assert pairing(G, Z22_CHIS[i], gammas[i]) == 0
        for j in range(3):
            if j != i:
                assert pairing(G, Z22_CHIS[i], gammas[j]) != 0
    assert [z22_element_name(g) for g in gammas] == ["γ₁", "γ₂", "γ₃"]


def test_branch_degree_accessors():
    G, c1, _ = z23_curves()
    g1 = G.generators()[0]
    assert c1.degrees.get(g1, 0) == 2
    assert c1.degrees.get(add(G, g1, G.generators()[1]), 0) == 0
    assert c1.total_degree() == 6
    assert [d for _, d in c1.sorted_entries()] == [2, 2, 2]


def test_q_equals_pg_plus_one_minus_chi_everywhere(h0):
    inv = z22_surface_cover_invariants(inoue_building_data(), h0)
    assert inv.q == inv.pg + 1 - inv.chi
    for tup in ((16, 2, 4, 3), (14, 2, 3, 2), (24, 3, 5, 3)):
        inv = CoverInvariants(*tup)
        assert inv.q == inv.pg + 1 - inv.chi


def test_require_returns_a_passing_report_and_names_a_failed_relation():
    _, c1, _ = z23_curves()
    report = validate_building_data(c1)
    assert report.require("curve 1") is report
    G = make_group([2, 2, 2])
    g1, g2, g3 = G.generators()
    bad = BranchDataP1(G, {g1: ("P1", "P2"), g2: ("P3", "P4"), g3: ("P5", "P6")},
                       line_bundles=[2, 1, 1])
    with pytest.raises(InvalidCoverData) as excinfo:
        validate_building_data(bad).require("curve 1")
    assert str(excinfo.value) == ("curve 1 building data invalid, failed relation: "
                                  "2L1 matches the charged branch degree (2*2 vs 2)")


def test_surface_cover_failure_uses_the_shared_wording(h0):
    data = inoue_building_data()
    broken = BranchDataSurface(data.lattice, data.D, (data.L[0] + data.lattice.basis("e1"),
                                                      data.L[1]))
    with pytest.raises(InvalidCoverData,
                       match="^Z2 x Z2 cover building data invalid, failed relation: 2L1"):
        z22_surface_cover_invariants(broken, h0)
