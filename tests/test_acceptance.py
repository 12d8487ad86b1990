"""Acceptance suite: one test per criterion, exact arithmetic everywhere
(tolerance is equality).  Each test prints a pass line; run with

    pytest tests/test_acceptance.py -v -s
"""

import random
from types import SimpleNamespace

from bicanonical.beauville import bicanonical_report, fixed_point_elements, is_free
from bicanonical.covers import (BranchDataP1, double_cover_invariants,
                                eigensheaf_degrees, genus_from_degrees,
                                rh_genus, validate_building_data,
                                z22_bicanonical_report, z22_element_name,
                                z22_surface_cover_invariants)
from bicanonical.fermat import (builtin_ratio_identities, fermat_fixed_elements,
                                fermat_psi, invariant_monomials, ratio_lattice, residual_kernel,
                                verify_ratio_identity, verify_weight_derivation,
                                x1_5_over_z1_5, x5_over_z5)
from bicanonical.grouplib import Automorphism, GroupError, make_group
from bicanonical.linsys import FatPointSystem, h0_class, h0_fat_points, quadrilateral_config
from bicanonical.piclattice import quadrilateral_catalog
from bicanonical.proofcheck import check_corollary, reider_enumeration, run_case_table
from oracles import (add, apply_projectivity, charged_degree, dual_basis_degrees,
                     field_lattice_contains, inoue_building_data, pairing)


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


def _h0():
    cfg = quadrilateral_config()
    return lambda cls: h0_class(cfg, cls)


def z23_spec():
    G = make_group([2, 2, 2])
    g1, g2, g3 = G.generators()
    psi = Automorphism.from_images(G, [(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    c1 = BranchDataP1(G, {g1: ("P1", "P2"), g2: ("P3", "P4"), g3: ("P5", "P6")},
                      line_bundles=[1, 1, 1])
    c2 = BranchDataP1(G, {g1: ("Q1",), g2: ("Q2",), add(G, g1, g2): ("Q3",),
                          g3: ("Q4", "Q5")}, line_bundles=[1, 1, 1])
    return SimpleNamespace(group=G, psi=psi, branch1=c1, branch2=c2)


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

    return SimpleNamespace(group=G, psi=psi, branch1=curve("P"), branch2=curve("Q"))


def test_criterion_1_double_cover_tables():
    records = run_case_table()
    expected = [(16, 2, 4, 3), (14, 2, 3, 2), (16, 2, 4, 3), (24, 3, 5, 3)]
    assert [r.invariants.as_tuple() for r in records] == expected
    for record in records:
        assert double_cover_invariants(record.cover) == record.invariants
        assert check_corollary(record.invariants.K2, record.invariants.q) is False
    _report(1, "four double-cover branches reproduce "
               "(16,2,4,3),(14,2,3,2),(16,2,4,3),(24,3,5,3), all contradictions")


def test_criterion_2_quadrilateral_cover():
    cat = quadrilateral_catalog()
    data = inoue_building_data()
    h0 = _h0()

    assert validate_building_data(data).ok
    assert -cat.K == cat.Delta[0] + cat.Delta[1] + cat.Delta[2]
    assert all(cat.f[i] == cat.Delta[(i + 1) % 3] + cat.Delta[(i + 2) % 3]
               for i in range(3))
    assert all(cat.Delta[i].dot(cat.S[j]) == 0 for i in range(3) for j in range(4))
    assert all(cat.Delta[i].dot(cat.f[j]) == 2 * (i == j)
               for i in range(3) for j in range(3))

    inv = z22_surface_cover_invariants(data, h0)
    report = z22_bicanonical_report(data, h0)
    assert report.K2_minimal == 7 and inv.chi == 1 and inv.pg == 0

    lat = cat.lattice
    sum_S = cat.S[0] + cat.S[1] + cat.S[2] + cat.S[3]
    five_classes = [(-cat.K + cat.f[0], 7),
                    (sum_S + cat.e[3], 1),
                    (lat.cls((3, -1, -2, -1, -2, -1, -1)), 0),
                    (lat.cls((5, -1, -2, -1, -3, -3, -3)), 0),
                    (cat.K + data.L[2], 0)]
    assert [h0(cls) for cls, _ in five_classes] == [v for _, v in five_classes]
    degree_nine = -cat.K + cat.f[0] + sum_S
    assert degree_nine.coefficient("l") == 9
    assert h0(degree_nine) == 7

    assert [dim for _, _, dim in report.eigentable] == [7, 1, 0, 0]
    assert report.p2 == 8
    assert not report.verdict.birational
    assert report.verdict.degree == 2
    assert [z22_element_name(g) for g in report.kernel.elements() if any(g)] == ["γ₁"]
    _report(2, "quadrilateral cover: identities, h0 = 7,1,0,0,0 and 7, "
               "eigentable (7,1,0,0) sum 8, composed with γ₁, degree 2")


def test_criterion_3_z23_product_quotient():
    spec = z23_spec()
    report = bicanonical_report(spec.psi, spec.branch1, spec.branch2)
    assert report.genera == (5, 3)
    assert is_free(spec.psi, fixed_point_elements(spec.branch1),
                   fixed_point_elements(spec.branch2))[0]
    assert report.bidegree == (2, 1)
    dims = sorted((e.dimension for e in report.entries if e.dimension), reverse=True)
    assert dims == [6, 1, 1, 1]
    assert report.p2 == 9
    assert report.kernel.elements() == [(0, 0, 0), (0, 0, 1)]
    assert report.verdict.degree == 2
    _report(3, "genus-(5,3) quotient: bidegree (2,1), eigentable {6,1,1,1}, "
               "kernel {0, γ₃}, degree 2")


def test_criterion_4_z24_product_quotient():
    spec = z24_spec()
    report = bicanonical_report(spec.psi, spec.branch1, spec.branch2)
    assert report.genera == (5, 5)
    assert is_free(spec.psi, fixed_point_elements(spec.branch1),
                   fixed_point_elements(spec.branch2))[0]
    assert report.bidegree == (1, 1)
    dims = sorted((e.dimension for e in report.entries if e.dimension), reverse=True)
    assert dims == [4, 1, 1, 1, 1, 1]
    assert report.p2 == 9
    assert report.kernel.order == 1
    assert report.verdict.birational
    _report(4, "genus-(5,5) quotient: bidegree (1,1), eigentable {4,1,1,1,1,1}, "
               "kernel trivial, birational")


def test_criterion_5_fermat_quotient():
    monomials = invariant_monomials()
    assert len(monomials) == 9
    assert {(m.i, m.j, m.alpha, m.beta) for m in monomials} == {
        (4, 0, 0, 1), (0, 3, 0, 2), (1, 1, 0, 3), (2, 1, 1, 0), (0, 0, 1, 3),
        (1, 0, 2, 0), (3, 1, 2, 2), (0, 4, 3, 0), (1, 2, 3, 1)}
    assert verify_weight_derivation()
    for _, target, combo in builtin_ratio_identities(invariant_monomials()):
        assert verify_ratio_identity(target, combo)
    gens = ratio_lattice(monomials)
    assert field_lattice_contains(x5_over_z5(), gens)
    assert field_lattice_contains(x1_5_over_z1_5(), gens)
    assert residual_kernel(monomials).order == 1
    assert is_free(fermat_psi(), fermat_fixed_elements(), fermat_fixed_elements())[0]
    _report(5, "Fermat quotient: 9 invariant monomials, weight identity, ratio "
               "identities, lattice memberships, trivial kernel, birational")


def test_criterion_6_reider_enumeration():
    assert reider_enumeration(9) == {1}
    _report(6, "divisor enumeration for K²=9 returns exactly {1}")


def _fix_parity(group, degrees):
    gens = group.generators()
    for i in range(group.rank):
        charged = sum(d for g, d in degrees.items() if pairing(group, gens[i], g) != 0)
        if charged % 2:
            degrees[gens[i]] = degrees.get(gens[i], 0) + 1
    return degrees


def test_criterion_7_property_suites():
    # (a) >= 100 random valid branch data: the two genus formulas agree
    rng = random.Random(1729)
    agreements = 0
    while agreements < 110:
        n = rng.choice([1, 2, 3, 4])
        group = make_group([2] * n)
        nonzero = [g for g in group.elements() if any(g)]
        degrees: dict = {}
        for _ in range(rng.randint(0, 8 - n)):
            g = rng.choice(nonzero)
            degrees[g] = degrees.get(g, 0) + 1
        degrees = {g: d for g, d in _fix_parity(group, degrees).items() if d}
        data = BranchDataP1(group, degrees)
        data = BranchDataP1(group, degrees,
                            line_bundles=dual_basis_degrees(group, data))
        assert sum(data.degrees.values()) <= 8
        assert validate_building_data(data).ok
        assert rh_genus(data) == genus_from_degrees(eigensheaf_degrees(data).values())
        agreements += 1

    # (b) h0 invariance under >= 3 random projectivities
    cfg = quadrilateral_config()
    systems = [(FatPointSystem(5, (1, 2, 1, 2, 2, 2)), 7),
               (FatPointSystem(4, (2, 2, 2, 1, 2, 2)), 1),
               (FatPointSystem(9, (3, 4, 3, 4, 4, 4)), 7)]

    def unimodular():
        mat = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(10):
            i, j = rng.sample(range(3), 2)
            c = rng.choice([-2, -1, 1, 2])
            for k in range(3):
                mat[i][k] += c * mat[j][k]
        return mat

    for _ in range(3):
        moved = apply_projectivity(cfg, unimodular())
        for system, expected in systems:
            assert h0_fat_points(moved, system) == expected

    # (c) fuzzer over product-quotient specs filtered on freeness and the
    # order constraint: every eigentable sums to 9
    totals = {2: [(5, 8), (6, 6), (8, 5)], 3: [(5, 6), (6, 5)], 4: [(5, 5)]}
    specs = 0
    attempts = 0
    while specs < 20 and attempts < 4000:
        attempts += 1
        n = rng.choice([2, 3, 4])
        group = make_group([2] * n)
        t1, t2 = rng.choice(totals[n])

        def branch(total):
            for _ in range(80):
                degs: dict = {}
                for _ in range(total):
                    g = rng.choice([x for x in group.elements() if any(x)])
                    degs[g] = degs.get(g, 0) + 1
                candidate = BranchDataP1(group, degs)
                if all(charged_degree(candidate, chi) % 2 == 0
                       for chi in group.coordinate_vectors()):
                    return BranchDataP1(group, degs,
                                        line_bundles=dual_basis_degrees(group, candidate))
            return None

        b1, b2 = branch(t1), branch(t2)
        if b1 is None or b2 is None:
            continue
        try:
            psi = Automorphism.from_images(
                group, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
        except GroupError:
            continue
        if not is_free(psi, fixed_point_elements(b1), fixed_point_elements(b2))[0]:
            continue
        report = bicanonical_report(psi, b1, b2)
        assert report.p2 == 9
        specs += 1
    assert specs >= 20
    _report(7, f"{agreements} genus agreements, 3 projectivity invariances, "
               f"{specs} fuzzed eigentables summing to 9")


def test_criterion_8_negative_controls():
    # every single-coefficient perturbation of an Inoue line bundle breaks a
    # building-data relation
    from bicanonical.covers import BranchDataSurface

    good = inoue_building_data()
    lat = good.lattice
    for which in (0, 1):
        for idx in range(lat.rank):
            for delta in (1, -1):
                coeffs = list(good.L[which].coeffs)
                coeffs[idx] += delta
                L = [good.L[0], good.L[1]]
                L[which] = lat.cls(coeffs)
                broken = BranchDataSurface(lat, good.D, L)
                assert not validate_building_data(broken).ok

    # every single-degree perturbation of the genus-(5,3) fixture fails
    spec = z23_spec()
    for data in (spec.branch1, spec.branch2):
        for i in range(3):
            for delta in (1, -1):
                bundles = list(data.line_bundles)
                bundles[i] += delta
                broken = BranchDataP1(data.group,
                                      dict(data.degrees), line_bundles=bundles)
                assert not validate_building_data(broken).ok

    # altering one power in a ratio identity flips the verification
    for _, target, combo in builtin_ratio_identities(invariant_monomials()):
        for k in range(len(combo)):
            for delta in (1, -1):
                altered = [(m, p + delta) if idx == k else (m, p)
                           for idx, (m, p) in enumerate(combo)]
                assert not verify_ratio_identity(target, altered)
    _report(8, "all building-data perturbations fail validation; all ratio "
               "power perturbations fail verification")
