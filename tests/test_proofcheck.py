import pytest

from bicanonical.proofcheck import (EXPECTED_CASE_TUPLES, check_corollary,
                                    lemma32_cases, reider_enumeration,
                                    run_case_table)


def test_check_corollary():
    assert check_corollary(16, 3) is False
    assert check_corollary(14, 2) is False
    assert check_corollary(16, 1) is True
    assert check_corollary(24, 3) is False
    with pytest.raises(ValueError):
        check_corollary(16, -1)


def test_case_table_tuples():
    records = run_case_table()
    assert [r.label for r in records] == ["K7-irreducible", "K7-divisible",
                                          "K8-veronese", "K8-blowup"]
    tuples = [r.invariants.as_tuple() for r in records]
    assert tuples == [(16, 2, 4, 3), (14, 2, 3, 2), (16, 2, 4, 3), (24, 3, 5, 3)]
    assert all(r.contradiction for r in records)
    assert all(not r.bound_holds for r in records)


def test_case_table_consistency():
    for record in run_case_table():
        inv = record.invariants
        assert inv.q == inv.pg + 1 - inv.chi
        assert record.invariants.as_tuple() == EXPECTED_CASE_TUPLES[record.label]


def test_case_table_intermediate_inputs():
    records = {r.label: r for r in run_case_table()}
    # the twisted-cubic section count flows through to p_g
    assert records["K7-irreducible"].cover.h0_K_plus_M == 4
    assert records["K7-irreducible"].invariants.pg == 4
    # base K^2 values recomputed from the hyperplane decomposition
    assert records["K7-irreducible"].cover.K2_base == 7
    assert records["K8-blowup"].cover.K2_base == 8
    assert records["K8-veronese"].cover.K2_base == 8
    # M numerics
    assert (records["K7-irreducible"].cover.M_sq,
            records["K7-irreducible"].cover.M_K) == (-1, 1)
    assert (records["K7-divisible"].cover.M_sq,
            records["K7-divisible"].cover.M_K) == (0, 0)
    assert (records["K8-blowup"].cover.M_sq,
            records["K8-blowup"].cover.M_K) == (0, 2)


def test_reider_enumeration():
    assert reider_enumeration(9) == {1}
    # m = 1: 1 <= 1 < 3/2 < 2 passes; m = 2: 3 < 2 already fails
    with pytest.raises(ValueError):
        reider_enumeration(8)


def test_lemma32_report():
    report = lemma32_cases()
    assert report.K_L0 == 2
    assert report.L0_sq == -4
    assert report.divisible_by_two
    by_a = {c.a: c for c in report.cases}
    assert (by_a[0].theta_C, by_a[0].C_sq) == (0, -4)
    assert (by_a[1].theta_C, by_a[1].C_sq) == (2, -6)
    assert (by_a[2].theta_C, by_a[2].C_sq) == (4, -12)
    assert all(c.consistent for c in report.cases)
    assert report.excluded_negative_definite
