import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicanonical import fermat
from bicanonical.beauville import fixed_point_elements, is_free
from bicanonical.covers import BranchDataP1
from bicanonical.exactlinalg import in_row_lattice
from bicanonical.fermat import (COORDINATE_RATIOS, FERMAT_GENUS, FERMAT_GROUP, BiMonomial,
                                builtin_ratio_identities, combination_vector,
                                factor_weight, fermat_fixed_elements, fermat_psi,
                                fermat_report, invariant_monomials, monomial_ratio,
                                ratio_lattice, residual_character, residual_kernel,
                                verify_weight_derivation, weight_coefficients)
from bicanonical.grouplib import Automorphism
from oracles import (all_bimonomials, automorphism_error, field_lattice_contains,
                     fixed_elements_of, free_with_witness, pairing,
                     weight_derivation_at_all_tuples)


def weight(a, b, m):
    """The exponent picked up by m under the graph action of (a, b), from
    the closed coefficients."""
    A, B = weight_coefficients(m.i, m.j, m.alpha, m.beta)
    return (a * A + b * B) % 5

X_OVER_Y = (1, -1, 0, 0, 0, 0)  # exponents over (x, y, z, x1, y1, z1)

# the nine invariant monomials, as (i, j, alpha, beta)
EXPECTED_INVARIANTS = {
    (4, 0, 0, 1),  # x^4 y1 z1^3
    (0, 3, 0, 2),  # y^3 z y1^2 z1^2
    (1, 1, 0, 3),  # x y z^2 y1^3 z1
    (2, 1, 1, 0),  # x^2 y z x1 z1^3
    (0, 0, 1, 3),  # z^4 x1 y1^3
    (1, 0, 2, 0),  # x z^3 x1^2 z1^2
    (3, 1, 2, 2),  # x^3 y x1^2 y1^2
    (0, 4, 3, 0),  # y^4 x1^3 z1
    (1, 2, 3, 1),  # x y^2 z x1^3 y1
}


def test_monomial_enumeration():
    assert len(all_bimonomials()) == 225
    with pytest.raises(ValueError):
        BiMonomial(5, 0, 0, 0)
    with pytest.raises(ValueError):
        BiMonomial(0, 0, 3, 2)
    assert BiMonomial(4, 0, 0, 1).exponents() == (4, 0, 0, 0, 1, 3)
    assert str(BiMonomial(4, 0, 0, 1)) == "x^4*y1*z1^3"


def test_weight_examples():
    m = BiMonomial(4, 0, 0, 1)    # x^4 y1 z1^3
    assert weight(1, 0, m) == 0
    assert weight(0, 1, m) == 0   # 3 + 0 + 0 + 2 = 5
    assert weight(0, 0, m) == 0
    z4 = BiMonomial(0, 0, 1, 3)   # z^4 x1 y1^3
    assert weight(1, 0, z4) == 0  # 2 + 0 + 1 - 3 = 0
    excluded = BiMonomial(4, 0, 4, 0)  # x^4 x1^4
    assert weight(1, 0, excluded) == 0
    assert weight(0, 1, excluded) == 2


def test_invariant_monomials_exactly_the_nine():
    ms = invariant_monomials()
    assert len(ms) == 9
    assert {(m.i, m.j, m.alpha, m.beta) for m in ms} == EXPECTED_INVARIANTS
    assert (4, 0, 4, 0) not in {(m.i, m.j, m.alpha, m.beta) for m in ms}


def test_every_invariant_has_weight_zero_for_all_elements():
    ms = invariant_monomials()
    invariant_set = {(m.i, m.j, m.alpha, m.beta) for m in ms}
    for m in all_bimonomials():
        weights = {weight(a, b, m) for a in range(5) for b in range(5)}
        if (m.i, m.j, m.alpha, m.beta) in invariant_set:
            assert weights == {0}
        else:
            assert weights != {0}


def test_weight_formula_derivation():
    assert verify_weight_derivation(fermat_psi())


def test_weight_uses_the_closed_coefficients(monkeypatch):
    monkeypatch.setattr(fermat, "weight_coefficients", lambda i, j, alpha, beta: (1, 0))
    assert invariant_monomials() == []


# a global drift (+beta for -beta), and a drift at the single residue tuple
# (4, 4, 4, 4), which is no monomial (i + j > 4): the check is exhaustive
@pytest.mark.parametrize("drift", [
    lambda i, j, alpha, beta: (2 + i + alpha + beta, 3 + j + alpha + 2 * beta),
    lambda i, j, alpha, beta: (2 + i + alpha - beta + (i == j == alpha == beta == 4),
                               3 + j + alpha + 2 * beta),
], ids=["sign", "one-tuple"])
def test_drifted_weight_coefficients_fail_the_check(monkeypatch, drift):
    monkeypatch.setattr(fermat, "weight_coefficients", drift)
    assert not verify_weight_derivation(fermat_psi())


@pytest.mark.parametrize("drift", [
    lambda u, i, j: (u[0] * (i + 2) + u[1] * (j + 3)) % 5,
    lambda u, i, j: (u[0] * (i + 2) + u[1] * (j + 2) + (u == (4, 4) and i == j == 4)) % 5,
], ids=["sign", "one-tuple"])
def test_drifted_factor_weight_fails_the_check(monkeypatch, drift):
    monkeypatch.setattr(fermat, "factor_weight", drift)
    assert not verify_weight_derivation(fermat_psi())


_RESIDUES = list(itertools.product(range(5), repeat=2))
_FACTOR_TABLE = {(u, i, j): factor_weight(u, i, j) for u in _RESIDUES for i, j in _RESIDUES}
_CLOSED_TABLE = {x + y: weight_coefficients(*x, *y) for x in _RESIDUES for y in _RESIDUES}
_SHIFTS = st.one_of(st.integers(-3, 3).filter(bool).map(lambda k: 5 * k),
                    st.builds(lambda k, r: 5 * k + r, st.integers(-3, 3), st.integers(1, 4)))


def _shifted(pair, side, delta):
    return tuple(c + delta if k == side else c for k, c in enumerate(pair))


@st.composite
def perturbed_tables(draw):
    """The factor and closed weight tables with 1-3 entries of either one
    shifted, or with one row x = (i, j) of the closed table shifted (still
    separable); also whether every shift is a multiple of 5."""
    factor, closed = dict(_FACTOR_TABLE), dict(_CLOSED_TABLE)
    if draw(st.booleans()):
        x, side, delta = draw(st.sampled_from(_RESIDUES)), draw(st.integers(0, 1)), draw(_SHIFTS)
        for y in _RESIDUES:
            closed[x + y] = _shifted(closed[x + y], side, delta)
        return factor, closed, delta % 5 == 0
    deltas = draw(st.lists(_SHIFTS, min_size=1, max_size=3))
    for delta in deltas:
        if draw(st.booleans()):
            key = draw(st.sampled_from(list(factor)))
            factor[key] += delta
        else:
            key, side = draw(st.sampled_from(list(closed))), draw(st.integers(0, 1))
            closed[key] = _shifted(closed[key], side, delta)
    return factor, closed, all(delta % 5 == 0 for delta in deltas)


@settings(max_examples=200, deadline=None)
@given(perturbed_tables())
def test_weight_check_matches_the_all_tuples_oracle(tables):
    factor, closed, by_fives = tables

    def factor_table(u, i, j):
        return factor[u, i, j]

    def closed_table(i, j, alpha, beta):
        return closed[i, j, alpha, beta]

    expected = weight_derivation_at_all_tuples(factor_table, closed_table, fermat_psi())
    assert expected or not by_fives
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fermat, "factor_weight", factor_table)
        patch.setattr(fermat, "weight_coefficients", closed_table)
        assert verify_weight_derivation(fermat_psi()) is expected


def test_weight_check_costs_under_half_the_oracle():
    def best_of_5(check):  # seconds, best of five runs
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert check()
            times.append(time.perf_counter() - start)
        return min(times)

    psi = fermat_psi()
    oracle = best_of_5(
        lambda: weight_derivation_at_all_tuples(factor_weight, weight_coefficients, psi))
    assert best_of_5(lambda: verify_weight_derivation(psi)) < oracle / 2


def test_riemann_roch_count():
    # 9 = chi + K^2 of the quotient surface
    assert len(invariant_monomials()) == 1 + 8
    assert FERMAT_GENUS == 6


def test_ratio_identities():
    identities = builtin_ratio_identities(invariant_monomials())
    assert [name for name, _, _ in identities] == ["x^5/z^5", "x1^5/z1^5"]
    for _, target, combo in identities:
        assert combination_vector(combo) == target
    # altering any single power breaks the identity
    for _, target, combo in identities:
        for k in range(len(combo)):
            altered = [(m, p + 1) if idx == k else (m, p)
                       for idx, (m, p) in enumerate(combo)]
            assert combination_vector(altered) != target


def test_combination_vector_matches_manual_expansion():
    ms = {str(m): m for m in invariant_monomials()}
    combo = [(ms["x^3*y*x1^2*y1^2"], 1), (ms["x^4*y1*z1^3"], 1),
             (ms["x^2*y*z*x1*z1^3"], -1), (ms["z^4*x1*y1^3"], -1)]
    assert combination_vector(combo) == (5, 0, -5, 0, 0, 0)


def test_field_lattice_membership():
    gens = ratio_lattice(invariant_monomials())
    assert len(gens) == 8
    assert [target for _, target, _ in COORDINATE_RATIOS] == [(5, 0, -5, 0, 0, 0),
                                                             (0, 0, 0, 5, 0, -5)]
    for _, target, _ in COORDINATE_RATIOS:
        assert field_lattice_contains(target, gens)
    # x/y is not even invariant under the graph action (weight a - b), so it
    # cannot lie in the lattice of invariant-monomial ratios
    assert not field_lattice_contains(X_OVER_Y, gens)


def test_ratio_lattice_base_independence():
    ms = invariant_monomials()
    for base_index in (0, 3, 8):
        reordered = ms[base_index:] + ms[:base_index]
        gens = ratio_lattice(reordered)
        assert field_lattice_contains(COORDINATE_RATIOS[0][1], gens)
        assert not field_lattice_contains(X_OVER_Y, gens)


def test_residual_characters_are_additive():
    for m in invariant_monomials():
        lam = residual_character(m)
        for g in FERMAT_GROUP.elements():
            direct = factor_weight(g, m.alpha, m.beta)
            assert pairing(FERMAT_GROUP, lam, g) == direct


def test_residual_kernel():
    assert residual_kernel(invariant_monomials()).order == 1
    single = invariant_monomials()[:1]
    assert residual_kernel(single).order == 25
    ms = invariant_monomials()
    for base_index in (0, 4, 8):
        assert residual_kernel(ms[base_index:] + ms[:base_index]).order == 1


def test_fixed_elements_and_freeness():
    fixed = fermat_fixed_elements()
    assert len(fixed) == 12
    expected = {(a, 0) for a in range(1, 5)} | {(0, b) for b in range(1, 5)} \
        | {(a, a) for a in range(1, 5)}
    assert fixed == expected
    free, witness = is_free(fermat_psi(), fixed, fixed)
    assert free and witness is None


def test_freeness_on_coordinates_matches_the_object_route_on_the_fermat_data():
    # the quintic as a Z5^2 cover of P^1, branched over three points with
    # inertia <(1,0)>, <(0,1)> and <(1,1)>, has the fixed points fermat_report
    # uses; every automorphism of Z5^2 then gives the oracle route's verdict,
    # whose fixed elements are multiples by repeated addition
    G = FERMAT_GROUP
    curve = BranchDataP1(G, {c: (f"P{i}",) for i, c in
                             enumerate([(1, 0), (0, 1), (4, 4)])}, line_bundles=[1, 1])
    multiples = fixed_elements_of(curve)
    fixed = fermat_fixed_elements()
    assert fixed_point_elements(curve) == fixed == multiples
    verdicts = []
    for entries in itertools.product(range(5), repeat=4):
        matrix = (entries[:2], entries[2:])
        if automorphism_error(G, matrix) is not None:
            continue
        psi = Automorphism(G, matrix)
        free, witness = is_free(psi, fixed, fixed)
        assert (free, witness) == free_with_witness(psi, multiples, multiples)
        verdicts.append(free)
    assert len(verdicts) == 480 and 0 < sum(verdicts) < 480
    assert is_free(fermat_psi(), fixed, fixed) == (True, None)


def test_fermat_report():
    report = fermat_report()
    assert report.invariants.as_tuple() == (8, 1, 0, 0)
    assert len(report.monomials) == 9
    assert report.weight_identity
    assert all(ok for _, ok in report.ratio_checks)
    assert all(ok for _, ok in report.lattice_memberships)
    assert report.kernel.order == 1
    assert report.degree == 1


def test_monomial_ratio():
    ms = invariant_monomials()
    assert monomial_ratio(ms[0], ms[0]) == (0, 0, 0, 0, 0, 0)


def test_report_builds_the_automorphism_once_beside_the_weight_check(monkeypatch):
    built = []
    real = fermat.fermat_psi
    monkeypatch.setattr(fermat, "fermat_psi", lambda: built.append(1) or real())
    assert fermat.fermat_report().kernel.order == 1
    assert len(built) == 1  # the report's own, which the weight check is given


def test_report_lists_the_invariant_monomials_once(monkeypatch):
    calls = []
    real = fermat.invariant_monomials
    monkeypatch.setattr(fermat, "invariant_monomials", lambda: calls.append(1) or real())
    assert len(fermat.fermat_report().monomials) == 9
    assert len(calls) == 1


def test_report_echelons_the_ratio_lattice_once(monkeypatch):
    calls = []  # (rows given, basis returned) per call
    real = fermat.integer_row_echelon

    def spy(rows):
        calls.append((len(rows), real(rows)))
        return calls[-1][1]

    monkeypatch.setattr(fermat, "integer_row_echelon", spy)
    report = fermat.fermat_report()
    assert [n for n, _ in calls] == [8]
    assert report.lattice_memberships == [("x^5/z^5", True), ("x1^5/z1^5", True)]
    # the shared basis has four rows and still refuses x/y, which is not
    # even invariant under the graph action
    basis = calls[0][1]
    assert len(basis) == 4
    assert not in_row_lattice(X_OVER_Y, basis)
