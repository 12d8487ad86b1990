import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicanonical.exactlinalg import leading_principal_minors
from bicanonical.piclattice import (Lattice, LatticeMismatch,
                                    canonical_class, is_divisible_by,
                                    is_negative_definite, make_blowup_lattice,
                                    make_quadric_lattice, pullback_numerics,
                                    quadrilateral_catalog)
from oracles import gram_product


def cls6(l, *e):
    lat = make_blowup_lattice(6)
    return lat.cls((l,) + tuple(e))


def test_blowup_lattice_shape():
    assert make_blowup_lattice(6).rank == 7
    lat0 = make_blowup_lattice(0)
    assert lat0.rank == 1
    assert lat0.basis("l").self_intersection() == 1
    assert make_blowup_lattice(2).rank == 3


def test_intersection_examples():
    # (5l - e1 - 2e2 - e3 - 2e4 - 2e5 - 2e6)^2 = 7
    assert cls6(5, -1, -2, -1, -2, -2, -2).self_intersection() == 7
    lat = make_blowup_lattice(6)
    assert lat.basis("l").dot(lat.basis("e1")) == 0
    # direct expansion: 81 - (9+16+9+16+16+16) = -1
    assert cls6(9, -3, -4, -3, -4, -4, -4).self_intersection() == -1


def test_lattice_mismatch_is_hard_error():
    a = make_blowup_lattice(6).basis("l")
    b = make_blowup_lattice(2).basis("l")
    with pytest.raises(LatticeMismatch):
        a.dot(b)


def test_one_blowup_lattice_per_n():
    assert make_blowup_lattice(6) is make_blowup_lattice(6)
    assert quadrilateral_catalog().lattice is make_blowup_lattice(6)
    assert make_blowup_lattice(2) is not make_blowup_lattice(3)


def test_classes_of_equal_lattices_built_apart_mix():
    first, second = make_quadric_lattice(), make_quadric_lattice()
    assert first is not second and first == second
    assert (first.zero() == 0) is False
    assert (first.zero() != (0,) * first.rank) is True
    h1, h2 = first.basis("h1"), second.basis("h2")
    assert (h1 + h2).coeffs == (1, 1)
    assert (h1 - h2).coeffs == (1, -1)
    assert h1.dot(h2) == 1
    shared = make_blowup_lattice(2)
    by_hand = Lattice(shared.labels, shared.gram, "blowup")
    assert by_hand.basis("l").dot(shared.basis("l")) == 1
    with pytest.raises(LatticeMismatch):
        h1.dot(shared.basis("l"))


# the quadric, the blowups at 0..9 points, and a form with both kinds of entry
_LATTICES = ([make_quadric_lattice()] + [make_blowup_lattice(n) for n in range(10)]
             + [Lattice(("C", "theta"), ((-6, 2), (2, -2)), "abstract")])


@given(st.sampled_from(_LATTICES), st.data())
@settings(max_examples=80)
def test_dot_is_the_gram_form(lattice, data):
    coefficients = st.lists(st.integers(-50, 50), min_size=lattice.rank, max_size=lattice.rank)
    a, b = lattice.cls(data.draw(coefficients)), lattice.cls(data.draw(coefficients))
    assert a.dot(b) == gram_product(a, b)


def test_form_entries_are_the_nonzero_gram_entries():
    assert make_quadric_lattice().entries == ((0, 1, 1), (1, 0, 1))
    assert make_blowup_lattice(2).entries == ((0, 0, 1), (1, 1, -1), (2, 2, -1))
    assert make_blowup_lattice(0).rank == len(make_blowup_lattice(0).entries) == 1


def test_canonical_classes():
    assert canonical_class(make_blowup_lattice(6)).coeffs == (-3, 1, 1, 1, 1, 1, 1)
    assert canonical_class(make_quadric_lattice()).coeffs == (-2, -2)
    assert canonical_class(make_blowup_lattice(0)).coeffs == (-3,)


def test_pullback_numerics():
    lat = make_blowup_lattice(2)
    l = lat.basis("l")
    l0 = l - lat.basis("e1") - lat.basis("e2")
    assert l0.self_intersection() == -1
    assert pullback_numerics(4, l0, l0) == -4
    a = lat.cls((3, -1, -1))
    b = lat.cls((1, 0, -1))
    assert pullback_numerics(1, a, b) == a.dot(b)
    h = 2 * l + l0  # hyperplane class; its degree-4 pullback is 2K with K^2=7
    assert pullback_numerics(4, h, h) == 28
    with pytest.raises(ValueError):
        pullback_numerics(0, a, b)


def test_negative_definiteness():
    gram = [[-3, 0, 1], [0, -3, 1], [1, 1, -2]]
    assert leading_principal_minors(gram) == [-3, 9, -12]
    assert is_negative_definite(gram)
    assert not is_negative_definite([[1]])
    assert is_negative_definite([[-2]])
    assert not is_negative_definite([[-1, 1], [1, -1]])  # minors -1, 0: singular
    with pytest.raises(ValueError):
        is_negative_definite([[0, 1], [2, 0]])


def test_blowup_signature_has_one_positive_eigenvalue():
    # leading minors of diag(1,-1,...,-1) are 1, -1, 1, -1, ...: never the
    # sign pattern of a form with two positive eigenvalues
    for n in range(7):
        lat = make_blowup_lattice(n)
        minors = leading_principal_minors(lat.gram)
        assert minors == [(-1) ** k for k in range(n + 1)]


def test_divisibility():
    assert is_divisible_by(cls6(10, -2, -4, -2, -6, -4, -4), 2)
    lat = make_blowup_lattice(6)
    assert not is_divisible_by(lat.basis("l") - lat.basis("e1"), 2)
    with pytest.raises(ValueError):
        is_divisible_by(lat.basis("l"), 1)


def test_quadrilateral_catalog_identities():
    cat = quadrilateral_catalog()
    assert -cat.K == cat.Delta[0] + cat.Delta[1] + cat.Delta[2]
    for i in range(3):
        assert cat.f[i] == cat.Delta[(i + 1) % 3] + cat.Delta[(i + 2) % 3]
    for d in cat.Delta:
        for s in cat.S:
            assert d.dot(s) == 0
    for i in range(3):
        for j in range(3):
            assert cat.Delta[i].dot(cat.f[j]) == (2 if i == j else 0)
    for s in cat.S:
        assert s.self_intersection() == -2


def test_building_data_identities():
    cat = quadrilateral_catalog()
    D1 = cat.Delta[0] + cat.f[1] + cat.S[0] + cat.S[1]
    D2 = cat.Delta[1] + cat.f[2]
    D3 = cat.Delta[2] + 2 * cat.f[0] + cat.S[2] + cat.S[3]
    L1 = cls6(5, -1, -2, -1, -3, -2, -2)
    L2 = cls6(6, -2, -2, -2, -2, -3, -3)
    assert 2 * L1 == D2 + D3
    assert 2 * L2 == D1 + D3
    assert is_divisible_by(D2 + D3, 2)
    assert L1 + L2 - D3 == cls6(4, -2, -2, -2, -1, -1, -1)


def test_strict_transform_relations():
    # L0 = C + a*theta with theta^2 = -2, L0.theta = 0, L0^2 = -4 forces
    # theta.C = 2a and C^2 = -4 - 2a^2; realized here as honest rank-2
    # lattices, one per a
    for a in (0, 1, 2):
        gram = ((-4 - 2 * a * a, 2 * a), (2 * a, -2))
        lat = Lattice(("C", "theta"), gram, "abstract")
        C, theta = lat.basis("C"), lat.basis("theta")
        L0 = C + a * theta
        assert L0.dot(theta) == 0
        assert L0.self_intersection() == -4
        assert theta.dot(C) == 2 * a
        assert C.self_intersection() == -4 - 2 * a * a


coeff_strategy = st.lists(st.integers(-5, 5), min_size=4, max_size=4)


@given(coeff_strategy, coeff_strategy, coeff_strategy, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=100)
def test_intersection_bilinear_and_symmetric(u, v, w, s, t):
    lat = make_blowup_lattice(3)
    a, b, c = lat.cls(u), lat.cls(v), lat.cls(w)
    assert a.dot(b) == b.dot(a)
    assert (s * a + t * b).dot(c) == s * a.dot(c) + t * b.dot(c)


def test_cls_from_mapping_and_str():
    lat = make_blowup_lattice(6)
    cls = lat.cls({"l": 5, "e1": -1, "e2": -2, "e3": -1, "e4": -3, "e5": -2, "e6": -2})
    assert cls.coeffs == (5, -1, -2, -1, -3, -2, -2)
    assert str(cls) == "5l - e1 - 2e2 - e3 - 3e4 - 2e5 - 2e6"
    with pytest.raises(LatticeMismatch):
        lat.cls({"l": 1, "e9": 1})
    assert str(lat.zero()) == "0"
