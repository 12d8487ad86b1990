import itertools
import time
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bicanonical.covers import BranchDataP1, InvalidCoverData
from bicanonical.grouplib import (Automorphism, GroupError, Subgroup, common_kernel,
                                  element_name, make_group, order_of, orthogonal_complement)
from oracles import add, automorphism_error, inverse, neg, pairing, span


def identity(group):
    return Automorphism.from_images(group, group.generators())


def test_make_group_orders():
    assert make_group([2, 2, 2]).order == 8
    assert make_group([5, 5]).order == 25
    assert make_group([2, 2, 2, 2]).order == 16  # (g1-1)(g2-1) for the Z2^4 surface


def test_make_group_rejects_bad_moduli():
    with pytest.raises(GroupError):
        make_group([2, 1])
    with pytest.raises(GroupError):
        make_group([])


def test_element_arithmetic_and_order():
    G = make_group([2, 4])
    a = (1, 3)
    assert add(G, a, a) == (0, 2)
    assert add(G, a, neg(G, a)) == (0, 0)
    assert order_of(a, G.moduli) == 4
    assert order_of((0, 2), G.moduli) == 2
    assert order_of((0, 0), G.moduli) == 1


@pytest.mark.parametrize("coords", [[1, 0, 0, 1], [1, 0]])
def test_coordinate_vectors_of_the_wrong_length_are_rejected(coords):
    G = make_group([2, 2, 2])
    with pytest.raises(GroupError, match="coordinate length"):
        G.reduce(coords)


def test_elements_and_characters_are_built_through_the_group():
    G = make_group([2, 4])
    assert G.reduce([3, -1]) == G.reduce((1, 3)) == (1, 3)
    assert G.reduce([5, 7]) == (1, 3)
    assert G.generators() == [(1, 0), (0, 1)]
    assert G.elements() == G.characters() == list(G.coordinate_vectors())
    assert len(set(G.elements())) == G.order


def test_mixing_groups_is_an_error():
    # a coordinate tuple of Z2^3 is refused wherever Z2^2 expects one,
    # instead of being cut short by zip
    G, H = make_group([2, 2]), make_group([2, 2, 2])
    alien = H.generators()[0]
    with pytest.raises(GroupError):
        common_kernel([alien], G)
    with pytest.raises(GroupError):
        identity(G)(alien)
    with pytest.raises(InvalidCoverData, match="indexed by group elements"):
        BranchDataP1(G, {alien: 2})
    with pytest.raises(GroupError):
        add(G, (1, 0), alien)
    with pytest.raises(GroupError):
        pairing(G, alien, (1, 0))
    with pytest.raises(GroupError):
        pairing(G, (1, 0), alien)


def test_automorphism_application_examples():
    G = make_group([2, 2, 2])
    psi = Automorphism.from_images(G, [(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert psi((0, 0, 1)) == (1, 1, 1)
    ident = identity(G)
    for g in G.elements():
        assert ident(g) == g
    G55 = make_group([5, 5])
    psi55 = Automorphism.from_images(G55, [(1, -1), (1, 2)])
    assert psi55((0, 1)) == (1, 2)
    assert psi55((1, 0)) == (1, 4)


def test_automorphism_rejects_singular_matrix():
    G = make_group([2, 2])
    with pytest.raises(GroupError):
        Automorphism.from_images(G, [(1, 0), (1, 0)])
    # nor may a generator of order 2 go to an element of order 4
    with pytest.raises(GroupError, match="does not define a homomorphism"):
        Automorphism.from_images(make_group([2, 4]), [(0, 1), (1, 0)])


def test_automorphism_inverse_is_inverse():
    for moduli, images in (((2, 2, 2), [(1, 0, 1), (0, 1, 1), (1, 1, 1)]),
                           ((5, 5), [(1, -1), (1, 2)]),
                           ((2, 2, 2, 2), [(1, 0, 1, 0), (0, 1, 0, 1),
                                           (1, 0, 0, 1), (1, 0, 1, 1)])):
        G = make_group(moduli)
        psi = Automorphism.from_images(G, images)
        inv = inverse(psi)
        for g in G.elements():
            assert inv(psi(g)) == g
            assert psi(inv(g)) == g


# The automorphism check against the exhaustive scan of tests/oracles.py.
_CHECKED_MODULI = [(2, 2, 2, 2), (2, 4), (3, 9), (5, 5)]


def _verdict(group, matrix):
    """The message with which Automorphism rejects a matrix, or None."""
    try:
        Automorphism(group, matrix)
    except GroupError as exc:
        return str(exc)
    return None


@st.composite
def _square_matrices(draw):
    """A group of _CHECKED_MODULI and a matrix over it with raw entries,
    mostly of the right shape.  Over Z2 x Z4 and Z3 x Z9 most draws are no
    homomorphism, and many homomorphisms are singular."""
    moduli = draw(st.sampled_from(_CHECKED_MODULI))
    n = len(moduli)
    width = draw(st.sampled_from([n] * 9 + [n - 1, n + 1]))
    entries = st.integers(-20, 20)
    matrix = tuple(tuple(draw(entries) for _ in range(width)) for _ in range(n))
    return make_group(moduli), matrix


@given(_square_matrices())
@settings(max_examples=300, deadline=None)
def test_automorphism_check_matches_the_exhaustive_scan(case):
    group, matrix = case
    assert _verdict(group, matrix) == automorphism_error(group, matrix)


@pytest.mark.parametrize("moduli", [(2, 4), (3, 9), (5, 5)])
def test_automorphism_check_matches_the_scan_on_every_reduced_matrix(moduli):
    """Every matrix of reduced entries over the group, so automorphisms and
    singular matrices are both met, and over Z2 x Z4 and Z3 x Z9 matrices
    that are no homomorphism; Z2^4 has 2^16 of them and is left to the
    random draws."""
    group = make_group(moduli)
    outcomes = set()
    for entries in itertools.product(*(range(mi) for mi in moduli for _ in moduli)):
        n = len(moduli)
        matrix = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        verdict = _verdict(group, matrix)
        assert verdict == automorphism_error(group, matrix)
        outcomes.add(verdict)
    assert {None, "matrix is not invertible over the group"} <= outcomes
    assert ("matrix does not define a homomorphism" in outcomes) == (len(set(moduli)) > 1)


# Test-local oracle: the graph {(g, psi(g))} as a subgroup of G x G, which
# the program never builds; it works in G through (a, b) -> b - psi(a).  A
# pair of G x G is the concatenation of two coordinate tuples of G.

def _graph(psi):
    G = psi.group
    square = make_group(G.moduli * 2)
    return square, Subgroup(square, span(square, [g + psi(g) for g in G.generators()]))


def _minus_pullback(psi, chi):
    """-(chi o psi), the partner of chi in Gamma-perp, as coordinates."""
    return neg(psi.group, psi.pullback(chi))


def test_graph_subgroup_orders():
    G = make_group([2, 2, 2])
    psi = Automorphism.from_images(G, [(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert _graph(psi)[1].order == 8
    diagonal = _graph(identity(G))[1]
    assert all(m[:3] == m[3:] for m in diagonal.members)
    G55 = make_group([5, 5])
    psi55 = Automorphism.from_images(G55, [(1, -1), (1, 2)])
    assert _graph(psi55)[1].order == 25


def test_graph_meets_second_factor_trivially():
    # so the classes of (0, g) are distinct: they represent (G x G)/Gamma = G
    G = make_group([2, 2, 2])
    psi = Automorphism.from_images(G, [(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    for member in _graph(psi)[1].members:
        if not any(member[:3]):
            assert not any(member[3:])


def test_orthogonal_complement_of_graph():
    G = make_group([2, 2, 2])
    psi = Automorphism.from_images(G, [(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    square, graph = _graph(psi)
    perp = orthogonal_complement(graph)
    assert perp.order == 8  # |G x G| / |graph|

    # ((1,0,1),(1,0,0)) pairs trivially with every (g, psi(g)): checked both
    # through the subgroup and by direct exhaustive pairing, and it is the
    # partner that the pullback gives (1,0,0)
    assert (1, 0, 1, 1, 0, 0) in perp.members
    chi1, chi2 = (1, 0, 1), (1, 0, 0)
    for g in G.elements():
        assert (pairing(G, chi1, g) + pairing(G, chi2, psi(g))) % 2 == 0
    assert _minus_pullback(psi, chi2) == chi1
    assert set(perp.members) == {_minus_pullback(psi, chi) + chi for chi in G.characters()}


def test_orthogonal_complement_of_full_group():
    G = make_group([2, 2])
    full = Subgroup(G, G.elements())
    perp = orthogonal_complement(full)
    assert perp.members == ((0, 0),)


def test_common_kernel_cases():
    G = make_group([2, 2, 2])
    assert common_kernel([], G).order == G.order
    assert common_kernel(G.characters(), G).order == 1
    kernel = common_kernel([(1, 0, 0), (0, 1, 0), (1, 1, 0)], G)
    assert kernel.elements() == [(0, 0, 0), (0, 0, 1)]


def test_subgroup_closure_and_duality_count():
    G = make_group([2, 4])
    members = span(G, [(0, 2)])
    assert sorted(members) == [(0, 0), (0, 2)]
    for a in members:
        assert neg(G, a) in members
        for b in members:
            assert add(G, a, b) in members
    perp = orthogonal_complement(Subgroup(G, members))
    assert len(members) * perp.order == G.order


@given(st.sampled_from([(2, 2), (2, 2, 2), (3, 3), (2, 4), (5, 5)]), st.data())
@settings(max_examples=80)
def test_pairing_bilinearity(moduli, data):
    G = make_group(moduli)
    pick = st.integers(0, G.order - 1)
    elements = G.elements()
    chars = G.characters()
    chi = chars[data.draw(pick) % len(chars)]
    g = elements[data.draw(pick)]
    h = elements[data.draw(pick)]
    ex = G.exponent
    assert pairing(G, chi, add(G, g, h)) == (pairing(G, chi, g) + pairing(G, chi, h)) % ex


@given(st.sampled_from([(2, 2), (2, 2, 2), (2, 4)]), st.data())
@settings(max_examples=40, deadline=None)
def test_subgroup_orthogonality_index(moduli, data):
    G = make_group(moduli)
    elements = G.elements()
    gens = data.draw(st.lists(st.sampled_from(elements), max_size=3))
    sub = Subgroup(G, span(G, gens))
    assert sub.order * orthogonal_complement(sub).order == G.order


def test_element_names():
    G = make_group([2, 2, 2])
    assert element_name((0, 0, 0)) == "0"
    assert element_name((0, 0, 1)) == "γ₃"
    assert element_name((1, 0, 1)) == "γ₁+γ₃"
    assert element_name((2, 1)) == "2γ₁+γ₂"


# Test-local oracle: the exhaustive routes that the coset closure of
# oracles.span and the kernel scan of grouplib replaced.  Saturation adds +gen
# and -gen to every member until nothing new appears; the complement pairs
# every character with every member; the kernel pairs every element with
# every character.

def _saturate(group, gens):
    zero = (0,) * group.rank
    members, frontier = {zero}, [zero]
    while frontier:
        current = frontier.pop()
        for gen in gens:
            for step in (gen, neg(group, gen)):
                nxt = add(group, current, step)
                if nxt not in members:
                    members.add(nxt)
                    frontier.append(nxt)
    return frozenset(members)


def _scan_complement(group, members):
    return frozenset(chi for chi in group.characters()
                     if all(pairing(group, chi, g) == 0 for g in members))


def _scan_kernel(group, chars):
    return frozenset(g for g in group.elements()
                     if all(pairing(group, chi, g) == 0 for chi in chars))


@st.composite
def _group_and_generators(draw):
    """A group of rank 1-3 with moduli 2-6 and a generator list padded with
    zeros, duplicates and sums of earlier generators, in a drawn order."""
    moduli = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    vector = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    gens = draw(st.lists(vector, max_size=4))
    for extra in draw(st.lists(st.sampled_from(["zero", "duplicate", "sum"]), max_size=3)):
        if extra == "zero" or not gens:
            gens.append((0,) * len(moduli))
        elif extra == "duplicate":
            gens.append(draw(st.sampled_from(gens)))
        else:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            gens.append(tuple((x + y) % m for x, y, m in zip(a, b, moduli)))
    return make_group(moduli), draw(st.permutations(gens))


@given(_group_and_generators())
@settings(max_examples=150, deadline=None)
def test_generator_arithmetic_matches_exhaustive_saturation(case):
    G, vectors = case
    # the same tuples span a subgroup of elements and one of characters
    members = span(G, vectors)
    assert members == _saturate(G, vectors)
    sub = Subgroup(G, members)
    perp = orthogonal_complement(sub)
    assert frozenset(perp.members) == _scan_complement(G, members)
    assert perp.members == tuple(sorted(perp.members))
    assert sub.order * perp.order == G.order
    assert frozenset(common_kernel(perp.members, G).members) == members

    kernel = common_kernel(vectors, G)
    assert frozenset(kernel.members) == _scan_kernel(G, vectors)
    assert kernel.order * len(members) == G.order
    assert frozenset(orthogonal_complement(kernel).members) == members
    for chi in vectors[:2]:
        assert frozenset(common_kernel([chi], G).members) == _scan_kernel(G, [chi])


# Groups whose moduli differ, so that the dual of an automorphism matrix
# rescales entry (i, j) by m_j / m_i, beside square ones.
_MIXED_MODULI = [(4, 2), (2, 4), (3, 9), (25, 5), (2, 2, 2, 2), (2, 6), (4, 4), (7,)]


@st.composite
def _automorphisms(draw):
    """A random automorphism: entry (i, j) is a multiple of m_i / gcd(m_i, m_j),
    which is what makes the matrix a homomorphism; singular draws are
    rejected."""
    moduli = draw(st.sampled_from(_MIXED_MODULI))
    matrix = tuple(tuple(draw(st.integers(0, mi - 1)) * (mi // gcd(mi, mj)) % mi
                         for mj in moduli) for mi in moduli)
    try:
        return Automorphism(make_group(moduli), matrix)
    except GroupError:
        assume(False)


@given(_automorphisms())
@example(Automorphism.from_images(make_group([2, 4]), [(1, 2), (1, 1)]))
@example(Automorphism.from_images(make_group([4, 2]), [(1, 1), (2, 1)]))
@example(Automorphism.from_images(make_group([25, 5]), [(1, 1), (5, 1)]))
@settings(max_examples=120, deadline=None)
def test_graph_complement_matches_the_scan_of_g_x_g(psi):
    """Gamma-perp built from the pullback, {(-(chi o psi), chi)}, is every
    pair of characters with chi1(g) + chi2(psi(g)) = 0 on the generators."""
    G = psi.group
    built = {_minus_pullback(psi, chi) + chi for chi in G.characters()}
    # chi1 on the generators g and chi2 on their images psi(g), tabulated once
    ex, gens = G.exponent, G.generators()
    first = {chi: [pairing(G, chi, g) for g in gens] for chi in G.characters()}
    second = {chi: [pairing(G, chi, psi(g)) for g in gens] for chi in G.characters()}
    scanned = {c1 + c2 for c1, v1 in first.items() for c2, v2 in second.items()
               if all((x + y) % ex == 0 for x, y in zip(v1, v2))}
    assert built == scanned and len(built) == G.order


def test_graph_complement_at_the_order_cap_is_fast():
    psi = identity(make_group([2] * 9))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        perp = {_minus_pullback(psi, chi) + chi for chi in psi.group.characters()}
        times.append(time.perf_counter() - start)
    assert len(perp) == 512
    assert min(times) < 0.050
