"""Finite abelian groups, their characters, automorphisms and kernels.

Groups are products of cyclic groups Z_n1 x ... x Z_nk.  An element, and
a character of the (isomorphic) dual group, is the tuple of its reduced
residues, one per factor; AbelianGroup.reduce is the one way a raw vector
becomes such a tuple, and it checks the length first.  The pairing of a
character chi with an element g is the integer exponent
sum chi_i g_i weight_i modulo the group exponent, never a floating-point
root of unity.  There are no element or character objects: orders
(order_of) and the pairings are computed on the tuples, and the images
under an automorphism are looked up in the table it lists once at
creation, keyed by reduced tuples only.

The group is enumerated in one order, that of coordinate_vectors(), and
AbelianGroup.linear_values is the one place besides it that knows the
order: it lists a linear form at every coordinate vector, grown one
coordinate at a time.  Automorphism lists the image of every element with
it, keeps them as its table and checks bijectivity on them; covers
tabulates the pairing values of each branch element with it, and beauville
lists -(chi o psi) for every character chi with it, one output coordinate
per call, so the characters of G x G killing the graph of psi, the pairs
(-(chi o psi), chi), need no per-character pullback and no G x G.

A character kills a subgroup iff it kills its members, so an orthogonal
complement or a common kernel is one scan of the coordinate vectors of the
group, filtered by the weighted coordinates of what must be killed
(_annihilated).  The scan finds the whole kernel, so a Subgroup is just
the group and the member tuples it is given; it computes no closure.  The
command line caps the group order at MAX_GROUP_ORDER.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, lcm
from operator import mul

# the largest group order a scenario may ask for: Automorphism and
# common_kernel enumerate the whole group.  Product quotients run only for
# groups of exponent 2, so the cap is the order of Z2^9; Z2^10 is the first
# group it rejects.
MAX_GROUP_ORDER = 2**9


class GroupError(ValueError):
    pass


class AbelianGroup:
    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli
        if not moduli:
            raise GroupError("a group needs at least one cyclic factor")
        if any(m < 2 for m in moduli):
            raise GroupError(f"every modulus must be >= 2, got {moduli}")

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.moduli)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """exponent // m_i per factor: chi(g) = sum c_i x_i weight_i mod exponent."""
        return tuple(self.exponent // m for m in self.moduli)

    def coordinate_vectors(self):
        """Every reduced residue vector, in lexicographic order."""
        return itertools.product(*(range(m) for m in self.moduli))

    def linear_values(self, coeffs) -> list[int]:
        """sum c_i coeffs_i, not reduced, for every coordinate vector c in the
        order of coordinate_vectors().  The list is grown the last coordinate
        first: the values with c_i = k are those with c_i = 0 shifted by
        k * coeffs_i and appended after them, or repeated when coeffs_i is 0,
        so |G| additions per factor and no dot product per vector."""
        if len(coeffs) != len(self.moduli):
            raise GroupError("coordinate length does not match the group rank")
        values = [0]
        for s, m in zip(reversed(coeffs), reversed(self.moduli)):
            values = [v + t for t in range(0, m * s, s) for v in values] if s else values * m
        return values

    def reduce(self, coords) -> tuple[int, ...]:
        """The element or character with the given coordinates, as its tuple
        of reduced residues; there must be one coordinate per factor."""
        if len(coords) != len(self.moduli):
            raise GroupError("coordinate length does not match the group rank")
        return tuple(int(c) % m for c, m in zip(coords, self.moduli))

    def generators(self) -> list[tuple[int, ...]]:
        return [tuple(int(j == i) for j in range(self.rank)) for i in range(self.rank)]

    def elements(self) -> list[tuple[int, ...]]:
        return list(self.coordinate_vectors())

    # perfbench/tracing.py counts the lists of AbelianGroup.elements and
    # .characters under these names; a character has the same tuples
    characters = elements


def make_group(moduli) -> AbelianGroup:
    return AbelianGroup(tuple(int(m) for m in moduli))


def order_of(coords: tuple[int, ...], moduli: tuple[int, ...]) -> int:
    """The order of the element with the given reduced coordinates, one per
    modulus."""
    if len(coords) != len(moduli):
        raise GroupError("coordinate length does not match the group rank")
    return lcm(*(m // gcd(c, m) for c, m in zip(coords, moduli)))


class Automorphism:
    """Automorphism of an abelian group; matrix columns are the images of the
    standard generators.  On creation the matrix must define a homomorphism
    whose image is the whole group: image coordinate i of every element is
    listed at once by linear_values on row i, and the reduced rows, zipped
    into tuples, are kept as the table images, from each element's reduced
    tuple in coordinate_vectors() order to its image; they must be |G|
    distinct.  Applying it is a lookup in that table, so it takes reduced
    tuples only.  perfbench/tracing.py wraps __init__ by name."""

    def __init__(self, group: AbelianGroup, matrix: tuple[tuple[int, ...], ...]):
        self.group = group
        self.matrix = matrix
        n = group.rank
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise GroupError("automorphism matrix has the wrong shape")
        moduli = group.moduli
        for i in range(n):
            for j in range(n):
                # well-definedness: the image of a generator of order m_j must
                # be killed by m_j
                if (moduli[j] * matrix[i][j]) % moduli[i] != 0:
                    raise GroupError("matrix does not define a homomorphism")
        rows = [[v % m for v in group.linear_values(row)] for row, m in zip(matrix, moduli)]
        self.images = dict(zip(group.coordinate_vectors(), zip(*rows)))
        if len(set(self.images.values())) != group.order:
            raise GroupError("matrix is not invertible over the group")

    @classmethod
    def from_images(cls, group: AbelianGroup, images) -> "Automorphism":
        """Build from the list of images of the standard generators."""
        imgs = [group.reduce(v) for v in images]
        if len(imgs) != group.rank:
            raise GroupError("need exactly one image per generator")
        matrix = tuple(tuple(imgs[j][i] for j in range(group.rank))
                       for i in range(group.rank))
        return cls(group, matrix)

    def __call__(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """The image of an element, given as its tuple of reduced residues;
        any other value (another length, an unreduced residue, a list) is an
        element of a different group."""
        try:
            return self.images[coords]
        except (KeyError, TypeError):
            raise GroupError("element of a different group") from None


class Subgroup:
    """A subgroup of a group or of its character group, held as the
    coordinate tuples of its members, which it keeps as given: the library
    builds one only from a whole kernel (see the module docstring)."""

    def __init__(self, group: AbelianGroup, members):
        self.group = group
        self.members = tuple(members)

    @property
    def order(self) -> int:
        return len(self.members)

    def elements(self) -> list[tuple[int, ...]]:
        return sorted(self.members)


def _annihilated(group: AbelianGroup, vectors) -> list[tuple[int, ...]]:
    """Coordinate vectors c of the group with sum c_i v_i weight_i = 0 modulo
    the exponent for every given coordinate vector v.  The pairing is
    symmetric in c and v, so these are the characters killing the elements
    v, or the elements killed by the characters v."""
    ex, rank = group.exponent, group.rank
    found = list(group.coordinate_vectors())
    for v in set(vectors):
        if len(v) != rank:
            raise GroupError("coordinate length does not match the group rank")
        if any(v):
            row = tuple(map(mul, v, group.weights))
            found = [c for c in found if sum(map(mul, c, row)) % ex == 0]
    return found


# perfbench/tracing.py wraps orthogonal_complement and common_kernel by name
def orthogonal_complement(sub: Subgroup) -> Subgroup:
    return Subgroup(sub.group, _annihilated(sub.group, sub.members))


def common_kernel(chars, group: AbelianGroup) -> Subgroup:
    """Intersection of the kernels of the given characters of the group."""
    return Subgroup(group, _annihilated(group, chars))


_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def element_name(g: tuple[int, ...]) -> str:
    """Readable name of an element as a sum of standard generators."""
    parts = []
    for idx, c in enumerate(g, start=1):
        if c == 0:
            continue
        coef = "" if c == 1 else str(c)
        parts.append(f"{coef}γ{str(idx).translate(_SUBSCRIPTS)}")
    return "+".join(parts) or "0"
