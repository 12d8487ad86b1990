"""Finite abelian groups, their characters, automorphisms and subgroups.

Groups are products of cyclic groups Z_n1 x ... x Z_nk, elements are reduced
residue vectors.  Characters are residue vectors of the (isomorphic) dual
group; their pairing with elements is kept as an integer exponent modulo the
group exponent, never as a floating-point root of unity.

The product-quotient path runs on those residue vectors, as plain
coordinate tuples, from the branch data to the kernel: orders of inertia
elements (order_of), images under an automorphism (Automorphism._image),
the pullback of characters and the weighted dot products that pair them
with elements.  Group objects are built only at its two ends: one element
per branch entry as the input is parsed, and the few characters whose
common kernel is the verdict, with the members of the Subgroup it returns.

Subgroups are built from generators.  A generator already in the subgroup H
so far adds nothing; any other adds the cosets H + k*gen for k = 1..r-1,
where r is the least integer with r*gen in H.  No sum is formed twice, so a
closure costs at most 2|H| additions plus one membership test per
generator, instead of the |H| * 2 * (number of generators) additions of
saturating with +gen and -gen.  A character kills a
subgroup iff it kills its generators, so an orthogonal complement or a common
kernel is one scan of the coordinate vectors of the group, filtered by the
generators' weighted coordinates; group objects are built only for the
members that survive.  An automorphism psi acts on characters by pullback,
chi -> chi o psi, written down from its matrix (Automorphism.pullback); the
characters of G x G killing the graph of psi are the pairs
(-(chi o psi), chi), so no G x G is ever built.

Elements and characters have one constructor, `_of`, which takes
coordinates that are already reduced residues: arithmetic results are
reduced by construction, and AbelianGroup.element and .character reduce
(and check the length of) what they are given first.  Calling
GroupElement(...) or Character(...) directly raises TypeError, so no
unchecked public path exists.  An automorphism checks its bijectivity on
raw coordinate tuples, growing the image set one generator column at a
time.  The command line caps the group order at MAX_GROUP_ORDER.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import add, mod, mul

# the largest group order a scenario may ask for: Automorphism and
# common_kernel enumerate the whole group.  Product quotients run only for
# groups of exponent 2, so the cap is the order of Z2^9; Z2^10 is the first
# group it rejects.
MAX_GROUP_ORDER = 2**9


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class AbelianGroup:
    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli:
            raise GroupError("a group needs at least one cyclic factor")
        if any(m < 2 for m in self.moduli):
            raise GroupError(f"every modulus must be >= 2, got {self.moduli}")

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

    def _reduce(self, coords) -> tuple[int, ...]:
        """Residues of a coordinate vector, which must have one entry per factor."""
        if len(coords) != len(self.moduli):
            raise GroupError("coordinate length does not match the group rank")
        return tuple(int(c) % m for c, m in zip(coords, self.moduli))

    def element(self, coords) -> "GroupElement":
        return GroupElement._of(self, self._reduce(coords))

    def zero(self) -> "GroupElement":
        return GroupElement._of(self, (0,) * self.rank)

    def generators(self) -> list["GroupElement"]:
        return [self.element([1 if j == i else 0 for j in range(self.rank)])
                for i in range(self.rank)]

    def elements(self) -> list["GroupElement"]:
        return [GroupElement._of(self, coords) for coords in self.coordinate_vectors()]

    def character(self, coords) -> "Character":
        return Character._of(self, self._reduce(coords))

    def characters(self) -> list["Character"]:
        return [Character._of(self, coords) for coords in self.coordinate_vectors()]


def make_group(moduli) -> AbelianGroup:
    return AbelianGroup(tuple(int(m) for m in moduli))


def _add(x: tuple[int, ...], y: tuple[int, ...], moduli: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(mod, map(add, x, y), moduli))


def order_of(coords: tuple[int, ...], moduli: tuple[int, ...]) -> int:
    """The order of the element with the given reduced coordinates."""
    return lcm(*(m // gcd(c, m) for c, m in zip(coords, moduli)))


class _Residues:
    """Shared residue-vector arithmetic for elements and characters."""

    group: AbelianGroup
    coords: tuple[int, ...]

    @classmethod
    def _of(cls, group: AbelianGroup, coords: tuple[int, ...]):
        """The only constructor: an instance from coordinates that are
        already reduced residues of the group (see the module docstring)."""
        obj = object.__new__(cls)
        obj.__dict__.update(group=group, coords=coords)
        return obj

    def _check(self, other):
        if type(other) is not type(self) or (other.group is not self.group
                                             and other.group != self.group):
            raise GroupError("operands live in different groups")

    def __add__(self, other):
        self._check(other)
        return self._of(self.group, _add(self.coords, other.coords, self.group.moduli))

    def __sub__(self, other):
        self._check(other)
        return self._of(self.group, tuple((a - b) % m for a, b, m in
                                          zip(self.coords, other.coords, self.group.moduli)))

    def __neg__(self):
        return self._of(self.group, tuple((-a) % m for a, m in
                                          zip(self.coords, self.group.moduli)))

    def __mul__(self, k: int):
        return self._of(self.group, tuple((a * k) % m for a, m in
                                          zip(self.coords, self.group.moduli)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True, init=False)
class GroupElement(_Residues):
    group: AbelianGroup
    coords: tuple[int, ...]

    def order(self) -> int:
        return order_of(self.coords, self.group.moduli)


@dataclass(frozen=True, init=False)
class Character(_Residues):
    group: AbelianGroup
    coords: tuple[int, ...]

    def pairing(self, g: GroupElement) -> int:
        """Exponent of the root of unity chi(g), modulo the group exponent."""
        group = self.group
        if not isinstance(g, GroupElement) or (g.group is not group and g.group != group):
            raise GroupError("character paired with an element of another group")
        return sum(map(mul, map(mul, self.coords, g.coords), group.weights)) % group.exponent


@dataclass(frozen=True)
class Automorphism:
    """Automorphism of an abelian group; matrix columns are the images of the
    standard generators.  On creation the matrix must define a homomorphism
    whose image is the whole group.  The image is grown one generator column
    at a time: the images of the elements spanned by the first j generators,
    shifted by k times column j for k = 1..m_j - 1, give those spanned by the
    first j + 1.  That is the set an exhaustive scan of the group would find,
    in at most 2|G| tuple additions for exponent 2 instead of |G| * rank dot
    products."""

    group: AbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.group.rank
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise GroupError("automorphism matrix has the wrong shape")
        moduli = self.group.moduli
        for i in range(n):
            for j in range(n):
                # well-definedness: the image of a generator of order m_j must
                # be killed by m_j
                if (moduli[j] * self.matrix[i][j]) % moduli[i] != 0:
                    raise GroupError("matrix does not define a homomorphism")
        images = {(0,) * n}
        for j, m in enumerate(moduli):
            column = tuple(row[j] for row in self.matrix)
            shifted = images
            for _ in range(m - 1):
                shifted = {_add(image, column, moduli) for image in shifted}
                images |= shifted
        if len(images) != self.group.order:
            raise GroupError("matrix is not invertible over the group")

    @classmethod
    def from_images(cls, group: AbelianGroup, images) -> "Automorphism":
        """Build from the list of images of the standard generators."""
        imgs = [group._reduce(v) for v in images]
        if len(imgs) != group.rank:
            raise GroupError("need exactly one image per generator")
        matrix = tuple(tuple(imgs[j][i] for j in range(group.rank))
                       for i in range(group.rank))
        return cls(group, matrix)

    def _image(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """The reduced coordinates of the image of an element's coordinates."""
        return tuple(sum(map(mul, row, coords)) % m
                     for row, m in zip(self.matrix, self.group.moduli))

    def __call__(self, g: GroupElement) -> GroupElement:
        if g.group != self.group:
            raise GroupError("element of a different group")
        return GroupElement._of(self.group, self._image(g.coords))

    def pullback(self, chi: tuple[int, ...]) -> tuple[int, ...]:
        """The coordinates of chi o psi, for the coordinates of a character
        chi.  Coordinate j of e_i o psi is M[i][j] m_j / m_i modulo m_j, an
        integer by the homomorphism check, so the matrix acts transposed."""
        moduli, matrix = self.group.moduli, self.matrix
        return tuple(sum(c * matrix[i][j] * m // moduli[i] for i, c in enumerate(chi)) % m
                     for j, m in enumerate(moduli))


class Subgroup:
    """Subgroup (of a group or of its character group) generated by the
    given elements or characters; the closure adds, for each generator
    outside the subgroup so far, the cosets it contributes (see the module
    docstring)."""

    def __init__(self, group: AbelianGroup, generators=()):
        generators = list(generators)
        dual = bool(generators) and isinstance(generators[0], Character)
        if generators:
            if any(isinstance(g, Character) != dual for g in generators):
                raise GroupError("cannot mix elements and characters")
            if any(g.group != group for g in generators):
                raise GroupError("generators of a different group")
        self.group = group
        self.dual = dual
        self.generators = tuple(generators)
        moduli = group.moduli
        members = [(0,) * len(moduli)]
        seen = set(members)
        for gen in generators:
            step = gen.coords
            multiples = []          # gen, 2*gen, ..., (r-1)*gen
            while step not in seen:
                multiples.append(step)
                step = _add(step, gen.coords, moduli)
            if multiples:
                cosets = [_add(h, k, moduli) for k in multiples for h in members]
                members += cosets
                seen.update(cosets)
        kind = Character if dual else GroupElement
        self.members = frozenset(kind._of(group, coords) for coords in members)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members

    def elements(self) -> list:
        return sorted(self.members, key=lambda g: g.coords)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.group == other.group
                and self.dual == other.dual and self.members == other.members)

    def __repr__(self):
        return f"Subgroup(order={self.order}, of={self.group.moduli})"


def _annihilated(group: AbelianGroup, vectors) -> list[tuple[int, ...]]:
    """Coordinate vectors c of the group with sum c_i v_i weight_i = 0 modulo
    the exponent for every given coordinate vector v.  The pairing is
    symmetric in c and v, so these are the characters killing the elements
    v, or the elements killed by the characters v."""
    ex = group.exponent
    found = list(group.coordinate_vectors())
    for v in set(vectors):
        if any(v):
            row = tuple(map(mul, v, group.weights))
            found = [c for c in found if sum(map(mul, c, row)) % ex == 0]
    return found


def orthogonal_complement(sub: Subgroup) -> Subgroup:
    """All characters of the ambient group pairing trivially with the
    subgroup, that is with its generators."""
    if sub.dual:
        raise GroupError("orthogonal complement expects a subgroup of elements")
    group = sub.group
    chars = [Character._of(group, c)
             for c in _annihilated(group, [g.coords for g in sub.generators])]
    return Subgroup(group, chars)


def common_kernel(chars, group: AbelianGroup) -> Subgroup:
    """Intersection of the kernels of the given characters of the group."""
    chars = list(chars)
    if any(chi.group != group for chi in chars):
        raise GroupError("characters of different groups")
    members = [GroupElement._of(group, c)
               for c in _annihilated(group, [chi.coords for chi in chars])]
    return Subgroup(group, members)


_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def element_name(g: GroupElement) -> str:
    """Readable name of an element as a sum of standard generators."""
    if g.is_zero():
        return "0"
    parts = []
    for idx, c in enumerate(g.coords, start=1):
        if c == 0:
            continue
        coef = "" if c == 1 else str(c)
        parts.append(f"{coef}γ{str(idx).translate(_SUBSCRIPTS)}")
    return "+".join(parts)
