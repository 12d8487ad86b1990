"""Finite abelian groups, their characters, automorphisms and subgroups.

Groups are products of cyclic groups Z_n1 x ... x Z_nk, elements are reduced
residue vectors.  Characters are residue vectors of the (isomorphic) dual
group; their pairing with elements is kept as an integer exponent modulo the
group exponent, never as a floating-point root of unity.  All groups handled
here are tiny (order <= 625), so subgroup closures, kernels and orthogonal
complements are computed by exhaustive saturation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm


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

    @property
    def exponent(self) -> int:
        return lcm(*self.moduli)

    def _reduce(self, coords) -> tuple[int, ...]:
        """Residues of a coordinate vector, which must have one entry per factor."""
        if len(coords) != len(self.moduli):
            raise GroupError("coordinate length does not match the group rank")
        return tuple(int(c) % m for c, m in zip(coords, self.moduli))

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, self._reduce(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def generators(self) -> list["GroupElement"]:
        return [self.element([1 if j == i else 0 for j in range(self.rank)])
                for i in range(self.rank)]

    def elements(self) -> list["GroupElement"]:
        return [GroupElement(self, coords)
                for coords in itertools.product(*(range(m) for m in self.moduli))]

    def character(self, coords) -> "Character":
        return Character(self, self._reduce(coords))

    def trivial_character(self) -> "Character":
        return Character(self, (0,) * self.rank)

    def characters(self) -> list["Character"]:
        return [Character(self, coords)
                for coords in itertools.product(*(range(m) for m in self.moduli))]

    def square(self) -> "AbelianGroup":
        """The product group G x G (used for graphs of automorphisms)."""
        return AbelianGroup(self.moduli * 2)


def make_group(moduli) -> AbelianGroup:
    return AbelianGroup(tuple(int(m) for m in moduli))


class _Residues:
    """Shared residue-vector arithmetic for elements and characters."""

    group: AbelianGroup
    coords: tuple[int, ...]

    def _check(self, other):
        if type(other) is not type(self) or other.group != self.group:
            raise GroupError("operands live in different groups")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.group, tuple((a + b) % m for a, b, m in
                                            zip(self.coords, other.coords, self.group.moduli)))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.group, tuple((a - b) % m for a, b, m in
                                            zip(self.coords, other.coords, self.group.moduli)))

    def __neg__(self):
        return type(self)(self.group, tuple((-a) % m for a, m in
                                            zip(self.coords, self.group.moduli)))

    def __mul__(self, k: int):
        return type(self)(self.group, tuple((a * k) % m for a, m in
                                            zip(self.coords, self.group.moduli)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class GroupElement(_Residues):
    group: AbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise GroupError("coordinate length does not match the group rank")
        if any(not 0 <= c < m for c, m in zip(self.coords, self.group.moduli)):
            raise GroupError("coordinates must be reduced residues")

    def order(self) -> int:
        return lcm(*(m // gcd(c, m) for c, m in zip(self.coords, self.group.moduli)))


@dataclass(frozen=True)
class Character(_Residues):
    group: AbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise GroupError("coordinate length does not match the group rank")
        if any(not 0 <= c < m for c, m in zip(self.coords, self.group.moduli)):
            raise GroupError("coordinates must be reduced residues")

    def pairing(self, g: GroupElement) -> int:
        """Exponent of the root of unity chi(g), modulo the group exponent."""
        if not isinstance(g, GroupElement) or g.group != self.group:
            raise GroupError("character paired with an element of another group")
        ex = self.group.exponent
        return sum(c * x * (ex // m) for c, x, m in
                   zip(self.coords, g.coords, self.group.moduli)) % ex

    def annihilates(self, g: GroupElement) -> bool:
        return self.pairing(g) == 0

    def is_trivial(self) -> bool:
        return self.is_zero()

    def kernel(self) -> "Subgroup":
        members = [g for g in self.group.elements() if self.annihilates(g)]
        return Subgroup(self.group, members)


@dataclass(frozen=True)
class Automorphism:
    """Automorphism of an abelian group; matrix columns are the images of the
    standard generators.  Bijectivity is verified exhaustively on creation."""

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
        images = {self(g) for g in self.group.elements()}
        if len(images) != self.group.order:
            raise GroupError("matrix is not invertible over the group")

    @classmethod
    def from_images(cls, group: AbelianGroup, images) -> "Automorphism":
        """Build from the list of images of the standard generators."""
        imgs = [group.element(v).coords for v in images]
        if len(imgs) != group.rank:
            raise GroupError("need exactly one image per generator")
        matrix = tuple(tuple(imgs[j][i] for j in range(group.rank))
                       for i in range(group.rank))
        return cls(group, matrix)

    @classmethod
    def identity(cls, group: AbelianGroup) -> "Automorphism":
        return cls.from_images(group, [g.coords for g in group.generators()])

    def __call__(self, g: GroupElement) -> GroupElement:
        if g.group != self.group:
            raise GroupError("element of a different group")
        return self.group.element(
            [sum(self.matrix[i][j] * g.coords[j] for j in range(self.group.rank))
             for i in range(self.group.rank)])

    def inverse(self) -> "Automorphism":
        lookup = {self(g): g for g in self.group.elements()}
        return Automorphism.from_images(
            self.group, [lookup[gen].coords for gen in self.group.generators()])


class Subgroup:
    """Subgroup (of a group or of its character group) with exhaustive closure."""

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
        zero = group.trivial_character() if dual else group.zero()
        members = {zero}
        frontier = [zero]
        while frontier:
            current = frontier.pop()
            for gen in generators:
                for step in (gen, -gen):
                    nxt = current + step
                    if nxt not in members:
                        members.add(nxt)
                        frontier.append(nxt)
        self.members = frozenset(members)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members

    def elements(self) -> list:
        return sorted(self.members, key=lambda g: g.coords)

    def is_trivial(self) -> bool:
        return self.order == 1

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.group == other.group
                and self.dual == other.dual and self.members == other.members)

    def __repr__(self):
        return f"Subgroup(order={self.order}, of={self.group.moduli})"


def graph_subgroup(psi: Automorphism) -> Subgroup:
    """The graph {(g, psi(g))} inside G x G."""
    gg = psi.group.square()
    gens = [pair_elements(gen, psi(gen)) for gen in psi.group.generators()]
    graph = Subgroup(gg, gens)
    assert graph.order == psi.group.order
    return graph


def pair_elements(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.group != b.group:
        raise GroupError("pairing elements of different groups")
    return a.group.square().element(a.coords + b.coords)


def split_element(gh: GroupElement) -> tuple[GroupElement, GroupElement]:
    n = gh.group.rank // 2
    g = AbelianGroup(gh.group.moduli[:n])
    return g.element(gh.coords[:n]), g.element(gh.coords[n:])


def split_character(chi: Character) -> tuple[Character, Character]:
    n = chi.group.rank // 2
    g = AbelianGroup(chi.group.moduli[:n])
    return g.character(chi.coords[:n]), g.character(chi.coords[n:])


def orthogonal_complement(sub: Subgroup) -> Subgroup:
    """All characters of the ambient group pairing trivially with the subgroup."""
    if sub.dual:
        raise GroupError("orthogonal complement expects a subgroup of elements")
    chars = [chi for chi in sub.group.characters()
             if all(chi.annihilates(g) for g in sub.members)]
    return Subgroup(sub.group, chars)


def common_kernel(chars, group: AbelianGroup | None = None) -> Subgroup:
    """Intersection of the kernels of the given characters."""
    chars = list(chars)
    if group is None:
        if not chars:
            raise GroupError("need the group when no characters are given")
        group = chars[0].group
    if any(chi.group != group for chi in chars):
        raise GroupError("characters of different groups")
    members = [g for g in group.elements()
               if all(chi.annihilates(g) for chi in chars)]
    return Subgroup(group, members)


_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def element_name(g: GroupElement, symbol: str = "γ") -> str:
    """Readable name of an element as a sum of standard generators."""
    if g.is_zero():
        return "0"
    parts = []
    for idx, c in enumerate(g.coords, start=1):
        if c == 0:
            continue
        coef = "" if c == 1 else str(c)
        parts.append(f"{coef}{symbol}{str(idx).translate(_SUBSCRIPTS)}")
    return "+".join(parts)
