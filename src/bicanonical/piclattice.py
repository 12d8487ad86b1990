"""Divisor-class arithmetic on the Picard lattices of rational surfaces.

Two lattice types cover everything needed here: the blowup of the plane at n
points, with intersection form diag(1, -1, ..., -1) in the basis
(l, e1, ..., en), and the quadric P1 x P1 with form [[0, 1], [1, 0]] in the
two rulings.  Classes from different lattices never mix; any attempt is a
hard error, since silent basis confusion is the main bug class in this kind
of bookkeeping.  make_blowup_lattice builds one lattice per n, which every
caller shares and none may rebind, so the classes of one blowup share their
lattice object and the mixing check is an identity test; equal lattices
built apart still mix.
"""

from __future__ import annotations

from functools import cache
from operator import add, mul, sub

from .exactlinalg import leading_principal_minors


class LatticeMismatch(ValueError):
    pass


class Lattice:
    def __init__(self, labels: tuple[str, ...], gram: tuple[tuple[int, ...], ...], kind: str):
        self.labels, self.gram = labels, gram
        self.kind = kind  # "blowup" or "quadric"

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return (self.labels, self.gram, self.kind) == (other.labels, other.gram, other.kind)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def basis(self, label: str) -> "DivisorClass":
        i = self.labels.index(label)
        return DivisorClass(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.rank)

    def cls(self, coeffs) -> "DivisorClass":
        """Build a class from a coefficient list or a {label: coeff} mapping."""
        if isinstance(coeffs, dict):
            unknown = set(coeffs) - set(self.labels)
            if unknown:
                raise LatticeMismatch(f"unknown basis labels {sorted(unknown)}")
            vec = tuple(int(coeffs.get(lbl, 0)) for lbl in self.labels)
        else:
            vec = tuple(int(c) for c in coeffs)
            if len(vec) != self.rank:
                raise LatticeMismatch("coefficient length does not match the rank")
        return DivisorClass(self, vec)


@cache
def make_blowup_lattice(n: int) -> Lattice:
    """Picard lattice of the blowup of P^2 at n points, built once per n:
    every caller shares this one instance, so no caller may rebind its
    attributes."""
    if n < 0:
        raise ValueError("cannot blow up a negative number of points")
    labels = ("l",) + tuple(f"e{i}" for i in range(1, n + 1))
    gram = tuple(tuple((1 if i == j == 0 else -1 if i == j else 0)
                       for j in range(n + 1)) for i in range(n + 1))
    return Lattice(labels, gram, "blowup")


def make_quadric_lattice() -> Lattice:
    """Picard lattice of P^1 x P^1 in the basis of the two rulings."""
    return Lattice(("h1", "h2"), ((0, 1), (1, 0)), "quadric")


class DivisorClass:
    def __init__(self, lattice: Lattice, coeffs: tuple[int, ...]):
        self.lattice, self.coeffs = lattice, coeffs
        if len(coeffs) != lattice.rank:
            raise LatticeMismatch("coefficient length does not match the rank")

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.coeffs == other.coeffs and self.lattice == other.lattice

    def _check(self, other: "DivisorClass"):
        if not isinstance(other, DivisorClass):
            raise TypeError(f"expected a divisor class, got {type(other).__name__}")
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise LatticeMismatch("divisor classes live on different lattices")

    def __add__(self, other):
        self._check(other)
        return DivisorClass(self.lattice, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return DivisorClass(self.lattice, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, k: int):
        return DivisorClass(self.lattice, tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    def dot(self, other: "DivisorClass") -> int:
        self._check(other)
        b = other.coeffs
        return sum(a * sum(map(mul, row, b)) for a, row in zip(self.coeffs, self.lattice.gram))

    def self_intersection(self) -> int:
        return self.dot(self)

    def coefficient(self, label: str) -> int:
        return self.coeffs[self.lattice.labels.index(label)]

    def __str__(self):
        parts = []
        for lbl, c in zip(self.lattice.labels, self.coeffs):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else str(abs(c))
            if not parts:
                parts.append(f"{'-' if c < 0 else ''}{mag}{lbl}")
            else:
                parts.append(f"{'- ' if c < 0 else '+ '}{mag}{lbl}")
        return " ".join(parts) if parts else "0"


def canonical_class(lattice: Lattice) -> DivisorClass:
    """K = -3l + sum(e_i) on a blowup, (-2, -2) on the quadric."""
    if lattice.kind == "blowup":
        return DivisorClass(lattice, (-3,) + (1,) * (lattice.rank - 1))
    if lattice.kind == "quadric":
        return DivisorClass(lattice, (-2, -2))
    raise ValueError(f"no canonical class for lattice kind {lattice.kind!r}")


def pullback_numerics(deg: int, a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number of the pullbacks of a and b under a finite map of
    the given degree: deg * (a . b)."""
    if deg < 1:
        raise ValueError("a finite map has degree >= 1")
    return deg * a.dot(b)


def is_negative_definite(gram) -> bool:
    """Exact Jacobi criterion: leading principal minors alternate in sign,
    starting negative."""
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise ValueError("matrix is not symmetric")
    minors = leading_principal_minors(gram)
    return all(m * (-1) ** (k + 1) > 0 for k, m in enumerate(minors))


def is_divisible_by(a: DivisorClass, k: int) -> bool:
    if k < 2:
        raise ValueError("divisibility test needs k >= 2")
    return all(c % k == 0 for c in a.coeffs)


class QuadrilateralCatalog:
    """Named divisor classes on the blowup of P^2 at the six special points of
    a complete quadrilateral: the four side strict transforms S1..S4 (the
    (-2)-curves), the three diagonals Delta1..Delta3, and the three pencils of
    conics f1..f3 through complementary 4-tuples of the points."""

    def __init__(self, lattice: Lattice, l: DivisorClass, e: tuple[DivisorClass, ...],
                 K: DivisorClass, S: tuple[DivisorClass, ...],
                 Delta: tuple[DivisorClass, ...], f: tuple[DivisorClass, ...]):
        self.lattice, self.l, self.e, self.K = lattice, l, e, K
        self.S, self.Delta, self.f = S, Delta, f

    def named(self) -> dict[str, DivisorClass]:
        out = {"l": self.l, "K": self.K}
        for i, cls in enumerate(self.e, start=1):
            out[f"e{i}"] = cls
        for i, cls in enumerate(self.S, start=1):
            out[f"S{i}"] = cls
        for i, cls in enumerate(self.Delta, start=1):
            out[f"Delta{i}"] = cls
        for i, cls in enumerate(self.f, start=1):
            out[f"f{i}"] = cls
        return out


def quadrilateral_catalog() -> QuadrilateralCatalog:
    """Catalog for the points P1=(1:0:0), P2=(0:1:0), P3=(0:0:1), P4=(1:1:1),
    P5 = P1P2 ^ P3P4, P6 = P1P4 ^ P2P3 (see linsys.quadrilateral_config)."""
    lat = make_blowup_lattice(6)
    l = lat.basis("l")
    e = tuple(lat.basis(f"e{i}") for i in range(1, 7))

    def strict_line(*through):
        return l - sum((e[i - 1] for i in through), lat.zero())

    def conic(*through):
        return 2 * l - sum((e[i - 1] for i in through), lat.zero())

    # sides S_i = P_i P_{i+1} (indices mod 4); P5 lies on S1, S3 and P6 on S2, S4
    S = (strict_line(1, 2, 5), strict_line(2, 3, 6),
         strict_line(3, 4, 5), strict_line(4, 1, 6))
    # diagonals P1P3, P2P4 and the line P5P6
    Delta = (strict_line(1, 3), strict_line(2, 4), strict_line(5, 6))
    # pencils of conics through complementary 4-tuples
    f = (conic(2, 4, 5, 6), conic(1, 3, 5, 6), conic(1, 2, 3, 4))
    return QuadrilateralCatalog(lat, l, e, canonical_class(lat), S, Delta, f)
