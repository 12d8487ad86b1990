#!/usr/bin/env python3
"""Mutation gate: the Tier-1 tests must kill every listed mutant.

    python3 scripts/mutants.py

A mutant is a `(file, old, new)` edit of the library, where `old` occurs
exactly once in `file`.  For each mutant, `src/`, `tests/` and
`pyproject.toml` are copied to a temporary directory, the edit is made
there, and Tier-1 runs on the copy with `-x`.  The mutant is killed when a
test fails, and survives when Tier-1 passes.  Tier-1 is given every test
file by name: first the mutated module's own test file, then the other
files that import the module, then the rest, so a mutant usually fails
early and `-x` skips what is left.

Prints one line per mutant.  Exits 1 if a mutant survives, and 2 if an `old`
text does not occur exactly once or pytest cannot run.  A change that adds an
identity or a second route adds the mutant it must catch here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # a singular Gram matrix counted as negative definite
    ("src/bicanonical/piclattice.py",
     "return all(m * (-1) ** (k + 1) > 0 for k, m in enumerate(minors))",
     "return all(m * (-1) ** (k + 1) >= 0 for k, m in enumerate(minors))"),
    # degree 2 for a kernel of any order >= 2, past what the degree bound gives
    ("src/bicanonical/covers.py",
     "    if kernel.order == 2:",
     "    if kernel.order >= 2:"),
    # the Fermat weight check without its separability pass
    ("src/bicanonical/fermat.py",
     "if (A - Ax0 - A0y + A00) % 5 or (B - Bx0 - B0y + B00) % 5:",
     "if False:"),
    # the Fermat weight check without its opposite-constant test
    ("src/bicanonical/fermat.py",
     "if len(left) != 1 or len(right) != 1 or (left.pop() + right.pop()) % 5:",
     "if len(left) != 1 or len(right) != 1:"),
    # the graph freeness test skipped: no element ever has a fixed point
    ("src/bicanonical/beauville.py",
     "violations = [g for g in fix1 if psi(g) in fix2]",
     "violations = []"),
    # linear values grown one multiple short per factor
    ("src/bicanonical/grouplib.py",
     "values = [v + t for t in range(0, m * s, s) for v in values] if s else values * m",
     "values = [v + t for t in range(0, (m - 1) * s, s) for v in values] if s else values * m"),
    # the kernel taken from chi1, the first factor of a contributing pair
    ("src/bicanonical/beauville.py",
     "contributing.append(entry.character[rank:])",
     "contributing.append(entry.character[:rank])"),
    # h0(O(a, b)) on P^1 x P^1 with the edge a = 0 counted as empty
    ("src/bicanonical/beauville.py",
     "return (a + 1) * (b + 1) if a >= 0 and b >= 0 else 0",
     "return (a + 1) * (b + 1) if a > 0 and b >= 0 else 0"),
    # chi o psi read off the matrix untransposed
    ("src/bicanonical/beauville.py",
     "[matrix[i][j] * n // m for i, m in enumerate(moduli)]",
     "[matrix[j][i] * n // m for i, m in enumerate(moduli)]"),
    # a frame point kills one exponent fewer than its conditions do
    ("src/bicanonical/linsys.py",
     "limit[k] = d - 1 - min(mult[i] - 1, d)",
     "limit[k] = d - min(mult[i] - 1, d)"),
    # a sign flipped in the closed Fermat weight formula
    ("src/bicanonical/fermat.py",
     "return 2 + i + alpha - beta, 3 + j + alpha + 2 * beta",
     "return 2 + i + alpha + beta, 3 + j + alpha + 2 * beta"),
    # elimination skipped below a negative entry of the pivot column
    ("src/bicanonical/exactlinalg.py",
     "            a = row[col]\n            if a:",
     "            a = row[col]\n            if a > 0:"),
    # the dual-basis degree charged on the kernel of e_i instead of outside it
    ("src/bicanonical/covers.py",
     "charged = sum(d for g, d in self.degrees.items() if g[i])",
     "charged = sum(d for g, d in self.degrees.items() if not g[i])"),
    # the largest violating element reported as the freeness witness
    ("src/bicanonical/beauville.py",
     "return False, min(violations)",
     "return False, max(violations)"),
    # Riemann-Hurwitz with every inertia order taken as 2
    ("src/bicanonical/covers.py",
     "chi_top = 2 * n - sum(deg * (n - n // order) for _, order, deg in data.inertia)",
     "chi_top = 2 * n - sum(deg * (n - n // 2) for _, order, deg in data.inertia)"),
    # a coordinate string read without its denominator
    ("src/bicanonical/linsys.py",
     "        return numerator, denominator\n",
     "        return numerator, 1\n"),
    # the frame-only shortcut tested on the multiplicities, frame included
    ("src/bicanonical/linsys.py",
     "others = [i for i, m in enumerate(rest) if m > 0]",
     "others = [i for i, m in enumerate(mult) if m > 0]"),
    # classes of equal lattices built apart refused as a mismatch
    ("src/bicanonical/piclattice.py",
     "if other.lattice is not self.lattice and other.lattice != self.lattice:",
     "if other.lattice is not self.lattice:"),
    # branch data keyed by any tuple, unreduced or of the wrong length
    ("src/bicanonical/covers.py",
     "            if (type(gamma) is not tuple or len(gamma) != len(moduli)\n                    "
     "or not all(type(c) is int and 0 <= c < m for c, m in zip(gamma, moduli))):",
     "            if type(gamma) is not tuple:"),
    # linear values of coefficients of the wrong length, cut short by zip
    ("src/bicanonical/grouplib.py",
     "if len(coeffs) != len(self.moduli):",
     "if False:"),
    # the order of coordinates of the wrong length, cut short by zip
    ("src/bicanonical/grouplib.py",
     "    if len(coords) != len(moduli):\n        raise GroupError",
     "    if False:\n        raise GroupError"),
    # a line stripped when its points carry exactly d conditions, not more
    ("src/bicanonical/linsys.py",
     "sum(map(mult.__getitem__, line)) > d",
     "sum(map(mult.__getitem__, line)) >= d"),
    # a pair inside a longer line kept as a line of its own
    ("src/bicanonical/linsys.py",
     "                lines.pop((b, c), None)\n",
     "                pass\n"),
    # a stripped line lowering only its first two points
    ("src/bicanonical/linsys.py",
     "        for k in line:\n",
     "        for k in line[:2]:\n"),
    # ragged rows ranked, cut short by zip
    ("src/bicanonical/exactlinalg.py",
     "    if len(set(map(len, work))) > 1:\n        raise ValueError(\"matrix rows have "
     "different lengths\")\n    work = [row ",
     "    if False:\n        raise ValueError(\"matrix rows have "
     "different lengths\")\n    work = [row "),
    # ragged rows put in echelon form, cut to the first row's length
    ("src/bicanonical/exactlinalg.py",
     "    if len(set(map(len, work))) > 1:\n        raise ValueError(\"matrix rows have "
     "different lengths\")\n    work = [r ",
     "    if False:\n        raise ValueError(\"matrix rows have "
     "different lengths\")\n    work = [r "),
    # interpolation rows built for the shorter of points and multiplicities
    ("src/bicanonical/linsys.py",
     "if len(points) != len(system.multiplicities):",
     "if False:"),
    # the rank mod p returned as the rank even when it falls short of full
    ("src/bicanonical/exactlinalg.py",
     "    if rank == full:\n        return rank\n",
     "    if True:\n        return rank\n"),
    # the modular elimination never updates a row below the pivot
    ("src/bicanonical/exactlinalg.py",
     "[(p * u - c * v) % P for u, v in zip(row[1:], pivot)] if (c := row[0]) else row[1:]",
     "row[1:]"),
    # incidence label 0 accepted, so it reads the last point
    ("src/bicanonical/linsys.py",
     "if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):",
     "if not (0 <= i <= n and 0 <= j <= n and 0 <= k <= n):"),
    # the charged-degree table charging the kernel of each character instead of the rest
    ("src/bicanonical/covers.py",
     "table = [t + d if v % ex else t for t, v in zip(table, values)]",
     "table = [t + d if not v % ex else t for t, v in zip(table, values)]"),
    # linear values grown first coordinate first, so out of coordinate order
    ("src/bicanonical/grouplib.py",
     "for s, m in zip(reversed(coeffs), reversed(self.moduli)):",
     "for s, m in zip(coeffs, self.moduli):"),
    # Gamma-perp listed from chi o psi instead of -(chi o psi): equal only in exponent 2
    ("src/bicanonical/beauville.py",
     "columns.append([-v % n for v in pulled])",
     "columns.append([v % n for v in pulled])"),
    # a linsys payload with any number of systems
    ("src/bicanonical/cli.py",
     '"systems": {"type": "array", "minItems": 1, "maxItems": 32, ',
     '"systems": {"type": "array", "minItems": 1, '),
    # the automorphism image table zipped from its rows in the wrong order
    ("src/bicanonical/grouplib.py",
     "self.images = dict(zip(group.coordinate_vectors(), zip(*rows)))",
     "self.images = dict(zip(group.coordinate_vectors(), zip(*rows[::-1])))"),
    # the Fermat lattice memberships tested against a basis missing a row
    ("src/bicanonical/fermat.py",
     "basis = integer_row_echelon([g.exponents for g in ratio_lattice(monomials)])",
     "basis = integer_row_echelon([g.exponents for g in ratio_lattice(monomials)])[1:]"),
    # a lattice payload with an empty Gram matrix, negative definite vacuously
    ("src/bicanonical/cli.py",
     '"gram": {"type": "array", "minItems": 1, "maxItems": 20,',
     '"gram": {"type": "array", "maxItems": 20,'),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
COPIED = ("src", "tests", "pyproject.toml")


def mutated_copy(target: Path, file: str, old: str, new: str) -> None:
    """Copy the checkout's sources and tests into target, with one edit."""
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target / name)
    path = target / file
    path.write_text(path.read_text().replace(old, new))


def tier1_files(file: str) -> list[str]:
    """Every file Tier-1 collects, in the order the mutant of `file` runs
    them (see the module docstring)."""
    module = Path(file).stem
    imports = re.compile(rf"^\s*(from|import)\s+bicanonical"
                         rf"(\.{module}\b|\s+import\b.*\b{module}\b)", re.MULTILINE)
    files = {*ROOT.glob("tests/**/test_*.py"), *ROOT.glob("tests/**/*_test.py")}
    ordered = sorted(files, key=lambda f: (f.name != f"test_{module}.py",
                                           not imports.search(f.read_text()), f))
    return [str(f.relative_to(ROOT)) for f in ordered]


def run_tier1(where: Path, files: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(TIER1 + files, cwd=where, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    for file, old, new in MUTANTS:
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            print(f"{file}: {old!r} occurs {count} times, not once")
            return 2
    survivors = 0
    for file, old, new in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            mutated_copy(Path(scratch), file, old, new)
            code = run_tier1(Path(scratch), tier1_files(file))
        took = f"{time.perf_counter() - start:.1f} s"
        if code == 0:
            survivors += 1
            print(f"SURVIVED {file}: {new!r} ({took})")
        elif code == 1:
            print(f"killed {file}: {new!r} ({took})")
        else:
            print(f"{file}: pytest exited {code} on {new!r}")
            return 2
    print(f"{len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
