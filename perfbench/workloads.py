"""Seeded inputs for the three benchmark workloads.

Every operation is one JSON scenario payload handed to `cli.run_scenario`.

- `paper`: the five bundled scenarios in `BUILTIN_ORDER`, pass after pass.
  The seed does not change them; every input repeats.
- `linsys-sweep` and `pq-sweep`: a fixed pool of distinct payloads drawn
  from `POOL_SEED`.  A reference exit code and result digest for every pool
  entry is stored under `reference/`.  The run seed orders the pool (see
  `run_order`), so different seeds give different inputs while every output
  stays checkable, and no payload repeats within a run until the pool is
  used up.  The pool's first entry always runs first, so `setup_s` times
  the same operation on every seed.

Only the `random.Random` methods built on `_randbelow` (`randrange`,
`choice`, `shuffle`) are used, so the pools are the same on every Python
version that has it; `pool_sha256` catches any drift.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

POOL_SEED = 1

BUILTIN_ORDER = ("inoue7", "beauville8", "inoue-z24", "fermat-z52", "proofcheck-all")

WORKLOADS = ("paper", "linsys-sweep", "pq-sweep")

LINSYS_POOL_SIZE = 6000
# (rank, accepted) -> number of pool entries.  Z2^2 has only 108 distinct
# free specs in all, so it is mostly a rejected-input group.
PQ_QUOTAS = {
    (2, True): 60, (2, False): 540,
    (3, True): 6750, (3, False): 2250,
    (4, True): 7800, (4, False): 2600,
}
STRATA = 20

# admissible branch degree totals: (t1 - 4)(t2 - 4) = 16 / |G| makes the
# genera satisfy (g1 - 1)(g2 - 1) = |G|
PQ_TOTALS = {2: [(5, 8), (6, 6), (8, 5)], 3: [(5, 6), (6, 5)], 4: [(5, 5)]}


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def pool_sha256(pool) -> str:
    h = hashlib.sha256()
    for payload in pool:
        h.update(canonical_json(payload))
        h.update(b"\n")
    return h.hexdigest()


# -------------------------------------------------------------------- paper

def paper_pool(scenario_dir) -> list[dict]:
    """The bundled scenario files, read from the checkout's source tree."""
    return [json.loads((scenario_dir / f"{name}.json").read_text("utf-8"))
            for name in BUILTIN_ORDER]


# ------------------------------------------------------------- linsys sweep

def _coordinate(rng):
    if rng.randrange(10) < 3:
        return rng.randrange(-5, 6)
    q = rng.randrange(2, 8)
    p = rng.randrange(-9, 10)
    return f"{p}/{q}"


def _same_point(a, b) -> bool:
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    return all(a[i] * b[j] == a[j] * b[i] for i in range(3) for j in range(i + 1, 3))


def _random_points(rng, n):
    """n distinct points of the projective plane with exact coordinates."""
    points = []
    while len(points) < n:
        coords = [_coordinate(rng) for _ in range(3)]
        if all(Fraction(c) == 0 for c in coords) or any(_same_point(coords, p) for p in points):
            continue
        points.append(coords)
    return points


def _linsys_system(rng, labels):
    degree = rng.randrange(2, 11)
    mults = [rng.randrange(0, 5) for _ in labels]
    if rng.randrange(2):
        spec = {"degree": degree,
                "multiplicities": {lab: m for lab, m in zip(labels, mults)
                                   if m or rng.randrange(2)}}
    else:
        coeffs = [-m for m in mults]
        if rng.randrange(5) == 0:  # a fixed component for h0_class to strip
            coeffs[rng.randrange(len(coeffs))] = rng.randrange(1, 3)
        spec = {"class": {"l": degree,
                          **{f"e{i}": c for i, c in enumerate(coeffs, start=1) if c}}}
    return spec


def linsys_pool() -> list[dict]:
    """Distinct `linsys` scenarios: half on the quadrilateral configuration
    (special incidences, three points at coordinate vertices), half on 3 to
    6 random exact rational points with denominators.  Degrees 2..10,
    multiplicities 0..4, one to three systems each, no system repeated."""
    rng = random.Random(f"linsys-sweep/{POOL_SEED}")
    pool, seen = [], set()
    while len(pool) < LINSYS_POOL_SIZE:
        quadrilateral = len(pool) % 2 == 0
        payload = {"kind": "linsys"}
        if quadrilateral:
            if rng.randrange(2):
                payload["configuration"] = "quadrilateral"
            labels = [f"P{i}" for i in range(1, 7)]
            config_key = "quadrilateral"
        else:
            n = rng.randrange(3, 7)
            payload["points"] = _random_points(rng, n)
            if rng.randrange(2):
                labels = [f"A{i}" for i in range(1, n + 1)]
                payload["labels"] = labels
            else:
                labels = [f"P{i}" for i in range(1, n + 1)]
            config_key = json.dumps(payload["points"])
        systems = []
        for _ in range(rng.randrange(1, 4)):
            spec = _linsys_system(rng, labels)
            key = (config_key, json.dumps(spec, sort_keys=True))
            if key not in seen:
                seen.add(key)
                systems.append(spec)
        if systems:
            payload["systems"] = systems
            pool.append(payload)
    return pool


def linsys_shape(spec, n_points) -> tuple[int, int, int]:
    """(degree, rows, cols) of the interpolation matrix a system builds."""
    if "class" in spec:
        cls = spec["class"]
        degree = cls["l"]
        mults = [max(0, -cls.get(f"e{i}", 0)) for i in range(1, n_points + 1)]
    else:
        degree = spec["degree"]
        mults = list(spec["multiplicities"].values())
    rows = sum(m * (m + 1) * (m + 2) // 6 for m in mults)
    return degree, rows, (degree + 1) * (degree + 2) // 2


# ----------------------------------------------------------------- pq sweep

def _gf2_invertible(rng, n):
    """Generator images of a uniformly random automorphism of Z2^n: each
    image is drawn outside the span of the ones before it."""
    cols, span = [], {(0,) * n}
    for _ in range(n):
        col = rng.choice([v for v in itertools.product((0, 1), repeat=n) if v not in span])
        cols.append(col)
        span |= {tuple((a + b) % 2 for a, b in zip(s, col)) for s in span}
    return cols


def _apply(cols, g):
    """Image of g under the automorphism whose generator images are cols."""
    n = len(g)
    return tuple(sum(cols[j][i] * g[j] for j in range(n)) % 2 for i in range(n))


def _branch_degrees(rng, elements, total):
    """Branch degrees on the given nonzero elements of Z2^n summing to
    `total` whose element sum is zero, which is exactly the condition that
    every charged degree is even (so the building data is valid).  None
    when a few draws find no such degrees."""
    for _ in range(8 if elements else 0):
        picks = [rng.choice(elements) for _ in range(total - 1)]
        last = tuple(sum(col) % 2 for col in zip(*picks))
        if last in elements:
            degrees = Counter(picks)
            degrees[last] += 1
            return dict(sorted(degrees.items()))
    return None


def _curve(rng, n, degrees, prefix):
    line_bundles = [sum(d for g, d in degrees.items() if g[i]) // 2 for i in range(n)]
    as_points = rng.randrange(3)  # 0: all degrees, 1: all points, 2: mixed
    branch, label = [], 0
    for g, d in degrees.items():
        entry = {"element": list(g)}
        if as_points == 1 or (as_points == 2 and rng.randrange(2)):
            entry["points"] = [f"{prefix}{label + k}" for k in range(1, d + 1)]
            label += d
        else:
            entry["degree"] = d
        branch.append(entry)
    rng.shuffle(branch)
    return {"branch": branch, "line_bundles": line_bundles}


def pq_is_free(cols, degrees1, degrees2) -> bool:
    """The graph of psi acts freely iff no g with fixed points on C1 has
    psi(g) with fixed points on C2 (all inertia has order 2 here)."""
    return not any(_apply(cols, g) in degrees2 for g in degrees1)


def _pq_candidate(rng, n, accepted):
    nonzero = [g for g in itertools.product((0, 1), repeat=n) if any(g)]
    t1, t2 = rng.choice(PQ_TOTALS[n])
    cols = _gf2_invertible(rng, n)
    d1 = _branch_degrees(rng, nonzero, t1)
    if d1 is None:
        return None
    if accepted:
        # the elements psi cannot map a fixed-point element of C1 onto
        hit = {_apply(cols, g) for g in d1}
        d2 = _branch_degrees(rng, [g for g in nonzero if g not in hit], t2)
    else:
        d2 = _branch_degrees(rng, nonzero, t2)
    if d2 is None or pq_is_free(cols, d1, d2) != accepted:
        return None
    return cols, d1, d2


def pq_pool() -> list[dict]:
    """Distinct `product-quotient` scenarios over Z2^2, Z2^3 and Z2^4 with
    valid building data, in the stated accepted/rejected mix: accepted
    inputs have a free graph action and build the whole eigentable, rejected
    ones have a fixed point and exit 1.  Entries are interleaved at random."""
    rng = random.Random(f"pq-sweep/{POOL_SEED}")
    slots = [cls for cls, q in PQ_QUOTAS.items() for _ in range(q)]
    rng.shuffle(slots)
    pool, seen = [], set()
    for n, accepted in slots:
        for _ in range(10_000):
            found = _pq_candidate(rng, n, accepted)
            if found is None:
                continue
            cols, d1, d2 = found
            key = (tuple(cols), tuple(d1.items()), tuple(d2.items()))
            if key not in seen:
                break
        else:
            raise RuntimeError(f"no new Z2^{n} spec with accepted={accepted}")
        seen.add(key)
        pool.append({"kind": "product-quotient", "group": [2] * n,
                     "automorphism": [list(c) for c in cols],
                     "curve1": _curve(rng, n, d1, "P"),
                     "curve2": _curve(rng, n, d2, "Q")})
    return pool


def pq_accepted(payload) -> bool:
    def degrees(curve):
        return {tuple(e["element"]): e.get("degree", len(e.get("points", ())))
                for e in curve["branch"]}
    return pq_is_free([tuple(c) for c in payload["automorphism"]],
                      degrees(payload["curve1"]), degrees(payload["curve2"]))


# ------------------------------------------------------------------ a run

def build_pool(workload: str, scenario_dir) -> list[dict]:
    if workload == "paper":
        return paper_pool(scenario_dir)
    if workload == "linsys-sweep":
        return linsys_pool()
    if workload == "pq-sweep":
        return pq_pool()
    raise ValueError(f"unknown workload {workload!r}")


def _stratum_key(workload: str, payload):
    """A cost proxy read from the input alone: configuration kind and
    interpolation matrix entries for linsys, group rank and accepted for
    product quotients."""
    if workload == "linsys-sweep":
        n_points = len(payload["points"]) if "points" in payload else 6
        shapes = [linsys_shape(spec, n_points) for spec in payload["systems"]]
        return ("points" in payload, sum(rows * cols for _, rows, cols in shapes))
    return (len(payload["group"]), pq_accepted(payload))


def run_order(workload: str, pool, seed: int) -> list[int]:
    """Pool indices in the order a run with this seed visits them; the
    worker wraps around at the end.

    The sweeps are stratified: the pool after its first entry is sorted by
    `_stratum_key` and cut into STRATA equal strata, and every block of
    STRATA consecutive operations takes one entry of each stratum, in
    shuffled order.  So every prefix of a run has close to the pool's mix of
    cheap and costly inputs whatever the seed, and the seed picks which
    entries run and in which order.  The proxy only sets the strata; it
    cannot bias the mix."""
    if workload == "paper":
        return list(range(len(pool)))
    rng = random.Random(f"{workload}/order/{seed}")
    rest = sorted(range(1, len(pool)), key=lambda i: (_stratum_key(workload, pool[i]), i))
    size = len(rest) // STRATA
    strata = [rest[k * size:(k + 1) * size] for k in range(STRATA)]
    leftover = rest[STRATA * size:]
    for stratum in strata + [leftover]:
        rng.shuffle(stratum)
    order = [0]
    for j in range(size):
        block = [stratum[j] for stratum in strata]
        rng.shuffle(block)
        order += block
    return order + leftover


def input_properties(workload: str, pool, indices) -> dict:
    """Properties of the inputs a run actually sent, in run order.  The
    repeat share counts operations whose input is sent more than once."""
    indices = list(indices)
    seen = Counter(indices)
    repeats = sum(1 for i in indices if seen[i] > 1)
    props = {"operations": len(indices),
             "repeat_share": round(repeats / len(indices), 4) if indices else 0.0}
    payloads = [pool[i] for i in indices]
    if workload == "paper":
        props["scenarios"] = dict(Counter(p["name"] for p in payloads))
    elif workload == "linsys-sweep":
        degrees, mults, shapes = Counter(), Counter(), []
        quad = 0
        for p in payloads:
            n_points = len(p["points"]) if "points" in p else 6
            quad += "points" not in p
            for spec in p["systems"]:
                d, rows, cols = linsys_shape(spec, n_points)
                degrees[d] += 1
                shapes.append((rows, cols))
                if "class" in spec:
                    mults.update(max(0, -spec["class"].get(f"e{i}", 0))
                                 for i in range(1, n_points + 1))
                else:
                    mults.update(spec["multiplicities"].values())
        rows = sorted(r for r, _ in shapes)
        props.update({
            "quadrilateral_share": round(quad / len(payloads), 4) if payloads else 0.0,
            "degree_histogram": dict(sorted(degrees.items())),
            "multiplicity_histogram": dict(sorted(mults.items())),
            "systems": len(shapes),
            "matrix_rows_min_median_max": [rows[0], rows[len(rows) // 2], rows[-1]] if rows else [],
            "matrix_cols_max": max((c for _, c in shapes), default=0),
            "matrix_entries_total": sum(r * c for r, c in shapes),
        })
    else:
        ranks = Counter(len(p["group"]) for p in payloads)
        accepted = sum(pq_accepted(p) for p in payloads)
        props.update({
            "group_rank_histogram": {f"Z2^{r}": c for r, c in sorted(ranks.items())},
            "accepted_share": round(accepted / len(payloads), 4) if payloads else 0.0,
            "rejected_share": round(1 - accepted / len(payloads), 4) if payloads else 0.0,
        })
    return props
