"""Spans and counters around the public functions of each bicanonical module.

The tracer patches each wrapped function in every module namespace that
binds it (`from .exactlinalg import exact_rank` makes `linsys.exact_rank`
a second binding), so a call is seen whichever name the caller uses.
Spans stay in memory as (name, start_ns, end_ns, parent, op) and are
reduced to per-layer metrics when the run ends.  Nothing here changes what
the wrapped functions compute or return.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "bicanonical"

# (module, attribute) pairs wrapped with a span; class methods are named
# "Class.method" and reported as "<module>.<Class>.<stat name>".
SPANS = (
    ("cli", "validate_payload"),
    ("linsys", "h0_class"),
    ("linsys", "h0_fat_points"),
    ("linsys", "interpolation_matrix"),
    ("exactlinalg", "exact_rank"),
    ("exactlinalg", "in_row_lattice"),
    ("exactlinalg", "integer_det"),
    ("grouplib", "Automorphism.__init__"),
    ("grouplib", "Subgroup.__init__"),
    ("grouplib", "orthogonal_complement"),
    ("grouplib", "common_kernel"),
    ("covers", "validate_building_data"),
    ("covers", "eigensheaf_degrees"),
    ("covers", "z22_bicanonical_report"),
    ("beauville", "bicanonical_report"),
    ("beauville", "is_free"),
    ("fermat", "fermat_report"),
    ("fermat", "verify_weight_derivation"),
    ("fermat", "invariant_monomials"),
    ("fermat", "residual_kernel"),
    ("piclattice", "quadrilateral_catalog"),
    ("piclattice", "make_blowup_lattice"),
    ("proofcheck", "run_case_table"),
    ("proofcheck", "lemma32_cases"),
)

# Hot methods wrapped as counters only, with no span: (module, attribute,
# counter name, how much one call adds).
COUNTERS = (
    ("grouplib", "Automorphism.__call__", "grouplib.Automorphism.call.calls", None),
    ("grouplib", "AbelianGroup.elements", "grouplib.enumerated", len),
    ("grouplib", "AbelianGroup.characters", "grouplib.enumerated", len),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '.init')}"


def _rows_cols(args, result):
    degree = args[1].degree
    return {"rows": len(result), "cols": (degree + 1) * (degree + 2) // 2}


def _rank_entries(args, result):
    return {"entries": sum(len(row) for row in args[0]), "rank": result}


def _members(args, result):
    return {"members": len(args[0].members)}


# work counts recorded alongside the span: name -> (f(args, result) -> dict, keys)
SPAN_COUNTS = {
    "linsys.interpolation_matrix": (_rows_cols, ("rows", "cols")),
    "exactlinalg.exact_rank": (_rank_entries, ("entries", "rank")),
    "grouplib.Subgroup.init": (_members, ("members",)),
}
COUNT_NAMES = ({key for _, _, key, _ in COUNTERS}
               | {f"{name}.{key}" for name, (_, keys) in SPAN_COUNTS.items() for key in keys})


class Tracer:
    """Records spans and counters while installed; one op at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._scale: dict[int, float] = {}
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        extra = SPAN_COUNTS.get(name, (None,))[0]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            if extra is not None:
                for key, value in extra(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter_wrapper(self, key, amount, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1 if amount is None else amount(result)
            return result

        counted.__wrapped__ = fn
        return counted

    def run_op(self, op_id: int, call, scale: float = 1.0):
        """Run one operation under a root span named "op"; `scale` takes its
        times to reference speed (see worker.py)."""
        self._op = op_id
        self._scale[op_id] = scale
        return self._span_wrapper("op", call)()

    # ------------------------------------------------------------- patching

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        targets = [(m, a, self._span_wrapper, (span_name(m, a),)) for m, a in SPANS]
        targets += [(m, a, self._counter_wrapper, (key, amount))
                    for m, a, key, amount in COUNTERS]
        for module, attr, make, make_args in targets:
            home = modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, make(*make_args, original))
                continue
            original = getattr(home, attr)
            wrapper = make(*make_args, original)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # ------------------------------------------------------------ reporting

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def summary(self, n_ops: int) -> dict:
        """Per-operation averages: calls, inclusive ms and self ms (at
        reference speed) for every span name, plus the recorded work counts."""
        child = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_ns = Counter(), Counter(), Counter()
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            factor = self._scale.get(op, 1.0)
            calls[name] += 1
            incl[name] += (end - start) * factor
            self_ns[name] += (end - start - child[idx]) * factor
        per_op = max(n_ops, 1)
        out = {}
        for module, attr in SPANS:
            name = span_name(module, attr)
            out[f"{name}.calls"] = calls[name] / per_op
            out[f"{name}.ms"] = incl[name] / 1e6 / per_op
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / per_op
        for key in COUNT_NAMES:
            out[key] = self.counts[key] / per_op
        return out
