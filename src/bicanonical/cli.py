"""Command-line front end.

Scenarios are JSON files describing one computation each; `run` executes a
scenario (by path, or by the name of a bundled one) and prints a
human-readable report, or the same data as JSON with --json.  Each runner
builds only the JSON report; the text report is rendered from it, so the two
views cannot disagree.

Each scenario is checked against its schema in SCHEMAS before anything runs.
Validation is in-house (compile_schema, standard library only).  Every schema
node has two faces: a boolean valid(value), which builds no path or error and
stops at the first failure, and a walker that collects errors.  A valid
payload passes on the boolean face alone; the walker runs only on an invalid
one, to name its first error in jsonschema-compatible words: the error
jsonschema 4.26 would report first by path, in its words and "$." path
format.  A value repr cannot show (an integer past the interpreter's digit
limit, a list nested too deeply) reads as a short placeholder.  Only the
keywords SCHEMAS uses are supported; any other raises at import.

Exit codes are chosen in run_scenario alone.  0: success.  1: bad input,
either a ScenarioError for what the command line checks itself (file, JSON,
schema, kind, group order and exponent, point coordinate size, branch
entries, unknown names) or a ValueError from the library (InvalidCoverData,
GroupError, LatticeMismatch, the linsys size caps).  An error raised while
one entry of the payload is read is prefixed with that entry's JSON path
(_at), as in $.systems[i] or $.curve1.branch[i], and a capped h^0 of a
Z_2 x Z_2 cover class with the paths of the inputs the class is built from
($.branch, $.line_bundles.Li or both); invalid building data reads
"<what> building data invalid, failed relation: <name> (<detail>)".
2: a failed consistency identity, raised as covers.InternalInconsistency
or as a FailedReport carrying the partial report that is printed.
Anything else is a bug and keeps its traceback.
"""

from __future__ import annotations

import json
import re
import sys
from math import log10, prod
from pathlib import Path

from . import beauville, covers, fermat, linsys, piclattice, proofcheck
from .grouplib import MAX_GROUP_ORDER, Automorphism, element_name, make_group

BUILTIN_ORDER = ("inoue7", "beauville8", "inoue-z24", "fermat-z52", "proofcheck-all")


class ScenarioError(Exception):
    """A rejected scenario and its exit code: raised directly only for what the
    command line checks itself, and by run_scenario for every library error."""

    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


class FailedReport(Exception):
    """Raised with a report whose own identities failed (args[0]); that
    partial report becomes the error text."""


# ------------------------------------------------------------------ schemas
# The scenario schemas use only the JSON Schema 2020-12 keywords of _KEYWORDS,
# checked as the module docstring says.  A JSON integer is an exact int:
# neither True nor 2.0.

_TYPES = {"object": lambda v: isinstance(v, dict), "array": lambda v: isinstance(v, list),
          "string": lambda v: isinstance(v, str), "integer": lambda v: type(v) is int}
_JSON_PATH_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _json_path(path) -> str:
    return "$" + "".join(
        (f".{key}" if _JSON_PATH_NAME.match(key)
         else "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']")
        if isinstance(key, str) else f"[{_shown(key)}]" for key in path)


def _path_order(path) -> tuple:
    """Sort key of an error path.  JSON list indices and object keys order
    as themselves; any other key, which only a payload built in-process can
    hold, orders after them by its shown form, so no two keys of different
    types are ever compared."""
    return tuple((0, key) if type(key) is int else (1, key) if type(key) is str
                 else (2, _shown(key)) for key in path)


def _equal(value, constant) -> bool:
    """JSON equality with a string or number constant: True != 1, but 6.0 == 6."""
    return isinstance(value, bool) == isinstance(constant, bool) and value == constant


def _shown(value) -> str:
    """repr(value) for a schema message, or a short placeholder where repr
    raises: on an int past the interpreter's digit limit, or on a list or
    dict nested past the recursion limit."""
    try:
        return repr(value)
    except RecursionError:
        return f"<{type(value).__name__} nested too deeply to show>"
    except ValueError:
        if isinstance(value, int):
            return f"<integer of {_digits(value)} digits>"
        return f"<{type(value).__name__} holding an integer too long to show>"


def _digits(n: int) -> int:
    """The number of decimal digits of n, without converting it to a string."""
    n = abs(n)
    digits = int(log10(n)) + 1  # a float estimate, corrected next to a power of 10
    if n >= 10 ** digits:
        return digits + 1
    return digits - 1 if n < 10 ** (digits - 1) else digits


# Each keyword's factory returns its two faces.  check(value, path, errors)
# appends a (path, message) pair per violation.  valid(value) is true exactly
# when check appends nothing; it builds no path and returns at the first
# failure.  A keyword meant for another type of value passes on both faces.

def _leaf(valid, message):
    """The two faces of a keyword with one test: message(value) words a
    failure of valid(value)."""
    def check(value, path, errors):
        if not valid(value):
            errors.append((path, message(value)))
    return check, valid


def _all(faces):
    """The two faces of a list of faces that must all hold, in order."""
    if len(faces) == 1:
        return faces[0]
    checks = [check for check, _ in faces]
    valids = [valid for _, valid in faces]

    def check(value, path, errors):
        for keyword_check in checks:
            keyword_check(value, path, errors)

    def valid(value):
        for keyword_valid in valids:
            if not keyword_valid(value):
                return False
        return True
    return check, valid


def _type(name, schema):
    return _leaf(_TYPES[name], lambda value: f"{_shown(value)} is not of type {name!r}")


def _const(const, schema):
    return _leaf(lambda value: _equal(value, const), lambda value: f"{const!r} was expected")


def _enum(options, schema):
    def valid(value):
        for option in options:
            if _equal(value, option):
                return True
        return False
    return _leaf(valid, lambda value: f"{_shown(value)} is not one of {options!r}")


def _bound(limit, above, wording):
    def valid(value):  # type(True) is bool, so no bool is bounded
        return type(value) not in (int, float) or not (value > limit if above else value < limit)
    return _leaf(valid, lambda value: f"{_shown(value)} {wording} {limit!r}")


def _length(limit, above, wording):
    def valid(value):
        return not isinstance(value, list) or not (
            len(value) > limit if above else len(value) < limit)
    return _leaf(valid, lambda value: f"{_shown(value)} {wording}")


def _items(item_schema, schema):
    item_check, item_valid = compile_schema(item_schema)

    def check(value, path, errors):
        if isinstance(value, list):
            for index, entry in enumerate(value):
                item_check(entry, path + (index,), errors)

    bounds = _integer_bounds(item_schema)
    if bounds:  # item_valid inlined, as most integers of a payload are array items
        low, high = bounds

        def valid(value):
            if isinstance(value, list):
                for entry in value:
                    if type(entry) is not int or not low <= entry <= high:
                        return False
            return True
    else:
        def valid(value):
            if isinstance(value, list):
                for entry in value:
                    if not item_valid(entry):
                        return False
            return True
    return check, valid


def _required(names, schema):
    def check(value, path, errors):
        if isinstance(value, dict):
            errors.extend((path, f"{name!r} is a required property")
                          for name in names if name not in value)

    def valid(value):
        if isinstance(value, dict):
            for name in names:
                if name not in value:
                    return False
        return True
    return check, valid


def _dependent_required(needs, schema):
    def check(value, path, errors):
        if isinstance(value, dict):
            errors.extend((path, f"{need!r} is a dependency of {name!r}")
                          for name, wanted in needs.items() if name in value
                          for need in wanted if need not in value)

    def valid(value):
        if isinstance(value, dict):
            for name, wanted in needs.items():
                if name in value:
                    for need in wanted:
                        if need not in value:
                            return False
        return True
    return check, valid


def _properties(properties, schema):
    fields = [(name, *compile_schema(sub)) for name, sub in properties.items()]

    def check(value, path, errors):
        if isinstance(value, dict):
            for name, field_check, _ in fields:
                if name in value:
                    field_check(value[name], path + (name,), errors)

    def valid(value):
        if isinstance(value, dict):
            for name, _, field_valid in fields:
                if name in value and not field_valid(value[name]):
                    return False
        return True
    return check, valid


def _additional_properties(extra_schema, schema):
    known = schema.get("properties", {})
    if extra_schema is not False:
        extra_check, extra_valid = compile_schema(extra_schema)

        def check(value, path, errors):
            if isinstance(value, dict):
                for name, entry in value.items():
                    if name not in known:
                        extra_check(entry, path + (name,), errors)

        def valid(value):
            if isinstance(value, dict):
                for name, entry in value.items():
                    if name not in known and not extra_valid(entry):
                        return False
            return True
        return check, valid

    def valid(value):
        if isinstance(value, dict):
            for name in value:
                if name not in known:
                    return False
        return True

    def message(value):
        extras = sorted((name for name in value if name not in known),
                        key=lambda name: name if isinstance(name, str) else _shown(name))
        return ("Additional properties are not allowed (" + ", ".join(map(_shown, extras))
                + (" was" if len(extras) == 1 else " were") + " unexpected)")
    return _leaf(valid, message)


def _one_of(options, schema):
    subs = [(option, compile_schema(option)[1]) for option in options]

    def check(value, path, errors):
        matches = [option for option, sub in subs if sub(value)]
        if not matches:
            errors.append((path, f"{_shown(value)} is not valid under any of the given schemas"))
        elif len(matches) > 1:  # the later matches are named first, then the first one
            errors.append((path, f"{_shown(value)} is valid under each of "
                           + ", ".join(map(repr, matches[1:] + matches[:1]))))

    def valid(value):
        found = False
        for _, sub in subs:
            if sub(value):
                if found:
                    return False
                found = True
        return found
    return check, valid


def _all_of(options, schema):
    return _all([compile_schema(option) for option in options])


def _if(condition, schema):
    _, test = compile_schema(condition)
    then_check, then_valid = compile_schema(schema.get("then", {}))

    def check(value, path, errors):
        if test(value):
            then_check(value, path, errors)

    def valid(value):
        return not test(value) or then_valid(value)
    return check, valid


_KEYWORDS = {
    "type": _type, "const": _const, "enum": _enum,
    "minimum": lambda m, _: _bound(m, False, "is less than the minimum of"),
    "maximum": lambda m, _: _bound(m, True, "is greater than the maximum of"),
    "minItems": lambda n, _: _length(n, False, "should be non-empty" if n == 1 else "is too short"),
    "maxItems": lambda n, _: _length(n, True, "is expected to be empty" if n == 0 else "is too long"),
    "items": _items, "required": _required, "dependentRequired": _dependent_required,
    "properties": _properties, "additionalProperties": _additional_properties,
    "oneOf": _one_of, "allOf": _all_of, "if": _if, "then": None,  # "then" is read by "if"
}


def compile_schema(schema):
    """The two faces of a schema, (check, valid), as the keyword factories
    above define them; check visits keywords in the schema's order.  Raises
    ValueError on a keyword outside _KEYWORDS."""
    unknown = sorted(set(schema) - set(_KEYWORDS))
    if unknown:
        raise ValueError(f"unsupported schema keywords {unknown}")
    faces = [_KEYWORDS[k](v, schema) for k, v in schema.items() if _KEYWORDS[k]]
    if schema.get("type") == "object" and schema.get("additionalProperties") is not False:
        faces.append(_string_keys())
    check, valid = _all(faces)
    bounds = _integer_bounds(schema)
    if bounds:  # the valid faces of type, minimum and maximum as one test
        low, high = bounds

        def valid(value):
            return type(value) is int and low <= value <= high
    return check, valid


def _string_keys():
    """The two faces of the rule that a JSON object's keys are strings, which
    only a payload built in-process can break.  compile_schema adds it to
    every object schema that admits other keys than its properties; a closed
    object already reports such a key as an additional property.  It is
    checked after the keywords, so an error in the key's value wins over it."""
    def check(value, path, errors):
        if isinstance(value, dict):
            errors.extend((path + (key,), f"object key {_shown(key)} is not a string")
                          for key in value if not isinstance(key, str))

    def valid(value):
        if isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    return False
        return True
    return check, valid


def _integer_bounds(schema):
    """The (minimum, maximum) of a schema that is exactly a bounded JSON
    integer, or None."""
    if schema.keys() == {"type", "minimum", "maximum"} and schema["type"] == "integer":
        return schema["minimum"], schema["maximum"]
    return None


def _closed(properties, required=(), **extra):
    """Schema of a JSON object with exactly the given properties."""
    return {"type": "object", "required": list(required), "properties": properties,
            "additionalProperties": False, **extra}


# every scenario integer lies in [-MAX_INTEGER, MAX_INTEGER], so no exact
# computation meets thousand-digit entries
MAX_INTEGER = 2**31
_INT = {"type": "integer", "minimum": -MAX_INTEGER, "maximum": MAX_INTEGER}
_NATURAL = {"type": "integer", "minimum": 0, "maximum": MAX_INTEGER}
_STRING = {"type": "string"}
_COEFF_MAP = {"type": "object", "additionalProperties": _INT}
_NAME_LIST = {"type": "array", "items": _STRING, "minItems": 1}
_DIVISOR = {"oneOf": [_COEFF_MAP, _NAME_LIST]}
_ELEMENT = {"type": "array", "items": _INT, "minItems": 1}
_CURVE = _closed({
    "branch": {"type": "array", "items": _closed(
        {"element": _ELEMENT, "degree": _NATURAL, "points": {"type": "array", "items": _STRING}},
        ["element"])},
    "line_bundles": {"type": "array", "items": _INT},
}, ["branch", "line_bundles"])
# lattice operation -> (the fields it reads, its text line)
_LATTICE_OPS = {
    "intersect": (["a", "b"], "({a}) . ({b}) = {result}"),
    "pullback": (["degree", "a", "b"], "degree {degree} pullback of ({a}) . ({b}) = {result}"),
    "canonical": ([], "canonical class = {result}"),
    "negative-definite": (["gram"], "negative definite: {result}"),
    "divisible": (["a", "k"], "({a}) divisible by {k}: {result}"),
}

# kind -> (required fields, properties), beside the envelope every kind shares
_KIND_FIELDS = {
    "z22-surface-cover": (["branch", "line_bundles"], {
        "blowup_points": {"const": 6},
        "point_configuration": {"const": "quadrilateral"},
        "branch": _closed({"D1": _DIVISOR, "D2": _DIVISOR, "D3": _DIVISOR}, ["D1", "D2", "D3"]),
        "line_bundles": _closed({"L1": _COEFF_MAP, "L2": _COEFF_MAP}, ["L1", "L2"]),
    }),
    "product-quotient": (["group", "automorphism", "curve1", "curve2"], {
        "group": {"type": "array", "items": {"type": "integer", "minimum": 2,
                                             "maximum": MAX_INTEGER}, "minItems": 1},
        "automorphism": {"type": "array", "items": _ELEMENT},
        "curve1": _CURVE,
        "curve2": _CURVE,
    }),
    "fermat": ([], {}),
    "proofcheck": ([], {
        "checks": {"type": "array", "items": {"enum": ["case-table", "reider", "lemma32"]},
                   "minItems": 1},
    }),
    "double-cover": (["cases"], {
        "cases": {"type": "array", "minItems": 1, "items": _closed(
            {"label": _STRING, "chi_base": _INT, "pg_base": _NATURAL, "K2_base": _INT,
             "M_sq": _INT, "M_K": _INT, "h0_K_plus_M": _NATURAL},
            ["label", "chi_base", "pg_base", "K2_base", "M_sq", "M_K", "h0_K_plus_M"])},
    }),
    "linsys": (["systems"], {
        "configuration": {"const": "quadrilateral"},
        "points": {"type": "array", "minItems": 1, "maxItems": 10, "items": {
            "type": "array", "items": {"oneOf": [_INT, _STRING]}, "minItems": 3, "maxItems": 3}},
        "labels": {"type": "array", "items": _STRING},
        # each system may rank a matrix of thousands of entries of hundreds of bits
        "systems": {"type": "array", "minItems": 1, "maxItems": 32, "items": _closed(
            {"degree": _NATURAL,
             "multiplicities": {"type": "object", "additionalProperties": _NATURAL},
             "class": _COEFF_MAP},
            # a class, or a degree with multiplicities, never both
            oneOf=[{"required": ["class"]}, {"required": ["degree", "multiplicities"]}],
            dependentRequired={"degree": ["multiplicities"], "multiplicities": ["degree"]})},
    }),
    "lattice": (["operations"], {
        "blowup_points": {"type": "integer", "minimum": 0, "maximum": 100},
        "lattice": {"const": "quadric"},
        "operations": {"type": "array", "minItems": 1, "items": _closed(
            {"op": {"enum": list(_LATTICE_OPS)},
             "a": _COEFF_MAP,
             "b": _COEFF_MAP,
             "degree": {"type": "integer", "minimum": 1, "maximum": MAX_INTEGER},
             "k": {"type": "integer", "minimum": 2, "maximum": MAX_INTEGER},
             "gram": {"type": "array", "minItems": 1, "maxItems": 20,
                      "items": {"type": "array", "items": _INT, "maxItems": 20}}},
            ["op"],
            allOf=[{"if": {"properties": {"op": {"const": op}}}, "then": {"required": fields}}
                   for op, (fields, _) in _LATTICE_OPS.items() if fields])},
    }),
}

SCHEMAS = {
    kind: _closed({"kind": {"const": kind}, "name": _STRING, "description": _STRING, **fields},
                  ["kind", *required])
    for kind, (required, fields) in _KIND_FIELDS.items()
}
_CHECKS, _VALID = {}, {}  # kind -> the error-collecting walker, and its boolean face
for _kind, _schema in SCHEMAS.items():
    _CHECKS[_kind], _VALID[_kind] = compile_schema(_schema)


def validate_payload(payload) -> str:
    """The kind of a payload its schema accepts, told by the boolean face;
    the walker runs only to name the first error of a rejected one."""
    if not isinstance(payload, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise ScenarioError(
            f"$.kind: unknown scenario kind {_shown(kind)}; expected one of {sorted(SCHEMAS)}")
    if _VALID[kind](payload):
        return kind
    errors = []
    _CHECKS[kind](payload, (), errors)
    if errors:  # the least path wins, then the first visited among equals
        path, message = min(errors, key=lambda error: _path_order(error[0]))
        raise ScenarioError(f"{_json_path(path)}: {message}")
    return kind


def _at(path: str, exc: Exception) -> Exception:
    """The input error exc, raised while the entry at a JSON path was read,
    with the path prefixed to its message.  It keeps its kind, so a library
    error still reads "validation failed: <path>: ..." and keeps exit 1."""
    if isinstance(exc, ScenarioError):
        return ScenarioError(f"{path}: {exc}", exc.exit_code)
    return ValueError(f"{path}: {exc}")


def _flag(value) -> str:
    return str(value).lower()


def _braces(names) -> str:
    return "{" + ", ".join(names) + "}"


def _invariants(inv) -> dict:
    return {"K2": inv.K2, "chi": inv.chi, "pg": inv.pg, "q": inv.q}


def _invariant_tuple(inv) -> str:
    return f"({inv['K2']}, {inv['chi']}, {inv['pg']}, {inv['q']})"


def _checks(validation) -> list[dict]:
    return [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in validation.checks]


def _check_lines(checks, prefix: str) -> list[str]:
    return [f"{prefix} {c['name']}: {'ok' if c['passed'] else 'FAIL ' + c['detail']}"
            for c in checks]


# ---------------------------------------------------------------- z22 cover

def _resolve_divisor(spec, catalog):
    named = catalog.named()
    if isinstance(spec, list):
        parts = []
        for name in spec:
            if name not in named:
                raise ScenarioError(f"unknown catalog divisor {name!r}")
            parts.append(named[name])
        return sum(parts, catalog.lattice.zero()), tuple(parts)
    return catalog.lattice.cls(spec), None


def run_z22(payload, verbose=False):
    catalog = piclattice.quadrilateral_catalog()
    cfg = linsys.quadrilateral_config()
    branch, components, bundles = [], [], []
    for key in ("D1", "D2", "D3"):
        try:
            cls, parts = _resolve_divisor(payload["branch"][key], catalog)
        except (ScenarioError, ValueError) as exc:
            raise _at(f"$.branch.{key}", exc) from exc
        branch.append(cls)
        components.append(parts)
    comps = tuple(components) if all(p is not None for p in components) else None
    for key in ("L1", "L2"):
        try:
            bundles.append(catalog.lattice.cls(payload["line_bundles"][key]))
        except ValueError as exc:
            raise _at(f"$.line_bundles.{key}", exc) from exc
    data = covers.BranchDataSurface(catalog.lattice, branch, bundles, components=comps)

    validation = covers.validate_building_data(data).require(covers.Z22_COVER)
    result = {"validation": {"ok": True, "checks": _checks(validation)}}
    try:
        report = covers.z22_bicanonical_report(data, lambda cls: linsys.h0_class(cfg, cls))
    except covers.InvalidCoverClass as exc:
        paths = ("$.branch" if name == "D" else f"$.line_bundles.{name}" for name in exc.inputs)
        raise _at(", ".join(paths), exc) from exc
    kernel = report.kernel.elements()
    result.update({
        "K2_cover": report.invariants.K2,
        "K2": report.K2_minimal,
        "chi": report.invariants.chi,
        "pg": report.invariants.pg,
        "q": report.invariants.q,
        "p2": report.p2,
        "bicanonical_class_downstairs": str(report.total_class),
        "eigentable": [{"character": label, "class": str(cls), "dimension": dim}
                       for label, cls, dim in report.eigentable],
        "kernel": [covers.z22_element_name(g) for g in kernel],
        "verdict": {"birational": report.verdict.birational,
                    "degree": report.verdict.degree,
                    "composed_with": [covers.z22_element_name(g) for g in kernel if any(g)]},
    })
    return result


def render_z22(result, verbose=False):
    lines = ["building data: valid"]
    if verbose:
        lines += _check_lines(result["validation"]["checks"], "  check")
    verdict = result["verdict"]
    k2_text = (f"K²={result['K2']}" if result["K2"] is not None
               else f"K²(cover)={result['K2_cover']}")
    tail = ("bicanonical birational" if verdict["birational"]
            else f"bicanonical composed with {', '.join(verdict['composed_with'])}")
    dims = ",".join(str(e["dimension"]) for e in result["eigentable"])
    return lines + [
        f"cover invariants before contraction: K²={result['K2_cover']}, "
        f"χ={result['chi']}, p_g={result['pg']}, q={result['q']}",
        f"bicanonical class downstairs: {result['bicanonical_class_downstairs']}",
        f"{k2_text}, p_g={result['pg']}, p₂={result['p2']}, eigentable ({dims}), "
        f"{tail}, degree {verdict['degree']}",
    ]


# ---------------------------------------------------------- product quotient

def _build_curve(group, spec, path):
    entries = {}
    for i, item in enumerate(spec["branch"]):
        try:
            gamma = group.reduce(item["element"])
            if "points" in item and "degree" in item:
                raise ScenarioError(
                    "give either points or a degree for a branch divisor, not both")
            if "points" in item:
                value = tuple(item["points"])
            elif "degree" in item:
                value = item["degree"]
            else:
                raise ScenarioError("a branch entry needs points or a degree")
            if gamma in entries:
                raise ScenarioError(f"duplicate branch element {item['element']}")
        except (ScenarioError, ValueError) as exc:
            raise _at(f"{path}.branch[{i}]", exc) from exc
        entries[gamma] = value
    try:
        return covers.BranchDataP1(group, entries, line_bundles=spec["line_bundles"])
    except covers.InvalidBranchDivisor as exc:   # entries keeps the order of the branch list
        raise _at(f"{path}.branch[{list(entries).index(exc.element)}]", exc) from exc
    except covers.InvalidCoverData as exc:       # what is left is the line-bundle count
        raise _at(f"{path}.line_bundles", exc) from exc


def run_product_quotient(payload, verbose=False):
    order = prod(payload["group"])
    if order > MAX_GROUP_ORDER:
        raise ScenarioError(
            f"$.group: group order {order} exceeds the limit of {MAX_GROUP_ORDER}")
    if any(m != 2 for m in payload["group"]):
        raise ScenarioError(f"$.group: product quotients are implemented only for groups "
                            f"of exponent 2, got {payload['group']}")
    group = make_group(payload["group"])
    try:
        psi = Automorphism.from_images(group, payload["automorphism"])
    except ValueError as exc:
        raise _at("$.automorphism", exc) from exc
    curves = [_build_curve(group, payload[key], f"$.{key}") for key in ("curve1", "curve2")]

    building_data = []
    for number, data in enumerate(curves, 1):
        validation = covers.validate_building_data(data)
        if verbose:
            building_data.append({
                "branch": [{"element": list(gamma), "degree": degree}
                           for gamma, degree in data.sorted_entries()],
                "checks": _checks(validation)})
        validation.require(f"curve {number}")

    report = beauville.bicanonical_report(psi, *curves)
    result = {
        "group": list(group.moduli),
        "genera": list(report.genera),
        "invariants": _invariants(report.invariants),
        "free": True,
        "bidegree": list(report.bidegree),
        "eigentable": [{"character": list(e.character),
                        "bidegree": list(e.bidegree), "dimension": e.dimension}
                       for e in report.entries],
        "p2": report.p2,
        "kernel": [element_name(g) for g in report.kernel.elements()],
        "verdict": {"birational": report.verdict.birational,
                    "degree": report.verdict.degree},
    }
    if verbose:
        result["building_data"] = building_data
    return result


def render_product_quotient(result, verbose=False):
    lines = []
    if verbose:
        for number, curve in enumerate(result["building_data"], 1):
            lines += [f"  curve {number} branch divisor at {b['element']}: degree {b['degree']}"
                      for b in curve["branch"]]
            lines += _check_lines(curve["checks"], f"  curve {number} check")
    g1, g2 = result["genera"]
    dims = sorted((e["dimension"] for e in result["eigentable"]), reverse=True)
    lines += [
        f"group of order {prod(result['group'])}; genera ({g1},{g2})",
        f"graph action: {'free' if result['free'] else 'not free'}",
        "2K bidegree: ({},{})".format(*result["bidegree"]),
        "eigentable {" + ",".join(str(d) for d in dims if d > 0) + f"}}, sum {result['p2']}",
    ]
    if verbose:
        lines += [f"  character {tuple(e['character'])}: eigensheaf bidegree "
                  f"{tuple(e['bidegree'])}, dimension {e['dimension']}"
                  for e in result["eigentable"]]
    verdict = result["verdict"]
    lines.append("kernel trivial, bicanonical birational" if verdict["birational"]
                 else f"kernel {_braces(result['kernel'])}, degree {verdict['degree']}")
    return lines


# -------------------------------------------------------------------- fermat

def run_fermat(payload, verbose=False):
    report = fermat.fermat_report()
    result = {
        "invariants": _invariants(report.invariants),
        "free": report.action_free,
        "invariant_monomials": [{"monomial": str(m),
                                 "exponents": [m.i, m.j, m.alpha, m.beta]}
                                for m in report.monomials],
        "weight_identity": report.weight_identity,
        "ratio_identities": [{"name": name, "verified": ok}
                             for name, ok in report.ratio_checks],
        "lattice_membership": [{"name": name, "contained": ok}
                               for name, ok in report.lattice_memberships],
        "kernel": [element_name(g) for g in report.kernel.elements()],
        "verdict": "birational" if report.verdict.birational
                   else f"composed with subgroup of order {report.kernel.order}",
    }
    if not (report.weight_identity and all(ok for _, ok in report.ratio_checks)):
        raise FailedReport(result)
    return result


def render_fermat(result, verbose=False):
    inv, monomials, kernel = result["invariants"], result["invariant_monomials"], result["kernel"]
    return [
        f"invariants: K²={inv['K2']}, χ={inv['chi']}, p_g={inv['pg']}, q={inv['q']}",
        f"graph action: {'free' if result['free'] else 'not free'}",
        f"invariant bicanonical monomials ({len(monomials)}): "
        + ", ".join(m["monomial"] for m in monomials),
        f"weight formula derivation: {'verified' if result['weight_identity'] else 'FAILED'}",
        *(f"ratio identity {r['name']}: {'verified' if r['verified'] else 'FAILED'}"
          for r in result["ratio_identities"]),
        *(f"{m['name']} in the invariant-ratio lattice: {_flag(m['contained'])}"
          for m in result["lattice_membership"]),
        "residual kernel: " + ("trivial" if len(kernel) == 1 else _braces(kernel)),
        f"verdict: {result['verdict']}",
    ]


# ---------------------------------------------------------------- proofcheck

def run_proofcheck(payload, verbose=False):
    checks = payload.get("checks", ["case-table", "reider", "lemma32"])
    result = {}
    if "case-table" in checks:
        result["case_table"] = [
            {"label": r.label, **_invariants(r.invariants),
             "bound_holds": r.bound_holds, "contradiction": r.contradiction}
            for r in proofcheck.run_case_table()]
    if "reider" in checks:
        result["reider_multiples"] = sorted(proofcheck.reider_enumeration(9))
    if "lemma32" in checks:
        rep = proofcheck.lemma32_cases()
        result["rational_curve_case"] = {
            "K_L0": rep.K_L0, "L0_sq": rep.L0_sq,
            "cases": [{"a": c.a, "theta_C": c.theta_C, "C_sq": c.C_sq,
                       "consistent": c.consistent} for c in rep.cases],
            "excluded_negative_definite": rep.excluded_negative_definite,
        }
    result["ok"] = (all(r["contradiction"] for r in result.get("case_table", []))
                    and result.get("reider_multiples", [1]) == [1]
                    and result.get("rational_curve_case", {}).get("excluded_negative_definite", True))
    if not result["ok"]:
        raise FailedReport(result)
    return result


def render_proofcheck(result, verbose=False):
    lines = []
    if "case_table" in result:
        lines.append("double-cover case table:")
        lines += [f"  {r['label']}: (K²,χ,p_g,q) = {_invariant_tuple(r)}; "
                  f"bound K²≥16(q−1): {_flag(r['bound_holds'])} "
                  f"→ {'contradiction' if r['contradiction'] else 'no contradiction'}"
                  for r in result["case_table"]]
    if "reider_multiples" in result:
        lines.append("reider enumeration for K²=9: admissible multiples {"
                     + ",".join(map(str, result["reider_multiples"])) + "}")
    if "rational_curve_case" in result:
        rep = result["rational_curve_case"]
        lines.append(f"pullback of the two-point line: K·L₀={rep['K_L0']}, L₀²={rep['L0_sq']}")
        lines += [f"  a={c['a']}: θC={c['theta_C']}, C²={c['C_sq']} "
                  f"({'consistent' if c['consistent'] else 'INCONSISTENT'})"
                  for c in rep["cases"]]
        lines.append("excluded Gram matrix negative definite: "
                     + _flag(rep["excluded_negative_definite"]))
    lines.append("proof skeleton verified" if result["ok"] else "PROOF SKELETON CHECK FAILED")
    return lines


# -------------------------------------------------------------- double cover

def run_double_cover(payload, verbose=False):
    cases = []
    for case in payload["cases"]:
        inv = covers.double_cover_invariants(covers.DoubleCoverInput(**case))
        bound = proofcheck.check_corollary(inv.K2, inv.q) if inv.q >= 0 else None
        cases.append({"label": case["label"], **_invariants(inv), "bound_holds": bound})
    return {"cases": cases}


def render_double_cover(result, verbose=False):
    return [f"{c['label']}: (K²,χ,p_g,q) = {_invariant_tuple(c)}; "
            + ("n/a (q < 0)" if c["bound_holds"] is None
               else f"K²≥16(q−1): {_flag(c['bound_holds'])}")
            for c in result["cases"]]


# --------------------------------------------------------------------- linsys

def _linsys_config(payload):
    if "points" in payload:
        pts = []
        for i, coords in enumerate(payload["points"]):
            try:
                point = linsys.ProjectivePoint.of(*coords)
            except ValueError as exc:
                raise _at(f"$.points[{i}]", exc) from exc
            if max(map(abs, point.coords)) > linsys.MAX_COORDINATE:
                raise ScenarioError(f"$.points[{i}]: coprime integer coordinates exceed "
                                    f"the limit of {linsys.MAX_COORDINATE}")
            pts.append(point)
        labels = tuple(payload.get("labels",
                                   [f"P{i}" for i in range(1, len(pts) + 1)]))
        try:
            return linsys.PointConfig(tuple(pts), labels)
        except linsys.ConfigError as exc:
            raise _at(f"$.{exc.field}", exc) from exc
    return linsys.quadrilateral_config()


def _linsys_system(cfg, lat, spec):
    trace: list[str] = []
    if "class" in spec:
        cls = lat.cls(spec["class"])
        value = linsys.h0_class(cfg, cls, trace=trace)
        desc = str(cls)
    else:  # the schema guarantees a degree with multiplicities
        mult = [0] * cfg.n_points
        for label, m in spec["multiplicities"].items():
            try:
                mult[cfg.index_of(label)] = m
            except ValueError:
                raise ScenarioError(f"unknown point label {label!r}")
        value = linsys.h0_fat_points(cfg, linsys.FatPointSystem(spec["degree"], tuple(mult)))
        desc = (f"degree {spec['degree']} with multiplicities "
                + ",".join(map(str, mult)))
    return {"system": desc, "h0": value, "notes": trace}


def run_linsys(payload, verbose=False):
    cfg = _linsys_config(payload)
    lat = piclattice.make_blowup_lattice(cfg.n_points)
    systems = []
    for i, spec in enumerate(payload["systems"]):
        try:
            systems.append(_linsys_system(cfg, lat, spec))
        except (ScenarioError, ValueError) as exc:
            raise _at(f"$.systems[{i}]", exc) from exc
    return {"systems": systems}


def render_linsys(result, verbose=False):
    lines = []
    for s in result["systems"]:
        lines.append(f"h⁰({s['system']}) = {s['h0']}")
        if verbose:
            lines += [f"  note: {t}" for t in s["notes"]]
    return lines


# -------------------------------------------------------------------- lattice

def run_lattice(payload, verbose=False):
    if payload.get("lattice") == "quadric":
        lat = piclattice.make_quadric_lattice()
    else:
        lat = piclattice.make_blowup_lattice(payload.get("blowup_points", 6))
    operations = []
    for i, op in enumerate(payload["operations"]):
        path = f"$.operations[{i}]"
        kind = op["op"]
        entry = {"op": kind}
        if kind in ("intersect", "pullback"):
            a, b = _lattice_class(lat, op, path, "a"), _lattice_class(lat, op, path, "b")
            entry.update(a=str(a), b=str(b))
            if kind == "intersect":
                value = a.dot(b)
            else:
                entry["degree"] = op["degree"]
                value = piclattice.pullback_numerics(op["degree"], a, b)
        elif kind == "canonical":
            value = str(piclattice.canonical_class(lat))
        elif kind == "negative-definite":
            try:
                value = piclattice.is_negative_definite(op["gram"])
            except ValueError as exc:
                raise _at(f"{path}.gram", exc) from exc
        else:  # divisible
            a = _lattice_class(lat, op, path, "a")
            entry.update(a=str(a), k=op["k"])
            value = piclattice.is_divisible_by(a, op["k"])
        entry["result"] = value
        operations.append(entry)
    return {"operations": operations}


def _lattice_class(lat, op, path: str, key: str):
    """The class op[key] on the lattice; a label the lattice lacks is an
    input error at the operand's JSON path."""
    try:
        return lat.cls(op[key])
    except piclattice.LatticeMismatch as exc:
        raise _at(f"{path}.{key}", exc) from exc


def render_lattice(result, verbose=False):
    lines = []
    for e in result["operations"]:
        value = _flag(e["result"]) if isinstance(e["result"], bool) else e["result"]
        lines.append(_LATTICE_OPS[e["op"]][1].format(**{**e, "result": value}))
    return lines


# kind -> (runner returning the JSON report, renderer of its text lines)
KINDS = {
    "z22-surface-cover": (run_z22, render_z22),
    "product-quotient": (run_product_quotient, render_product_quotient),
    "fermat": (run_fermat, render_fermat),
    "proofcheck": (run_proofcheck, render_proofcheck),
    "double-cover": (run_double_cover, render_double_cover),
    "linsys": (run_linsys, render_linsys),
    "lattice": (run_lattice, render_lattice),
}


def builtin_scenario_text(name: str) -> str:
    from importlib import resources  # imported here, so that import bicanonical.cli stays light

    return (resources.files("bicanonical") / "scenarios" / f"{name}.json").read_text("utf-8")


def load_scenario(arg: str) -> dict:
    try:
        if Path(arg).is_file():
            text, source = Path(arg).read_text(encoding="utf-8"), arg
        elif arg in BUILTIN_ORDER:
            text, source = builtin_scenario_text(arg), f"builtin scenario {arg!r}"
        else:
            raise ScenarioError(f"no such file or builtin scenario: {arg!r}")
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioError(f"cannot read {arg!r}: {exc}")
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise ScenarioError(f"{source}: {exc}")


def run_scenario(payload: dict, verbose: bool = False):
    """Run one scenario: its JSON report, and the text lines rendered from it.
    The only place where an exception becomes an exit code (module docstring)."""
    kind = validate_payload(payload)
    run, render = KINDS[kind]
    try:
        result = run(payload, verbose=verbose)
    except FailedReport as exc:
        raise ScenarioError("\n".join(render(exc.args[0], verbose)), exit_code=2)
    except covers.InternalInconsistency as exc:
        raise ScenarioError(f"internal inconsistency: {exc}", exit_code=2)
    except ValueError as exc:
        raise ScenarioError(f"validation failed: {exc}")
    result["kind"] = kind
    name = payload.get("name")
    if name:
        result["scenario"] = name
    head = f"scenario: {name} ({kind})" if name else f"scenario kind: {kind}"
    return result, [head] + render(result, verbose)


def main(argv=None) -> int:
    import argparse  # imported here, so that import bicanonical.cli stays light

    parser = argparse.ArgumentParser(
        prog="bicanonical",
        description="Exact computations for abelian covers and bicanonical maps "
                    "of surfaces with p_g = 0.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a scenario file or a builtin scenario")
    run_parser.add_argument("scenario", help="path to a scenario JSON file, or a builtin name")
    run_parser.add_argument("--json", action="store_true", dest="as_json",
                            help="emit the machine-readable report")
    run_parser.add_argument("--verbose", action="store_true",
                            help="include per-check and per-character detail")
    sub.add_parser("list-builtin", help="list the bundled scenarios")

    args = parser.parse_args(argv)
    if args.command == "list-builtin":
        for name in BUILTIN_ORDER:
            print(name)
        return 0

    try:
        payload = load_scenario(args.scenario)
        result, lines = run_scenario(payload, verbose=args.verbose)
    except ScenarioError as exc:
        print(f"error: {exc}")
        return exc.exit_code
    if args.as_json:
        print(json.dumps(result, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
