import contextlib
import copy
import io
import json
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicanonical import beauville, cli, covers, fermat, linsys, proofcheck
from bicanonical.grouplib import make_group
from oracles import untransposed_minus_pullbacks


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def builtin_payload(name):
    return json.loads(cli.builtin_scenario_text(name))


def test_list_builtin(capsys):
    code, out = run_cli(capsys, "list-builtin")
    assert code == 0
    names = out.strip().splitlines()
    assert len(names) == 5
    assert "inoue7" in names
    assert set(names) == {"inoue7", "beauville8", "inoue-z24", "fermat-z52",
                          "proofcheck-all"}


def test_every_builtin_resolvable(capsys):
    for name in cli.BUILTIN_ORDER:
        code, out = run_cli(capsys, "run", name)
        assert code == 0, f"{name} failed: {out}"


def test_inoue7_report_final_line(capsys):
    code, out = run_cli(capsys, "run", "inoue7")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == (
        "K²=7, p_g=0, p₂=8, eigentable (7,1,0,0), "
        "bicanonical composed with γ₁, degree 2")


def test_beauville8_report_final_line(capsys):
    code, out = run_cli(capsys, "run", "beauville8")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "kernel {0, γ₃}, degree 2"


def test_inoue_z24_verdict(capsys):
    code, out = run_cli(capsys, "run", "inoue-z24")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "kernel trivial, bicanonical birational"
    assert "eigentable {4,1,1,1,1,1}, sum 9" in out


def test_run_by_path(tmp_path, capsys):
    path = write_scenario(tmp_path, builtin_payload("beauville8"))
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    assert "kernel {0, γ₃}, degree 2" in out


def test_deterministic_output(capsys):
    outputs = set()
    for _ in range(2):
        for flag in ((), ("--json",)):
            code, out = run_cli(capsys, "run", "inoue7", *flag)
            assert code == 0
            outputs.add((flag, out))
    assert len(outputs) == 2  # one human, one json; identical across runs


def test_json_round_trip(capsys):
    for name in cli.BUILTIN_ORDER:
        code, out = run_cli(capsys, "run", name, "--json")
        assert code == 0
        parsed = json.loads(out)
        again = json.dumps(parsed, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert again == out


def test_fermat_json_structure(capsys):
    code, out = run_cli(capsys, "run", "fermat-z52", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["invariant_monomials"]) == 9
    assert data["verdict"] == "birational"
    assert data["weight_identity"] is True
    assert all(entry["verified"] for entry in data["ratio_identities"])
    assert all(entry["contained"] for entry in data["lattice_membership"])


def test_missing_scenario(capsys):
    code, out = run_cli(capsys, "run", "no-such-scenario")
    assert code == 1
    assert "no such file or builtin scenario" in out


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "fermat",}', encoding="utf-8")
    code, out = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "line 1" in out


def test_schema_violation_reports_path(tmp_path, capsys):
    payload = builtin_payload("beauville8")
    payload["group"] = [2, 1, 2]
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 1
    assert "$.group" in out


def test_unknown_kind_rejected(tmp_path, capsys):
    path = write_scenario(tmp_path, {"kind": "mystery"})
    code, out = run_cli(capsys, "run", path)
    assert code == 1
    assert "unknown scenario kind" in out


def test_perturbed_beauville_bundle_fails_validation(tmp_path, capsys):
    payload = builtin_payload("beauville8")
    payload["curve1"]["line_bundles"][0] = 2
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 1
    assert "invalid" in out


def test_perturbed_inoue_bundle_fails_validation(tmp_path, capsys):
    payload = builtin_payload("inoue7")
    payload["line_bundles"]["L1"]["e1"] = -2
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 1
    assert "failed relation" in out or "INVALID" in out


def test_internal_inconsistency_exit_code(tmp_path, capsys):
    # relations hold trivially but the formal invariants cannot belong to a
    # connected surface: internal inconsistency, not validation failure
    payload = {
        "kind": "z22-surface-cover",
        "name": "degenerate",
        "branch": {"D1": {}, "D2": {}, "D3": {}},
        "line_bundles": {"L1": {}, "L2": {}},
    }
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 2
    assert "internal inconsistency" in out


def test_double_cover_scenario(tmp_path, capsys):
    payload = {
        "kind": "double-cover",
        "name": "degree-four-table",
        "cases": [
            {"label": "K7-irreducible", "chi_base": 1, "pg_base": 0, "K2_base": 7,
             "M_sq": -1, "M_K": 1, "h0_K_plus_M": 4},
            {"label": "K8-blowup", "chi_base": 1, "pg_base": 0, "K2_base": 8,
             "M_sq": 0, "M_K": 2, "h0_K_plus_M": 5},
        ],
    }
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    assert "(16, 2, 4, 3)" in out and "(24, 3, 5, 3)" in out
    assert out.count("false") == 2


def test_linsys_scenario(tmp_path, capsys):
    payload = {
        "kind": "linsys",
        "name": "interpolation",
        "configuration": "quadrilateral",
        "systems": [
            {"degree": 5, "multiplicities": {"P1": 1, "P2": 2, "P3": 1,
                                             "P4": 2, "P5": 2, "P6": 2}},
            {"class": {"l": 4, "e1": -2, "e2": -2, "e3": -2, "e4": -1,
                       "e5": -2, "e6": -2}},
            {"degree": 2, "multiplicities": {}},
        ],
    }
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith("= 7")
    assert lines[2].endswith("= 1")
    assert lines[3].endswith("= 6")


def test_lattice_scenario(tmp_path, capsys):
    payload = {
        "kind": "lattice",
        "name": "arithmetic",
        "blowup_points": 6,
        "operations": [
            {"op": "intersect",
             "a": {"l": 5, "e1": -1, "e2": -2, "e3": -1, "e4": -2, "e5": -2, "e6": -2},
             "b": {"l": 5, "e1": -1, "e2": -2, "e3": -1, "e4": -2, "e5": -2, "e6": -2}},
            {"op": "canonical"},
            {"op": "negative-definite", "gram": [[-3, 0, 1], [0, -3, 1], [1, 1, -2]]},
            {"op": "divisible", "a": {"l": 10, "e1": -2}, "k": 2},
        ],
    }
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    assert "= 7" in out
    assert "-3l + e1 + e2 + e3 + e4 + e5 + e6" in out
    assert "negative definite: true" in out
    assert "divisible by 2: true" in out


def test_lattice_mismatched_class_is_validation_error(tmp_path, capsys):
    payload = {
        "kind": "lattice",
        "operations": [{"op": "intersect", "a": {"l": 1, "e9": 1}, "b": {"l": 1}}],
    }
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 1


def test_verbose_adds_detail(capsys):
    code, terse = run_cli(capsys, "run", "beauville8")
    code2, verbose = run_cli(capsys, "run", "beauville8", "--verbose")
    assert code == code2 == 0
    assert len(verbose.splitlines()) > len(terse.splitlines())
    assert "character" in verbose


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("flags", [(), ("--verbose",)], ids=["plain", "verbose"])
@pytest.mark.parametrize("name", cli.BUILTIN_ORDER)
def test_builtin_text_matches_golden(capsys, name, flags):
    code, out = run_cli(capsys, "run", name, *flags)
    assert code == 0
    suffix = ".verbose" if flags else ""
    assert out == (GOLDEN / f"{name}{suffix}.txt").read_text(encoding="utf-8")


def test_schemas_are_valid_and_cover_every_kind():
    for schema in cli.SCHEMAS.values():
        jsonschema.Draft202012Validator.check_schema(schema)
    assert set(cli.SCHEMAS) == set(cli.KINDS)


def _cyclic_pq_payload(group):
    return {"kind": "product-quotient", "group": group, "automorphism": [[1, 0], [0, 1]],
            "curve1": {"branch": [{"element": [1, 0], "degree": 2}], "line_bundles": [1, 0]},
            "curve2": {"branch": [{"element": [0, 1], "degree": 2}], "line_bundles": [0, 1]}}


def test_product_quotient_group_order_is_capped(tmp_path, capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("the cap must stop the scenario before any automorphism")

    monkeypatch.setattr(cli.Automorphism, "from_images", no_enumeration)
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, _cyclic_pq_payload([26, 25])))
    assert code == 1
    assert out.startswith("error: $.group: group order 650 exceeds the limit of 512")
    # Z2^10 is the first group of exponent 2 that the cap rejects
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, _cyclic_pq_payload([2] * 10)))
    assert (code, out) == (1, "error: $.group: group order 1024 exceeds the limit of 512\n")


def test_product_quotient_at_the_cap_runs_past_it(tmp_path, capsys):
    # Z2^9, the largest group of exponent 2 under the cap, is enumerated
    # whole; the scenario then fails on its genera, well after the group checks
    unit = [[1 if j == i else 0 for j in range(9)] for i in range(9)]
    curve = {"branch": [{"element": unit[0], "degree": 2}], "line_bundles": unit[0]}
    payload = {"kind": "product-quotient", "group": [2] * 9, "automorphism": unit,
               "curve1": curve, "curve2": curve}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 1
    assert "$.group" not in out
    assert "invariant mismatch" in out


def test_product_quotient_at_the_cap_builds_no_character_table(tmp_path, capsys, monkeypatch):
    # Z2^9 with a divisor of degree 1 on every nonzero element: the building
    # data is valid, and the genera, 64897 each, fail the invariant check
    # before any eigensheaf degree is needed, so only the 9 dual-basis
    # degrees of each curve are read off the branch data, and the 512
    # characters are never charged
    built, listed = [], []
    table, values = covers.BranchDataP1.charged_degrees.func, covers.AbelianGroup.linear_values

    def table_spy(data):
        built.append(data)
        return table(data)

    def values_spy(group, coeffs):
        listed.append(coeffs)
        return values(group, coeffs)

    monkeypatch.setattr(covers.BranchDataP1, "charged_degrees", property(table_spy))
    monkeypatch.setattr(covers.AbelianGroup, "linear_values", values_spy)
    group = make_group([2] * 9)
    branch = [{"element": list(g), "degree": 1} for g in group.coordinate_vectors() if any(g)]
    curve = {"branch": branch, "line_bundles": [128] * 9}
    payload = {"kind": "product-quotient", "group": [2] * 9,
               "automorphism": [list(g) for g in group.generators()],
               "curve1": curve, "curve2": curve}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, "error: validation failed: invariant mismatch: (g1-1)(g2-1) = "
                              "4211490816 != |G| = 512\n")
    assert built == []
    # the identity automorphism lists its 9 image coordinates, and nothing more
    assert len(listed) == 9


def _fermat_pq_payload():
    """The Fermat quotient's data as a product quotient over Z5^2."""
    curve = {"branch": [{"element": e, "points": [p]}
                        for e, p in (([1, 0], "P1"), ([0, 1], "P2"), ([4, 4], "P3"))],
             "line_bundles": [1, 1]}
    images = [list(fermat.fermat_psi()(g)) for g in fermat.FERMAT_GROUP.generators()]
    return {"kind": "product-quotient", "group": [5, 5], "automorphism": images,
            "curve1": curve, "curve2": copy.deepcopy(curve)}


@pytest.mark.parametrize("payload", [
    _fermat_pq_payload(),
    {"kind": "product-quotient", "group": [3], "automorphism": [[1]],
     "curve1": {"branch": [{"element": [1], "degree": 3}], "line_bundles": [1]},
     "curve2": {"branch": [{"element": [1], "degree": 3}], "line_bundles": [1]}},
], ids=["fermat-z5-squared", "z3"])
def test_product_quotient_rejects_a_group_not_of_exponent_2(tmp_path, capsys, monkeypatch,
                                                            payload):
    def no_building_data(*args):
        raise AssertionError("the group must be rejected before any building data is read")

    monkeypatch.setattr(cli, "_build_curve", no_building_data)
    monkeypatch.setattr(cli.Automorphism, "from_images", no_building_data)
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, "error: $.group: product quotients are implemented only for "
                              f"groups of exponent 2, got {payload['group']}\n")


def test_untransposed_pullback_exits_2(capsys, monkeypatch):
    # a Gamma-perp built with the matrix acting on characters untransposed
    # fails the descent check on the graph generators
    monkeypatch.setattr(beauville, "minus_pullbacks", untransposed_minus_pullbacks)
    code, out = run_cli(capsys, "run", "inoue-z24")
    assert code == 2
    assert out.startswith("error: internal inconsistency: character ")
    assert out.endswith(" does not vanish on the graph, so it does not descend\n")


@pytest.mark.parametrize("mutate, message", [
    (lambda p: p.update(automorphism=[[1, 0, 1, 1, 1], [0, 1, 1], [1, 1, 1]]),
     "coordinate length does not match the group rank"),
    (lambda p: p["curve1"]["branch"][0].update(element=[1, 0, 0, 1]),
     "coordinate length does not match the group rank"),
    (lambda p: p.update(automorphism=p["automorphism"][:2]),
     "need exactly one image per generator"),
], ids=["long-image", "long-element", "short-automorphism"])
def test_mis_sized_group_vectors_fail_validation(tmp_path, capsys, mutate, message):
    payload = builtin_payload("beauville8")
    mutate(payload)
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 1
    assert message in out


def _set_branch(curve, index, **fields):
    def mutate(payload):
        payload[curve]["branch"][index].update(fields)
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set_branch("curve1", 0, element=[1, 0, 0, 1]), "validation failed: $.curve1.branch[0]: "
     "coordinate length does not match the group rank"),
    (_set_branch("curve2", 1, element=[0, 0, 0]), "validation failed: $.curve2.branch[1]: "
     "only nonzero elements carry branch divisors"),
    (_set_branch("curve1", 2, points=["a", "a"]), "validation failed: $.curve1.branch[2]: "
     "repeated branch point in D_(0, 0, 1)"),
    (_set_branch("curve1", 1, degree=2), "$.curve1.branch[1]: "
     "give either points or a degree for a branch divisor, not both"),
    (lambda p: p["curve2"]["branch"][0].pop("points"),
     "$.curve2.branch[0]: a branch entry needs points or a degree"),
    (lambda p: p["curve1"]["branch"].append({"element": [1, 0, 0], "degree": 2}),
     "$.curve1.branch[3]: duplicate branch element [1, 0, 0]"),
    (lambda p: p["curve2"]["line_bundles"].append(1), "validation failed: "
     "$.curve2.line_bundles: need one line bundle degree per generator"),
    (lambda p: p.update(automorphism=[[1, 0, 0], [1, 0, 0], [0, 0, 1]]),
     "validation failed: $.automorphism: matrix is not invertible over the group"),
    # only groups of exponent 2 get as far as their automorphism
    (lambda p: p.update(group=[2, 4, 2], automorphism=[[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
     "$.group: product quotients are implemented only for groups of exponent 2, "
     "got [2, 4, 2]"),
], ids=["long-element", "zero-element", "repeated-point", "points-and-degree",
        "no-points-or-degree", "duplicate-element", "line-bundle-count", "singular",
        "not-a-homomorphism"])
def test_product_quotient_input_errors_name_their_path(tmp_path, capsys, mutate, message):
    payload = builtin_payload("beauville8")
    mutate(payload)
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, f"error: {message}\n")


@pytest.mark.parametrize("field, value, message", [
    ("branch", {"D2": ["nope"]}, "$.branch.D2: unknown catalog divisor 'nope'"),
    ("branch", {"D1": {"zz": 1}}, "validation failed: $.branch.D1: unknown basis labels ['zz']"),
    ("line_bundles", {"L1": {"zz": 1}},
     "validation failed: $.line_bundles.L1: unknown basis labels ['zz']"),
], ids=["catalog-name", "branch-label", "bundle-label"])
def test_z22_input_errors_name_their_path(tmp_path, capsys, field, value, message):
    payload = builtin_payload("inoue7")
    payload[field].update(value)
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, f"error: {message}\n")


@pytest.mark.parametrize("points, labels, message", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ["A", "B"], "$.labels: one label per point, please"),
    ([[1, 0, 0], [2, 0, 0], [0, 0, 1]], None, "$.points: points P1 and P2 coincide"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ["A", "A", "B"], "$.labels[1]: duplicate label 'A'"),
], ids=["label-count", "coinciding-points", "duplicate-label"])
def test_linsys_configuration_errors_name_their_path(tmp_path, capsys, points, labels, message):
    payload = {"kind": "linsys", "points": points,
               "systems": [{"degree": 2, "multiplicities": {}}]}
    if labels is not None:
        payload["labels"] = labels
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, f"error: validation failed: {message}\n")


def test_linsys_unknown_point_label_names_its_system(tmp_path, capsys):
    payload = {"kind": "linsys", "systems": [{"degree": 2, "multiplicities": {}},
                                             {"degree": 2, "multiplicities": {"Q": 1}}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, "error: $.systems[1]: unknown point label 'Q'\n")


@pytest.mark.parametrize("op", [
    {"op": "intersect", "a": {"l": 1}},
    {"op": "pullback", "a": {"l": 1}, "b": {"l": 1}},
    {"op": "negative-definite"},
    {"op": "divisible", "a": {"l": 2}},
    {"op": "divisible", "k": 2},
], ids=["intersect-b", "pullback-degree", "negative-definite-gram", "divisible-k", "divisible-a"])
def test_lattice_operation_missing_a_field_names_its_path(tmp_path, capsys, op):
    payload = {"kind": "lattice", "operations": [{"op": "canonical"}, op]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 1
    assert out.startswith("error: $.operations[1]")


@pytest.mark.parametrize("op, message", [
    ({"op": "negative-definite", "gram": [[1, 2], [3]]},
     "$.operations[1].gram: matrix is not square"),
    ({"op": "negative-definite", "gram": [[1, 2], [3, 4]]},
     "$.operations[1].gram: matrix is not symmetric"),
    ({"op": "intersect", "a": {"x": 1}, "b": {"l": 1}},
     "$.operations[1].a: unknown basis labels ['x']"),
    ({"op": "pullback", "degree": 4, "a": {"l": 1}, "b": {"l": 1, "f1": 1}},
     "$.operations[1].b: unknown basis labels ['f1']"),
    ({"op": "divisible", "k": 2, "a": {"e7": 2}},
     "$.operations[1].a: unknown basis labels ['e7']"),
], ids=["gram-not-square", "gram-not-symmetric", "intersect-a", "pullback-b", "divisible-a"])
def test_lattice_operand_errors_name_their_path(tmp_path, capsys, op, message):
    payload = {"kind": "lattice", "operations": [{"op": "canonical"}, op]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, f"error: validation failed: {message}\n")


def test_empty_gram_matrix_is_refused(tmp_path, capsys):
    # the 0 x 0 matrix would pass the definiteness test vacuously
    payload = {"kind": "lattice", "operations": [{"op": "negative-definite", "gram": []}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, "error: $.operations[0].gram: [] should be non-empty\n")


def test_linsys_system_without_class_or_degree_names_its_path(tmp_path, capsys):
    payload = {"kind": "linsys", "systems": [{"degree": 2, "multiplicities": {}},
                                             {"degree": 3}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 1
    assert out.startswith("error: $.systems[1]")


@pytest.mark.parametrize("extra", [
    {"degree": 5, "multiplicities": {"P1": 3}},
    {"degree": 5},
    {"multiplicities": {"P1": 3}},
], ids=["degree-and-multiplicities", "degree", "multiplicities"])
def test_linsys_system_with_class_and_degree_data_names_its_path(tmp_path, capsys, extra):
    # the degree data would be silently dropped in favour of the class
    payload = {"kind": "linsys", "systems": [{"degree": 2, "multiplicities": {}},
                                             {"class": {"l": 2}, **extra}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 1
    assert out.startswith("error: $.systems[1]")


def test_lattice_json_carries_the_operands_of_its_text(tmp_path, capsys):
    payload = {"kind": "lattice", "operations": [
        {"op": "pullback", "degree": 4, "a": {"l": 1}, "b": {"l": 1, "e1": -1}},
        {"op": "divisible", "a": {"l": 10, "e1": -2}, "k": 2}]}
    path = write_scenario(tmp_path, payload)
    code, out = run_cli(capsys, "run", path, "--json")
    assert code == 0
    assert json.loads(out)["operations"] == [
        {"op": "pullback", "degree": 4, "a": "l", "b": "l - e1", "result": 4},
        {"op": "divisible", "a": "10l - 2e1", "k": 2, "result": True}]
    code, text = run_cli(capsys, "run", path)
    assert text.splitlines()[1:] == ["degree 4 pullback of (l) . (l - e1) = 4",
                                     "(10l - 2e1) divisible by 2: true"]


def test_verbose_adds_the_same_detail_to_json(capsys):
    code, terse = run_cli(capsys, "run", "beauville8", "--json")
    code2, verbose = run_cli(capsys, "run", "beauville8", "--json", "--verbose")
    assert code == code2 == 0
    terse, verbose = json.loads(terse), json.loads(verbose)
    assert "building_data" not in terse
    curve2 = verbose.pop("building_data")[1]
    assert verbose == terse
    assert {"element": [1, 1, 0], "degree": 1} in curve2["branch"]
    assert all(check["passed"] for check in curve2["checks"])


@pytest.mark.parametrize("kind", [[], {}, 7], ids=["list", "object", "number"])
def test_non_string_kind_names_its_path(tmp_path, capsys, kind):
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, {"kind": kind}))
    assert code == 1
    assert out.startswith("error: $.kind: unknown scenario kind")


@pytest.mark.parametrize("coordinate", ["1/0", "0/0"])
def test_zero_denominator_coordinate_is_an_input_error(tmp_path, capsys, coordinate):
    payload = {"kind": "linsys", "points": [[coordinate, 1, 1], [1, 0, 0]],
               "systems": [{"degree": 2, "multiplicities": {}}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 1
    assert out == (f"error: validation failed: $.points[0]: point coordinate {coordinate!r} "
                   "has a zero denominator\n")


@pytest.mark.parametrize("payload, path", [
    ({"kind": "linsys", "systems": [{"degree": 2.0, "multiplicities": {}}]}, "$.systems[0].degree"),
    ({"kind": "linsys", "points": [[2.0, 1, 1]], "systems": [{"degree": 1, "multiplicities": {}}]},
     "$.points[0][0]"),
    ({"kind": "lattice", "blowup_points": 2.0, "operations": [{"op": "canonical"}]},
     "$.blowup_points"),
], ids=["degree", "coordinate", "blowup-points"])
def test_integral_float_is_not_an_integer(tmp_path, capsys, payload, path):
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 1
    assert out.startswith(f"error: {path}: 2.0 is not")


def test_invalid_building_data_reads_the_same_for_every_kind(tmp_path, capsys):
    payload = builtin_payload("beauville8")
    payload["curve1"]["line_bundles"][0] = 2
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, "error: validation failed: curve 1 building data invalid, "
                              "failed relation: 2L1 matches the charged branch degree "
                              "(2*2 vs 2)\n")
    payload = builtin_payload("inoue7")
    payload["line_bundles"]["L1"]["e1"] = -2
    path = write_scenario(tmp_path, payload)
    for flags in ((), ("--verbose",)):
        code, out = run_cli(capsys, "run", path, *flags)
        assert code == 1
        assert out.startswith("error: validation failed: Z2 x Z2 cover building data invalid, "
                              "failed relation: 2L1 = D2 + D3 (")
        assert len(out.splitlines()) == 1


def test_double_cover_error_names_its_label_once(tmp_path, capsys):
    payload = {"kind": "double-cover", "cases": [
        {"label": "x", "chi_base": 1, "pg_base": 0, "K2_base": 7, "M_sq": -1, "M_K": 0,
         "h0_K_plus_M": 0}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, "error: validation failed: x: M(K+M) = -1 is odd, "
                              "so chi is not an integer\n")


def test_non_free_fermat_action_exits_2(capsys, monkeypatch):
    every_element = frozenset(c for c in fermat.FERMAT_GROUP.coordinate_vectors() if any(c))
    monkeypatch.setattr(fermat, "fermat_fixed_elements", lambda: every_element)
    code, out = run_cli(capsys, "run", "fermat-z52")
    assert code == 2
    assert out.startswith("error: internal inconsistency: the graph action has a fixed point")


def test_failed_fermat_identity_exits_2_with_its_partial_report(capsys, monkeypatch):
    monkeypatch.setattr(fermat, "verify_weight_derivation", lambda: False)
    code, out = run_cli(capsys, "run", "fermat-z52")
    assert code == 2
    assert "weight formula derivation: FAILED" in out


def test_drifted_weight_formula_exits_2(capsys, monkeypatch):
    # +beta for -beta: the check fails, and so does the invariance of the
    # monomials that the ratio identities name
    monkeypatch.setattr(fermat, "weight_coefficients",
                        lambda i, j, alpha, beta: (2 + i + alpha + beta, 3 + j + alpha + 2 * beta))
    code, out = run_cli(capsys, "run", "fermat-z52")
    assert (code, out) == (2, "error: internal inconsistency: the ratio identities use "
                              "x^3*y*x1^2*y1^2, which is not an invariant monomial\n")


def test_drifted_proofcheck_value_exits_2(capsys, monkeypatch):
    monkeypatch.setitem(proofcheck.EXPECTED_CASE_TUPLES, "K8-blowup", (24, 3, 5, 4))
    code, out = run_cli(capsys, "run", "proofcheck-all")
    assert (code, out) == (2, "error: internal inconsistency: K8-blowup: computed "
                              "(24, 3, 5, 3), expected (24, 3, 5, 4)\n")


def test_unreadable_scenario_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    code, out = run_cli(capsys, "run", str(path))
    assert code == 1
    assert out.startswith(f"error: cannot read {str(path)!r}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    code, out = run_cli(capsys, "run", str(deep))
    assert code == 1
    assert out.startswith(f"error: cannot read {str(deep)!r}")
    code, out = run_cli(capsys, "run", str(tmp_path))  # a directory is not a scenario
    assert code == 1
    assert "no such file or builtin scenario" in out


def _points_on_a_parabola(n):
    return [[i, i * i + 1, 1] for i in range(n)]


@pytest.mark.parametrize("payload, path", [
    ({"kind": "lattice", "blowup_points": 101, "operations": [{"op": "canonical"}]},
     "$.blowup_points"),
    ({"kind": "linsys", "points": _points_on_a_parabola(11),
      "systems": [{"degree": 2, "multiplicities": {}}]}, "$.points"),
    ({"kind": "lattice", "operations": [{"op": "negative-definite",
                                         "gram": [[-1]] * 21}]}, "$.operations[0].gram"),
    ({"kind": "lattice", "operations": [{"op": "negative-definite",
                                         "gram": [[-1] * 21]}]}, "$.operations[0].gram[0]"),
    # every integer is capped at 2^31, so no exact computation meets
    # thousand-digit entries, nor an int too long to print
    ({"kind": "lattice", "operations": [{"op": "negative-definite",
                                         "gram": [[-10 ** 999] * 20] * 20}]},
     "$.operations[0].gram[0][0]"),
    ({"kind": "lattice", "operations": [{"op": "pullback", "degree": 10 ** 3999,
                                         "a": {"l": 10 ** 3999}, "b": {"l": 10 ** 3999}}]},
     "$.operations[0].a.l"),
    ({"kind": "double-cover", "cases": [{"label": "x", "chi_base": 1, "pg_base": 0,
                                         "K2_base": 10 ** 4300 - 1, "M_sq": 0, "M_K": 0,
                                         "h0_K_plus_M": 0}]}, "$.cases[0].K2_base"),
    ({"kind": "linsys", "points": [[1, 0, 0], [2 ** 40, 0, 0], [1, 2, 3]],
      "systems": [{"degree": 1, "multiplicities": {}}]}, "$.points[1][0]"),
], ids=["blowup-points", "linsys-points", "gram-rows", "gram-columns", "gram-entry",
        "pullback-integers", "double-cover-K2", "linsys-coordinate"])
def test_schema_caps_name_their_path(tmp_path, capsys, payload, path):
    start = time.perf_counter()
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    # generous: before the integer cap the gram-entry case took 13 s or more
    assert time.perf_counter() - start < 10
    assert code == 1
    assert out.startswith(f"error: {path}: ")
    assert out == f"error: {_oracle_error(payload)}\n"


def test_sizes_at_the_caps_are_accepted(tmp_path, capsys):
    gram = [[-2 if i == j else 0 for j in range(20)] for i in range(20)]
    payload = {"kind": "lattice", "blowup_points": 100, "operations": [
        {"op": "canonical"}, {"op": "negative-definite", "gram": gram}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 0
    assert out.endswith("e100\nnegative definite: true\n")
    payload = {"kind": "linsys", "points": _points_on_a_parabola(10),
               "systems": [{"degree": 12, "multiplicities": {"P1": 2}}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 0
    assert out.endswith("= 88\n")
    cap = cli.MAX_INTEGER
    assert cap == 2 ** 31
    payload = {"kind": "lattice", "operations": [
        {"op": "intersect", "a": {"l": cap}, "b": {"l": -cap}},
        {"op": "divisible", "a": {"l": cap}, "k": cap},
        {"op": "negative-definite", "gram": [[-cap, 0], [0, -cap]]}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out.splitlines()[1:]) == (0, [
        f"({cap}l) . ({-cap}l) = {-cap * cap}",
        f"({cap}l) divisible by {cap}: true",
        "negative definite: true"])


def test_json_integer_beyond_the_digit_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "lattice", "operations": [{"op": "canonical"}], '
                    '"blowup_points": ' + "9" * 5000 + "}", encoding="utf-8")
    code, out = run_cli(capsys, "run", str(path))
    assert code == 1
    assert out.startswith("error: ")
    assert "Traceback" not in out


@pytest.mark.parametrize("system, message", [
    ({"degree": 13, "multiplicities": {}}, "degree must be between 0 and 12, got 13"),
    ({"class": {"l": 13}}, "degree must be between 0 and 12, got 13"),
    ({"class": {"l": 2, "e1": 3_000_000}}, "3000000 fixed components exceed the limit of 100"),
], ids=["degree", "class-degree", "fixed-components"])
def test_linsys_size_caps(tmp_path, capsys, system, message):
    payload = {"kind": "linsys", "systems": [system]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, f"error: validation failed: $.systems[0]: {message}\n")


def test_linsys_system_errors_name_their_path(tmp_path, capsys):
    payload = {"kind": "linsys", "systems": [{"degree": 2, "multiplicities": {}},
                                             {"degree": 13, "multiplicities": {}}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, "error: validation failed: $.systems[1]: "
                              "degree must be between 0 and 12, got 13\n")


@pytest.mark.parametrize("count", [32, 33])
def test_linsys_systems_are_capped(tmp_path, capsys, count):
    system = {"degree": 2, "multiplicities": {"P1": 1}}
    payload = {"kind": "linsys", "systems": [system] * count}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    if count == 32:
        assert (code, out.count("h⁰(degree 2 with multiplicities 1,0,0,0,0,0) = 5")) == (0, 32)
    else:
        assert code == 1
        assert out.startswith("error: $.systems: [{'degree': 2, ")
        assert out.endswith("}] is too long\n")


@pytest.mark.parametrize("point, accepted", [
    ([65536, 1, 0], True), (["1/65536", 1, 1], True), ([131072, 2, 0], True),
    ([65537, 1, 0], False), (["1/65537", 1, 1], False), ([131074, 2, 0], False),
    ([0, -65537, 1], False),
])
def test_point_coordinates_are_capped(tmp_path, capsys, point, accepted):
    # the cap applies to the coprime integer coordinates: 131072/2 scales
    # down to 65536, and 1/65537 up to 65537
    assert linsys.MAX_COORDINATE == 65536
    payload = {"kind": "linsys", "points": [[1, 0, 0], point, [1, 2, 3]],
               "systems": [{"degree": 4, "multiplicities": {"P1": 2, "P2": 2, "P3": 2}}]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    if accepted:
        assert (code, out.splitlines()[-1]) == (0, "h⁰(degree 4 with multiplicities 2,2,2) = 6")
    else:
        assert (code, out) == (1, "error: $.points[1]: coprime integer coordinates "
                                  "exceed the limit of 65536\n")


def test_z22_h0_calls_are_capped(tmp_path, capsys):
    line_40 = {"l": 40}
    payload = {"kind": "z22-surface-cover",
               "branch": {"D1": line_40, "D2": line_40, "D3": line_40},
               "line_bundles": {"L1": line_40, "L2": line_40}}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert code == 1
    assert "degree must be between 0 and 12" in out


@pytest.mark.parametrize("branch, bundles, message", [
    ({"D1": {"l": 40}, "D2": {"l": 2}, "D3": {"l": 2}}, {"L1": {"l": 2}, "L2": {"l": 21}},
     "$.line_bundles.L2: h0(K + L2) = h0(18l + e1 + e2 + e3 + e4 + e5 + e6): "
     "degree must be between 0 and 12, got 18"),
    ({"D1": {"l": 10}, "D2": {"l": 10}, "D3": {"l": 10}}, {"L1": {"l": 10}, "L2": {"l": 10}},
     "$.branch: h0(2K + D) = h0(24l + 2e1 + 2e2 + 2e3 + 2e4 + 2e5 + 2e6): "
     "degree must be between 0 and 12, got 24"),
    ({"D1": {"l": 8}, "D2": {"l": 8}, "D3": {"l": 8}}, {"L1": {"l": 8}, "L2": {"l": 8}},
     "$.branch: h0(2K + D) = h0(18l + 2e1 + 2e2 + 2e3 + 2e4 + 2e5 + 2e6): "
     "degree must be between 0 and 12, got 18"),
    # a line bundle of negative degree: 2K + D is at the cap, 2K + D - L1 past it
    ({"D1": {"l": 22}, "D2": {"l": -2}, "D3": {"l": -2}}, {"L1": {"l": -2}, "L2": {"l": 10}},
     "$.branch, $.line_bundles.L1: h0(2K + D - L1) = "
     "h0(14l + 2e1 + 2e2 + 2e3 + 2e4 + 2e5 + 2e6): degree must be between 0 and 12, got 14"),
    ({"D1": {"l": -2}, "D2": {"l": 22}, "D3": {"l": -2}}, {"L1": {"l": 10}, "L2": {"l": -2}},
     "$.branch, $.line_bundles.L2: h0(2K + D - L2) = "
     "h0(14l + 2e1 + 2e2 + 2e3 + 2e4 + 2e5 + 2e6): degree must be between 0 and 12, got 14"),
], ids=["K+L2", "2K+D", "2K+D-all-8l", "2K+D-L1", "2K+D-L2"])
def test_z22_h0_cap_names_its_class(tmp_path, capsys, branch, bundles, message):
    """The message names the class and the input paths it is built from."""
    payload = {"kind": "z22-surface-cover", "branch": branch, "line_bundles": bundles}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert (code, out) == (1, f"error: validation failed: {message}\n")


_CONTRACT_PAYLOADS = [builtin_payload(name) for name in cli.BUILTIN_ORDER] + [
    {"kind": "double-cover", "cases": [
        {"label": "K7-irreducible", "chi_base": 1, "pg_base": 0, "K2_base": 7,
         "M_sq": -1, "M_K": 1, "h0_K_plus_M": 4}]},
    {"kind": "linsys", "points": [[1, 0, 0], ["1/2", 1, 0], [0, 0, 1], [1, 1, "-3/5"]],
     "labels": ["A", "B", "C", "D"],
     "systems": [{"degree": 4, "multiplicities": {"A": 2, "B": 1, "D": 2}},
                 {"class": {"l": 3, "e1": -1, "e2": 1, "e4": -2}}]},
    {"kind": "lattice", "blowup_points": 6, "operations": [
        {"op": "intersect", "a": {"l": 5, "e1": -1}, "b": {"l": 1}},
        {"op": "pullback", "degree": 4, "a": {"l": 1}, "b": {"l": 1}},
        {"op": "canonical"},
        {"op": "negative-definite", "gram": [[-3, 0, 1], [0, -3, 1], [1, 1, -2]]},
        {"op": "divisible", "a": {"l": 10, "e1": -2}, "k": 2}]},
]
_ATOMS = ([], {}, "1/0", "0/0", "", "x", None, True, 2.0, 0, -1, 10 ** 12, -10 ** 12, 2 ** 64)
# and Python values that JSON text cannot spell, which an in-process caller
# can still pass: they must be input errors too
_CONTRACT_ATOMS = _ATOMS + (float("nan"), float("inf"), float("-inf"), 10 ** 5000, (1, 0),
                            (1, 10 ** 5000), frozenset({1}))


def _paths(node, path=()):
    if path:
        yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_payloads(draw, atoms=_ATOMS, new_keys=()):
    """A builtin or one payload per kind, with one to three keys deleted or
    values swapped for atoms, or, given new_keys, atoms added to objects
    under those keys."""
    payload = copy.deepcopy(draw(st.sampled_from(_CONTRACT_PAYLOADS)))
    for _ in range(draw(st.integers(1, 3))):
        if new_keys and draw(st.booleans()):
            nodes = [payload] + [_at(payload, path) for path in _paths(payload)]
            objects = [node for node in nodes if isinstance(node, dict)]
            draw(st.sampled_from(objects))[draw(st.sampled_from(new_keys))] = \
                copy.deepcopy(draw(st.sampled_from(atoms)))
            continue
        paths = list(_paths(payload))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _at(payload, path[:-1])
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(atoms)))
    return payload


def _with_contract_payloads(test):
    """test, given every payload of _CONTRACT_PAYLOADS as an explicit example."""
    for payload in _CONTRACT_PAYLOADS:
        test = example(copy.deepcopy(payload))(test)
    return test


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(mutated_payloads(_CONTRACT_ATOMS))
@_with_contract_payloads
def test_every_mutated_payload_reports_or_exits_1_or_2(payload):
    # the benchmark worker streams one JSON record per operation on stdout,
    # so the library itself must print nothing
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, lines = cli.run_scenario(payload)
        except cli.ScenarioError as exc:
            assert exc.exit_code in (1, 2)
        else:
            assert lines[0].startswith("scenario")
            json.dumps(result)
    assert (out.getvalue(), err.getvalue()) == ("", "")


def test_cli_imports_no_jsonschema():
    # jsonschema is a test oracle, argparse and importlib.resources load only in
    # main and builtin_scenario_text, and nothing needs dataclasses or inspect;
    # -S keeps site hooks from loading any of them first
    src = str(Path(cli.__file__).parents[1])
    unused = ("jsonschema", "dataclasses", "inspect", "argparse", "importlib.resources")
    code = f"import bicanonical.cli, sys; print([m for m in {unused} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_unsupported_schema_keyword_is_rejected():
    with pytest.raises(ValueError, match="pattern"):
        cli.compile_schema({"type": "string", "pattern": "^P[0-9]+$"})
    with pytest.raises(ValueError, match="pattern"):
        cli.compile_schema({"type": "array", "items": {"type": "string", "pattern": "^P"}})


# the schema validator cli.SCHEMAS was written for: jsonschema, with a JSON
# integer an exact int, its errors sorted by path
_ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, type_checker=jsonschema.Draft202012Validator
    .TYPE_CHECKER.redefine("integer", lambda _, value: type(value) is int))


def _oracle_error(payload):
    errors = sorted(_ORACLE(cli.SCHEMAS[payload["kind"]]).iter_errors(payload),
                    key=lambda e: list(e.absolute_path))
    return f"{errors[0].json_path}: {errors[0].message}" if errors else None


def _validation_error(payload):
    try:
        cli.validate_payload(payload)
    except cli.ScenarioError as exc:
        return str(exc)
    return None


def _edited(name, edit):
    payload = builtin_payload(name) if isinstance(name, str) else copy.deepcopy(name)
    edit(payload)
    return payload


_LINSYS, _LATTICE = _CONTRACT_PAYLOADS[-2], _CONTRACT_PAYLOADS[-1]


@pytest.mark.parametrize("payload, message", [
    (_edited("inoue7", lambda p: p.update(blowup_points=6.0)), None),
    (_edited("inoue7", lambda p: p.update(blowup_points=True)), "$.blowup_points: 6 was expected"),
    (_edited(_LATTICE, lambda p: p.update(blowup_points=True)),
     "$.blowup_points: True is not of type 'integer'"),
    (_edited(_LATTICE, lambda p: p["operations"][4].update(k=1)),
     "$.operations[4].k: 1 is less than the minimum of 2"),
    (_edited(_LATTICE, lambda p: p["operations"][4].pop("k")),
     "$.operations[4]: 'k' is a required property"),
    (_edited("beauville8", lambda p: p["curve1"].update(zz=1)),
     "$.curve1: Additional properties are not allowed ('zz' was unexpected)"),
    (_edited("inoue7", lambda p: p.update({"b": 1, "a b": 2})),
     "$: Additional properties are not allowed ('a b', 'b' were unexpected)"),
    (_edited("inoue7", lambda p: p["line_bundles"]["L1"].update({"a b": "x", "it's": 1.5})),
     "$.line_bundles.L1['a b']: 'x' is not of type 'integer'"),
    (_edited("inoue7", lambda p: p["line_bundles"]["L1"].update({"it's": 1.5})),
     "$.line_bundles.L1['it\\'s']: 1.5 is not of type 'integer'"),
    (_edited(_LINSYS, lambda p: p["systems"][0].update({"class": {"l": 1}})),
     "$.systems[0]: {'degree': 4, 'multiplicities': {'A': 2, 'B': 1, 'D': 2}, 'class': {'l': 1}} "
     "is valid under each of {'required': ['degree', 'multiplicities']}, {'required': ['class']}"),
    (_edited(_LINSYS, lambda p: p["systems"][0].pop("degree")),
     "$.systems[0]: {'multiplicities': {'A': 2, 'B': 1, 'D': 2}} "
     "is not valid under any of the given schemas"),
    (_edited(_LINSYS, lambda p: p["systems"][1].update(degree=1)),
     "$.systems[1]: 'multiplicities' is a dependency of 'degree'"),
    (_edited(_LINSYS, lambda p: p["points"][0].pop()), "$.points[0]: [1, 0] is too short"),
    (_edited(_LINSYS, lambda p: p["points"][0].append(1)), "$.points[0]: [1, 0, 0, 1] is too long"),
    (_edited("proofcheck-all", lambda p: p.update(checks=[])), "$.checks: [] should be non-empty"),
    (_edited("proofcheck-all", lambda p: p["checks"].append("x")),
     "$.checks[3]: 'x' is not one of ['case-table', 'reider', 'lemma32']"),
    (_edited("beauville8", lambda p: (p.pop("curve2"), p["curve1"].update(line_bundles="x"))),
     "$: 'curve2' is a required property"),
    (_edited(_LATTICE, lambda p: p["operations"][3].update(gram=[])),
     "$.operations[3].gram: [] should be non-empty"),
])
def test_schema_messages_match_jsonschema(payload, message):
    assert _validation_error(payload) == message
    assert _oracle_error(payload) == message


def _nested(depth, wrap):
    value = 0
    for _ in range(depth):
        value = wrap(value)
    return value


def _huge():
    return 10 ** 5000


def _deep_list():
    return _nested(100_000, lambda value: [value])


def _deep_dict():
    return _nested(50_000, lambda value: {"a": value})


@pytest.mark.parametrize("name, path, make, message", [
    (_LATTICE, ("blowup_points",), _huge,
     "$.blowup_points: <integer of 5001 digits> is greater than the maximum of 100"),
    ("beauville8", ("group", 0), _huge,
     "$.group[0]: <integer of 5001 digits> is greater than the maximum of 2147483648"),
    ("proofcheck-all", ("checks", 0), _huge,
     "$.checks[0]: <integer of 5001 digits> is not one of ['case-table', 'reider', 'lemma32']"),
    ("fermat-z52", ("name",), _huge, "$.name: <integer of 5001 digits> is not of type 'string'"),
    (_LATTICE, ("blowup_points",), _deep_list,
     "$.blowup_points: <list nested too deeply to show> is not of type 'integer'"),
    ("fermat-z52", ("name",), _deep_list,
     "$.name: <list nested too deeply to show> is not of type 'string'"),
    ("fermat-z52", ("description",), _deep_dict,
     "$.description: <dict nested too deeply to show> is not of type 'string'"),
    ("fermat-z52", ("kind",), _huge, "$.kind: unknown scenario kind <integer of 5001 digits>; "
     f"expected one of {sorted(cli.SCHEMAS)}"),
], ids=["huge-blowup-points", "huge-group-order", "huge-check", "huge-name",
        "deep-list-blowup-points", "deep-list-name", "deep-dict-description", "huge-kind"])
def test_value_repr_cannot_show_is_an_input_error_at_its_path(name, path, make, message):
    payload = _edited(name, lambda p: _at(p, path[:-1]).__setitem__(path[-1], make()))
    with pytest.raises(cli.ScenarioError) as caught:
        cli.run_scenario(payload)
    assert (caught.value.exit_code, str(caught.value)) == (1, message)


# keys that JSON text cannot spell, in payloads built in-process
@pytest.mark.parametrize("payload, message", [
    ({"kind": "fermat", 10 ** 5000: 1},
     "$: Additional properties are not allowed (<integer of 5001 digits> was unexpected)"),
    ({"kind": "linsys", "systems": [{"class": {(1, 2): "x"}}]},
     "$.systems[0].class[(1, 2)]: 'x' is not of type 'integer'"),
    ({"kind": "linsys", "systems": [{"class": {(1, 2): "x", "l": "y"}}]},
     "$.systems[0].class.l: 'y' is not of type 'integer'"),
    # with valid values the keys themselves are the error, the int key first
    ({"kind": "linsys", "systems": [{"class": {(1, 2): 1, 5: 1}}]},
     "$.systems[0].class[5]: object key 5 is not a string"),
    ({"kind": "linsys", "systems": [{"class": {10 ** 5000: 1}}]},
     "$.systems[0].class[<integer of 5001 digits>]: "
     "object key <integer of 5001 digits> is not a string"),
    ({"kind": "linsys", "systems": [{"degree": 2, "multiplicities": {(1, 2): 1}}]},
     "$.systems[0].multiplicities[(1, 2)]: object key (1, 2) is not a string"),
], ids=["huge-key", "tuple-key", "tuple-and-string-keys", "tuple-and-int-class-keys",
        "huge-class-key", "tuple-multiplicity-key"])
def test_non_string_key_is_an_input_error_at_its_path(payload, message):
    with pytest.raises(cli.ScenarioError) as caught:
        cli.run_scenario(payload)
    assert (caught.value.exit_code, str(caught.value)) == (1, message)


_ORACLE_ATOMS = _ATOMS + (False, 1, 6, 6.0, 1.5, 101, "reider", "canonical", "quadrilateral",
                          "fermat", "linsys", {"l": 1}, ["S1"])
_NEW_KEYS = ("zz", "a b", "it's", "class", "degree", "multiplicities", "op", "k", "e1")


@settings(max_examples=250, deadline=timedelta(seconds=1))
@given(mutated_payloads(_ORACLE_ATOMS, _NEW_KEYS))
def test_mutated_payload_errors_match_jsonschema(payload):
    message = _validation_error(payload)
    kind = payload.get("kind")
    if isinstance(kind, str) and kind in cli.SCHEMAS:
        assert message == _oracle_error(payload)
    else:
        assert message.startswith("$.kind: unknown scenario kind")


@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(st.one_of(mutated_payloads(), mutated_payloads(_ORACLE_ATOMS, _NEW_KEYS),
                 st.sampled_from(_CONTRACT_PAYLOADS)))
def test_valid_face_holds_exactly_when_the_walker_finds_no_error(payload):
    for kind in cli.SCHEMAS:
        errors = []
        cli._CHECKS[kind](payload, (), errors)
        assert cli._VALID[kind](payload) is (not errors)


def test_a_valid_payload_never_reaches_the_walker(monkeypatch):
    def walker(*args):
        raise AssertionError("the error-collecting walker ran on a valid payload")
    monkeypatch.setitem(cli._CHECKS, "product-quotient", walker)
    assert cli.validate_payload(builtin_payload("beauville8")) == "product-quotient"
    assert cli.validate_payload(_fermat_pq_payload()) == "product-quotient"


@pytest.mark.parametrize("coordinate", ["1e1000", "0.5", " 1/2", "٣", "٣/٤", "１"])
def test_coordinate_other_than_integer_or_fraction_exits_1_at_once(tmp_path, capsys, coordinate):
    payload = {"kind": "linsys", "points": [[coordinate, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
               "systems": [{"degree": 12, "multiplicities": {"P1": 4, "P2": 4, "P3": 4, "P4": 4}}]}
    start = time.perf_counter()
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, payload))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, f"error: validation failed: $.points[0]: point coordinate "
                              f"{coordinate!r} is not an integer or a fraction p/q\n")
