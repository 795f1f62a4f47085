"""Scenario catalogue, reports, determinism, and certificate re-checking."""

import copy
import json
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ikernel import algebra as algebra_module
from ikernel import harness as harness_module
from ikernel.algebra import MembershipCertificate, membership_key
from ikernel.harness import (
    _VERIFIERS,
    PASS,
    SCENARIOS,
    ScenarioConfig,
    _at_path,
    _check,
    _collect_certificates,
    list_scenarios,
    run_scenario,
    verify_report,
)
from ikernel.integrality import LocalizationCertificate, RelationCertificate
from ikernel.poly import VarSystem, parse_polynomial

CATALOGUE = [
    "lemma-infini",
    "lemma-infini2",
    "g1-invariants",
    "g1-integrality-dichotomy",
    "g2-invariants-A",
    "g2-invariants-B",
    "theorem1-cusp",
    "action-stability",
    "localization-smoothness",
]


def test_catalogue_fixed():
    entries = list_scenarios()
    assert [e["name"] for e in entries] == CATALOGUE
    assert len(entries) == 9
    assert "lemma-infini2" in {e["name"] for e in entries}
    for entry in entries:
        assert entry["description"]


def test_unknown_scenario_rejected_before_compute():
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig(scenario="unknown"))
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig(scenario="lemma-infini", n=0))
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig(scenario="lemma-infini", max_degree=0))
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig(scenario="lemma-infini", bounds={"nope": 3}))


def test_lemma_infini_dimension_table():
    report = run_scenario(ScenarioConfig(scenario="lemma-infini", n=1, m=1, max_degree=8))
    assert report.verdict == PASS
    assert report.details["dims"] == [1, 1, 2, 3, 4, 5, 6, 7, 8]
    assert all(entry["equal"] for entry in report.details["per_degree"])


def test_g1_invariants_dimensions():
    report = run_scenario(ScenarioConfig(scenario="g1-invariants", n=1, m=1, max_degree=6))
    assert report.verdict == PASS
    assert report.details["ring_dims"] == [d + 1 for d in range(7)]


def test_g2_invariants_A():
    report = run_scenario(ScenarioConfig(scenario="g2-invariants-A", n=2, m=1, max_degree=6))
    assert report.verdict == PASS
    assert report.details["dims"] == [0] * 6


def test_g2_invariants_B_witnesses():
    report = run_scenario(ScenarioConfig(scenario="g2-invariants-B", n=2, m=1, max_degree=5))
    assert report.verdict == PASS
    assert report.details["transcendence_witnesses"] == ["x1", "x2"]
    assert report.details["dims"] == [1, 2, 3, 4, 5, 6]
    assert report.details["witnesses_conclusively_transcendental"]


def test_localization_with_tight_bound_still_passes():
    # Power 1 always suffices here, so even the tightest bound passes.
    report = run_scenario(
        ScenarioConfig(
            scenario="localization-smoothness", n=1, m=1, bounds={"max_power": 1}
        )
    )
    assert report.verdict == PASS
    assert report.details["power_bound"] == 1


def test_reports_are_deterministic():
    cfg = ScenarioConfig(scenario="g1-integrality-dichotomy", n=1, m=1, max_degree=6)
    first = run_scenario(cfg)
    second = run_scenario(
        ScenarioConfig(scenario="g1-integrality-dichotomy", n=1, m=1, max_degree=6)
    )
    assert first.to_json(include_wall_time=False) == second.to_json(
        include_wall_time=False
    )
    assert first.to_dict()["schema"] == 1
    assert "wall_time_s" in first.to_dict()
    assert "wall_time_s" not in first.to_dict(include_wall_time=False)


@pytest.mark.parametrize("name", CATALOGUE)
def test_all_scenarios_pass_at_1_1(name):
    report = run_scenario(ScenarioConfig(scenario=name, n=1, m=1, max_degree=6))
    assert report.verdict == PASS


def test_verify_report_round_trip():
    report = run_scenario(
        ScenarioConfig(scenario="localization-smoothness", n=2, m=1, max_degree=4)
    )
    data = json.loads(report.to_json())
    result = verify_report(data)
    assert result.ok and result.total >= 2 and result.verdict == PASS

    # Tamper with one certificate; the verifier must notice.
    data["details"]["certificates"][0]["power"] = 3
    assert not verify_report(data).ok


CERTIFICATE_CLASSES = {
    "membership": MembershipCertificate,
    "relation": RelationCertificate,
    "localization": LocalizationCertificate,
}


@pytest.mark.parametrize("name", [
    "theorem1-cusp", "g1-integrality-dichotomy", "action-stability", "localization-smoothness",
])
def test_report_certificates_round_trip_through_their_objects(name):
    report = run_scenario(ScenarioConfig(scenario=name, n=1, m=1, max_degree=4))
    certificates = _collect_certificates(json.loads(report.to_json()))
    assert certificates
    for data in certificates:
        cert = CERTIFICATE_CLASSES[data["cert_type"]].from_json_dict(data)
        assert cert.to_json_dict() == data
        assert cert.verify()


def test_collect_certificates_keeps_document_order_and_any_cert_type():
    nested = {"cert_type": "membership"}
    report = {"b": [{"cert_type": 1}, {"x": {"cert_type": "relation", "c": [nested]}}],
              "a": {"cert_type": "Membership"}, "c": [[{"cert_type": None}]]}
    assert [c["cert_type"] for c in _collect_certificates(report)] == [
        1, "relation", "Membership", None]


@pytest.mark.parametrize("data", [[], "x", 5, None, True])
def test_verify_report_fails_a_report_that_is_not_an_object(data):
    result = verify_report(data)
    assert (result.total, result.failures, result.ok) == (0, ["report is not a JSON object"], False)


def test_verify_rejects_wrong_schema():
    result = verify_report({"schema": 99, "details": {}})
    assert not result.ok


@pytest.fixture(scope="module")
def small_reports():
    """Genuine reports of every scenario at (1,1,3) and (2,1,3)."""
    return [
        run_scenario(ScenarioConfig(scenario=name, n=n, m=1, max_degree=3)).to_dict()
        for name in CATALOGUE for n in (1, 2)
    ]


def test_declared_certificates_sit_where_their_scenario_says(small_reports):
    declared = set()
    for report in small_reports:
        assert verify_report(report).ok
        for path, kind in SCENARIOS[report["scenario"]].certificates:
            found = [value for _, value in _at_path(report, path) if value is not None]
            assert all(value["cert_type"] == kind for value in found)
            declared.update((report["scenario"], path) for _ in found)
    assert declared == {
        (name, path) for name in CATALOGUE for path, _ in SCENARIOS[name].certificates
    }


def test_a_declared_certificate_without_its_cert_type_never_passes(small_reports):
    """Deleting `cert_type` at a declared path, or changing it to another
    kind, hides no false claim: each such report fails."""
    cases = 0
    for report in small_reports:
        for path, kind in SCENARIOS[report["scenario"]].certificates:
            for where, cert in _at_path(report, path):
                if cert is None:
                    continue
                for other in [None, *(k for k in _VERIFIERS if k != kind)]:
                    if other is None:
                        del cert["cert_type"]
                    else:
                        cert["cert_type"] = other
                    result = verify_report(report)
                    cert["cert_type"] = kind
                    assert f"{where}: not a {kind} certificate" in result.failures
                    cases += 1
    assert cases > 0 and all(verify_report(report).ok for report in small_reports)


def test_a_pass_needs_the_certificate_at_each_single_declared_path(small_reports):
    """Under `pass`, a declared path without `[*]` must hold its certificate:
    set to null or deleted, it fails the report.  Under `fail` it may be
    null, as a failed search leaves it."""
    cases = 0
    for report in small_reports:
        for path, kind in SCENARIOS[report["scenario"]].certificates:
            if "[*]" in path:
                continue
            head, key = path.rsplit(".", 1)
            for damage in ("null", "delete"):
                damaged = copy.deepcopy(report)
                ((_, holder),) = _at_path(damaged, head)
                if damage == "null":
                    holder[key] = None
                else:
                    del holder[key]
                assert f"{path}: a pass needs a {kind} certificate here" in verify_report(damaged).failures
                damaged["verdict"] = "fail"
                assert verify_report(damaged).ok
                cases += 1
    assert cases == 8  # two paths of g1-integrality-dichotomy, two sizes, two damages


def test_a_pass_needs_a_certificate_at_each_listed_path(small_reports):
    """Under `pass`, a declared `[*]` path must hold at least one
    certificate: with its list emptied, or with the certificate key deleted
    from every entry, the report fails.  Under `fail` it verifies."""
    cases = 0
    for report in small_reports:
        for path, kind in SCENARIOS[report["scenario"]].certificates:
            if "[*]" not in path:
                continue
            head, _, key = path.partition("[*]")
            for damage in ("empty", "delete") if key else ("empty",):
                damaged = copy.deepcopy(report)
                ((_, entries),) = _at_path(damaged, head)
                if damage == "empty":
                    entries.clear()
                else:
                    for entry in entries:
                        entry.pop(key[1:], None)
                assert f"{path}: a pass needs a {kind} certificate here" in verify_report(damaged).failures
                damaged["verdict"] = "fail"
                assert verify_report(damaged).ok
                cases += 1
    # action-stability: two lists, two damages; theorem1-cusp: one list, two
    # damages; localization-smoothness: one list of bare certificates; two sizes.
    assert cases == 14


def _paths(obj, path=()):
    """Every key path into `obj` (dict keys and list positions), outermost first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    return [p for k, x in items for p in [path + (k,), *_paths(x, path + (k,))]]


def _is_checked(report, path):
    """Whether `verify` reads the field at `path`: the schema, scenario and
    verdict, and everything strictly inside a certificate, except a
    generator label that the certificate's expression does not use."""
    if path[0] in ("schema", "scenario", "verdict"):
        return True
    holder, inside = report, False
    for k, key in enumerate(path):
        if isinstance(holder, dict) and "cert_type" in holder:
            inside = True
            if path[k:k + 1] == ("generators",) and path[k + 2:] == (0,):
                label = holder["generators"][path[k + 1]][0]
                return label in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", holder["expression"])
        holder = holder[key]
    return inside


_RETYPED = [None, True, False, 7, 10**30, 1.5, float("nan"), "x", [], {}]


@pytest.mark.parametrize("path, value", [
    (("algebraic", "coefficients"), 5),
    (("algebraic", "coefficients"), None),
    (("algebraic", "coefficients"), {"i": 0}),
    (("algebraic", "coefficients"), [5]),
    (("algebraic", "coefficients"), ["i"]),
    (("algebraic", "coefficients", 0, "certificate"), 7),
    (("certificates", 0, "certificate"), 7),
])
def test_a_malformed_certificate_shape_is_named_by_its_field(small_reports, path, value):
    """A relation's `coefficients` that is not a list of objects, or a
    nested `certificate` that is not an object, fails with a message that
    names the field, not with Python's own text."""
    scenario = "g1-integrality-dichotomy" if path[0] == "algebraic" else "localization-smoothness"
    report = copy.deepcopy(next(r for r in small_reports if r["scenario"] == scenario))
    holder = report["details"]
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    result = verify_report(report)
    assert result.failures and all(f"field {path[-1]!r} must be" in f for f in result.failures)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_reports_never_pass_and_never_raise(small_reports, data):
    """Delete one key of a genuine report at (1,1,3) or (2,1,3), or retype
    one value: `verify_report` neither raises nor runs long, and when the
    field is one it reads, the report no longer passes.  Every genuine
    report passes: its verdict is `pass` and its certificates verify."""
    report = copy.deepcopy(small_reports[data.draw(st.integers(0, len(small_reports) - 1))])
    path = data.draw(st.sampled_from(_paths(report)))
    checked = _is_checked(report, path)
    holder = report
    for key in path[:-1]:
        holder = holder[key]
    old = holder[path[-1]]
    if isinstance(holder, dict) and data.draw(st.booleans()):
        del holder[path[-1]]
    else:
        new = data.draw(st.sampled_from(_RETYPED))
        assume(not (type(new) is type(old) and new == old))
        holder[path[-1]] = new
    start = time.perf_counter()
    result = verify_report(report)
    assert time.perf_counter() - start < 20
    assert not (checked and result.ok and result.verdict == PASS), (path, result)


def _text_fields(obj, path=(), varsys=None):
    """(path, system) for every certificate text field under `obj`: the keys
    that lead to it and the variable system its text is parsed over."""
    if isinstance(obj, list):
        return [f for k, x in enumerate(obj) for f in _text_fields(x, path + (k,), varsys)]
    if not isinstance(obj, dict):
        return []
    if "variables" in obj:
        varsys = VarSystem(obj["variables"])
    elif obj.get("cert_type") == "localization":
        varsys = VarSystem(obj["certificate"]["variables"])
    found = []
    for key, value in obj.items():
        if key == "expression":
            found.append((path + (key,), VarSystem([label for label, _ in obj["generators"]])))
        elif key in ("target", "element", "polynomial", "numerator", "localizing"):
            found.append((path + (key,), varsys))
        else:
            found.extend(_text_fields(value, path + (key,), varsys))
    return found


@st.composite
def _hostile_texts(draw, original):
    """A text that is malformed, over a cap, or a valid text around `original`."""
    bad = draw(st.sampled_from(["#", "\u00e9", "\x00", "\u00b2", "$"]))
    digits = "9" * 5000
    return draw(st.sampled_from([
        " * ".join([f"({original})"] * draw(st.integers(1, 5000))) + " " + bad,
        original + bad + original,
        "(" * draw(st.integers(1, 3)) + original,
        original + ")" * draw(st.integers(1, 3)),
        "(" * 100 + original + ")" * 100,
        "(" * 101 + original + ")" * 101,
        f"({original})^" + draw(st.sampled_from(["0", "1", "2", "1000000000", "9" * 30, digits])),
        f"({original} - 1/3)^" + draw(st.sampled_from(["1000", "1000000000"])),
        f"{original} + {digits}",
        f"1{digits}/1{digits}*({original})",
    ]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hostile_certificate_texts_fail_and_never_raise(small_reports, data):
    """Splice a hostile text into one text field of a genuine report: the
    report passes exactly when the text still parses to the field's
    polynomial, and `verify_report` neither raises nor runs long."""
    seeds = [r for r in small_reports if r["parameters"]["n"] == 1]
    fields = [(r, path, varsys) for r in seeds for path, varsys in _text_fields(r["details"])]
    report, path, varsys = data.draw(st.sampled_from(fields))
    report = copy.deepcopy(report)
    holder = report["details"]
    for key in path[:-1]:
        holder = holder[key]
    original = holder[path[-1]]
    text = holder[path[-1]] = data.draw(_hostile_texts(original))
    start = time.perf_counter()
    result = verify_report(report)
    assert time.perf_counter() - start < 20
    try:
        same = parse_polynomial(text, varsys) == parse_polynomial(original, varsys)
    except ValueError:  # a ParseError, or an integer too long to convert
        same = False
    assert result.ok == same


def test_details_at_a_smaller_max_degree_are_a_prefix():
    """Metamorphic: raising `max_degree` from 5 to 8 at (2,2) only appends.
    Every list in `details` at 5 is the start of the same list at 8, and
    every other field is equal."""
    for name in CATALOGUE:
        small = run_scenario(ScenarioConfig(scenario=name, n=2, m=2, max_degree=5)).to_dict()["details"]
        large = run_scenario(ScenarioConfig(scenario=name, n=2, m=2, max_degree=8)).to_dict()["details"]
        assert small.keys() == large.keys(), name
        for key, value in small.items():
            if isinstance(value, list):
                assert value == large[key][: len(value)], (name, key)
            else:
                assert value == large[key], (name, key)


def test_report_text_rendering():
    report = run_scenario(ScenarioConfig(scenario="g2-invariants-A", n=1, m=1, max_degree=4))
    text = report.to_text()
    assert "verdict: pass" in text
    assert "scenario: g2-invariants-A" in text


def _stability_with_copies(small_reports, copies):
    """The (1,1,3) action-stability report with `copies` appended, as the
    last certificates in document order, and the index of the first copy."""
    report = copy.deepcopy(next(r for r in small_reports if r["scenario"] == "action-stability"))
    entries = report["details"]["scaling_shear_certificates"]
    entries += [{"generator": "y1", "parameters": [0], "certificate": c} for c in copies]
    return report, len(_collect_certificates(report["details"])) - len(copies)


def _first_membership(small_reports):
    report = next(r for r in small_reports if r["scenario"] == "action-stability")
    return copy.deepcopy(_collect_certificates(report["details"])[0])


def test_repeated_membership_certificates_are_checked_once_per_report(small_reports, monkeypatch):
    first = _first_membership(small_reports)
    report, base = _stability_with_copies(small_reports, [copy.deepcopy(first) for _ in range(50)])
    certificates = _collect_certificates(report["details"])
    distinct = {json.dumps(c, sort_keys=True) for c in certificates}
    calls = []
    check = MembershipCertificate.verify
    monkeypatch.setattr(MembershipCertificate, "verify", lambda cert: calls.append(cert) or check(cert))
    result = verify_report(report)
    assert (result.ok, result.total, base) == (True, 16 + 50, 16)
    assert len(calls) == len(distinct) == 6
    verify_report(report)  # the memo lives in one call
    assert len(calls) == 12


def test_each_membership_certificate_key_is_built_once(small_reports, monkeypatch):
    """`verify_report` reads each membership certificate once, copies and
    first checks alike: the check is built from the key."""
    first = _first_membership(small_reports)
    report, base = _stability_with_copies(small_reports, [copy.deepcopy(first) for _ in range(50)])
    calls = []
    monkeypatch.setattr(harness_module, "membership_key", lambda d: calls.append(d) or membership_key(d))
    monkeypatch.setattr(algebra_module, "membership_key", lambda d: calls.append(d) or membership_key(d))
    assert verify_report(report).ok
    assert len(calls) == base + 50


def test_a_copy_that_differs_in_one_read_field_fails_at_its_own_index(small_reports):
    first = _first_membership(small_reports)
    assert (first["target"], first["expression"], first["generators"][0]) == ("y1", "y1", ["y1", "y1"])
    variants = [
        {"target": "y1 + 1"},
        {"expression": "y1 + 1"},
        {"generators": [["y1", "2*y1"], *first["generators"][1:]]},
        {"variables": ["x1", "y1", "w"]},
    ]
    copies = [first]
    for fields in variants:  # each after a genuine copy, whose outcome is memoized first
        copies += [{**first, **fields}, first]
    report, base = _stability_with_copies(small_reports, copies)
    result = verify_report(report)
    expected = [f"certificate {base + k} {_check('membership', c, {})}"
                for k, c in enumerate(copies) if c is not first]
    assert result.failures == expected
    assert result.total == base + len(copies)
    assert [f.split(" (")[0] for f in expected] == [f"certificate {base + k}" for k in (1, 3, 5, 7)]
    assert "re-evaluation failed" in expected[0] and "unknown variable 'z'" in expected[3]


def _without(cert, field):
    return {k: v for k, v in cert.items() if k != field}


def test_a_missing_field_and_an_empty_one_keep_their_own_messages(small_reports):
    first = _first_membership(small_reports)
    copies = [{**first, "generators": []}, _without(first, "generators"),
              {**first, "target": None}, _without(first, "target")]
    report, base = _stability_with_copies(small_reports, copies)
    assert verify_report(report).failures == [
        f"certificate {base + k} (membership): {message}" for k, message in enumerate([
            "field 'expression': unknown variable 'y1'",
            "field 'generators' is missing",
            "field 'target' must be a string",
            "field 'target' is missing",
        ])]


def test_unhashable_fields_are_checked_directly(small_reports):
    first = _first_membership(small_reports)
    fields = [("target", ["y1"], "field 'target' must be a string"),
              ("expression", ["y1"], "field 'expression' must be a string"),
              ("variables", {"x1": 1}, "field 'variables' must be a list of strings"),
              ("generators", [["y1", ["y1"]]],
               "field 'generators' must be a list of [label, text] string pairs")]
    copies = [{**first, field: value} for field, value, _ in fields for _ in range(2)]
    report, base = _stability_with_copies(small_reports, copies)
    result = verify_report(report)
    assert result.failures == [f"certificate {base + k} (membership): {fields[k // 2][2]}"
                               for k in range(len(copies))]
