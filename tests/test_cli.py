"""CLI surface: subcommands, exit codes, report files."""

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from math import comb

import pytest

from ikernel import cli
from ikernel.cli import MAX_ESTIMATE, UsageError, _preflight, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "lemma-infini2" in out
    assert len(out.strip().splitlines()) == 9


def test_run_text_and_exit_code(capsys):
    code = main(
        ["run", "--scenario", "g2-invariants-A", "--n", "1", "--m", "1", "--max-degree", "4"]
    )
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_run_json_report_and_verify(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--scenario",
            "g1-integrality-dichotomy",
            "--n",
            "1",
            "--m",
            "1",
            "--max-degree",
            "6",
            "--bound",
            "relation_degree=5",
            "--output",
            "json",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["verdict"] == "pass"
    capsys.readouterr()

    assert main(["verify", str(path)]) == 0
    assert "all re-evaluate exactly" in capsys.readouterr().out

    data["details"]["algebraic"]["coefficients"][0]["polynomial"] = "y1^2"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1


def test_membership_exit_codes(capsys):
    assert main(["membership", "--algebra", "anm", "--poly", "x1^2*y1"]) == 0
    assert "y1*t1 - z*x1y1" in capsys.readouterr().out
    assert main(["membership", "--algebra", "anm", "--poly", "x1"]) == 1
    capsys.readouterr()
    assert main(["membership", "--algebra", "monomial", "--poly", "x1^3*y1"]) == 0
    assert main(["membership", "--algebra", "monomial", "--poly", "x1^3"]) == 1


def test_membership_json_output(capsys):
    assert main(["membership", "--poly", "z^2", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cert_type"] == "membership"
    assert data["target"] == "z^2"


def test_none_up_to_bound_exit_code(monkeypatch, capsys):
    from ikernel import harness

    def stub(cfg):
        return harness.NONE_UP_TO_BOUND, {"power_bound": cfg.bound("max_power")}

    monkeypatch.setitem(
        harness.SCENARIOS, "localization-smoothness", harness.Scenario(stub, "stubbed")
    )
    code = main(["run", "--scenario", "localization-smoothness", "--bound", "max_power=1"])
    assert code == 2
    assert "none-up-to-bound" in capsys.readouterr().out


def test_run_json_to_stdout(capsys):
    assert main(["run", "--scenario", "g2-invariants-A", "--max-degree", "3",
                 "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "pass" and data["schema"] == 1


def test_usage_errors(capsys):
    assert main(["run", "--scenario", "nope"]) == 3
    assert main(["run"]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["membership", "--poly", "q + 1"]) == 3
    assert main(["run", "--scenario", "lemma-infini", "--bound", "relation_degree"]) == 3
    assert main(["verify", "/no/such/file.json"]) == 3
    capsys.readouterr()


# One argparse parser serves every `main` call in a process.

def test_the_argument_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_run_bounds_do_not_carry_over_between_calls(monkeypatch, capsys):
    from ikernel import harness

    seen = []

    def stub(cfg):
        seen.append(dict(cfg.bounds))
        return harness.PASS, {}

    monkeypatch.setitem(
        harness.SCENARIOS, "localization-smoothness", harness.Scenario(stub, "stubbed")
    )
    for bounds in (["--bound", "relation_degree=2"], ["--bound", "coeff_degree=3"], []):
        assert main(["run", "--scenario", "localization-smoothness", *bounds]) == 0
    assert seen == [{"relation_degree": 2}, {"coeff_degree": 3}, {}]
    capsys.readouterr()


def test_a_usage_error_does_not_affect_the_next_call(capsys):
    for bad in (["run", "--scenario"], ["frobnicate"], ["verify"]):
        assert main(bad) == 3
        assert main(["list"]) == 0
    capsys.readouterr()


def test_concurrent_verify_calls_give_the_serial_exit_codes(tmp_path, capsys):
    genuine = tmp_path / "genuine.json"
    assert main(["run", "--scenario", "g1-integrality-dichotomy", "--max-degree", "3",
                 "--output", "json", "--out", str(genuine)]) == 0
    data = json.loads(genuine.read_text())
    data["details"]["algebraic"]["coefficients"][0]["polynomial"] = "y1^2"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text("[]")
    paths = [str(genuine), str(tampered), str(unreadable)] * 8
    serial = [main(["verify", path]) for path in paths]
    assert serial[:3] == [0, 1, 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            codes = list(pool.map(lambda path: main(["verify", path]), paths, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert codes == serial
    capsys.readouterr()


@pytest.mark.parametrize("where", ["missing/r.json", "."])
def test_run_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, monkeypatch, where):
    """A directory, or a file in a missing directory, is refused before
    the scenario runs."""
    def no_run(cfg):
        pytest.fail("run_scenario was called for an --out path that cannot be written")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / where
    argv = ["run", "--scenario", "theorem1-cusp", "--max-degree", "1", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write report to {str(out)!r}: ")
    assert len(captured.err.splitlines()) == 1


def test_run_out_write_error_after_the_run_is_a_usage_error(tmp_path, capsys):
    """A name too long for the file system passes the pre-check and fails
    only when the report is written."""
    out = tmp_path / ("r" * 300 + ".json")
    argv = ["run", "--scenario", "theorem1-cusp", "--max-degree", "1", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: cannot write report to {str(out)!r}: File name too long\n"


@pytest.mark.parametrize("text", ["[]", '"x"', "3"])
def test_verify_rejects_non_object_report(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 3
    assert "not a JSON object" in capsys.readouterr().err


# Hand-made reports name a scenario that declares no certificate path, so
# a `pass` needs no certificate at one.
SCENARIO = "g1-invariants"


def _write_report(path, certificate):
    report = {"schema": 1, "scenario": SCENARIO, "verdict": "pass",
              "details": {"certificate": certificate}}
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("verdict, code", [
    ("pass", 0), ("fail", 1), ("none-up-to-bound", 2), ("maybe", 3), (None, 3), (["pass"], 3),
])
def test_verify_exits_with_the_report_verdict(tmp_path, capsys, verdict, code):
    report = {"schema": 1, "scenario": SCENARIO, "details": {}}
    if verdict is not None:
        report["verdict"] = verdict
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == code
    if code == 3:
        assert "verdict" in capsys.readouterr().err


def test_verify_fails_a_relation_stripped_of_its_cert_type(tmp_path, capsys):
    """Without its `cert_type`, a false relation would be skipped and only
    its nested membership certificates checked; its declared path fails it."""
    path = tmp_path / "report.json"
    assert main(["run", "--scenario", "g1-integrality-dichotomy", "--max-degree", "3",
                 "--output", "json", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    del data["details"]["algebraic"]["cert_type"]
    data["details"]["algebraic"]["element"] = "y1"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "details.algebraic: not a relation certificate" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["algebraic", "y_generator_integral"])
def test_verify_fails_a_pass_without_its_declared_relation(tmp_path, capsys, field):
    """A passing dichotomy report rests on both relations: nulled, either
    one fails the report (exit 1)."""
    path = tmp_path / "report.json"
    assert main(["run", "--scenario", "g1-integrality-dichotomy", "--max-degree", "3",
                 "--output", "json", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["details"][field] = None
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert f"details.{field}: a pass needs a relation certificate here" in capsys.readouterr().err


def test_verify_fails_a_pass_with_its_certificate_lists_emptied(tmp_path, capsys):
    """A passing action-stability report rests on its stability
    certificates: with both lists emptied it verifies no certificate and
    fails (exit 1)."""
    path = tmp_path / "report.json"
    assert main(["run", "--scenario", "action-stability", "--max-degree", "3",
                 "--output", "json", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["details"]["translation_certificates"] = []
    data["details"]["scaling_shear_certificates"] = []
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    for field in ("translation_certificates", "scaling_shear_certificates"):
        assert f"details.{field}[*].certificate: a pass needs a membership certificate here" in err


@pytest.mark.parametrize("scenario", [None, "nope", "", ["action-stability"], 3])
def test_verify_needs_a_known_scenario(tmp_path, capsys, scenario):
    report = {"schema": 1, "verdict": "pass", "details": {}}
    if scenario is not None:
        report["scenario"] = scenario
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == 3
    assert "scenario" in capsys.readouterr().err


def test_verify_failing_certificate_exits_1_whatever_the_verdict(tmp_path):
    cert = {"cert_type": "membership", "variables": ["x"], "generators": [["a", "x"]],
            "target": "x^2", "expression": "a^3"}
    path = tmp_path / "report.json"
    for verdict in ("pass", "none-up-to-bound"):
        path.write_text(json.dumps(
            {"schema": 1, "scenario": SCENARIO, "verdict": verdict, "details": {"certificate": cert}}))
        assert main(["verify", str(path)]) == 1


def test_verify_single_term_powers_are_fast(tmp_path, capsys):
    path = tmp_path / "report.json"
    _write_report(path, {
        "cert_type": "membership",
        "variables": ["x"],
        "generators": [["a", "x"]],
        "target": "x^3000000",
        "expression": "a^3000000",
    })
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert "verified 1 certificate(s)" in capsys.readouterr().out


@pytest.mark.parametrize("field, fields", [
    ("target", {"target": "(3/7*x)^10000000"}),
    ("expression", {"generators": [["a", "3/7*x"]], "expression": "a^3000000"}),
])
def test_verify_rejects_huge_single_term_coefficient_powers(tmp_path, capsys, field, fields):
    # Scaling exponents is free, but (3/7)^k is not: its bits are charged.
    cert = {"cert_type": "membership", "variables": ["x"], "generators": [["a", "x"]],
            "target": "x", "expression": "a"}
    path = tmp_path / "report.json"
    _write_report(path, dict(cert, **fields))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert f"field {field!r}" in capsys.readouterr().err


def test_membership_rejects_a_huge_single_term_coefficient_power(capsys):
    start = time.perf_counter()
    assert main(["membership", "--poly", "(3/7*x1)^10000000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "coefficient bits" in capsys.readouterr().err


def _certificates(inst):
    from ikernel import integral_relation_search, localization_contains, membership

    vs = inst.varsys
    x1, y1 = vs.variable("x1"), vs.variable("y1")
    return {
        "membership": membership(inst.algebra, vs.parse("x1^2*y1")).to_json_dict(),
        "relation": integral_relation_search(x1, inst.algebra, 3).to_json_dict(),
        "localization": localization_contains(x1, inst.algebra, y1, 4).to_json_dict(),
    }


def _field_holder(cert, field):
    """The dict of `cert` that carries `field`, nested where it must be."""
    if cert["cert_type"] == "localization":
        return cert["certificate"]
    if cert["cert_type"] == "relation" and field == "generators":
        return cert["coefficients"][0]["certificate"]
    return cert


def test_verify_rejects_string_variables(tmp_path, capsys):
    # a string must fail, not be read as the tuple of its characters
    path = tmp_path / "report.json"
    cert = {"cert_type": "membership", "variables": ["x"], "generators": [["a", "x"]],
            "target": "x^2", "expression": "a^2"}
    _write_report(path, cert)
    assert main(["verify", str(path)]) == 0
    _write_report(path, dict(cert, variables="x"))
    assert main(["verify", str(path)]) == 1
    assert "field 'variables' must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["membership", "relation", "localization"])
@pytest.mark.parametrize("value", ["x1", ["x1", 2], None, {"x1": 1}, ["x1", "x1"], ["x 1"]])
def test_verify_rejects_malformed_variables(tmp_path, capsys, inst11, kind, value):
    cert = _certificates(inst11)[kind]
    path = tmp_path / "report.json"
    _write_report(path, cert)
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()

    _field_holder(cert, "variables")["variables"] = value
    _write_report(path, cert)
    assert main(["verify", str(path)]) == 1
    assert "field 'variables'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["membership", "relation", "localization"])
@pytest.mark.parametrize("value", ["y1", [["y1"]], [["y1", 3]], [("z", "z", "z")], [{"y1": "y1"}]])
def test_verify_rejects_malformed_generators(tmp_path, capsys, inst11, kind, value):
    cert = _certificates(inst11)[kind]
    _field_holder(cert, "generators")["generators"] = value
    path = tmp_path / "report.json"
    _write_report(path, cert)
    assert main(["verify", str(path)]) == 1
    assert "field 'generators'" in capsys.readouterr().err


def _hostile_relation(**fields):
    cert = {"cert_type": "relation", "variables": ["x", "y"], "element": "x + y",
            "degree": 2, "monic": True, "coefficients": []}
    cert.update(fields)
    return cert


def _hostile_localization(**fields):
    cert = {"cert_type": "localization", "numerator": "x", "localizing": "x + y",
            "power": 2, "certificate": {"cert_type": "membership", "variables": ["x", "y"],
                                        "generators": [["a", "x"]], "target": "x",
                                        "expression": "a"}}
    cert.update(fields)
    return cert


@pytest.mark.parametrize("cert, field", [
    (_hostile_relation(degree=200000), "degree"),
    (_hostile_relation(degree=2000), "degree"),  # under the exponent cap, over the size cap
    (_hostile_relation(coefficients=[{"i": 200000, "polynomial": "1", "certificate": {}}]), "i"),
    (_hostile_localization(power=200000), "power"),
    (_hostile_localization(localizing="y", power=200000), "power"),
])
def test_verify_rejects_huge_powers_quickly(tmp_path, capsys, cert, field):
    path = tmp_path / "report.json"
    _write_report(path, cert)
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 5.0
    assert f"field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [2.0, 2.9, True, -1, "2", None])
def test_verify_rejects_non_integer_exponents(tmp_path, capsys, value):
    path = tmp_path / "report.json"
    for cert, field in ((_hostile_relation(degree=value), "degree"),
                        (_hostile_localization(power=value), "power")):
        _write_report(path, cert)
        assert main(["verify", str(path)]) == 1
        assert f"field {field!r} must be a nonnegative integer" in capsys.readouterr().err


def test_verify_keeps_single_term_powers_cheap(tmp_path):
    # y^100000 is under every cap: it is raised by scaling exponents.
    member = {"cert_type": "membership", "variables": ["x", "y"],
              "generators": [["a", "x*y^100000"]], "target": "x*y^100000", "expression": "a"}
    cert = _hostile_localization(localizing="y", power=100000, certificate=member)
    path = tmp_path / "report.json"
    _write_report(path, cert)
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - start < 5.0


_SEVEN = ["a", "b", "c", "d", "e", "x", "y"]
_WIDE = "9" * 900  # a 900-digit coefficient numerator


@pytest.mark.parametrize("target, variables", [
    *(pytest.param(target, _SEVEN, id=target) for target in (
        "(a+b+c+d+e)^40", "(x+y)^3000", "(a+b+c+d+e)^15*(a+b+c+d+e)^15", "(x+y)^500")),
    pytest.param(f"({_WIDE}/7*x + {_WIDE}/11*y)^200", _SEVEN, id="900-digit-coefficients"),
    pytest.param("(v0+v1)^200", ["a"] + [f"v{i}" for i in range(19_999)],
                 id="20000-variables"),
    pytest.param("3/7*" * 40_000 + "x", _SEVEN, id="40000-rational-factors"),
])
def test_verify_rejects_texts_over_the_parse_budget_quickly(tmp_path, capsys, target, variables):
    cert = {"cert_type": "membership", "variables": variables,
            "generators": [["g", "a"]], "target": target, "expression": "g"}
    path = tmp_path / "report.json"
    _write_report(path, cert)
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 5.0
    assert "term products" in capsys.readouterr().err


def test_verify_rejects_trivial_relation(tmp_path, capsys):
    member = {"cert_type": "membership", "variables": ["x"], "generators": [["a", "x"]],
              "target": "0", "expression": "0"}
    cert = {"cert_type": "relation", "variables": ["x"], "element": "x", "degree": 1,
            "monic": False, "coefficients": [{"i": 0, "polynomial": "0", "certificate": member}]}
    path = tmp_path / "report.json"
    for fields, field in (({}, "coefficients"), ({"coefficients": []}, "coefficients"),
                          ({"monic": "false"}, "monic")):
        _write_report(path, dict(cert, **fields))
        assert main(["verify", str(path)]) == 1
        assert f"field {field!r}" in capsys.readouterr().err



_BIG = "(x + 2*y + 3*z + 5*w + 7*v + 11)^5"  # 252 terms, cheap to parse


@pytest.mark.parametrize("cert, field", [
    ({"cert_type": "membership", "variables": ["a", "b", "c", "d", "e"],
      "generators": [["g", "a+b+c+d+e"]], "target": "a", "expression": "g^40"}, "expression"),
    ({"cert_type": "relation", "variables": ["x", "y", "z", "w", "v"], "element": _BIG,
      "degree": 1, "monic": False, "coefficients": [
          {"i": 1, "polynomial": _BIG, "certificate": {
              "cert_type": "membership", "variables": ["x", "y", "z", "w", "v"],
              "generators": [["g", _BIG]], "target": _BIG, "expression": "g"}}] * 10},
     "coefficients"),
    ({"cert_type": "membership", "variables": ["x", "y"],
      "generators": [["g", f"{_WIDE}/7*x + {_WIDE}/11*y"]], "target": "x",
      "expression": "g^200"}, "expression"),
])
def test_verify_rejects_expansions_over_the_check_budget_quickly(tmp_path, capsys, cert, field):
    path = tmp_path / "report.json"
    _write_report(path, cert)
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 5.0
    assert f"field {field!r}" in capsys.readouterr().err


_FALSE_MEMBER = {"cert_type": "membership", "variables": ["x"], "generators": [["g", "x"]],
                 "target": "x", "expression": "g + 1"}


@pytest.mark.parametrize("cert_type, named", [
    ("Membership", "unknown cert_type 'Membership'"),
    ("", "unknown cert_type ''"),
    (["membership"], "cert_type is a list, not a string"),
    ({"membership": 1}, "cert_type is a dict, not a string"),
    (None, "cert_type is a NoneType, not a string"),
])
def test_verify_fails_an_unknown_cert_type(tmp_path, capsys, cert_type, named):
    path = tmp_path / "report.json"
    _write_report(path, dict(_FALSE_MEMBER, cert_type=cert_type))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert named in captured.err and "verified 1 certificate(s): 1 failure(s)" in captured.out


def test_verify_checks_every_certificate_beside_an_unknown_one(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema": 1, "scenario": SCENARIO, "verdict": "pass", "details": {
        "a": dict(_FALSE_MEMBER, cert_type="Membership"), "b": [_FALSE_MEMBER]}}))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "certificate 0: unknown cert_type" in err
    assert "certificate 1 (membership): re-evaluation failed" in err


@pytest.mark.parametrize("where", ["details", "certificate"])
def test_verify_reports_a_too_deep_report_as_unreadable(tmp_path, capsys, where):
    depth = 100_000
    nested = "[" * depth + "]" * depth
    if where == "certificate":
        nested = '{"c": {"cert_type": "membership", "target": %s}}' % nested
    path = tmp_path / "report.json"
    path.write_text('{"schema": 1, "scenario": "%s", "verdict": "pass", "details": %s}'
                    % (SCENARIO, nested))
    assert main(["verify", str(path)]) == 3
    assert "cannot read report" in capsys.readouterr().err


def test_verify_reports_a_non_utf8_report_as_unreadable(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b'{"schema": 1, "verdict": "\xff"}')
    assert main(["verify", str(path)]) == 3
    assert "cannot read report" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("(" * 3000 + "x1" + ")" * 3000, "nest deeper than"),
    ("1" * 5000 + "*q", "usage error"),  # Python 3.11+ caps int() at 4300 digits
])
def test_membership_rejects_hostile_text(capsys, text, named):
    assert main(["membership", "--poly", text]) == 3
    assert named in capsys.readouterr().err


def test_verify_names_the_field_of_deeply_nested_text(tmp_path, capsys):
    path = tmp_path / "report.json"
    _write_report(path, dict(_FALSE_MEMBER, target="(" * 3000 + "x" + ")" * 3000))
    assert main(["verify", str(path)]) == 1
    assert "field 'target': parentheses nest deeper than" in capsys.readouterr().err


def test_verify_quotes_a_bounded_excerpt_of_a_malformed_text(tmp_path, capsys):
    path = tmp_path / "report.json"
    _write_report(path, dict(_FALSE_MEMBER, target="x#" + "x" * 1_000_000))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "field 'target': unexpected character at position 1" in err
    assert len(err.encode()) < 4096


def _drop(cert, path):
    """`cert` with the field at a dotted path (list indices as digits) removed."""
    *parents, last = path.split(".")
    holder = cert
    for key in parents:
        holder = holder[int(key)] if key.isdigit() else holder[key]
    del holder[last]
    return cert


@pytest.mark.parametrize("kind, path", [
    ("membership", "variables"), ("membership", "generators"), ("membership", "target"),
    ("membership", "expression"),
    ("relation", "variables"), ("relation", "element"), ("relation", "degree"),
    ("relation", "monic"), ("relation", "coefficients"), ("relation", "coefficients.0.i"),
    ("relation", "coefficients.0.polynomial"), ("relation", "coefficients.0.certificate"),
    ("relation", "coefficients.0.certificate.target"),
    ("localization", "numerator"), ("localization", "localizing"), ("localization", "power"),
    ("localization", "certificate"), ("localization", "certificate.target"),
])
def test_verify_names_a_missing_field(tmp_path, capsys, inst11, kind, path):
    from ikernel.harness import _VERIFIERS

    field = path.rsplit(".", 1)[-1]
    cert = _drop(_certificates(inst11)[kind], path)
    with pytest.raises(ValueError, match=f"^field '{field}' is missing$"):
        _VERIFIERS[kind](cert)
    report = tmp_path / "report.json"
    _write_report(report, cert)
    assert main(["verify", str(report)]) == 1
    assert f"field '{field}' is missing" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["membership", "--poly", "x1^100000"], "degree 100000 at n=1, m=1 needs an estimated C(100003, 3)"),
    (["run", "--scenario", "lemma-infini", "--n", "40"], "n=40, m=1 needs an estimated 1*2^40 + 81"),
    (["run", "--scenario", "g1-invariants", "--max-degree", "10000"], "degree 10000 at n=1"),
    (["run", "--scenario", "lemma-infini", "--bound", "coeff_degree=90"], "C(93, 3)"),
    (["membership", "--n", "1000000000", "--poly", "x1"], "1*2^1000000000 + 2000000001"),
])
def test_over_cap_sizes_are_refused_before_any_build(capsys, argv, named):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert named in err and f"over the cap of {MAX_ESTIMATE}" in err


def test_preflight_cap_is_exact_and_clears_every_ci_and_benchmark_size():
    for degree in range(120):  # (1,1): C(D+3, 3) summed frame columns
        refused = comb(degree + 3, 3) > MAX_ESTIMATE
        if refused:
            with pytest.raises(UsageError, match=f"degree {degree} "):
                _preflight(1, 1, degree)
        else:
            _preflight(1, 1, degree)
    for n in range(1, 20):  # m*2^n + 2n + 1 generators, at degree 0
        if 2**n + 2 * n + 1 > MAX_ESTIMATE:
            with pytest.raises(UsageError, match="generators"):
                _preflight(n, 1, 0)
        else:
            _preflight(n, 1, 0)
    for n, m, d in [(2, 2, 8), (1, 1, 14), (1, 1, 11), (3, 3, 7), (3, 3, 9), (3, 3, 12)]:
        _preflight(n, m, d)
