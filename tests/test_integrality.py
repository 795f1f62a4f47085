"""Integral/algebraic relation searches, localization, and the conclusive
non-integrality arguments."""

import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from ikernel.algebra import (
    MembershipCertificate,
    NotHomogeneous,
    SubalgebraSpec,
    _certificate_algebra,
    membership,
    membership_key,
    verify_membership_json,
)
from ikernel.exactlin import integer_kernel
from ikernel.harness import ScenarioConfig, _collect_certificates, run_scenario, verify_report
from ikernel.integrality import (
    RelationCertificate,
    RelationCoefficient,
    _columns,
    _powers,
    _relation,
    algebraic_relation_search,
    integral_relation_search,
    localization_contains,
    non_integrality_by_specialization,
    transcendental_over_constants,
    verify_localization_json,
    verify_relation_json,
)
from ikernel.poly import Monomial, Polynomial, VarSystem, VarSystemMismatch, monomials_of_degree


def test_integral_relation_for_x1(inst11):
    vs = inst11.varsys
    relation = integral_relation_search(vs.variable("x1"), inst11.algebra, 3)
    assert relation is not None and relation.monic and relation.degree == 2
    coeffs = {c.power: c.polynomial for c in relation.coefficients}
    assert coeffs[1] == vs.variable("z")
    assert coeffs[0] == -vs.parse("x1^2 + x1*z")
    assert relation.verify()


def test_integral_relation_minimality(inst11):
    # No monic degree-1 relation exists: x1 itself is not a member.
    vs = inst11.varsys
    assert membership(inst11.algebra, vs.variable("x1")) is None
    relation = integral_relation_search(vs.variable("x1"), inst11.algebra, 1)
    assert relation is None


def test_integral_relation_for_generator(inst11):
    vs = inst11.varsys
    relation = integral_relation_search(vs.variable("y1"), inst11.algebra, 3)
    assert relation is not None and relation.degree == 1
    coeffs = {c.power: c.polynomial for c in relation.coefficients}
    assert coeffs[0] == -vs.variable("y1")
    assert relation.verify()


def test_integral_search_rejects_inhomogeneous(inst11):
    with pytest.raises(NotHomogeneous):
        integral_relation_search(inst11.varsys.parse("x1 + z^2"), inst11.algebra, 2)


def test_no_integral_relation_over_monomial_algebra(inst11, mono11):
    vs = inst11.varsys
    x1 = vs.variable("x1")
    assert integral_relation_search(x1, mono11, 5) is None
    assert non_integrality_by_specialization(x1, mono11, inst11.y_names)
    # The same argument does not apply over the full subalgebra: z survives.
    assert not non_integrality_by_specialization(x1, inst11.algebra, inst11.y_names)


@pytest.mark.parametrize("seed", range(30))
def test_specialization_matches_the_substitution_definition(seed):
    # Send the listed variables to zero by substitution: non-integral iff
    # every generator dies and x keeps a term of positive degree.
    rng = random.Random(seed)
    vs = VarSystem(("a", "b", "c", "d"), ("coordinate",) * 3 + ("parameter",))
    vanishing = rng.sample(vs.names[:3], rng.randint(1, 2))

    def random_poly(nvars):  # in the first nvars variables
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [rng.randint(0, 1) if i < nvars else 0 for i in range(vs.nvars)]
            if rng.random() < 0.5:  # killed by the specialization
                exps[vs.index(rng.choice(vanishing))] += 1
            terms[Monomial(exps)] = rng.randint(-2, 2) or 1
        return Polynomial(vs, terms)

    # Generators may not involve the parameter d, which has degree 0 and
    # which x may involve.
    generators = [(f"g{k}", random_poly(3)) for k in range(rng.randint(0, 3))]
    algebra = SubalgebraSpec(vs, generators)
    x = random_poly(4) + vs.variable("d") ** rng.randint(0, 2)
    images = {name: vs.zero() for name in vanishing}
    want = all(g.substitute(images, target=vs).is_zero() for _, g in generators) and (
        x.substitute(images, target=vs).degree() >= 1)
    assert non_integrality_by_specialization(x, algebra, vanishing) == want
    with pytest.raises(VarSystemMismatch):
        non_integrality_by_specialization(x, algebra, vanishing + ["w"])


def test_algebraic_relation_over_monomial_algebra(inst11, mono11):
    vs = inst11.varsys
    relation = algebraic_relation_search(vs.variable("x1"), mono11, 5, 8)
    assert relation is not None and not relation.monic and relation.degree == 1
    coeffs = {c.power: c.polynomial for c in relation.coefficients}
    assert coeffs[1] == vs.variable("y1")
    assert coeffs[0] == -vs.parse("x1*y1")
    assert relation.verify()
    y_relation = algebraic_relation_search(vs.variable("y1"), mono11, 5, 8)
    assert y_relation is not None and y_relation.degree == 1 and y_relation.verify()


def test_algebraic_relation_over_constants(inst11):
    vs = inst11.varsys
    trivial = SubalgebraSpec(vs, [])
    x1 = vs.variable("x1")
    assert algebraic_relation_search(x1, trivial, 4, 6) is None
    assert integral_relation_search(x1, trivial, 4) is None
    assert transcendental_over_constants(x1, trivial)
    assert not transcendental_over_constants(vs.constant(3), trivial)
    assert not transcendental_over_constants(x1, inst11.algebra)


def _constant_relation(x, algebra):
    """x - c = 0 for a nonzero constant x = c, built outright: the relation
    the search once returned for constants without searching."""
    vs = algebra.varsys
    negated = vs.constant(-x.constant_coefficient())
    coefficients = (
        RelationCoefficient(1, vs.one(), membership(algebra, vs.one())),
        RelationCoefficient(0, negated, membership(algebra, negated)),
    )
    return RelationCertificate(x, 1, False, coefficients)


@pytest.mark.parametrize("which", ["instance", "monomial", "generator-free"])
@pytest.mark.parametrize("constant", ["3", "-2/7", "1", "5/3"])
def test_constants_get_x_minus_c_from_the_weight_zero_search(inst11, mono11, which, constant):
    vs = inst11.varsys
    algebra = {"instance": inst11.algebra, "monomial": mono11,
               "generator-free": SubalgebraSpec(vs, [])}[which]
    x = vs.parse(constant)
    relation = algebraic_relation_search(x, algebra, 3, 4)
    assert json.dumps(relation.to_json_dict()) == json.dumps(
        _constant_relation(x, algebra).to_json_dict())
    assert relation.verify()
    # The degree bound holds for constants too: no relation of degree <= 0.
    assert algebraic_relation_search(x, algebra, 0, 4) is None


def test_algebraic_search_rejects_zero(inst11):
    with pytest.raises(NotHomogeneous):
        algebraic_relation_search(inst11.varsys.zero(), inst11.algebra, 3, 4)


def test_algebraic_relation_for_generator(inst11):
    vs = inst11.varsys
    relation = algebraic_relation_search(vs.variable("z"), inst11.algebra, 3, 6)
    assert relation is not None and relation.degree == 1
    coeffs = {c.power: c.polynomial for c in relation.coefficients}
    assert coeffs[1] == vs.one() and coeffs[0] == -vs.variable("z")
    assert relation.verify()


def _filtered_search(x, algebra, max_degree, max_coeff_degree):
    """`algebraic_relation_search` with the top-power filter it once had:
    at each (n, weight), the first kernel vector holding one of the first
    top_dim columns, those of x^n.  Also every (kernel, top_dim) the search
    visits, skipped weights (top_dim 0) included, up to the one it returns
    at."""
    e, powers = _powers(x, max_degree, 0)
    basisdata = algebra.graded_basis()
    visited = []
    for n in range(1, max_degree + 1):
        for weight in range(n * e, max_coeff_degree + 1):
            top_dim = basisdata.piece(weight - n * e).dim
            columns, owners = _columns(basisdata, powers, e, weight, n)
            kernel = integer_kernel(columns)
            visited.append((kernel, top_dim))
            if top_dim == 0:
                continue
            for vec in kernel:
                if min(vec) < top_dim:
                    return _relation(x, algebra, n, False, owners, vec), visited
    return None, visited


def _search_probes(name, request):
    """An algebra and seeded homogeneous elements: every variable and a few
    random sums of monomials of degree 1 or 2."""
    if name.startswith("cusp"):
        cusp = request.getfixturevalue("cusp")
        algebra = cusp.algebra if name == "cusp" else cusp.kernel_subalgebra
    else:
        algebra = request.getfixturevalue(name)
        algebra = getattr(algebra, "algebra", algebra)
    vs = algebra.varsys
    rng = random.Random(name)
    elements = [vs.variable(v) for v in vs.names]
    for _ in range(4):
        frame = monomials_of_degree(vs, rng.randint(1, 2))
        picked = rng.sample(frame, rng.randint(1, min(3, len(frame))))
        elements.append(Polynomial(vs, {m: rng.randint(-2, 2) or 1 for m in picked}))
    return algebra, elements


SEARCH_ALGEBRAS = ["inst11", "inst12", "inst21", "mono11", "mono21", "cusp", "cusp-kernel"]


@pytest.mark.parametrize("name", SEARCH_ALGEBRAS)
def test_every_kernel_vector_holds_a_top_power_column(request, name):
    """Up to the weight the search returns at, every kernel vector holds an
    x^n column, and a weight skipped for an empty top piece has no kernel."""
    algebra, elements = _search_probes(name, request)
    for x in elements:
        for kernel, top_dim in _filtered_search(x, algebra, 3, 5)[1]:
            assert all(min(vec) < top_dim for vec in kernel)


@pytest.mark.parametrize("name", SEARCH_ALGEBRAS)
def test_the_search_needs_no_top_power_filter(request, name):
    algebra, elements = _search_probes(name, request)
    for x in elements:
        want = _filtered_search(x, algebra, 3, 5)[0]
        got = algebraic_relation_search(x, algebra, 3, 5)
        assert (got and got.to_json_dict()) == (want and want.to_json_dict())


@pytest.mark.parametrize("search, text", [
    ("algebraic", "t*x"), ("algebraic", "t"), ("integral", "t*x"),
    ("algebraic", "x*y + t*x*y"), ("integral", "x*y + t*x*y"),
])
def test_relation_searches_name_a_parameter_in_their_input(search, text):
    vs = VarSystem(("x", "y", "t"), ("coordinate", "coordinate", "parameter"))
    algebra = SubalgebraSpec(vs, [("g", vs.parse("x*y"))])
    x = vs.parse(text)
    with pytest.raises(ValueError, match="parameter 't'"):
        if search == "algebraic":
            algebraic_relation_search(x, algebra, 2, 2)
        else:
            integral_relation_search(x, algebra, 2)
    assert algebra.graded_basis()._pieces == {}  # refused before any piece is built
    # Membership and localization still answer None for such an element.
    assert membership(algebra, x) is None
    assert localization_contains(x, algebra, vs.parse("x*y"), 2) is None


def test_relation_json_round_trip(inst11):
    vs = inst11.varsys
    relation = integral_relation_search(vs.variable("x1"), inst11.algebra, 3)
    data = relation.to_json_dict()
    assert verify_relation_json(data)
    tampered = dict(data)
    tampered["degree"] = 3
    assert not verify_relation_json(tampered)


def test_localization_examples(inst11):
    vs = inst11.varsys
    x1, y1, z = (vs.variable(n) for n in ("x1", "y1", "z"))
    found = localization_contains(x1, inst11.algebra, y1, 4)
    assert found is not None and found.power == 1
    assert found.membership.target == vs.parse("x1*y1")
    assert found.verify()
    assert localization_contains(z, inst11.algebra, y1, 4).power == 0
    assert localization_contains(x1, inst11.algebra, z, 4) is None
    with pytest.raises(ValueError):
        localization_contains(y1, inst11.algebra, x1, 2)  # x1 not a member
    assert verify_localization_json(found.to_json_dict())


def test_cusp_instance(cusp):
    vs = cusp.varsys
    u = vs.variable("u")
    relation = integral_relation_search(u, cusp.kernel_subalgebra, 2)
    assert relation is not None and relation.degree == 2
    coeffs = {c.power: c.polynomial for c in relation.coefficients}
    assert coeffs[0] == -vs.parse("u^2")
    assert 1 not in coeffs  # pure u^2 - (u^2) shape
    assert relation.verify()
    for d in range(2, 7):
        member = integral_relation_search(u ** d, cusp.kernel_subalgebra, 2)
        assert member is not None and member.degree == 1 and member.verify()


def test_every_certificate_re_evaluates(inst11, mono11):
    vs = inst11.varsys
    searches = [
        integral_relation_search(vs.variable("x1"), inst11.algebra, 3),
        algebraic_relation_search(vs.variable("x1"), mono11, 5, 8),
        integral_relation_search(vs.variable("y1"), mono11, 3),
    ]
    for relation in searches:
        assert relation is not None
        x = relation.element
        lead = x ** relation.degree if relation.monic else vs.zero()
        assert sum((c.polynomial * x ** c.power for c in relation.coefficients), lead).is_zero()
        assert relation.verify() and verify_relation_json(relation.to_json_dict())
        for coeff in relation.coefficients:
            assert coeff.membership.verify()


def _zero_member(target="0"):
    return {"cert_type": "membership", "variables": ["x"], "generators": [["a", "x"]],
            "target": target, "expression": "0"}


def _trivial_relation(**fields):
    cert = {"cert_type": "relation", "variables": ["x"], "element": "x", "degree": 1,
            "monic": False,
            "coefficients": [{"i": 0, "polynomial": "0", "certificate": _zero_member()}]}
    cert.update(fields)
    return cert


@pytest.mark.parametrize("cert, field", [
    (_trivial_relation(), "coefficients"),  # 0 = 0
    (_trivial_relation(coefficients=[]), "coefficients"),
    (_trivial_relation(coefficients=[{"i": 1, "polynomial": "0",
                                      "certificate": _zero_member()}]), "coefficients"),
    (_trivial_relation(monic="false"), "monic"),
    (_trivial_relation(monic=1), "monic"),
    (_trivial_relation(monic=None), "monic"),
    # x^1 - 1*x^1 = 0: a monic relation's top term must stay implicit
    (_trivial_relation(monic=True, coefficients=[{"i": 1, "polynomial": "-1",
                                                  "certificate": _zero_member("-1")}]), "i"),
    (_trivial_relation(coefficients=[{"i": 2, "polynomial": "1",
                                      "certificate": _zero_member("1")}]), "i"),
])
def test_relation_json_rejects_trivial_relations(cert, field):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        verify_relation_json(cert)


def test_relation_certificate_rejects_trivial_relations(inst11):
    from dataclasses import replace

    relation = algebraic_relation_search(inst11.varsys.variable("z"), inst11.algebra, 3, 6)
    top = tuple(c for c in relation.coefficients if c.power == relation.degree)
    assert relation.verify() and [c.polynomial for c in top] == [inst11.varsys.one()]
    lower = tuple(c for c in relation.coefficients if c.power < relation.degree)
    for coefficients in ((), lower):
        with pytest.raises(ValueError, match="field 'coefficients'"):
            replace(relation, coefficients=coefficients).verify()
    with pytest.raises(ValueError, match="field 'i'"):
        replace(relation, monic=True, coefficients=top).verify()


def _tampered(inst11):
    """Certificates with one field changed, each with its JSON verifier."""
    from dataclasses import replace

    vs = inst11.varsys
    x1, y1 = vs.variable("x1"), vs.variable("y1")
    member = membership(inst11.algebra, vs.parse("x1^2*y1"))
    relation = integral_relation_search(x1, inst11.algebra, 3)
    local = localization_contains(x1, inst11.algebra, y1, 4)
    return [
        (MembershipCertificate(member.algebra, vs.parse("x1^3"), member.expression),
         verify_membership_json, None),
        (MembershipCertificate(member.algebra, member.target, member.expression * 2),
         verify_membership_json, None),
        (replace(relation, degree=3), verify_relation_json, None),
        (replace(relation, element=y1), verify_relation_json, None),
        (replace(relation, monic=False), verify_relation_json, "field 'coefficients'"),
        (replace(relation, degree=-1), verify_relation_json, "field 'degree'"),
        (replace(local, power=2), verify_localization_json, None),
        (replace(local, numerator=y1), verify_localization_json, None),
        (replace(local, power=200_000), verify_localization_json, "field 'power'"),
    ]


def test_tampered_certificates_fail_the_object_and_json_paths_alike(inst11):
    for cert, verify_json, error in _tampered(inst11):
        data = cert.to_json_dict()
        if error is None:
            assert not cert.verify() and not verify_json(data)
            continue
        for check in (cert.verify, lambda: verify_json(data)):
            with pytest.raises(ValueError, match=error):
                check()


@pytest.mark.parametrize("generators, message", [
    ([["a", "x"], ["b", "0"]], "'b' is zero"),
    ([["a", "x"], ["a", "x^2"]], "labels must be distinct"),
])
def test_membership_json_rejects_zero_and_repeated_generators(generators, message):
    data = {"cert_type": "membership", "variables": ["x"], "generators": generators,
            "target": "x", "expression": "a"}
    with pytest.raises(ValueError, match=f"field 'generators': .*{message}"):
        verify_membership_json(data)


# -- the parsed-algebra memo of `MembershipCertificate.from_json_dict` ----------

MEMBER = {"cert_type": "membership", "variables": ["x", "y"],
          "generators": [["a", "x"], ["b", "x*y + y^2"]],
          "target": "x^2*y + x*y^2", "expression": "a*b"}


def _parsed(**fields):
    # A JSON round trip, so equal lists never share their Python objects.
    return MembershipCertificate.from_json_dict(json.loads(json.dumps(dict(MEMBER, **fields))))


def test_equal_generator_lists_share_one_parsed_algebra():
    first, second = _parsed(), _parsed(target="x^2", expression="a^2")
    assert second.algebra is first.algebra
    assert second.algebra.varsys is first.algebra.varsys
    assert first.verify() and _parsed(expression="a*b + 1").verify() is False


@pytest.mark.parametrize("fields", [
    {"generators": [["a", "x"], ["c", "x*y + y^2"]], "expression": "a*c"},  # one label
    {"generators": [["a", "x"], ["b", "x*y - y^2"]]},  # one text
    {"variables": ["y", "x"]},  # the order of the variables
])
def test_generator_lists_that_differ_get_their_own_algebra(fields):
    own = _parsed(**fields).algebra
    shared = _parsed().algebra
    assert own is not shared
    assert (own.varsys.names, [(k, str(g)) for k, g in own.generators]) != (
        shared.varsys.names, [(k, str(g)) for k, g in shared.generators])


@pytest.mark.parametrize("generators, message", [
    ([["a", "x"], ["b", "0"]], "generator 'b' is zero"),
    ([["a", "x"], ["a", "y"]], "generator labels must be distinct"),
    ([["a", "x"], ["b", "x +* y"]], "unexpected"),
])
def test_a_generator_list_that_fails_is_not_cached(generators, message):
    _certificate_algebra.cache_clear()
    _parsed()
    errors = []
    for _ in range(2):
        misses = _certificate_algebra.cache_info().misses
        with pytest.raises(ValueError, match=f"field 'generators': {message}") as caught:
            _parsed(generators=generators)
        errors.append(str(caught.value))
        assert _certificate_algebra.cache_info().misses == misses + 1  # parsed again
    assert errors[0] == errors[1]


def test_the_memo_is_bounded():
    assert _certificate_algebra.cache_info().maxsize is not None


@pytest.fixture(scope="module")
def dichotomy():
    return run_scenario(ScenarioConfig("g1-integrality-dichotomy", n=1, m=1, max_degree=3)).to_dict()


def test_a_relation_builds_no_algebra_for_its_variables(dichotomy):
    _certificate_algebra.cache_clear()
    assert verify_report(dichotomy).ok
    assert _certificate_algebra.cache_info().currsize == 1  # the nested certificates' one


@pytest.mark.parametrize("generators", [5, [["a", "x1"], ["a", "y1"]]])
def test_a_relation_reads_no_generators_field(dichotomy, generators):
    report = json.loads(json.dumps(dichotomy))
    report["details"]["algebraic"]["generators"] = generators
    assert verify_report(report).ok


@pytest.mark.parametrize("variables, message", [
    (None, "field 'variables' is missing"),
    ("x1", "field 'variables' must be a list of strings"),
    (["x1", 1], "field 'variables' must be a list of strings"),
    (["x1", "x1", "y1", "z"], "field 'variables': variable names must be distinct"),
    (["x1", "y-1", "z"], "field 'variables': invalid variable name 'y-1'"),
])
def test_a_relation_names_its_bad_variables(dichotomy, variables, message):
    report = json.loads(json.dumps(dichotomy))
    relation = report["details"]["algebraic"]
    if variables is None:
        del relation["variables"]
    else:
        relation["variables"] = variables
    assert verify_report(report).failures == [f"certificate 0 (relation): {message}"]


def _last_membership(obj):
    """The last membership certificate in document order, nested ones included."""
    found = None
    if isinstance(obj, dict):
        if obj.get("cert_type") == "membership":
            found = obj
        values = obj.values()
    else:
        values = obj if isinstance(obj, list) else ()
    for value in values:
        found = _last_membership(value) or found
    return found


def _reports(name):
    """The genuine report of `name` at (2,2,3), and a copy whose last
    membership certificate's expression is shifted by the constant 1."""
    genuine = run_scenario(ScenarioConfig(name, n=2, m=2, max_degree=3)).to_dict()
    tampered = json.loads(json.dumps(genuine))
    cert = _last_membership(tampered["details"])
    cert["expression"] += " + 1"
    return genuine, tampered


CERTIFYING = ("g1-integrality-dichotomy", "theorem1-cusp", "action-stability",
              "localization-smoothness")


@pytest.mark.parametrize("name", CERTIFYING)
def test_verify_report_is_the_same_from_a_cold_and_a_warm_memo(name):
    for report, good in zip(_reports(name), (True, False)):
        _certificate_algebra.cache_clear()
        cold = verify_report(report)
        warm = verify_report(report)
        assert _certificate_algebra.cache_info().hits > 0
        assert (cold.total, cold.failures, cold.verdict) == (
            warm.total, warm.failures, warm.verdict)
        assert cold.total == len(_collect_certificates(report["details"])) > 0
        assert (not cold.failures) == good


def test_a_shared_algebra_still_fails_the_one_tampered_certificate():
    genuine, tampered = _reports("action-stability")
    certificates = _collect_certificates(tampered["details"])
    assert len(certificates) == 36 and _last_membership(tampered["details"]) is certificates[-1]
    assert verify_report(genuine).failures == []
    assert verify_report(tampered).failures == ["certificate 35 (membership): re-evaluation failed"]


def test_concurrent_verify_reports_agree_with_a_serial_run():
    reports = _reports("action-stability")
    serial = [verify_report(report) for report in reports]
    assert serial[0].failures == []
    assert serial[1].failures == ["certificate 35 (membership): re-evaluation failed"]
    key = membership_key(_last_membership(reports[0]["details"]))[:2]
    table = _certificate_algebra(*key)._images

    def worker(start, k):
        start.wait()
        return [verify_report(reports[(k + j) % 2]) for j in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the memo fills
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(2):
                _certificate_algebra.cache_clear()
                start = threading.Barrier(8, timeout=60)
                runs = list(pool.map(worker, [start] * 8, range(8), timeout=120))
                assert len(runs) == 8
                for k, results in enumerate(runs):
                    for j, result in enumerate(results):
                        assert result == serial[(k + j) % 2]
                # A fresh algebra, so its image table was built cold by the threads.
                assert _certificate_algebra(*key)._images == table is not None
    finally:
        sys.setswitchinterval(interval)
