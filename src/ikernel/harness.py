"""Named verification scenarios with deterministic, re-checkable reports.

Each scenario binds the exact engines to one mathematical claim about the
standard instances and emits a structured pass/fail report.  Reports are
byte-identical across runs (wall time aside), and every embedded
certificate can be re-verified from the report alone using nothing but
polynomial arithmetic (`verify_report` / the CLI `verify` subcommand).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .actions import (
    Instance,
    build_cusp_instance,
    build_instance,
    check_group_law,
    derive_composition_rule,
    invariant_subspace,
    substitution_stabilizes,
)
from .algebra import (
    MembershipCertificate,
    SubalgebraSpec,
    decomposable_span,
    graded_piece,
    indecomposable_generators,
    intersect_with_subring,
    membership_key,
    monomial_membership,
    verify_membership_json,
    y_positive_monomial_algebra,
)
from .derivation import kernel_graded_basis
from .exactlin import SpanBasis
from .integrality import (
    algebraic_relation_search,
    integral_relation_search,
    localization_contains,
    non_integrality_by_specialization,
    transcendental_over_constants,
    verify_localization_json,
    verify_relation_json,
)
from .poly import Polynomial

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
NONE_UP_TO_BOUND = "none-up-to-bound"

DEFAULT_MAX_DEGREE = 8
DEFAULT_BOUNDS = {"relation_degree": 5, "coeff_degree": 8, "max_power": 4}


@dataclass
class ScenarioConfig:
    """One scenario invocation: name, instance size, and search bounds."""

    scenario: str
    n: int = 1
    m: int = 1
    max_degree: int = DEFAULT_MAX_DEGREE
    bounds: dict[str, int] = field(default_factory=dict)

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(f"unknown scenario {self.scenario!r} (known: {known})")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.max_degree < 1:
            raise ValueError("max degree must be positive")
        for key, value in self.bounds.items():
            if key not in DEFAULT_BOUNDS:
                raise ValueError(f"unknown bound {key!r}")
            if value < 1:
                raise ValueError(f"bound {key!r} must be positive")

    def bound(self, key: str) -> int:
        return self.bounds.get(key, DEFAULT_BOUNDS[key])


@dataclass
class ScenarioReport:
    """Result of one scenario run; reproducible except for the wall time."""

    scenario: str
    parameters: dict
    verdict: str
    details: dict
    wall_time_s: float

    def to_dict(self, include_wall_time: bool = True) -> dict:
        data = {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "details": self.details,
        }
        if include_wall_time:
            data["wall_time_s"] = self.wall_time_s
        return data

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"parameters: {json.dumps(self.parameters, sort_keys=True)}",
            f"verdict: {self.verdict}",
        ]
        for key, value in sorted(self.details.items()):
            if isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append(f"{key}:")
                for entry in value:
                    lines.append("  " + json.dumps(entry, sort_keys=True))
            else:
                lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        lines.append(f"wall_time_s: {self.wall_time_s:.3f}")
        return "\n".join(lines)


def _basis_strings(basis: SpanBasis) -> list[str]:
    return [str(p) for p in basis.polynomials()]


def _monomial_algebra(inst: Instance, max_degree: int) -> SubalgebraSpec:
    return y_positive_monomial_algebra(
        inst.varsys, inst.x_names, inst.y_names, max_degree
    )


def _scenario_lemma_infini(cfg: ScenarioConfig) -> tuple[str, dict]:
    inst = build_instance(cfg.n, cfg.m)
    mono = _monomial_algebra(inst, cfg.max_degree)
    xy = inst.x_names + inst.y_names
    per_degree = []
    all_equal = True
    for d in range(cfg.max_degree + 1):
        left = intersect_with_subring(inst.algebra, xy, d)
        right = graded_piece(mono, d)
        equal = left.spans_same(right)
        all_equal = all_equal and equal
        per_degree.append({"degree": d, "dim": left.dim, "monomial_algebra_dim": right.dim,
                           "equal": equal, "basis": _basis_strings(right)})
    details = {
        "dims": [entry["dim"] for entry in per_degree],
        "per_degree": per_degree,
    }
    return (PASS if all_equal else FAIL), details


def _scenario_lemma_infini2(cfg: ScenarioConfig) -> tuple[str, dict]:
    inst = build_instance(cfg.n, cfg.m)
    mono = _monomial_algebra(inst, cfg.max_degree)
    x1 = inst.x_names[0]
    y1 = inst.y_names[0]
    per_degree = []
    ok = True
    for d in range(1, cfg.max_degree + 1):
        indec = indecomposable_generators(mono, d)
        expected = cfg.m * comb(d + cfg.n - 2, cfg.n - 1)
        witness_mono = inst.varsys.monomial({x1: d - 1, y1: 1})
        witness = Polynomial(inst.varsys, {witness_mono: Fraction(1)})
        in_algebra = graded_piece(mono, d).contains(witness) and monomial_membership(
            inst.varsys, inst.x_names, inst.y_names, witness_mono
        )
        fresh = not decomposable_span(mono, d).contains(witness)
        good = indec.dim == expected and in_algebra and fresh
        ok = ok and good
        per_degree.append({"degree": d, "dim": indec.dim, "expected_dim": expected,
                           "witness": str(witness), "witness_in_algebra": in_algebra,
                           "witness_indecomposable": fresh,
                           "generator_classes": _basis_strings(indec)})
    details = {
        "dims": [entry["dim"] for entry in per_degree],
        "per_degree": per_degree,
        "note": "one fresh generator per degree: no finite set suffices",
    }
    return (PASS if ok else FAIL), details


def _scenario_g1_invariants(cfg: ScenarioConfig) -> tuple[str, dict]:
    inst = build_instance(cfg.n, cfg.m)
    mono = _monomial_algebra(inst, cfg.max_degree)
    xy = inst.x_names + inst.y_names
    per_degree = []
    ok = True
    for d in range(cfg.max_degree + 1):
        ring_kernel = kernel_graded_basis([inst.translation_derivation], inst.varsys, d)
        expected_ring = SpanBasis.of_degree(inst.varsys, d, xy)
        ring_equal = ring_kernel.spans_same(expected_ring)
        sub_kernel = kernel_graded_basis([inst.translation_derivation], inst.algebra, d)
        sub_equal = sub_kernel.spans_same(graded_piece(mono, d))
        ok = ok and ring_equal and sub_equal
        per_degree.append({"degree": d, "ring_dim": ring_kernel.dim,
                           "expected_ring_dim": comb(d + cfg.n + cfg.m - 1, cfg.n + cfg.m - 1),
                           "ring_equal": ring_equal, "subalgebra_dim": sub_kernel.dim,
                           "subalgebra_matches_monomial_algebra": sub_equal})
    details = {
        "ring_dims": [e["ring_dim"] for e in per_degree],
        "subalgebra_dims": [e["subalgebra_dim"] for e in per_degree],
        "per_degree": per_degree,
    }
    return (PASS if ok else FAIL), details


def _scenario_g1_integrality_dichotomy(cfg: ScenarioConfig) -> tuple[str, dict]:
    inst = build_instance(cfg.n, cfg.m)
    relation_bound = cfg.bound("relation_degree")
    coeff_bound = cfg.bound("coeff_degree")
    mono = _monomial_algebra(inst, max(relation_bound, coeff_bound))
    x1 = inst.varsys.variable(inst.x_names[0])
    y1 = inst.varsys.variable(inst.y_names[0])

    algebraic = algebraic_relation_search(x1, mono, relation_bound, coeff_bound)
    integral = integral_relation_search(x1, mono, relation_bound)
    conclusive = non_integrality_by_specialization(x1, mono, inst.y_names)
    y_integral = integral_relation_search(y1, mono, relation_bound)

    ok = (
        algebraic is not None
        and algebraic.degree == 1
        and algebraic.verify()
        and integral is None
        and conclusive
        and y_integral is not None
        and y_integral.degree == 1
        and y_integral.verify()
    )
    details = {
        "algebraic": algebraic.to_json_dict() if algebraic else None,
        "integral": {
            "found": integral is not None,
            "status": NONE_UP_TO_BOUND if integral is None else PASS,
            "relation_degree_bound": relation_bound,
        },
        "specialization_conclusive": conclusive,
        "y_generator_integral": y_integral.to_json_dict() if y_integral else None,
    }
    return (PASS if ok else FAIL), details


def _scenario_g2_invariants_A(cfg: ScenarioConfig) -> tuple[str, dict]:
    inst = build_instance(cfg.n, cfg.m)
    family = [inst.translation_derivation, inst.scaling_derivation]
    dims = []
    ok = True
    for d in range(1, cfg.max_degree + 1):
        kernel = kernel_graded_basis(family, inst.algebra, d)
        dims.append(kernel.dim)
        ok = ok and kernel.dim == 0
    details = {"dims": dims, "degrees": list(range(1, cfg.max_degree + 1))}
    return (PASS if ok else FAIL), details


def _scenario_g2_invariants_B(cfg: ScenarioConfig) -> tuple[str, dict]:
    inst = build_instance(cfg.n, cfg.m)
    family = [inst.translation_derivation, inst.scaling_derivation]
    per_degree = []
    ok = True
    kernels = [kernel_graded_basis(family, inst.varsys, d) for d in range(cfg.max_degree + 1)]
    for d, kernel in enumerate(kernels):
        expected = SpanBasis.of_degree(inst.varsys, d, inst.x_names)
        equal = kernel.spans_same(expected)
        ok = ok and equal and kernel.dim == comb(d + cfg.n - 1, cfg.n - 1)
        per_degree.append({"degree": d, "dim": kernel.dim,
                           "expected_dim": comb(d + cfg.n - 1, cfg.n - 1),
                           "equal_to_x_monomials": equal})
    trivial = SubalgebraSpec(inst.varsys, [])
    witnesses = list(inst.x_names)
    witness_checks = []
    for name in witnesses:
        xvar = inst.varsys.variable(name)
        witness_checks.append(
            kernels[1].contains(xvar) and transcendental_over_constants(xvar, trivial)
        )
    sub_dims = [
        kernel_graded_basis(family, inst.algebra, d).dim
        for d in range(1, cfg.max_degree + 1)
    ]
    subalgebra_trivial = all(dim == 0 for dim in sub_dims)
    ok = ok and all(witness_checks) and subalgebra_trivial
    details = {
        "dims": [e["dim"] for e in per_degree],
        "per_degree": per_degree,
        "transcendence_witnesses": witnesses,
        "witnesses_conclusively_transcendental": all(witness_checks),
        "subalgebra_invariant_dims": sub_dims,
        "note": "distinct coordinate survivors are algebraically independent",
    }
    return (PASS if ok else FAIL), details


def _scenario_theorem1_cusp(cfg: ScenarioConfig) -> tuple[str, dict]:
    cusp = build_cusp_instance()
    u = cusp.varsys.variable("u")
    per_degree = []
    ok = True
    for d in range(cfg.max_degree + 1):
        ring_kernel = kernel_graded_basis([cusp.derivation], cusp.varsys, d)
        expected_ring = SpanBasis.from_polynomials(cusp.varsys, [u ** d])
        ring_equal = ring_kernel.spans_same(expected_ring)
        sub_kernel = kernel_graded_basis([cusp.derivation], cusp.algebra, d)
        sub_equal = sub_kernel.spans_same(graded_piece(cusp.kernel_subalgebra, d))
        entry: dict = {
            "degree": d,
            "ring_kernel_dim": ring_kernel.dim,
            "ring_kernel_is_power_of_u": ring_equal,
            "subalgebra_kernel_matches": sub_equal,
        }
        good = ring_equal and sub_equal
        if d >= 1:
            relation = integral_relation_search(u ** d, cusp.kernel_subalgebra, 2)
            found = relation is not None and relation.verify()
            entry["integral_relation_degree"] = relation.degree if relation else None
            entry["relation"] = relation.to_json_dict() if relation else None
            good = good and found and relation.degree <= 2
        ok = ok and good
        per_degree.append(entry)
    details = {"per_degree": per_degree}
    return (PASS if ok else FAIL), details


def _scenario_action_stability(cfg: ScenarioConfig) -> tuple[str, dict]:
    inst = build_instance(cfg.n, cfg.m)
    ga = substitution_stabilizes(inst.translation, inst.algebra)
    aut = substitution_stabilizes(inst.scaling_shear, inst.algebra)

    doubled, copies = inst.translation.doubled_system()
    additive_rule = {"t": doubled.variable("t") + doubled.variable(copies[0])}
    ga_law = check_group_law(inst.translation, additive_rule)
    aut_rule = derive_composition_rule(inst.scaling_shear)
    aut_law = aut_rule is not None and check_group_law(inst.scaling_shear, aut_rule)

    consistency = []
    consistent = True
    for d in range(1, cfg.max_degree + 1):
        ga_inv = invariant_subspace(inst.translation, d)
        ga_kernel = kernel_graded_basis([inst.translation_derivation], inst.varsys, d)
        aut_inv = invariant_subspace(inst.scaling_shear, d)
        aut_kernel = kernel_graded_basis(
            [inst.translation_derivation, inst.scaling_derivation], inst.varsys, d
        )
        ga_equal = ga_inv.spans_same(ga_kernel)
        aut_equal = aut_inv.spans_same(aut_kernel)
        consistent = consistent and ga_equal and aut_equal
        consistency.append(
            {"degree": d, "translation_equal": ga_equal, "scaling_shear_equal": aut_equal}
        )

    ok = ga.stable and aut.stable and ga_law and aut_law and consistent
    def entries(result):
        return [{"generator": entry.generator, "parameters": entry.parameter_exponents,
                 "certificate": entry.certificate.to_json_dict()} for entry in result.entries]

    details = {
        "translation_stable": ga.stable,
        "translation_certificates": entries(ga),
        "translation_group_law": ga_law,
        "scaling_shear_stable": aut.stable,
        "scaling_shear_certificates": entries(aut),
        "scaling_shear_rule": (
            {p: str(poly) for p, poly in sorted(aut_rule.items())} if aut_rule else None
        ),
        "scaling_shear_group_law": aut_law,
        "invariance_kernel_consistency": consistency,
    }
    return (PASS if ok else FAIL), details


def _scenario_localization_smoothness(cfg: ScenarioConfig) -> tuple[str, dict]:
    inst = build_instance(cfg.n, cfg.m)
    max_power = cfg.bound("max_power")
    entries = []
    missing = []
    for yname in inst.y_names:
        yvar = inst.varsys.variable(yname)
        for xname in inst.x_names:
            xvar = inst.varsys.variable(xname)
            found = localization_contains(xvar, inst.algebra, yvar, max_power)
            if found is None:
                missing.append({"numerator": xname, "localizing": yname})
                continue
            entries.append(found.to_json_dict())
    details = {
        "certificates": entries,
        "missing": missing,
        "power_bound": max_power,
    }
    if missing:
        return NONE_UP_TO_BOUND, details
    return PASS, details


class Scenario(NamedTuple):
    """A catalogue entry: the runner, its claim, and the report paths that
    hold its certificates, each with the `cert_type` found there (`[*]`
    stands for every element of a list)."""

    run: Callable[[ScenarioConfig], tuple[str, dict]]
    description: str
    certificates: tuple[tuple[str, str], ...] = ()


SCENARIOS: dict[str, Scenario] = {
    "lemma-infini": Scenario(
        _scenario_lemma_infini,
        "The subalgebra's intersection with the z-free coordinate subring equals "
        "the y-positive monomial algebra, degree by degree.",
    ),
    "lemma-infini2": Scenario(
        _scenario_lemma_infini2,
        "The y-positive monomial algebra needs a fresh generator in every degree: "
        "degreewise evidence that it is not finitely generated.",
    ),
    "g1-invariants": Scenario(
        _scenario_g1_invariants,
        "Translation invariants: z-free polynomials in the full ring; the "
        "y-positive monomial algebra inside the subalgebra.",
    ),
    "g1-integrality-dichotomy": Scenario(
        _scenario_g1_integrality_dichotomy,
        "x1 is algebraic but not integral over the translation-invariant "
        "subalgebra: explicit relation plus a conclusive specialization argument.",
        (("details.algebraic", "relation"), ("details.y_generator_integral", "relation")),
    ),
    "g2-invariants-A": Scenario(
        _scenario_g2_invariants_A,
        "The subalgebra has no nonconstant joint invariants of the translation "
        "and scaling actions in the scanned degrees.",
    ),
    "g2-invariants-B": Scenario(
        _scenario_g2_invariants_B,
        "Joint invariants of the full ring are exactly the polynomials in the x "
        "variables; the surviving coordinates witness transcendence over the "
        "constants.",
    ),
    "theorem1-cusp": Scenario(
        _scenario_theorem1_cusp,
        "Cusp instance: derivation invariants of k[u,w] are integral of degree "
        "at most 2 over the invariants of k[u^2,u^3,w].",
        (("details.per_degree[*].relation", "relation"),),
    ),
    "action-stability": Scenario(
        _scenario_action_stability,
        "Both actions stabilize the subalgebra with certified parameter "
        "coefficients, satisfy their composition laws, and match their "
        "infinitesimal kernels.",
        (
            ("details.translation_certificates[*].certificate", "membership"),
            ("details.scaling_shear_certificates[*].certificate", "membership"),
        ),
    ),
    "localization-smoothness": Scenario(
        _scenario_localization_smoothness,
        "Each coordinate x_i enters the subalgebra after one multiplication by "
        "any y_j, certifying that localizing at y_j is harmless.",
        (("details.certificates[*]", "localization"),),
    ),
}


def list_scenarios() -> list[dict[str, str]]:
    """The fixed scenario catalogue, in a stable order."""
    return [{"name": name, "description": entry.description} for name, entry in SCENARIOS.items()]


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    cfg.validate()
    start = time.perf_counter()
    verdict, details = SCENARIOS[cfg.scenario].run(cfg)
    elapsed = time.perf_counter() - start
    parameters = {
        "n": cfg.n,
        "m": cfg.m,
        "max_degree": cfg.max_degree,
        "bounds": {key: cfg.bound(key) for key in sorted(DEFAULT_BOUNDS)},
    }
    return ScenarioReport(cfg.scenario, parameters, verdict, details, elapsed)


# -- certificate re-checking ---------------------------------------------------

_VERIFIERS = {
    "membership": verify_membership_json,
    "relation": verify_relation_json,
    "localization": verify_localization_json,
}


def _collect_certificates(obj) -> list[Mapping]:
    """Every mapping with a `cert_type` key, in document order; the
    membership certificates nested in one are checked as part of it.
    Iterative, so no nesting depth that `json` accepts can overflow it."""
    found, stack = [], [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, Mapping):
            if "cert_type" in item:
                found.append(item)
            else:
                stack.extend(reversed(item.values()))
        elif isinstance(item, (list, tuple)):
            stack.extend(reversed(item))
    return found


def _at_path(data, path: str) -> list[tuple[str, object]]:
    """(where, value) for each value at a declared path, `[*]` standing for
    every element of a list; a missing key or a non-list finds nothing."""
    at = [("", data)]
    for step in path.replace("[*]", ".*").split("."):
        if step == "*":
            at = [(f"{w}[{k}]", x) for w, v in at if isinstance(v, list) for k, x in enumerate(v)]
        else:
            at = [(f"{w}.{step}", v[step]) for w, v in at if isinstance(v, Mapping) and step in v]
    return [(w[1:], v) for w, v in at]


@dataclass
class VerifyResult:
    total: int
    failures: list[str]
    verdict: object = None  # the report's fields as found; `ok` is about certificates only
    scenario: object = None

    @property
    def ok(self) -> bool:
        return not self.failures


def _check(kind: str, cert: Mapping, outcomes: dict[tuple, str | None]) -> str | None:
    """Why a certificate of a known `kind` fails, or None if it verifies; a
    membership certificate is checked as `from_key` of its `membership_key`,
    once per key, each key's outcome kept in `outcomes`."""
    key = None
    try:
        if kind != "membership":
            good = _VERIFIERS[kind](cert)
        elif (key := membership_key(cert)) in outcomes:
            return outcomes[key]
        else:
            good = MembershipCertificate.from_key(key).verify()
    except Exception as exc:  # malformed certificate
        outcome = f"({kind}): {exc}"
    else:
        outcome = None if good else f"({kind}): re-evaluation failed"
    if key is not None:
        outcomes[key] = outcome
    return outcome


def verify_report(data: Mapping) -> VerifyResult:
    """Re-check every certificate embedded in a report dictionary, and that
    each path its scenario declares holds a certificate of the declared
    `cert_type` or null; under a `pass` verdict, each declared path, `[*]`
    ones included, must hold at least one.  Anything but a mapping is no
    report: it fails with no certificate checked.

    Each membership certificate is read once, by `membership_key`, and a
    ValueError from it is that certificate's failure.  Certificates with
    equal keys are checked once per call: the check is `from_key` of the
    key and reads nothing else, so every copy shares its outcome, and each
    copy still counts in `total` and fails at its own index."""
    if not isinstance(data, Mapping):
        return VerifyResult(0, ["report is not a JSON object"])
    failures: list[str] = []
    verdict, scenario = data.get("verdict"), data.get("scenario")
    if data.get("schema") != SCHEMA_VERSION or type(data["schema"]) is not int:  # JSON true == 1
        failures.append(f"unsupported schema: {data.get('schema')!r}")
        return VerifyResult(0, failures, verdict, scenario)
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        failures.append(f"unknown scenario: {scenario!r:.80}")
        return VerifyResult(0, failures, verdict, scenario)
    for path, kind in SCENARIOS[scenario].certificates:
        found = _at_path(data, path)
        for where, value in found:
            if value is not None and (not isinstance(value, Mapping) or value.get("cert_type") != kind):
                failures.append(f"{where}: not a {kind} certificate")
        if verdict == PASS and all(value is None for _, value in found):
            failures.append(f"{path}: a pass needs a {kind} certificate here")
    certificates = _collect_certificates(data.get("details", {}))
    outcomes: dict[tuple, str | None] = {}
    for k, cert in enumerate(certificates):
        kind = cert["cert_type"]
        if not isinstance(kind, str):
            failures.append(f"certificate {k}: cert_type is a {type(kind).__name__}, not a string")
            continue
        if kind not in _VERIFIERS:
            failures.append(f"certificate {k}: unknown cert_type {kind!r}")
            continue
        outcome = _check(kind, cert, outcomes)
        if outcome is not None:
            failures.append(f"certificate {k} {outcome}")
    return VerifyResult(len(certificates), failures, verdict, scenario)
