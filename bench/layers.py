"""Which ikernel functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. Each metric says which end-to-end metric
it should move; see README.md in this directory. Per-term accessors such as
`Polynomial.coeff` are deliberately not wrapped: they run millions of times
and the tracer would cost more than the work.
"""

from __future__ import annotations

from tracer import SETUP_OP, Target, Tracer, has_descendant, self_times

LAYERS = (
    "poly",
    "exactlin",
    "derivation",
    "actions",
    "algebra",
    "integrality",
    "harness",
    "cli",
)

HARNESS_SCENARIOS = (
    "lemma-infini",
    "lemma-infini2",
    "g1-invariants",
    "g1-integrality-dichotomy",
    "g2-invariants-A",
    "g2-invariants-B",
    "theorem1-cusp",
    "action-stability",
    "localization-smoothness",
)


def _echelon_shape(args, kwargs):
    echelon = args[0]
    rows = getattr(echelon, "rows", None)
    width = getattr(echelon, "width", None)
    if rows is None or width is None:
        return None
    bits = max((abs(x).bit_length() for row in rows for x in row), default=0)
    return {"frame_width": width, "coeff_bits": bits}


def _scenario_label(args, kwargs):
    cfg = args[0] if args else kwargs.get("cfg")
    return getattr(cfg, "scenario", "unknown")


def _command_label(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


TARGETS = [
    Target("exactlin.insert", "exactlin", "Echelon.insert",
           count_true="exactlin.insert.rank_raising"),
    Target("exactlin.emit", "exactlin", "Echelon.emit", probe=_echelon_shape),
    Target("exactlin.nullspace", "exactlin", "RationalMatrix.nullspace"),
    Target("exactlin.solve", "exactlin", "solve_columns"),
    Target("exactlin.solve", "exactlin", "solve_in_span"),
    Target("exactlin.span", "exactlin", "SpanBasis.from_polynomials"),
    Target("exactlin.span", "exactlin", "SpanBasis.intersect"),
    Target("exactlin.span", "exactlin", "SpanBasis.coordinates_of"),
    Target("algebra.piece", "algebra", "GradedBasis.piece"),
    Target("algebra.tracked_piece", "algebra", "GradedBasis.tracked_piece"),
    Target("algebra.membership", "algebra", "membership"),
    Target("algebra.decomposable_span", "algebra", "decomposable_span"),
    Target("algebra.intersect_with_subring", "algebra", "intersect_with_subring"),
    Target("algebra.certificate_check", "algebra", "verify_membership_json"),
    Target("algebra.certificate_check", "algebra", "MembershipCertificate.verify"),
    Target("poly.mul", "poly", "Polynomial.__mul__"),
    Target("poly.add_sub", "poly", "Polynomial.__add__"),
    Target("poly.add_sub", "poly", "Polynomial.__sub__"),
    Target("poly.add_sub", "poly", "Polynomial.__rsub__"),
    Target("poly.substitute", "poly", "Polynomial.substitute"),
    Target("poly.parse", "poly", "parse_polynomial"),
    Target("derivation.kernel_graded_basis", "derivation", "kernel_graded_basis"),
    Target("actions.invariant_subspace", "actions", "invariant_subspace"),
    Target("actions.substitution_stabilizes", "actions", "substitution_stabilizes"),
    Target("actions.derive_composition_rule", "actions", "derive_composition_rule"),
    Target("integrality.search", "integrality", "integral_relation_search"),
    Target("integrality.search", "integrality", "algebraic_relation_search"),
    Target("integrality.verify", "integrality", "verify_relation_json"),
    Target("integrality.verify", "integrality", "verify_localization_json"),
    Target("integrality.verify", "integrality", "RelationCertificate.verify"),
    Target("integrality.verify", "integrality", "LocalizationCertificate.verify"),
    Target("harness.run_scenario", "harness", "run_scenario", label=_scenario_label),
    Target("harness.verify_report", "harness", "verify_report"),
    Target("cli", "cli", "main", label=_command_label),
]

SELF_TIME_SPANS = (
    "exactlin.insert",
    "exactlin.emit",
    "exactlin.nullspace",
    "exactlin.solve",
    "exactlin.span",
    "algebra.piece",
    "algebra.tracked_piece",
    "algebra.membership",
    "algebra.decomposable_span",
    "algebra.intersect_with_subring",
    "algebra.certificate_check",
    "poly.mul",
    "poly.add_sub",
    "poly.substitute",
    "poly.parse",
    "derivation.kernel_graded_basis",
    "actions.invariant_subspace",
    "actions.substitution_stabilizes",
    "actions.derive_composition_rule",
    "integrality.search",
    "integrality.verify",
    "harness.verify_report",
    "trace.probe",
)
CALL_SPANS = ("exactlin.insert", "algebra.membership", "poly.mul", "poly.add_sub",
              "poly.substitute", "poly.parse")


def _unit(name: str) -> str:
    if name.endswith((".self_s", ".s")):
        return "s"
    if name.endswith((".calls", ".builds", ".rank_raising", ".spans")):
        return "count"
    if ".frame_width." in name:
        return "columns"
    if name.endswith(".coeff_bits.max"):
        return "bits"
    return "ratio"


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for span in SELF_TIME_SPANS:
        if span in CALL_SPANS:
            names.append(f"{span}.calls")
        names.append(f"{span}.self_s")
    names += [
        "exactlin.insert.rank_raising",
        "exactlin.insert.useful_ratio",
        "exactlin.frame_width.max",
        "exactlin.frame_width.mean",
        "exactlin.coeff_bits.max",
        "algebra.piece.builds",
    ]
    names += [f"harness.run_scenario.{s}.s" for s in HARNESS_SCENARIOS]
    names += ["cli.verify.calls", "cli.verify.s"]
    names += [f"share.setup.{layer}" for layer in LAYERS]
    names += [f"share.timed.{layer}" for layer in LAYERS]
    names += ["trace.overhead_ratio", "trace.spans"]
    return names


def metric_units() -> dict[str, str]:
    return {name: _unit(name) for name in metric_names()}


def _family(name: str) -> str:
    """Span name without a call label: `harness.run_scenario.x` -> prefix."""
    for prefix in ("harness.run_scenario", "cli"):
        if name.startswith(prefix + "."):
            return prefix
    return name


def layer_metrics(
    tracer: Tracer, phase_wall: dict[str, float], overhead_ratio: float
) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    `phase_wall` holds the traced wall time of the `setup` and `timed`
    phases; a layer's share is its self time in that phase over that wall
    time. Metrics whose spans never occurred read 0.
    """
    own = self_times(tracer)
    values: dict[str, float] = {name: 0 for name in metric_names()}
    setup_self = {layer: 0.0 for layer in LAYERS}
    timed_self = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for index in range(len(tracer)):
        name = tracer.span_name(index)
        family = _family(name)
        calls[family] = calls.get(family, 0) + 1
        self_s[family] = self_s.get(family, 0.0) + own[index]
        layer = name.split(".", 1)[0]
        if layer in setup_self:
            phase = setup_self if tracer.op[index] == SETUP_OP else timed_self
            phase[layer] += own[index]
        if family == "harness.run_scenario":
            key = f"{name}.s"
            if key in values:
                values[key] += tracer.end[index] - tracer.start[index]
        elif name == "cli.verify":
            values["cli.verify.calls"] += 1
            values["cli.verify.s"] += tracer.end[index] - tracer.start[index]

    for span in SELF_TIME_SPANS:
        values[f"{span}.self_s"] = self_s.get(span, 0.0)
        if span in CALL_SPANS:
            values[f"{span}.calls"] = calls.get(span, 0)
    inserts = calls.get("exactlin.insert", 0)
    raising = tracer.counters.get("exactlin.insert.rank_raising", 0)
    values["exactlin.insert.rank_raising"] = raising
    values["exactlin.insert.useful_ratio"] = raising / inserts if inserts else 0.0
    widths = tracer.samples.get("frame_width", [])
    if widths:
        values["exactlin.frame_width.max"] = max(widths)
        values["exactlin.frame_width.mean"] = sum(widths) / len(widths)
    values["exactlin.coeff_bits.max"] = max(tracer.samples.get("coeff_bits", [0]))
    values["algebra.piece.builds"] = len(
        has_descendant(
            tracer, {"exactlin.insert"}, {"algebra.piece", "algebra.tracked_piece"}
        )
    )
    for layer in LAYERS:
        if phase_wall.get("setup"):
            values[f"share.setup.{layer}"] = setup_self[layer] / phase_wall["setup"]
        if phase_wall.get("timed"):
            values[f"share.timed.{layer}"] = timed_self[layer] / phase_wall["timed"]
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.spans"] = len(tracer)
    return values
