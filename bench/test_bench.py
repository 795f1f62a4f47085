"""Self-tests of the benchmark. Run with: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import layers
import oracle
import stats
from tracer import Target, Tracer, self_times

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402  (needs SRC on the path for its own imports)


def _span(tracer: Tracer, name: str, start: float, end: float, parent: int, op: int = 1) -> int:
    index = len(tracer)
    tracer.name_id.append(tracer._intern(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.op.append(op)
    return index


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    root = _span(tracer, "algebra.piece", 0.0, 10.0, -1)
    _span(tracer, "exactlin.insert", 1.0, 4.0, root)
    second = _span(tracer, "poly.mul", 5.0, 9.0, root)
    _span(tracer, "poly.add_sub", 6.0, 8.0, second)
    assert self_times(tracer) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_layer_metrics_from_nested_spans():
    tracer = Tracer()
    outer = _span(tracer, "algebra.tracked_piece", 0.0, 8.0, -1)
    inner = _span(tracer, "algebra.tracked_piece", 1.0, 5.0, outer)
    _span(tracer, "exactlin.insert", 2.0, 4.0, inner)
    _span(tracer, "algebra.piece", 6.0, 7.0, outer)  # a cache hit: no inserts
    tracer.counters["exactlin.insert.rank_raising"] = 1
    values = layers.layer_metrics(tracer, {"setup": 0.0, "timed": 10.0}, 1.5)
    assert values["algebra.piece.builds"] == 2
    assert values["algebra.tracked_piece.self_s"] == pytest.approx(3.0 + 2.0)
    assert values["algebra.piece.self_s"] == pytest.approx(1.0)
    assert values["exactlin.insert.calls"] == 1
    assert values["exactlin.insert.useful_ratio"] == 1.0
    assert values["share.timed.algebra"] == pytest.approx(0.6)
    assert values["share.timed.exactlin"] == pytest.approx(0.2)
    assert values["trace.overhead_ratio"] == 1.5
    assert set(values) == set(layers.metric_names())


def test_harrell_davis_percentile():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == pytest.approx(3)
    assert stats.percentile([7.0], 90) == 7.0
    # Nine values make the Beta parameters integers, where the distribution
    # function is a binomial tail: check the weights against it.
    values = [float(v * v) for v in range(1, 10)]
    for q, a in ((50, 5), (90, 9)):

        def tail(t):
            return sum(comb(9, j) * t**j * (1 - t) ** (9 - j) for j in range(a, 10))

        expected = sum((tail(i / 9) - tail((i - 1) / 9)) * v for i, v in enumerate(values, 1))
        assert stats.percentile(values, q) == pytest.approx(expected)
    assert min(values) < stats.percentile(values, 50) < stats.percentile(values, 90) < max(values)


def test_sample_count_rule():
    assert stats.reportable(99) == [50]
    assert stats.reportable(100) == [50, 90]
    assert stats.reportable(999) == [50, 90]
    assert stats.reportable(1000) == [50, 90, 99]


@pytest.mark.parametrize("seed", range(5))
def test_non_members_keep_an_x_exponent_of_one(seed):
    queries = oracle.membership_queries(seed, 60, 2, 2, range(3, 9))
    assert sum(q.member for q in queries) == 30
    for query in queries:
        image = oracle.project_yz_to_zero(query.poly, 2)
        assert oracle.has_x_exponent_one(image, 2) != query.member


def test_query_text_round_trips_through_both_parsers():
    ik, _ = run.load_ikernel()
    names = oracle.variable_names(2, 2)
    varsys = ik.VarSystem(names)
    for query in oracle.membership_queries(3, 20, 2, 2, range(3, 9)):
        assert oracle.parse_poly(query.text, names) == query.poly
        parsed = varsys.parse(query.text)
        assert oracle.parse_poly(str(parsed), names) == query.poly


def test_generators_match_the_engine_instance():
    ik, _ = run.load_ikernel()
    inst = ik.build_instance(2, 2)
    names = oracle.variable_names(2, 2)
    ours = sorted(sorted(g.items()) for g in oracle.generators(2, 2))
    theirs = sorted(
        sorted(oracle.parse_poly(str(poly), names).items()) for _, poly in inst.algebra.generators
    )
    assert ours == theirs


def test_install_patches_imported_names_and_reports_absent_targets():
    ik, _ = run.load_ikernel()
    original = ik.derivation.kernel_graded_basis
    tracer = Tracer()
    targets = [
        Target("derivation.kernel_graded_basis", "derivation", "kernel_graded_basis"),
        Target("gone", "exactlin", "NoSuchClass.method"),
        Target("gone", "exactlin", "no_such_function"),
    ]
    tracer.install(ik, targets)
    try:
        assert ik.harness.kernel_graded_basis is not original
        assert ik.kernel_graded_basis is ik.harness.kernel_graded_basis
        inst = ik.build_instance(1, 1)
        ik.harness.kernel_graded_basis([inst.translation_derivation], inst.varsys, 2)
    finally:
        tracer.uninstall()
    assert ik.harness.kernel_graded_basis is original
    assert [tracer.span_name(i) for i in range(len(tracer))] == [
        "derivation.kernel_graded_basis"
    ]
    assert len(tracer.absent) == 2


def test_traced_run_gives_the_same_verdicts_and_digests():
    ik, _ = run.load_ikernel()
    queries = oracle.membership_queries(5, 12, 2, 2, range(3, 6))

    def outcomes():
        inst = ik.build_instance(2, 2)
        digests = []
        for entry in ik.list_scenarios():
            report = ik.run_scenario(ik.ScenarioConfig(entry["name"], n=1, m=1, max_degree=3))
            digests.append((report.verdict, oracle.report_digest(report.to_json(False))))
        answers = [
            ik.membership(inst.algebra, inst.varsys.parse(q.text)) is not None for q in queries
        ]
        return digests, answers

    plain = outcomes()
    tracer = Tracer()
    tracer.install(ik, layers.TARGETS)
    try:
        traced = outcomes()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain[1] == [q.member for q in queries]
    assert len(tracer) > 0 and not tracer.absent


def test_tampered_certificate_changes_the_expression():
    certs = [{"cert_type": "membership", "expression": e} for e in ("t1", "z")]
    data = {"details": {"certs": certs}}
    tampered = run.workloads._tamper(data)
    assert [c["expression"] for c in tampered["details"]["certs"]] == ["t1", "z + 1"]
    assert certs[1]["expression"] == "z"


def test_coefficients_are_exact():
    assert oracle.parse_poly("-3/2*x1^2*y1 + x2 - 5", ("x1", "x2", "y1")) == {
        (2, 0, 1): Fraction(-3, 2),
        (0, 1, 0): Fraction(1),
        (0, 0, 0): Fraction(-5),
    }


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
