"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every numeric expectation is either forced combinatorially or computed by
an independent oracle inside this module; runtime budgets are asserted
where stated.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from fractions import Fraction
from math import comb

import pytest

from ikernel.actions import build_cusp_instance, build_instance
from ikernel.algebra import (
    graded_piece,
    indecomposable_generators,
    intersect_with_subring,
    membership,
    y_positive_monomial_algebra,
)
from ikernel.cli import main as cli_main
from ikernel.derivation import kernel_graded_basis
from ikernel.exactlin import SpanBasis
from ikernel.harness import ScenarioConfig, run_scenario
from ikernel.integrality import (
    algebraic_relation_search,
    integral_relation_search,
    non_integrality_by_specialization,
)
from ikernel.poly import Polynomial, monomials_of_degree

_SUITE_START = time.perf_counter()


def _report(number: int, ok: bool, label: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {label} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_subring_intersection_is_monomial_algebra():
    start = time.perf_counter()
    ok = True
    for n, m in [(1, 1), (1, 2), (2, 1)]:
        inst = build_instance(n, m)
        mono = y_positive_monomial_algebra(inst.varsys, inst.x_names, inst.y_names, 8)
        xy = inst.x_names + inst.y_names
        dims = []
        for d in range(9):
            left = intersect_with_subring(inst.algebra, xy, d)
            right = graded_piece(mono, d)
            ok = ok and left.spans_same(right)
            dims.append(left.dim)
        if (n, m) == (1, 1):
            ok = ok and dims == [1, 1, 2, 3, 4, 5, 6, 7, 8]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, ok, "subring intersection equals the monomial algebra, degrees 0..8", elapsed)


def _monomial_in_algebra(exps, y_positions) -> bool:
    # Independent closed form: positive total y-degree (or a constant).
    if all(e == 0 for e in exps):
        return True
    return sum(exps[i] for i in y_positions) >= 1


def _indecomposable_by_factorization(exps, y_positions) -> bool:
    """Exhaustive oracle: try every monomial divisor split into two
    positive-degree members of the algebra."""
    ranges = [range(e + 1) for e in exps]

    def walk(pos, current):
        if pos == len(exps):
            left = tuple(current)
            right = tuple(e - c for e, c in zip(exps, left))
            if sum(left) == 0 or sum(right) == 0:
                return False
            return _monomial_in_algebra(left, y_positions) and _monomial_in_algebra(
                right, y_positions
            )
        return any(walk(pos + 1, current + [c]) for c in ranges[pos])

    return not walk(0, [])


def test_criterion_2_fresh_generator_every_degree():
    start = time.perf_counter()
    inst = build_instance(1, 1)
    mono = y_positive_monomial_algebra(inst.varsys, inst.x_names, inst.y_names, 8)
    vs = inst.varsys
    y_positions = (vs.index("y1"),)
    ok = True
    for d in range(1, 9):
        indec = indecomposable_generators(mono, d)
        ok = ok and indec.dim == 1
        witness_exps = tuple(
            d - 1 if name == "x1" else (1 if name == "y1" else 0) for name in vs.names
        )
        witness = Polynomial(vs, {vs.monomial({"x1": d - 1, "y1": 1}): Fraction(1)})
        ok = ok and indec.contains(witness)
        ok = ok and _indecomposable_by_factorization(witness_exps, y_positions)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(2, ok, "one indecomposable generator per degree 1..8 with oracle witness", elapsed)


def test_criterion_3_translation_branch_quasifinite_not_finite():
    start = time.perf_counter()
    inst = build_instance(1, 1)
    vs = inst.varsys
    mono = y_positive_monomial_algebra(vs, inst.x_names, inst.y_names, 8)
    ok = True
    for d in range(7):
        kernel = kernel_graded_basis([inst.translation_derivation], vs, d)
        zfree = monomials_of_degree(vs, d, ("x1", "y1"))
        expected = SpanBasis.from_polynomials(vs, [Polynomial(vs, {mm: Fraction(1)}) for mm in zfree])
        ok = ok and kernel.dim == d + 1 and kernel.spans_same(expected)
    x1 = vs.variable("x1")
    algebraic = algebraic_relation_search(x1, mono, 5, 8)
    ok = ok and algebraic is not None and algebraic.degree == 1 and algebraic.verify()
    ok = ok and integral_relation_search(x1, mono, 5) is None
    ok = ok and non_integrality_by_specialization(x1, mono, inst.y_names)
    elapsed = time.perf_counter() - start
    _report(3, ok, "translation invariants: algebraic yes, integral no (conclusive)", elapsed)


def test_criterion_4_scaling_branch_invariants():
    start = time.perf_counter()
    ok = True
    for n, m in [(1, 1), (2, 1)]:
        inst = build_instance(n, m)
        family = [inst.translation_derivation, inst.scaling_derivation]
        for d in range(1, 7):
            ok = ok and kernel_graded_basis(family, inst.algebra, d).dim == 0
        for d in range(7):
            kernel = kernel_graded_basis(family, inst.varsys, d)
            ok = ok and kernel.dim == comb(d + n - 1, n - 1)
        degree_one = kernel_graded_basis(family, inst.varsys, 1)
        for name in inst.x_names:
            ok = ok and degree_one.contains(inst.varsys.variable(name))
        report = run_scenario(
            ScenarioConfig(scenario="g2-invariants-B", n=n, m=m, max_degree=6)
        )
        ok = ok and report.verdict == "pass"
        ok = ok and report.details["transcendence_witnesses"] == list(inst.x_names)
    elapsed = time.perf_counter() - start
    _report(4, ok, "joint invariants: trivial in the subalgebra, x-monomials in the ring", elapsed)


def test_criterion_5_quadratic_integral_relation():
    start = time.perf_counter()
    ok = True
    for n, m in [(1, 1), (2, 2)]:
        inst = build_instance(n, m)
        vs = inst.varsys
        relation = integral_relation_search(vs.variable("x1"), inst.algebra, 3)
        ok = ok and relation is not None and relation.monic and relation.degree == 2
        coeffs = {c.power: c.polynomial for c in relation.coefficients}
        ok = ok and coeffs.get(1) == vs.variable("z")
        ok = ok and coeffs.get(0) == -vs.parse("x1^2 + x1*z")
        ok = ok and relation.verify()
    elapsed = time.perf_counter() - start
    _report(5, ok, "x1^2 + z*x1 - t1 = 0 found at minimal degree 2", elapsed)


def test_criterion_6_cusp_invariants_integral():
    start = time.perf_counter()
    cusp = build_cusp_instance()
    ok = True
    for d in range(7):
        kernel = kernel_graded_basis([cusp.derivation], cusp.varsys, d)
        sub_kernel = kernel_graded_basis([cusp.derivation], cusp.algebra, d)
        ok = ok and sub_kernel.spans_same(graded_piece(cusp.kernel_subalgebra, d))
        for element in kernel.polynomials():
            if element.degree() == 0:
                continue
            relation = integral_relation_search(element, cusp.kernel_subalgebra, 2)
            ok = ok and relation is not None and relation.degree <= 2 and relation.verify()
    elapsed = time.perf_counter() - start
    _report(6, ok, "cusp kernel elements integral of degree <= 2, degrees 0..6", elapsed)


def test_criterion_7_action_stability_and_laws():
    start = time.perf_counter()
    ok = True
    for n, m in [(1, 1), (2, 1)]:
        report = run_scenario(
            ScenarioConfig(scenario="action-stability", n=n, m=m, max_degree=6)
        )
        ok = ok and report.verdict == "pass"
        details = report.details
        ok = ok and details["translation_stable"] and details["scaling_shear_stable"]
        ok = ok and details["translation_group_law"] and details["scaling_shear_group_law"]
        ok = ok and all(
            entry["translation_equal"] and entry["scaling_shear_equal"]
            for entry in details["invariance_kernel_consistency"]
        )
    elapsed = time.perf_counter() - start
    _report(7, ok, "actions stabilize the subalgebra; laws and kernels agree to degree 6", elapsed)


def _oracle_piece_dim(algebra, degree) -> int:
    gens = [poly for _, poly in algebra.generators]
    products = []

    def extend(start, remaining, acc):
        if remaining == 0:
            products.append(acc)
            return
        for k in range(start, len(gens)):
            d = gens[k].degree()
            if d <= remaining:
                extend(k, remaining - d, acc * gens[k])

    if degree == 0:
        products.append(algebra.varsys.one())
    else:
        extend(0, degree, algebra.varsys.one())
    return SpanBasis.from_polynomials(algebra.varsys, products).dim


def test_criterion_8_engine_self_consistency(tmp_path):
    start = time.perf_counter()
    inst11 = build_instance(1, 1)
    inst21 = build_instance(2, 1)
    cusp = build_cusp_instance()
    mono11 = y_positive_monomial_algebra(inst11.varsys, inst11.x_names, inst11.y_names, 5)
    mono21 = y_positive_monomial_algebra(inst21.varsys, inst21.x_names, inst21.y_names, 5)
    ok = True
    for algebra in (inst11.algebra, inst21.algebra, mono11, mono21, cusp.algebra,
                    cusp.kernel_subalgebra):
        for d in range(6):
            ok = ok and graded_piece(algebra, d).dim == _oracle_piece_dim(algebra, d)

    # Every certificate-emitting scenario re-verifies through the CLI.
    emitting = [
        ("g1-integrality-dichotomy", 1, 1),
        ("theorem1-cusp", 1, 1),
        ("action-stability", 1, 1),
        ("localization-smoothness", 2, 1),
    ]
    for name, n, m in emitting:
        path = tmp_path / f"{name}.json"
        code = cli_main(
            [
                "run", "--scenario", name, "--n", str(n), "--m", str(m),
                "--max-degree", "6", "--output", "json", "--out", str(path),
            ]
        )
        ok = ok and code == 0
        ok = ok and cli_main(["verify", str(path)]) == 0
        ok = ok and json.loads(path.read_text())["schema"] == 1

    # Byte-determinism of reports, wall time aside.
    for name in ("lemma-infini", "g2-invariants-B"):
        first = run_scenario(ScenarioConfig(scenario=name, n=1, m=1, max_degree=5))
        second = run_scenario(ScenarioConfig(scenario=name, n=1, m=1, max_degree=5))
        ok = ok and first.to_json(include_wall_time=False) == second.to_json(
            include_wall_time=False
        )

    # Plus a membership spot check straight through the public engine.
    cert = membership(inst21.algebra, inst21.varsys.parse("x1^2*x2*y1 + z^2"))
    ok = ok and cert is not None and cert.verify()

    elapsed = time.perf_counter() - start
    suite_elapsed = time.perf_counter() - _SUITE_START
    ok = ok and suite_elapsed < 60.0
    _report(
        8,
        ok,
        f"oracle agreement, verified certificates, deterministic reports "
        f"(suite {suite_elapsed:.1f}s)",
        elapsed,
    )
