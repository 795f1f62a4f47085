"""Graded pieces, membership certificates, subring intersections, and
indecomposable generators, cross-checked against brute-force oracles."""

import copy
import dataclasses
import gc
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from oracles import monomial_label, pairwise_decomposable, product_stream_pieces

from ikernel import algebra as algebra_module
from ikernel.actions import build_instance
from ikernel.algebra import (
    GradedBasis,
    MembershipCertificate,
    NotHomogeneous,
    SubalgebraSpec,
    _product_row,
    decomposable_span,
    graded_piece,
    indecomposable_generators,
    intersect_with_subring,
    membership,
    membership_key,
    monomial_membership,
    verify_membership_json,
    y_positive_monomial_algebra,
)
from ikernel.exactlin import Echelon, SpanBasis
from ikernel.poly import (
    Polynomial,
    VarSystem,
    VarSystemMismatch,
    _accumulate,
    _Budget,
    _integer_terms,
    monomials_of_degree,
)


def brute_force_piece(algebra, degree):
    """Independent oracle: span of ALL generator products (with repetition)
    whose degrees sum to exactly `degree`, enumerated directly."""
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
    return SpanBasis.from_polynomials(algebra.varsys, products)


def test_homogeneity_enforced(inst11):
    """An algebra with a generator that is not homogeneous of positive
    degree constructs, but every graded entry point raises `NotHomogeneous`
    naming the first such generator, and a refused graded basis is not
    cached, so it raises again."""
    from ikernel.derivation import kernel_graded_basis
    from ikernel.integrality import algebraic_relation_search, integral_relation_search

    vs = inst11.varsys
    x1, y1 = vs.variable("x1"), vs.variable("y1")
    for label, text in [("bad", "x1^2 + z"), ("const", "1")]:
        algebra = SubalgebraSpec(vs, [("y1", y1), (label, vs.parse(text)), ("later", x1 + 1)])
        queries = [
            algebra.graded_basis,
            lambda: graded_piece(algebra, 2),
            lambda: membership(algebra, y1),
            lambda: decomposable_span(algebra, 2),
            lambda: indecomposable_generators(algebra, 2),
            lambda: intersect_with_subring(algebra, ["y1"], 2),
            lambda: kernel_graded_basis([inst11.translation_derivation], algebra, 2),
            lambda: integral_relation_search(x1, algebra, 2),
            lambda: algebraic_relation_search(x1, algebra, 2, 4),
        ]
        for query in queries * 2:
            with pytest.raises(NotHomogeneous, match=f"^generator {label!r} is not homogeneous"):
                query()
        assert algebra._graded is None


def test_uses_that_do_not_grade_accept_inhomogeneous_generators(inst11):
    from ikernel.integrality import non_integrality_by_specialization, transcendental_over_constants

    vs = inst11.varsys
    algebra = SubalgebraSpec(vs, [("g", vs.parse("x1 + 1")), ("c", vs.one())])
    x1 = vs.variable("x1")
    killed = SubalgebraSpec(vs, [("g", vs.parse("x1*z + z"))])
    assert non_integrality_by_specialization(x1, killed, ["z"])
    assert not non_integrality_by_specialization(x1, algebra, ["z"])
    assert not transcendental_over_constants(x1, algebra)
    target = vs.parse("x1^2 + 2*x1 + 1")
    assert MembershipCertificate(algebra, target, algebra.label_system.parse("g^2")).verify()
    assert not MembershipCertificate(algebra, target, algebra.label_system.parse("g^2 + c")).verify()
    assert algebra._graded is None


def test_graded_piece_low_degrees(inst11):
    vs = inst11.varsys
    assert [str(p) for p in graded_piece(inst11.algebra, 0).polynomials()] == ["1"]
    assert [str(p) for p in graded_piece(inst11.algebra, 1).polynomials()] == ["y1", "z"]
    piece2 = graded_piece(inst11.algebra, 2)
    assert piece2.dim == 5
    expected = SpanBasis.from_polynomials(
        vs,
        [vs.parse(s) for s in ("y1^2", "y1*z", "z^2", "x1^2 + x1*z", "x1*y1")],
    )
    assert piece2.spans_same(expected)


@pytest.mark.parametrize("degree", range(6))
def test_graded_piece_matches_brute_force(inst11, degree):
    assert graded_piece(inst11.algebra, degree).dim == brute_force_piece(
        inst11.algebra, degree
    ).dim


def test_graded_piece_matches_brute_force_larger(inst21, mono11, cusp):
    for algebra in (inst21.algebra, mono11, cusp.algebra):
        for degree in range(6):
            assert graded_piece(algebra, degree).dim == brute_force_piece(
                algebra, degree
            ).dim


def test_graded_multiplicativity(inst11):
    rng = random.Random(11)
    for d, e in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        left = graded_piece(inst11.algebra, d).polynomials()
        right = graded_piece(inst11.algebra, e).polynomials()
        f = sum((p * Fraction(rng.randint(-2, 2)) for p in left), inst11.varsys.zero())
        g = sum((p * Fraction(rng.randint(-2, 2)) for p in right), inst11.varsys.zero())
        assert membership(inst11.algebra, f * g) is not None


def test_membership_certificates(inst11):
    vs = inst11.varsys
    cert = membership(inst11.algebra, vs.parse("x1^2*y1"))
    assert cert is not None and cert.verify()
    # The identity the certificate realizes, checked by plain arithmetic.
    t1 = vs.parse("x1^2 + x1*z")
    assert t1 * vs.variable("y1") - vs.variable("z") * vs.parse("x1*y1") == vs.parse("x1^2*y1")
    assert membership(inst11.algebra, vs.variable("x1")) is None
    zcert = membership(inst11.algebra, vs.variable("z"))
    assert zcert is not None and str(zcert.expression) == "z"


def _row_certificates(algebra, degrees):
    """Per basis row of the given degrees, its certificate, and a copy whose
    target is shifted by 1, which fails."""
    for d in degrees:
        basis, exprs = algebra.graded_basis().tracked_piece(d)
        for row, expr in zip(basis.polynomials(), exprs):
            yield MembershipCertificate(algebra, row, expr)
            yield MembershipCertificate(algebra, row + 1, expr)


@pytest.mark.parametrize("monomial", [False, True])
def test_verify_reads_the_image_table_with_the_substitution_work(monomial, monkeypatch):
    """`verify` agrees with the public `substitute` and charges the same
    `_Budget.work`, with the (2,2) instance's multi-term generators and the
    y-positive algebra's one-term ones; an expression over a system other
    than the labels is refused."""
    inst = build_instance(1, 1) if monomial else build_instance(2, 2)
    algebra = (y_positive_monomial_algebra(inst.varsys, inst.x_names, inst.y_names, 6)
               if monomial else inst.algebra)
    vs, images = algebra.varsys, dict(algebra.generators)
    wider = VarSystem((*algebra.label_system.names, "w"))
    budgets = []
    check_budget = algebra_module._check_budget
    monkeypatch.setattr(algebra_module, "_check_budget",
                        lambda *args: budgets.append(check_budget(*args)) or budgets[-1])
    outcomes = set()
    for cert in _row_certificates(algebra, range(1, 7)):
        reference = _Budget(float("inf"), ValueError, "substitution", vs)
        want = cert.expression.substitute(images) == cert.target
        assert (cert.expression._substitute(images, vs, reference) == cert.target) == want
        assert cert.verify() == want and budgets[-1].work == reference.work
        wide = MembershipCertificate(algebra, cert.target, cert.expression.embed(wider))
        with pytest.raises(VarSystemMismatch, match="not over the generator labels"):
            wide.verify()
        outcomes.add(want)
    assert outcomes == {True, False} and algebra._images is not None


@pytest.mark.parametrize("name", ["inst11", "inst21"])
def test_monomial_membership_matches_the_engine_on_every_monomial(name, request):
    """The closed form agrees with `membership` on every monomial of degree
    at most 4, those involving z included."""
    inst = request.getfixturevalue(name)
    vs, xs, ys = inst.varsys, inst.x_names, inst.y_names
    algebra = y_positive_monomial_algebra(vs, xs, ys, 4)
    members = 0
    for d in range(5):
        for mono in monomials_of_degree(vs, d):
            member = membership(algebra, Polynomial(vs, {mono: Fraction(1)})) is not None
            assert monomial_membership(vs, xs, ys, mono) == member, mono
            members += member
    assert 0 < members < sum(len(monomials_of_degree(vs, d)) for d in range(5))


@pytest.mark.parametrize("field", ["algebra", "target", "expression"])
def test_membership_certificates_are_frozen(inst11, field):
    cert = membership(inst11.algebra, inst11.varsys.parse("x1^2*y1"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cert, field, getattr(cert, field))


def test_membership_splits_components(inst11):
    vs = inst11.varsys
    mixed = vs.parse("3 + y1 + x1^2*y1")
    cert = membership(inst11.algebra, mixed)
    assert cert is not None and cert.verify()
    assert membership(inst11.algebra, vs.parse("y1 + x1")) is None


@pytest.mark.parametrize("target, expression", [
    ("3", "3"), ("2 + y1", "y1 + 2"), ("x1^2*y1 - 3", "y1*t1 - z*x1y1 - 3"),
])
def test_constant_components_go_through_the_degree_zero_piece(inst11, target, expression):
    """A degree-0 component is read off `tracked_piece(0)`, the basis {1}
    with the expression 1: the constant lands in the expression as is."""
    cert = membership(inst11.algebra, inst11.varsys.parse(target))
    assert cert is not None and str(cert.expression) == expression and cert.verify()


def test_membership_json_round_trip(inst11):
    vs = inst11.varsys
    cert = membership(inst11.algebra, vs.parse("x1^2*y1 + z^3"))
    data = cert.to_json_dict()
    assert verify_membership_json(data)
    tampered = dict(data)
    tampered["target"] = "x1^3"
    assert not verify_membership_json(tampered)


def test_certificates_share_generator_texts_but_not_their_lists():
    """Every certificate over an algebra carries `str` of each generator,
    printed once; editing one certificate's JSON leaves the next intact."""
    algebra = _fractional_algebra()
    texts = [[label, str(poly)] for label, poly in algebra.generators]
    vs = algebra.varsys
    first = membership(algebra, vs.parse("3*z")).to_json_dict()
    assert first["generators"] == texts
    first["generators"][0][1] = "x"
    first["generators"].append(["t", "y"])
    second = membership(algebra, vs.parse("9*z^2")).to_json_dict()
    assert second["generators"] == texts == algebra.generator_texts()
    assert verify_membership_json(second)


class _Label(str):
    pass


class _Pair(list):
    pass


@pytest.mark.parametrize("generators", [
    "a", ("a", "x"), {"a": "x"}, None,  # not a list
    [("a", "x")], [{"a": "x"}], ["ax"],  # entries that are not lists
    [["a"]], [["a", "x", "y"]], [["a", "x"], []],  # pairs of the wrong length
    [["a", 1]], [[None, "x"]], [["a", "x"], ["b", ["x"]]],  # parts that are not strings
])
def test_certificate_key_rejects_malformed_generators(generators):
    data = {"cert_type": "membership", "variables": ["x"], "generators": generators,
            "target": "x", "expression": "a"}
    with pytest.raises(ValueError) as caught:
        membership_key(data)
    assert str(caught.value) == "field 'generators' must be a list of [label, text] string pairs"


def test_certificate_key_accepts_pairs_and_subclasses():
    data = {"cert_type": "membership", "variables": ["x"], "target": "x^2", "expression": "b",
            "generators": [["a", "x"], _Pair([_Label("b"), "x^2"])]}
    assert membership_key(data) == (("x",), (("a", "x"), ("b", "x^2")), "x^2", "b")
    data.update(variables=[_Label("x")], generators=[], target=_Label("3"), expression="3")
    assert membership_key(data) == (("x",), (), "3", "3")


@pytest.mark.parametrize("target, expression, outcome", [
    ("3", "3", True), ("3", "2", False), ("x", "3", False),
    ("x", "g", "field 'expression': unknown variable 'g'"),
])
def test_zero_generators_certify_only_constants(target, expression, outcome):
    """Constants lie in every subalgebra, so a certificate over no
    generators is well formed: its labels' system is empty, and only a
    constant expression parses."""
    data = {"cert_type": "membership", "variables": ["x"], "generators": [],
            "target": target, "expression": expression}
    if isinstance(outcome, bool):
        assert verify_membership_json(data) is outcome
        return
    with pytest.raises(ValueError) as caught:
        verify_membership_json(data)
    assert str(caught.value) == outcome


def test_intersect_with_subring_examples(inst11):
    vs = inst11.varsys
    meet = intersect_with_subring(inst11.algebra, ("x1", "y1"), 2)
    expected = SpanBasis.from_polynomials(vs, [vs.parse("x1*y1"), vs.parse("y1^2")])
    assert meet.spans_same(expected)
    for d in range(1, 9):
        assert intersect_with_subring(inst11.algebra, ("x1",), d).dim == 0
    zero_piece = intersect_with_subring(inst11.algebra, ("x1", "y1"), 0)
    assert [str(p) for p in zero_piece.polynomials()] == ["1"]


def test_monomial_algebra_fast_path(inst11, mono11):
    vs, xs, ys = inst11.varsys, inst11.x_names, inst11.y_names
    assert monomial_membership(vs, xs, ys, vs.monomial({"x1": 3, "y1": 1}))
    assert not monomial_membership(vs, xs, ys, vs.monomial({"x1": 3}))
    assert monomial_membership(vs, xs, ys, vs.unit_monomial())
    # Fast path agrees with the generic engine.
    for exps in [(0, 0), (2, 1), (4, 0), (1, 3), (0, 5)]:
        mono = vs.monomial({"x1": exps[0], "y1": exps[1]})
        poly = Polynomial(vs, {mono: Fraction(1)})
        assert (membership(mono11, poly) is not None) == monomial_membership(vs, xs, ys, mono)


@pytest.mark.parametrize("n,m,max_degree", [(1, 1, 11), (2, 2, 5), (3, 3, 9)])
def test_monomial_algebra_labels_spell_out_their_monomials(n, m, max_degree):
    inst = build_instance(n, m)
    algebra = y_positive_monomial_algebra(inst.varsys, inst.x_names, inst.y_names, max_degree)
    for label, gen in algebra.generators:
        (mono,) = gen.terms
        assert label == monomial_label(mono, inst.varsys)


def test_monomial_algebra_dimension_formula(mono11, mono21):
    from math import comb

    for d in range(1, 9):
        assert graded_piece(mono11, d).dim == d
        n, m = 2, 1
        expected = comb(d + n + m - 1, n + m - 1) - comb(d + n - 1, n - 1)
        assert graded_piece(mono21, d).dim == expected


def test_truncated_algebra_guards_deep_queries(inst11):
    truncated = y_positive_monomial_algebra(
        inst11.varsys, inst11.x_names, inst11.y_names, 3
    )
    graded_piece(truncated, 3)
    with pytest.raises(ValueError):
        graded_piece(truncated, 4)
    # The requested degree is named, not the first missing one a fill reaches.
    target = inst11.varsys.parse("x1^6*y1")
    queries = (
        lambda: graded_piece(truncated, 7),
        lambda: truncated.graded_basis().tracked_piece(7),
        lambda: membership(truncated, target),
    )
    for query in queries:
        with pytest.raises(ValueError, match="degree 7 requested"):
            query()
    assert sorted(truncated.graded_basis()._pieces) == [0, 1, 2, 3]


@pytest.mark.parametrize("query", ["graded_piece", "tracked_piece", "membership"])
def test_degree_1000_queries_fill_the_degrees_below_without_recursing(query):
    # Over k[x] with the generator x every degree streams the one below it.
    # A query fills its missing degrees in ascending order, so its depth
    # does not grow with the degree (a call per degree would pass the
    # default recursion limit of 1000).
    vs = VarSystem(("x",))
    x = vs.variable("x")
    algebra = SubalgebraSpec(vs, [("g", x)])
    g = algebra.label_system.variable("g")
    if query == "graded_piece":
        assert graded_piece(algebra, 1000).polynomials() == (x ** 1000,)
    elif query == "tracked_piece":
        basis, exprs = algebra.graded_basis().tracked_piece(1000)
        assert basis.polynomials() == (x ** 1000,) and exprs == (g ** 1000,)
    else:
        assert membership(algebra, x ** 1000).expression == g ** 1000


def test_a_negative_degree_is_refused_before_anything_is_built():
    graded = build_instance(1, 1).algebra.graded_basis()
    for query in (graded.piece, graded.tracked_piece):
        with pytest.raises(ValueError, match="nonnegative"):
            query(-1)
    assert graded._pieces == {} and graded._exprs == {}


def test_indecomposables_single_fresh_generator(mono11, inst11):
    vs = inst11.varsys
    for d in range(1, 9):
        indec = indecomposable_generators(mono11, d)
        assert indec.dim == 1
        witness = vs.monomial({"x1": d - 1, "y1": 1})
        witness_poly = Polynomial(vs, {witness: Fraction(1)})
        assert [str(p) for p in indec.polynomials()] == [str(witness_poly)]
        assert not decomposable_span(mono11, d).contains(witness_poly)


def test_indecomposables_single_generator_algebra(inst11):
    vs = inst11.varsys
    one_gen = SubalgebraSpec(vs, [("y1", vs.variable("y1"))])
    for d in range(2, 6):
        assert indecomposable_generators(one_gen, d).dim == 0


def test_indecomposables_two_variable_case(inst21, mono21):
    vs = inst21.varsys
    indec = indecomposable_generators(mono21, 3)
    assert indec.dim == 3
    cls = Polynomial(vs, {vs.monomial({"x1": 1, "x2": 1, "y1": 1}): Fraction(1)})
    assert graded_piece(mono21, 3).contains(cls)
    assert not decomposable_span(mono21, 3).contains(cls)


@pytest.mark.parametrize("view", [decomposable_span, indecomposable_generators])
def test_span_views_refuse_degrees_below_one(inst11, view):
    for d in (0, -1):
        with pytest.raises(ValueError, match="degree must be positive"):
            view(inst11.algebra, d)


def _dense_rows(basis, frame):
    return tuple(tuple(p.coeff(m) for m in frame) for p in basis.polynomials())


@pytest.mark.parametrize("name", ["inst11", "inst21", "mono11", "mono21"])
def test_decomposable_span_matches_the_pairwise_products(request, name):
    algebra = request.getfixturevalue(name)
    algebra = getattr(algebra, "algebra", algebra)
    for d in range(1, 7):
        span = decomposable_span(algebra, d)
        rows, pivots = pairwise_decomposable(algebra, d)
        frame = monomials_of_degree(algebra.varsys, d)
        assert span.pivots == tuple(frame[p] for p in pivots) and _dense_rows(span, frame) == rows


def test_indecomposables_complement_the_decomposables():
    algebra = build_instance(1, 1).algebra
    generators = [poly for _, poly in algebra.generators]
    for d in range(1, 7):
        piece = graded_piece(algebra, d)
        decomposable = decomposable_span(algebra, d)
        indec = indecomposable_generators(algebra, d)
        assert indec.dim == piece.dim - decomposable.dim
        assert indec.intersect(decomposable).dim == 0
        sources = algebra.graded_basis()._entry(d).sources
        representatives = [gen for lower, _, (_, gen, _, _) in sources if lower == 0]
        assert all(rep in generators for rep in representatives)
        assert SpanBasis.from_polynomials(algebra.varsys, representatives).spans_same(indec)


def test_tracked_and_untracked_pieces_agree(monkeypatch):
    # One cache entry serves both: a plain request reads a tracked entry,
    # and a tracked request adds expressions to a plain one without
    # rebuilding it, eliminating one row per basis row.
    algebra = build_instance(1, 1).algebra
    tracked_first = build_instance(1, 1).algebra.graded_basis()
    plain_first = algebra.graded_basis()
    inserts = []
    real_insert = Echelon.insert
    monkeypatch.setattr(
        Echelon, "insert", lambda ech, vec: inserts.append(vec) or real_insert(ech, vec)
    )
    for d in range(6):
        basis, _ = tracked_first.tracked_piece(d)
        assert tracked_first.piece(d) is basis

        plain = plain_first.piece(d)
        inserts.clear()
        tracked, exprs = plain_first.tracked_piece(d)
        assert tracked is plain
        assert len(inserts) == (plain.dim if d else 0)  # degree 0 needs no elimination
        images = dict(algebra.generators)
        for poly, expr in zip(tracked.polynomials(), exprs):
            assert expr.substitute(images, target=algebra.varsys) == poly
        assert plain_first.tracked_piece(d)[0] is tracked  # not rebuilt again


def test_a_non_member_derives_no_label_expressions(monkeypatch):
    # Every component is reduced before any expression is derived, so a
    # member component ahead of a non-member one costs no expressions.
    def refuse(*args):
        raise AssertionError("label expressions derived for a non-member")

    monkeypatch.setattr(GradedBasis, "_expressions", refuse)
    algebra = build_instance(1, 1).algebra
    vs = algebra.varsys
    for text in ("x1", "y1 + x1^3", "x1^2*y1 + x1^5", "3 + x1*z"):
        assert membership(algebra, vs.parse(text)) is None, text


def _fractional_algebra():
    vs = VarSystem(("x", "y", "z"))
    texts = {"p": "1/2*x^2 + 3/4*y^2", "q": "x*y - 5/3*z^2", "r": "2/7*x^3 - y*z^2 + 1/5*z^3", "s": "3*z"}
    return SubalgebraSpec(vs, [(label, vs.parse(text)) for label, text in texts.items()])


def _scaled_monomial_algebra():
    """Single-term generators with non-unit coefficients, one monomial under
    two labels: every product row has one entry, and most are not 1."""
    vs = VarSystem(("x", "y", "z"))
    texts = {"a": "3*x", "b": "1/2*x", "c": "x*y", "d": "-2/3*y^2", "e": "z^2"}
    return SubalgebraSpec(vs, [(label, vs.parse(text)) for label, text in texts.items()])


def _back_reduced_algebra():
    """A_2's lone generator x*y back-reduces (x + y)^2, stored in block 1, to
    x^2 + y^2, so that row's stamp is 2 and block 2 of A_4 must stream it."""
    vs = VarSystem(("x", "y"))
    return SubalgebraSpec(vs, [("a", vs.parse("x + y")), ("b", vs.parse("x*y"))])


def _monomial_algebra(n, m):
    inst = build_instance(n, m)
    return y_positive_monomial_algebra(inst.varsys, inst.x_names, inst.y_names, 8)


PRODUCT_STREAM_ALGEBRAS = {
    "inst11": lambda: build_instance(1, 1).algebra,
    "inst21": lambda: build_instance(2, 1).algebra,
    "mono11": lambda: _monomial_algebra(1, 1),
    "mono21": lambda: _monomial_algebra(2, 1),
    "fractional": _fractional_algebra,  # these two are the ones whose rows need scaling
    "scaled-monomial": _scaled_monomial_algebra,
    "back-reduced": _back_reduced_algebra,
}


def _redundant_algebra():
    """x^3*y = x^2 * x*y is a generator that never raises its degree's rank."""
    vs = VarSystem(("x", "y"))
    texts = {"a": "x^2", "b": "x*y", "c": "x^3*y"}
    return SubalgebraSpec(vs, [(label, vs.parse(text)) for label, text in texts.items()])


@pytest.mark.parametrize("name", [*PRODUCT_STREAM_ALGEBRAS, "redundant"])
def test_the_product_stream_skips_only_products_dependent_at_their_turn(name):
    # Replay the unfiltered stream, every lower row times every generator
    # of each degree.  `_build` skips a product when its generator did not
    # raise its own degree's rank, or when block e of degree d does not
    # stream its lower row (`_lower_rows`).  Each skipped product must be
    # dependent when it comes, and the rank-raising products must be the
    # ones `_build` recorded.  The row filter must be exact: block e skips
    # a row of A_k, k = d-e, iff the row lies in the span of A_k's replay
    # at the start of its block e (all of A_k when e > k).
    algebra = PRODUCT_STREAM_ALGEBRAS.get(name, _redundant_algebra)()
    graded = algebra.graded_basis()
    vs = algebra.varsys
    by_degree = {}
    for k, (_, gen) in enumerate(algebra.generators):
        by_degree.setdefault(gen.degree(), []).append((k, gen))
    snapshots = {}  # (degree, block) -> the span of the replay before that block
    generator_skips = row_skips = 0
    for d in range(1, 8):
        frame = monomials_of_degree(vs, d)
        index = {m: i for i, m in enumerate(frame)}
        ech, raised = Echelon(len(frame)), []
        for e in sorted(e for e in by_degree if e <= d):
            snapshots[d, e] = SpanBasis.of_echelon(vs, frame, ech)
            kept = {src[2][0] for src in graded._entry(e).sources if src[0] == 0}
            lower = graded.piece(d - e)
            streamed = {i for i, _ in graded._lower_rows(d, e)}
            if e == d:
                assert streamed == {0}
            else:
                before = snapshots.get((d - e, e), lower)
                for i, poly in enumerate(lower.polynomials()):
                    assert (i not in streamed) == before.contains(poly), (d, e, i)
            for k, gen in by_degree[e]:
                terms = _integer_terms(gen.terms)[0]
                for i, brow in enumerate(lower.rows):
                    row = _product_row(index, brow, terms)
                    if e < d and (k not in kept or i not in streamed):
                        if k not in kept:
                            generator_skips += 1
                        else:
                            row_skips += 1
                        assert not copy.deepcopy(ech).insert(row), (d, e, k, i)
                    if ech.insert(row):
                        raised.append((d - e, i, k))
        entry = graded._entry(d)
        assert raised == [(lower, i, gen[0]) for lower, i, gen in entry.sources]
        assert SpanBasis.of_echelon(vs, frame, ech).polynomials() == entry.basis.polynomials()
    assert generator_skips or name in ("inst11", "inst21", "fractional", "back-reduced")
    assert row_skips or name == "redundant"


@pytest.mark.parametrize("name", PRODUCT_STREAM_ALGEBRAS)
def test_product_stream_matches_the_polynomial_reference(name):
    make = PRODUCT_STREAM_ALGEBRAS[name]
    ref = product_stream_pieces(make(), 7)
    plain, tracked, algebra = make().graded_basis(), make().graded_basis(), make()
    vs, labels = algebra.varsys, algebra.label_system
    images = dict(algebra.generators)
    rng = random.Random(7)
    target, expression = vs.zero(), labels.zero()
    for d in range(8):
        want, want_exprs = ref[d]
        basis, exprs = tracked.tracked_piece(d)
        for got in (plain.piece(d), basis):
            assert (got.pivots, got.polynomials()) == (want.pivots, want.polynomials())
        assert exprs == want_exprs
        for poly, expr in zip(basis.polynomials(), exprs):
            assert expr.substitute(images, target=vs) == poly
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in exprs]
        part = sum((p * c for p, c in zip(want.polynomials(), coeffs)), vs.zero())
        part_expression = sum((x * c for x, c in zip(want_exprs, coeffs)), labels.zero())
        if part:
            assert membership(algebra, part).expression == part_expression
        target, expression = target + part, expression + part_expression
    cert = membership(algebra, target)
    assert cert.expression == expression and cert.verify()


def test_a_dropped_algebra_frees_its_pieces_without_a_collection():
    # The algebra caches its graded basis, which must not point back at it.
    gc.disable()
    try:
        algebra = build_instance(1, 1).algebra
        graded = weakref.ref(algebra.graded_basis())
        membership(algebra, algebra.varsys.parse("x1^2*y1"))
        del algebra
        assert graded() is None
    finally:
        gc.enable()


def _query(algebra, kind, d):
    """One lazily cached query, reduced to plain comparable values."""
    graded = algebra.graded_basis()
    if kind == "piece":
        basis = graded.piece(d)
    elif kind == "decomposable":
        basis = decomposable_span(algebra, d)
    elif kind == "indecomposable":
        basis = indecomposable_generators(algebra, d)
    elif kind == "tracked":
        basis, exprs = graded.tracked_piece(d)
        return basis.polynomials(), basis.pivots, tuple(map(str, exprs))
    else:
        vs = algebra.varsys
        target = vs.parse(f"y1^{d} - 2*(x1^2 + x1*z)*z^{d}" if kind == "member" else f"x1^{d}")
        cert = membership(algebra, target)
        return cert and str(cert.expression)
    return basis.polynomials(), basis.pivots


def test_concurrent_queries_agree_with_a_serial_run():
    kinds = ("piece", "tracked", "member", "non-member", "decomposable", "indecomposable")
    queries = [(kind, d) for d in range(1, 7) for kind in kinds]
    serial_algebra = build_instance(2, 1).algebra
    serial = {q: _query(serial_algebra, *q) for q in queries}
    assert all((serial[q] is None) == (q[0] == "non-member") for q in queries)

    def worker(shared, start, k):
        # Every thread climbs the degrees together, each with its own mix
        # of kinds, so plain and tracked requests meet on the same entry.
        start.wait()
        return [
            ((kind, d), _query(shared, kind, d))
            for d in range(1, 7)
            for kind in kinds[k % len(kinds):] + kinds[:k % len(kinds)]
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the cache fills
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(2):
                shared = build_instance(2, 1).algebra  # fresh caches
                start = threading.Barrier(8, timeout=60)
                runs = list(pool.map(worker, [shared] * 8, [start] * 8, range(8), timeout=120))
                assert len(runs) == 8
                for results in runs:
                    assert len(results) == len(queries)
                    for q, value in results:
                        assert value == serial[q], q
                assert shared._images == serial_algebra._images  # built by racing member queries
    finally:
        sys.setswitchinterval(interval)


def _instance_pieces(order):
    """Instance (2,2) pieces asked for in `order`, plain and then tracked,
    and then per degree 1..8 its rows, pivots, sources, stamps and label
    expressions."""
    graded = build_instance(2, 2).algebra.graded_basis()
    for d in order:
        graded.piece(d)
    for d in order:
        graded.tracked_piece(d)
    return _instance_records(graded)


def _instance_records(graded):
    """Per degree 1..8 of a graded basis: rows, pivots, sources, stamps and
    label expressions."""
    found = []
    for d in range(1, 9):
        basis, exprs = graded.tracked_piece(d)
        entry = graded._pieces[d]
        found.append((basis.rows, basis.pivots, entry.sources, entry.stamps, tuple(map(str, exprs))))
    return found


def test_pieces_do_not_depend_on_the_order_of_the_queries():
    """Metamorphic: degrees asked for in shuffled orders, or degree 8 alone
    (which builds the lower ones it needs), give the ascending build."""
    ascending = _instance_pieces(range(1, 9))
    orders = [random.Random(seed).sample(range(1, 9), 8) for seed in range(3)] + [[8]]
    for order in orders:
        assert _instance_pieces(order) == ascending, order


def test_threads_racing_the_fill_store_what_a_serial_run_builds():
    """Metamorphic: 8 threads fill one cold graded basis through degree 8 at
    once, half for the pieces and half for the label expressions.  Every
    entry equals the ascending serial build, and all threads read the
    entries first stored."""
    ascending = _instance_pieces(range(1, 9))

    def worker(graded, start, k):
        start.wait()
        return graded.tracked_piece(8) if k % 2 else (graded.piece(8), None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the fill
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                graded = build_instance(2, 2).algebra.graded_basis()
                start = threading.Barrier(8, timeout=60)
                runs = list(pool.map(worker, [graded] * 8, [start] * 8, range(8), timeout=120))
                assert sorted(graded._pieces) == sorted(graded._exprs) == list(range(9))
                for basis, exprs in runs:
                    assert basis is graded.piece(8)
                    assert exprs is None or exprs is graded._exprs[8]
                assert _instance_records(graded) == ascending
    finally:
        sys.setswitchinterval(interval)


def _dense_membership(algebra, f):
    """The dense route: every coordinate of each component over its piece's
    basis, the nonzero ones combining their rows' label expressions."""
    terms = {}
    for degree, component in f.homogeneous_components().items():
        basis, exprs = algebra.graded_basis().tracked_piece(degree)
        coords = basis.coordinates_of(component)
        if coords is None:
            return None
        for c, expr in zip(coords, exprs):
            if c:
                _accumulate(terms, ((m, v * c) for m, v in expr.terms.items()))
    return Polynomial._trusted(algebra.label_system, terms)


def test_membership_certificates_match_the_dense_coordinate_route():
    # Queries of degree 3-8 on the (2,2) instance: combinations of generator
    # products, half of them pushed out of the algebra by x1*x2^(d-1).
    algebra = build_instance(2, 2).algebra
    vs, gens = algebra.varsys, [gen for _, gen in algebra.generators]
    rng = random.Random(3)
    members = 0
    for d in range(3, 9):
        for outside in (False, True):
            f = vs.zero()
            for _ in range(3):
                product, left = vs.one(), d
                while left:
                    gen = rng.choice([g for g in gens if g.degree() <= left])
                    product, left = product * gen, left - gen.degree()
                f += product * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
            if outside:
                f += vs.parse(f"x1*x2^{d - 1}")
            cert, dense = membership(algebra, f), _dense_membership(algebra, f)
            assert (cert is None) == (dense is None) == outside
            if cert is not None:
                members += 1
                assert list(cert.expression.terms.items()) == list(dense.terms.items())
    assert members == 6
