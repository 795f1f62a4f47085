"""Derivations: Leibniz rule, invariance of subalgebras, graded kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_nullspace, dense_rref

from ikernel.derivation import (
    Derivation,
    InhomogeneousDerivation,
    kernel_graded_basis,
    preserves_subalgebra,
)
from ikernel.exactlin import SpanBasis, kernel_span
from ikernel.algebra import SubalgebraSpec
from ikernel.poly import Monomial, Polynomial, VarSystem, monomials_of_degree

VS = VarSystem(("x1", "y1", "z"))
D1 = Derivation(VS, {"z": VS.variable("y1")})


def test_apply_examples():
    assert D1.apply(VS.variable("z")) == VS.variable("y1")
    assert D1.apply(VS.variable("x1")).is_zero()
    assert D1.apply(VS.parse("x1^2 + x1*z")) == VS.parse("x1*y1")


def test_linear_and_kills_constants():
    f, g = VS.parse("x1*z^2"), VS.parse("y1*z")
    assert D1.apply(f + 3 * g) == D1.apply(f) + 3 * D1.apply(g)
    assert D1.apply(VS.constant(Fraction(7, 3))).is_zero()


def _polys():
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).map(Monomial)
    return st.dictionaries(monos, coeffs, max_size=4).map(lambda t: Polynomial(VS, t))


@settings(max_examples=50, deadline=None)
@given(_polys(), _polys())
def test_leibniz_rule(f, g):
    assert D1.apply(f * g) == f * D1.apply(g) + g * D1.apply(f)


PVS = VarSystem(("x", "t", "y", "z"), ("coordinate", "parameter", "coordinate", "coordinate"))


def _parametric_polys(max_size=5):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)
    monos = st.tuples(*[st.integers(0, 3)] * 4).map(Monomial)
    return st.dictionaries(monos, coeffs, max_size=max_size).map(lambda t: Polynomial(PVS, t))


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(st.sampled_from(PVS.names), _parametric_polys(4), max_size=4),
    _parametric_polys() | st.just(PVS.zero()),
)
def test_apply_matches_its_definition(images, f):
    # d(f) = sum_v image_v * df/dv through `Polynomial` operations, over a
    # system with a parameter, with fractional coefficients and zero images.
    expected = PVS.zero()
    for name, image in images.items():
        expected = expected + image * f.partial(name)
    assert Derivation(PVS, images).apply(f) == expected


def test_kernel_examples(inst11):
    vs = inst11.varsys
    k1 = kernel_graded_basis([inst11.translation_derivation], vs, 1)
    assert [str(p) for p in k1.polynomials()] == ["x1", "y1"]
    k2 = kernel_graded_basis(
        [inst11.translation_derivation, inst11.scaling_derivation], vs, 2
    )
    assert [str(p) for p in k2.polynomials()] == ["x1^2"]
    k0 = kernel_graded_basis([], vs, 1)
    assert k0.dim == 3


def test_kernel_soundness(inst11):
    family = [inst11.translation_derivation, inst11.scaling_derivation]
    for d in range(6):
        for basis_poly in kernel_graded_basis(family, inst11.varsys, d).polynomials():
            for drv in family:
                assert drv.apply(basis_poly).is_zero()


def test_kernel_completeness_vs_brute_force(inst11):
    """Oracle: nullspace assembled monomial-by-monomial, no frame reuse."""
    drv = inst11.translation_derivation
    vs = inst11.varsys
    for d in range(6):
        frame = monomials_of_degree(vs, d)
        images = [drv.apply(Polynomial(vs, {m: Fraction(1)})) for m in frame]
        out_monos = sorted(
            {m for img in images for m in img.terms}, key=Monomial.sort_key
        )
        rows = [[img.coeff(m) for img in images] for m in out_monos]
        expected_dim = len(frame) - len(dense_rref(rows, len(frame))[1])
        assert kernel_graded_basis([drv], vs, d).dim == expected_dim


def test_kernel_is_z_free_span(inst21):
    vs = inst21.varsys
    for d in range(5):
        kernel = kernel_graded_basis([inst21.translation_derivation], vs, d)
        zfree = monomials_of_degree(vs, d, inst21.x_names + inst21.y_names)
        expected = SpanBasis.from_polynomials(vs, [Polynomial(vs, {m: Fraction(1)}) for m in zfree])
        assert kernel.spans_same(expected)


def test_kernel_inside_subalgebra(inst11, mono11):
    from ikernel.algebra import graded_piece

    for d in range(7):
        inside = kernel_graded_basis(
            [inst11.translation_derivation], inst11.algebra, d
        )
        assert inside.spans_same(graded_piece(mono11, d))


def test_inhomogeneous_images_rejected():
    bad = Derivation(VS, {"z": VS.parse("y1 + y1^2")})
    with pytest.raises(InhomogeneousDerivation):
        kernel_graded_basis([bad], VS, 2)


def test_preserves_subalgebra(inst11):
    result = preserves_subalgebra(inst11.translation_derivation, inst11.algebra)
    assert result.preserved
    assert set(result.certificates) == {"y1", "z", "t1", "u1", "x1y1"}
    for cert in result.certificates.values():
        assert cert.verify()

    ddx = Derivation(inst11.varsys, {"x1": inst11.varsys.one()})
    result = preserves_subalgebra(ddx, inst11.algebra)
    assert not result.preserved
    label, witness = result.failure
    assert label == "t1"
    assert witness == inst11.varsys.parse("2*x1 + z")


def test_bounded_nilpotency(inst11):
    drv = inst11.translation_derivation
    rng = random.Random(3)
    vs = inst11.varsys
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = vs.monomial(
                {"x1": rng.randint(0, 2), "y1": rng.randint(0, 2), "z": rng.randint(0, 3)}
            )
            terms[mono] = Fraction(rng.randint(-3, 3))
        f = Polynomial(vs, terms)
        zdeg = max((m[vs.index("z")] for m in f.terms), default=0)
        steps = drv.power_annihilates(f, zdeg + 1)
        assert steps is not None and steps <= zdeg + 1
    # The scaling derivation is not locally nilpotent: y1 reproduces itself.
    assert inst11.scaling_derivation.power_annihilates(vs.variable("y1"), 10) is None


def _row_for_row(a, b):
    return (a.polynomials(), a.pivots) == (b.polynomials(), b.pivots)


def _stacked_kernel(family, ambient, degree):
    """Reference: one nullspace over stacked image rows.  Each nonzero
    derivation's scaled images fill their own block of integer rows, one
    per monomial of degree + shift, offset by the rows of the blocks
    before it; scaling a block leaves the kernel alone."""
    if isinstance(ambient, SubalgebraSpec):
        varsys, domain = ambient.varsys, ambient.graded_basis().piece(degree)
    else:
        varsys, domain = ambient, SpanBasis.of_degree(ambient, degree)
    images = [{} for _ in domain.rows]
    height = 0
    for drv in family:
        shift = drv.homogeneous_shift()
        if shift is None:
            continue
        targets = monomials_of_degree(varsys, degree + shift)
        row = {m: height + r for r, m in enumerate(targets)}
        height += len(targets)
        for image, terms in zip(images, domain.rows):
            image.update((row[m], v) for m, v in drv._leibniz({}, terms.items()).items())
    return kernel_span(domain, images)


def _same_rows(a, b):
    return (a.rows, a.pivots) == (b.rows, b.pivots)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2)])
def test_subalgebra_kernel_is_ring_kernel_meet_piece(n, m):
    """Kernels over the piece basis equal the full-ring kernel intersected
    with the graded piece, row for row.  Both equal the stacked-rows
    reference integer row for integer row, also with a zero derivation in
    the family, and a family's order leaves the span alone."""
    from ikernel.actions import build_instance
    from ikernel.algebra import graded_piece

    inst = build_instance(n, m)
    t, s = inst.translation_derivation, inst.scaling_derivation
    families = [[t], [s], [t, s], [s, t], [t, Derivation(inst.varsys, {})], []]
    for d in range(8):
        for family in families:
            direct = kernel_graded_basis(family, inst.algebra, d)
            ring = kernel_graded_basis(family, inst.varsys, d)
            assert _row_for_row(direct, ring.intersect(graded_piece(inst.algebra, d)))
            assert _same_rows(direct, _stacked_kernel(family, inst.algebra, d))
            assert _same_rows(ring, _stacked_kernel(family, inst.varsys, d))
        for ambient in (inst.algebra, inst.varsys):
            assert kernel_graded_basis([t, s], ambient, d).spans_same(
                kernel_graded_basis([s, t], ambient, d)
            )


def test_subalgebra_kernel_cusp(cusp):
    from ikernel.algebra import graded_piece

    for d in range(12):
        direct = kernel_graded_basis([cusp.derivation], cusp.algebra, d)
        ring = kernel_graded_basis([cusp.derivation], cusp.varsys, d)
        assert _row_for_row(direct, ring.intersect(graded_piece(cusp.algebra, d)))
        assert direct.spans_same(graded_piece(cusp.kernel_subalgebra, d))
        assert _same_rows(direct, _stacked_kernel([cusp.derivation], cusp.algebra, d))
        assert _same_rows(ring, _stacked_kernel([cusp.derivation], cusp.varsys, d))


# -- scaled integer rows against the dense oracle --------------------------------

XYZ = VarSystem(("x", "y", "z"))


def _dense_kernel(family, domain):
    """ker ∩ span(domain) from the dense oracle: images by the definition
    sum_v image_v * d/dv through `Polynomial` arithmetic, one dense row per
    (derivation, image monomial), members through `Polynomial` sums, and
    the reduced echelon basis of the members."""
    basis, zero = domain.polynomials(), XYZ.zero()
    rows = []
    for drv in family:
        images = [sum((img * b.partial(v) for v, img in drv.images.items()), zero) for b in basis]
        monos = sorted({m for img in images for m in img.terms}, key=Monomial.sort_key)
        rows += [[img.coeff(m) for img in images] for m in monos]
    members = [
        sum((b * c for b, c in zip(basis, vec) if c), zero)
        for vec in dense_nullspace(rows, len(basis))
    ]
    oracle = SpanBasis.from_polynomials(XYZ, members)
    return oracle.polynomials(), oracle.pivots


_FRACTIONAL = [
    Derivation(XYZ, {"x": XYZ.parse("1/2*y")}),
    Derivation(XYZ, {"z": XYZ.parse("2/3*y^2")}),
]
_FAMILIES = [
    _FRACTIONAL,
    _FRACTIONAL[:1],
    _FRACTIONAL[1:],
    [Derivation(XYZ, {"x": XYZ.parse("3/4*y - 1/6*z"), "y": XYZ.parse("5/2*z")})],
    [Derivation(XYZ, {}), Derivation(XYZ, {"y": XYZ.zero()}), _FRACTIONAL[0]],
]
# Generators whose pieces span proper subspaces, so the reduced piece rows
# carry denominators, and different ones from row to row.
_SUBALGEBRAS = [
    SubalgebraSpec(XYZ, [("g", XYZ.parse("x + 1/2*y")), ("h", XYZ.parse("y + 1/3*z"))]),
    SubalgebraSpec(XYZ, [("g", XYZ.parse("2/3*x - 5/7*z")), ("h", XYZ.parse("y^2 + 3/4*x*z")),
                         ("k", XYZ.parse("1/5*y*z"))]),
]


@pytest.mark.parametrize("family", range(len(_FAMILIES)))
@pytest.mark.parametrize("ambient", [None, 0, 1])
def test_kernel_matches_dense_oracle_with_fractional_rows(family, ambient):
    family = _FAMILIES[family]
    algebra = XYZ if ambient is None else _SUBALGEBRAS[ambient]
    for d in range(5):
        basis = kernel_graded_basis(family, algebra, d)
        domain = (
            SpanBasis.of_degree(XYZ, d)
            if ambient is None else algebra.graded_basis().piece(d)
        )
        assert (basis.polynomials(), basis.pivots) == _dense_kernel(family, domain)
        assert _same_rows(basis, _stacked_kernel(family, algebra, d))


def test_derivation_keeps_one_integer_table():
    drv = Derivation(XYZ, {"x": XYZ.parse("1/2*y"), "z": XYZ.parse("2/3*x - 3/4*y")})
    assert not hasattr(drv, "__dict__")
    assert all(type(c) is int for _, lowered in drv._lowered for _, c in lowered)
    f = XYZ.parse("x^2*z - 5/3*y*z^2 + x")
    assert drv.apply(f) == XYZ.parse("1/2*y") * f.partial("x") + XYZ.parse(
        "2/3*x - 3/4*y"
    ) * f.partial("z")
