"""Parametric substitutions: builders, invariance, group laws, stability."""

import random
from fractions import Fraction

import pytest

from ikernel.actions import (
    ParametricSubstitution,
    build_instance,
    check_group_law,
    derive_composition_rule,
    infinitesimal,
    invariant_subspace,
    is_invariant,
    substitution_stabilizes,
)
from ikernel.derivation import kernel_graded_basis
from ikernel.poly import PARAMETER, Monomial, Polynomial, VarSystem


def test_builder_rejects_degenerate_sizes():
    for n, m in [(0, 1), (1, 0), (0, 0)]:
        with pytest.raises(ValueError):
            build_instance(n, m)


def test_generator_list_1_1(inst11):
    labels = [label for label, _ in inst11.algebra.generators]
    assert labels == ["y1", "z", "t1", "u1", "x1y1"]  # y1 duplicate removed
    gens = dict(inst11.algebra.generators)
    vs = inst11.varsys
    assert gens["t1"] == vs.parse("x1^2 + x1*z")
    assert gens["u1"] == vs.parse("x1^3 + x1^2*z")
    assert gens["x1y1"] == vs.parse("x1*y1")


def test_generator_counts():
    # Before deduplication: (m+1) + 2n + 2^n * m; the m squarefree monomials
    # with empty x-part duplicate y_1..y_m.
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
        inst = build_instance(n, m)
        predicted = (m + 1) + 2 * n + (2 ** n) * m - m
        assert len(inst.algebra.generators) == predicted


def test_monomial_generators_2_1(inst21):
    labels = {label for label, _ in inst21.algebra.generators}
    assert {"y1", "x1y1", "x2y1", "x1x2y1"} <= labels


def test_all_generators_homogeneous(inst22):
    for _, gen in inst22.algebra.generators:
        assert gen.is_homogeneous() and gen.degree() >= 1


def test_identity_at_identity_parameters(inst11):
    rng = random.Random(5)
    vs = inst11.varsys
    for sub in (inst11.translation, inst11.scaling_shear):
        ident = {p: sub.varsys.constant(v) for p, v in sub.identity_values.items()}
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = vs.monomial(
                    {
                        "x1": rng.randint(0, 2),
                        "y1": rng.randint(0, 2),
                        "z": rng.randint(0, 2),
                    }
                )
                terms[mono] = Fraction(rng.randint(-3, 3))
            f = Polynomial(vs, terms)
            collapsed = sub.apply(f).substitute(ident, target=sub.varsys)
            assert collapsed == f.embed(sub.varsys)


def test_is_invariant_examples(inst11):
    vs = inst11.varsys
    assert is_invariant(vs.variable("x1"), inst11.translation)
    assert not is_invariant(vs.variable("z"), inst11.translation)
    assert not is_invariant(vs.parse("x1*y1"), inst11.scaling_shear)
    assert is_invariant(vs.variable("x1"), inst11.scaling_shear)
    assert is_invariant(vs.parse("x1^2"), inst11.translation)


def test_translation_action_formula(inst11):
    sub = inst11.translation
    assert sub.apply(inst11.varsys.variable("z")) == sub.varsys.parse("z + t*y1")
    assert sub.apply(inst11.varsys.variable("x1")) == sub.varsys.variable("x1")


def test_group_laws(inst11):
    doubled, (t2,) = inst11.translation.doubled_system()
    good = {"t": doubled.variable("t") + doubled.variable(t2)}
    bad = {"t": doubled.variable("t") * doubled.variable(t2)}
    assert check_group_law(inst11.translation, good)
    assert not check_group_law(inst11.translation, bad)


def test_derived_composition_rule(inst11):
    rule = derive_composition_rule(inst11.scaling_shear)
    assert rule is not None
    rendered = {p: str(poly) for p, poly in rule.items()}
    assert rendered == {"a": "a*a_2", "b": "b*a_2 + b_2"}
    assert check_group_law(inst11.scaling_shear, rule)
    t_rule = derive_composition_rule(inst11.translation)
    assert t_rule is not None and str(t_rule["t"]) == "t + t_2"


def _xyz_substitution(params, images):
    """Images over k[x, y1, z] and the given parameters, identity at 0."""
    vs = VarSystem(("x", "y1", "z")).extend(params, PARAMETER)
    parsed = {name: vs.parse(text) for name, text in images.items()}
    return ParametricSubstitution(vs, params, parsed, {p: 0 for p in params})


@pytest.mark.parametrize(
    "image, want",
    [
        # Dependent columns: the free unknown t is set to zero.
        ("z + s*y1 + t*y1", {"s": "s + t + s_2 + t_2", "t": "0"}),
        ("z + 2/3*s*y1 + t*y1", {"s": "s + 3/2*t + s_2 + 3/2*t_2", "t": "0"}),
    ],
)
def test_composition_rule_with_dependent_parameters(image, want):
    sub = _xyz_substitution(("s", "t"), {"z": image})
    rule = derive_composition_rule(sub)
    assert rule is not None
    assert {p: str(poly) for p, poly in rule.items()} == want
    assert check_group_law(sub, rule)


@pytest.mark.parametrize(
    "params, images",
    [
        (("a",), {"x": "x + a*x^2"}),
        (("s", "t"), {"z": "z + s*y1 + t*x", "x": "x + s*y1"}),
    ],
)
def test_composition_rule_none_without_a_polynomial_law(params, images):
    assert derive_composition_rule(_xyz_substitution(params, images)) is None


def test_composition_rule_needs_affine_images():
    with pytest.raises(ValueError, match="not affine"):
        derive_composition_rule(_xyz_substitution(("t",), {"z": "z + t^2*y1"}))


def test_infinitesimal_generators(inst11):
    d_t = infinitesimal(inst11.translation, "t")
    assert d_t.to_json_dict() == {"z": "y1"}
    d_b = infinitesimal(inst11.scaling_shear, "b")
    assert d_b.to_json_dict() == {"z": "y1"}
    d_a = infinitesimal(inst11.scaling_shear, "a")
    assert d_a.to_json_dict() == {"y1": "y1"}


def test_infinitesimal_generators_2_2(inst22):
    d_a = infinitesimal(inst22.scaling_shear, "a")
    assert d_a.to_json_dict() == {"y1": "y1", "y2": "y2"}


@pytest.mark.parametrize("degree", range(1, 7))
def test_invariance_matches_kernel(inst11, degree):
    ga_inv = invariant_subspace(inst11.translation, degree)
    assert ga_inv.spans_same(
        kernel_graded_basis([inst11.translation_derivation], inst11.varsys, degree)
    )
    aut_inv = invariant_subspace(inst11.scaling_shear, degree)
    assert aut_inv.spans_same(
        kernel_graded_basis(
            [inst11.translation_derivation, inst11.scaling_derivation],
            inst11.varsys,
            degree,
        )
    )


def test_invariance_matches_kernel_2_1(inst21):
    for degree in range(1, 5):
        inv = invariant_subspace(inst21.translation, degree)
        kernel = kernel_graded_basis(
            [inst21.translation_derivation], inst21.varsys, degree
        )
        assert inv.spans_same(kernel)


def test_stability_certificates(inst11):
    for sub in (inst11.translation, inst11.scaling_shear):
        result = substitution_stabilizes(sub, inst11.algebra)
        assert result.stable
        for entry in result.entries:
            assert entry.certificate.verify()
    tags = {
        (e.generator, e.parameter_exponents)
        for e in substitution_stabilizes(inst11.translation, inst11.algebra).entries
    }
    assert ("t1", "t") in tags  # the shear contributes t * x1*y1 to t1's image


def test_substitution_rejects_bad_identity(inst11):
    from ikernel.actions import ParametricSubstitution

    vs = inst11.translation.varsys
    with pytest.raises(ValueError):
        ParametricSubstitution(
            vs, ("t",), {"z": vs.parse("z + y1 + t*y1")}, {"t": 0}
        )


def _invariant_subspace_reference(substitution, degree):
    """Substitute each monomial on its own; the dense oracle's nullspace
    members, reduced over the monomial frame."""
    from oracles import dense_nullspace

    from ikernel.exactlin import SpanBasis
    from ikernel.poly import monomials_of_degree

    coords = substitution.coordinate_system
    frame = monomials_of_degree(coords, degree)
    units = [Polynomial(coords, {mono: Fraction(1)}) for mono in frame]
    deltas = [substitution.apply(f) - f.embed(substitution.varsys) for f in units]
    keys = sorted({m for delta in deltas for m in delta.terms}, key=Monomial.sort_key)
    matrix = [[delta.coeff(key) for delta in deltas] for key in keys]
    members = []
    for vec in dense_nullspace(matrix, len(frame)):
        members.append(Polynomial(coords, dict(zip(frame, vec))))
    return SpanBasis.from_polynomials(coords, members, frame=frame)


def _fractional_substitution():
    """Non-integer coefficients, over a system with its parameter in the middle."""
    from ikernel.actions import ParametricSubstitution
    from ikernel.poly import PARAMETER, VarSystem

    vs = VarSystem(("x", "s", "y", "z"), ("coordinate", PARAMETER, "coordinate", "coordinate"))
    images = {"x": vs.parse("x + 1/2*s*y"), "z": vs.parse("z + 1/3*s*x + 1/12*s^2*y")}
    return ParametricSubstitution(vs, ("s",), images, {"s": 0})


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2)])
def test_invariant_subspace_matches_per_monomial_substitution(n, m):
    inst = build_instance(n, m)
    for substitution in (inst.translation, inst.scaling_shear, _fractional_substitution()):
        for degree in range(5):
            got = invariant_subspace(substitution, degree)
            want = _invariant_subspace_reference(substitution, degree)
            assert (got.ambient, got.vectors, got.pivots) == (
                want.ambient,
                want.vectors,
                want.pivots,
            )

