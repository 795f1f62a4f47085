"""Graded pieces, derivation kernels, membership, invariant subspaces and
the bounded relation search and the actions' composition rules against
sympy.

The oracles rebuild each instance from its definition in sympy, expand
products there and take ranks with `DomainMatrix.rank` over QQ, or decide
membership with a Groebner basis; nothing from ikernel goes into them.
"""

import random
from itertools import combinations, combinations_with_replacement

import pytest

sympy = pytest.importorskip("sympy")
from sympy import QQ, Poly, diff, expand, groebner, symbols
from sympy.polys.matrices import DomainMatrix

from ikernel.actions import (
    build_cusp_instance,
    build_instance,
    derive_composition_rule,
    invariant_subspace,
)
from ikernel.algebra import graded_piece, membership, y_positive_monomial_algebra
from ikernel.derivation import kernel_graded_basis
from ikernel.integrality import integral_relation_search


def _instance(n, m):
    """The variables, generators, translation derivation y1*d/dz and scaling
    derivation sum_j y_j*d/dy_j of `build_instance(n, m)`, per its definition."""
    xs = symbols(" ".join(f"x{i}" for i in range(1, n + 1)) + ",")
    ys = symbols(" ".join(f"y{j}" for j in range(1, m + 1)) + ",")
    z = symbols("z")
    gens = [*ys, z]
    for x in xs:
        gens += [x**2 + x * z, x**3 + x**2 * z]
    for y in ys:
        for k in range(1, n + 1):
            gens += [sympy.Mul(*chosen) * y for chosen in combinations(xs, k)]
    variables = (*xs, *ys, z)
    translation = {z: ys[0]}
    scaling = {y: y for y in ys}
    return variables, gens, translation, scaling


def _degree(expr, variables):
    return Poly(expr, *variables).total_degree()


def _rank(exprs, variables):
    rows = [Poly(expand(e), *variables).as_dict() for e in exprs]
    columns = sorted({mono for row in rows for mono in row})
    if not rows or not columns:
        return 0
    matrix = [[QQ.from_sympy(row.get(c, sympy.S.Zero)) for c in columns] for row in rows]
    return DomainMatrix.from_list(matrix, QQ).rank()


def _piece(gens, variables, degree):
    """Every product of generators of total degree `degree`."""
    weights = [(g, _degree(g, variables)) for g in gens]
    found = []

    def grow(start, left, product):
        if left == 0:
            found.append(product)
        for k in range(start, len(weights)):
            g, w = weights[k]
            if w <= left:
                grow(k, left - w, product * g)

    grow(0, degree, sympy.Integer(1))
    return found


def _image_rank(family, space, variables):
    """The rank of a derivation family on a space: each derivation's images
    of `space` go into their own fresh variable, so the ranks add up."""
    tags = symbols(f"s0:{len(family)}")
    images = [expand(sum(t * diff(f, v) * image for t, d in zip(tags, family)
                         for v, image in d.items())) for f in space]
    return _rank(images, (*variables, *tags))


def _monomials(variables, degree):
    return [sympy.Mul(*c) for c in combinations_with_replacement(variables, degree)]


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1)])
def test_graded_pieces_and_kernels_match_sympy_ranks(n, m):
    inst = build_instance(n, m)
    variables, gens, translation, scaling = _instance(n, m)
    families = {"translation": [translation], "scaling": [scaling],
                "both": [translation, scaling]}
    ours = {"translation": [inst.translation_derivation],
            "scaling": [inst.scaling_derivation],
            "both": [inst.translation_derivation, inst.scaling_derivation]}
    for degree in range(0, 6):
        piece = _piece(gens, variables, degree)
        dim = _rank(piece, variables)
        assert graded_piece(inst.algebra, degree).dim == dim, degree
        monomials = _monomials(variables, degree)
        for name, family in families.items():
            # The kernel on a space V has dimension dim V - rank on V.
            full = len(monomials) - _image_rank(family, monomials, variables)
            assert kernel_graded_basis(ours[name], inst.varsys, degree).dim == full, (name, degree)
            inside = dim - _image_rank(family, piece, variables)
            assert kernel_graded_basis(ours[name], inst.algebra, degree).dim == inside, (
                name, degree)


def _groebner_member(f, gens, variables):
    """f in k[gens] iff its normal form modulo the tag ideal (t_i - g_i),
    under lex with the variables above the tags, is free of the variables."""
    tags = symbols(f"t0:{len(gens)}")
    basis = groebner([t - g for t, g in zip(tags, gens)], *variables, *tags, order="lex")
    _, remainder = basis.reduce(expand(f))
    return not (remainder.free_symbols & set(variables))


@pytest.mark.parametrize("which", ["algebra", "kernel_subalgebra"])
def test_cusp_membership_matches_a_tag_variable_groebner_basis(which):
    inst = build_cusp_instance()
    u, w = symbols("u w")
    gens = [u**2, u**3] + ([w] if which == "algebra" else [])
    algebra = getattr(inst, which)
    candidates = [u**a * w**b for a in range(7) for b in range(4)]
    candidates += [u**2 + u, u**5 + w**3, u**4 * w - u**3, (u**2 + w) ** 3, u * w + u**2,
                   u**3 - 2 * u**2 * w + w**3, u**6 + u**7]
    verdicts = set()
    for f in candidates:
        want = _groebner_member(f, gens, (u, w))
        ours = membership(algebra, _parse(inst, f))
        assert (ours is not None) == want, f
        verdicts.add(want)
    assert verdicts == {True, False}


def _parse(inst, f):
    return inst.varsys.parse(str(expand(f)).replace("**", "^"))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1)])
def test_no_monic_relation_for_x1_over_the_y_positive_monomials(n, m):
    """A monic relation x1^k + sum_{i<k} a_i x1^i = 0 over the y-positive
    monomial algebra may be taken with a_i homogeneous of degree k - i, so
    it exists iff x1^k lies in the span M of m*x1^i, i < k, m a monomial in
    the x and y variables of degree k - i and positive y-degree.  For every
    k <= 5, x1^k raises the rank of M, and the search finds nothing."""
    variables = _instance(n, m)[0]
    xs, ys = variables[:n], variables[n:n + m]
    x1 = xs[0]
    for k in range(1, 6):
        columns = [mono * x1**i for i in range(k) for mono in _monomials((*xs, *ys), k - i)
                   if mono.free_symbols & set(ys)]
        assert _rank(columns + [x1**k], variables) > _rank(columns, variables), k
    inst = build_instance(n, m)
    mono = y_positive_monomial_algebra(inst.varsys, inst.x_names, inst.y_names, 5)
    assert integral_relation_search(inst.varsys.variable("x1"), mono, 5) is None


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1)])
def test_membership_is_none_exactly_when_the_target_raises_the_piece_rank(n, m):
    """A homogeneous f of degree d is a member iff it lies in the span of
    the generator products of degree d.  Targets: x1^d, x1^(d-1)*z, and
    each plus a seeded combination of products (a member)."""
    inst = build_instance(n, m)
    variables, gens, _, _ = _instance(n, m)
    x1, z = variables[0], variables[-1]
    rng = random.Random(10 * n + m)
    verdicts = set()
    for d in range(1, 6):
        piece = [expand(p) for p in _piece(gens, variables, d)]
        rank = _rank(piece, variables)
        for lone in (x1**d, x1**(d - 1) * z):
            products = rng.sample(piece, min(3, len(piece)))
            mixed = lone + sum(rng.choice((-3, -2, -1, 1, 2, 3)) * p for p in products)
            for f in (lone, mixed):
                outside = _rank(piece + [f], variables) > rank
                assert (membership(inst.algebra, _parse(inst, f)) is None) == outside, (d, f)
                verdicts.add(outside)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1)])
def test_invariant_subspaces_match_sympy_ranks(n, m):
    """The degree-d polynomials fixed for every parameter value are the
    kernel of f -> sigma(f) - f, so their dimension is the number of
    degree-d monomials less the rank of the parameter-coefficient matrix of
    sigma(mono) - mono.  The translation sends z to z + t*y1; the
    scaling-shear sends each y_j to a*y_j and z to z + b*y1."""
    inst = build_instance(n, m)
    variables = _instance(n, m)[0]
    ys, z = variables[n:n + m], variables[-1]
    t, a, b = symbols("t a b")
    actions = {
        "translation": ({z: z + t * ys[0]}, (t,)),
        "scaling_shear": ({**{y: a * y for y in ys}, z: z + b * ys[0]}, (a, b)),
    }
    for name, (images, params) in actions.items():
        for degree in range(1, 5):
            monomials = _monomials(variables, degree)
            deltas = [mono.subs(images, simultaneous=True) - mono for mono in monomials]
            want = len(monomials) - _rank(deltas, (*variables, *params))
            assert invariant_subspace(getattr(inst, name), degree).dim == want, (name, degree)


def _actions(variables, n, m, first, second):
    """The translation (z -> z + t*y1) and the scaling-shear (y_j -> a*y_j,
    z -> z + b*y1) at the parameters `first`, a map from each parameter
    name to its value, and at `second`, per `build_instance`'s definition."""
    ys, z = variables[n:n + m], variables[-1]
    return {
        "translation": [
            {z: z + p["t"] * ys[0]} for p in (first, second)
        ],
        "scaling_shear": [
            {**{y: p["a"] * y for y in ys}, z: z + p["b"] * ys[0]} for p in (first, second)
        ],
    }


def _to_sympy(poly, symbol_of):
    """A polynomial from its exponent-tuple terms, over the named symbols."""
    names = poly.varsys.names
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*(symbol_of[name] ** e for name, e in zip(names, exps)))
         for exps, c in poly.terms.items()),
        sympy.S.Zero,
    )


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1)])
@pytest.mark.parametrize("name", ["translation", "scaling_shear"])
def test_composition_rule_reproduces_the_sympy_composite(name, n, m):
    """Applying the action at the second parameter copy and then at the
    first is, coordinate by coordinate, the action at the parameters that
    `derive_composition_rule` gives: composed and expanded in sympy."""
    variables = _instance(n, m)[0]
    params = {p: symbols(p) for p in ("t", "a", "b")}
    copies = {p: symbols(f"{p}_2") for p in params}
    first, second = _actions(variables, n, m, params, copies)[name]
    composite = {x: expand(first.get(x, x).subs(second, simultaneous=True)) for x in variables}

    rule = derive_composition_rule(getattr(build_instance(n, m), name))
    assert rule is not None
    symbol_of = {str(v): v for v in (*variables, *params.values(), *copies.values())}
    at_rule = {p: _to_sympy(poly, symbol_of) for p, poly in rule.items()}
    assert set(at_rule) == ({"t"} if name == "translation" else {"a", "b"})
    ruled = _actions(variables, n, m, {**params, **at_rule}, copies)[name][0]
    for x in variables:
        assert expand(ruled.get(x, x)) == composite[x], (x, rule)
    assert composite != {x: x for x in variables}  # the two copies really compose
