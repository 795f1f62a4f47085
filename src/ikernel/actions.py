"""Parametric group actions as substitution homomorphisms.

Exact invariance tests with formal parameters, formal group-law checks,
infinitesimal generators, and builders for the standard instances the
verification scenarios run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod
from typing import Mapping, Sequence

from .algebra import MembershipCertificate, SubalgebraSpec, membership
from .derivation import Derivation
from .exactlin import SpanBasis, column_rows, kernel_span, solve
from .poly import (
    COORDINATE,
    PARAMETER,
    Monomial,
    Polynomial,
    VarSystem,
    VarSystemMismatch,
    _accumulate,
    _integer_terms,
    _product,
    format_monomial,
    monomials_of_degree,
)


class ParametricSubstitution:
    """An algebra endomorphism with formal group parameters.

    `varsys` extends the coordinate system by the parameters; `images` maps
    coordinates to polynomials over that extended system (identity default).
    Setting the parameters to their identity values must give the identity
    substitution; this is verified at construction.
    """

    __slots__ = ("varsys", "params", "images", "identity_values", "_coords")

    def __init__(
        self,
        varsys: VarSystem,
        params: Sequence[str],
        images: Mapping[str, Polynomial],
        identity_values: Mapping[str, Fraction | int],
    ):
        params = tuple(params)
        for p in params:
            if varsys.roles[varsys.index(p)] != PARAMETER:
                raise ValueError(f"{p!r} is not a parameter of the system")
        if set(identity_values) != set(params):
            raise ValueError("identity values must cover exactly the parameters")
        clean: dict[str, Polynomial] = {}
        for name, poly in images.items():
            if varsys.roles[varsys.index(name)] != COORDINATE:
                raise ValueError(f"image given for non-coordinate {name!r}")
            if poly.varsys != varsys:
                raise VarSystemMismatch(f"image of {name!r} over a different system")
            clean[name] = poly
        self.varsys = varsys
        self.params = params
        self.images = clean
        self.identity_values = {p: Fraction(identity_values[p]) for p in params}
        self._coords = varsys.drop(params)
        ident = {p: self.varsys.constant(v) for p, v in self.identity_values.items()}
        for name in varsys.coordinate_names:
            collapsed = self.image_of(name).substitute(ident, target=varsys)
            if collapsed != varsys.variable(name):
                raise ValueError(
                    f"substitution is not the identity at identity parameters ({name!r})"
                )

    @property
    def coordinate_system(self) -> VarSystem:
        return self._coords

    def image_of(self, name: str) -> Polynomial:
        return self.images.get(name, self.varsys.variable(name))

    def apply(self, f: Polynomial) -> Polynomial:
        """Pullback of f along the substitution, over the extended system."""
        if f.varsys != self.varsys:
            f = f.embed(self.varsys)
        return f.substitute(self.images, target=self.varsys)

    def doubled_system(self) -> tuple[VarSystem, tuple[str, ...]]:
        """The system extended by a second copy of the parameters."""
        copies = tuple(f"{p}_2" for p in self.params)
        return self.varsys.extend(copies, PARAMETER), copies

    def to_json_dict(self) -> dict:
        return {
            "parameters": list(self.params),
            "images": {name: str(poly) for name, poly in sorted(self.images.items())},
        }

    def __repr__(self) -> str:
        inside = ", ".join(f"{n} -> {p}" for n, p in sorted(self.images.items()))
        return f"<ParametricSubstitution [{', '.join(self.params)}] {inside}>"


def is_invariant(f: Polynomial, substitution: ParametricSubstitution) -> bool:
    """True iff f pulls back to itself identically in the parameters."""
    f_ext = f if f.varsys == substitution.varsys else f.embed(substitution.varsys)
    return substitution.apply(f_ext) == f_ext


def infinitesimal(substitution: ParametricSubstitution, param: str) -> Derivation:
    """Derivation: differentiate the images along one parameter at identity."""
    if param not in substitution.params:
        raise ValueError(f"{param!r} is not a parameter of the substitution")
    coords = substitution.coordinate_system
    at_identity = {
        p: coords.constant(v) for p, v in substitution.identity_values.items()
    }
    images: dict[str, Polynomial] = {}
    for name in substitution.varsys.coordinate_names:
        derived = substitution.image_of(name).partial(param)
        images[name] = derived.substitute(at_identity, target=coords)
    return Derivation(coords, images)


def _composed_images(
    substitution: ParametricSubstitution,
) -> tuple[dict[str, Polynomial], VarSystem, tuple[str, ...]]:
    """Images of (first copy) after (second copy), over the doubled system."""
    doubled, copies = substitution.doubled_system()
    renaming = {p: doubled.variable(c) for p, c in zip(substitution.params, copies)}
    second = {
        name: substitution.image_of(name).substitute(renaming, target=doubled)
        for name in substitution.varsys.coordinate_names
    }
    composed = {}
    for name in substitution.varsys.coordinate_names:
        composed[name] = substitution.image_of(name).substitute(second, target=doubled)
    return composed, doubled, copies


def check_group_law(
    substitution: ParametricSubstitution, rule: Mapping[str, Polynomial]
) -> bool:
    """Formally verify that composing two parameter copies equals one
    substitution at the composed parameters given by `rule`.

    Rule polynomials live over the doubled system (see `doubled_system`).
    """
    composed, doubled, _ = _composed_images(substitution)
    if set(rule) != set(substitution.params):
        raise ValueError("rule must assign every parameter")
    rule_images = {p: poly.embed(doubled) for p, poly in rule.items()}
    for name in substitution.varsys.coordinate_names:
        expected = substitution.image_of(name).substitute(rule_images, target=doubled)
        if expected != composed[name]:
            return False
    return True


def derive_composition_rule(
    substitution: ParametricSubstitution,
) -> dict[str, Polynomial] | None:
    """Solve for the composition rule; None if no polynomial rule exists.

    With images x -> c_x + sum_p p*L_px, a rule r satisfies
    c_x + sum_p r_p*L_px = composed(x).  At each monomial mu in both
    parameter copies, the mu-coefficients of the r_p solve one linear
    system: its columns are the L_px and its right-hand side is the
    mu-coefficient of composed(x) - c_x, both read at every coordinate
    monomial of every x.  Requires the images to be affine in the
    parameters (true for the actions built here).
    """
    params = substitution.params
    composed, doubled, copies = _composed_images(substitution)
    columns: list[dict[tuple[str, Monomial], Fraction]] = [{} for _ in params]
    targets: dict[tuple[int, ...], dict[tuple[str, Monomial], Fraction]] = {}
    for name in substitution.varsys.coordinate_names:
        residue = composed[name]
        for exps, coeff in substitution.image_of(name).coefficients_in(params).items():
            if sum(exps) == 0:
                residue = residue - coeff.embed(doubled)
            elif sum(exps) == 1:
                column = columns[exps.index(1)]
                column.update(((name, k), v) for k, v in coeff.terms.items())
            else:
                raise ValueError("images are not affine in the parameters")
        for mu, coeff in residue.coefficients_in(params + copies).items():
            target = targets.setdefault(mu, {})
            target.update(((name, k), v) for k, v in coeff.terms.items())
    keys = dict.fromkeys(k for col in [*columns, *targets.values()] for k in col)
    rule_terms: list[dict[Monomial, Fraction]] = [{} for _ in params]
    for mu, target in targets.items():
        solution = solve(column_rows([*columns, target], keys), len(params))
        if solution is None:
            return None
        for j, value in solution.items():
            rule_terms[j][Monomial(mu)] = value
    param_system = VarSystem(params + copies)
    rule = {
        p: Polynomial(param_system, terms).embed(doubled)
        for p, terms in zip(params, rule_terms)
    }
    if not check_group_law(substitution, rule):
        return None
    return rule


def invariant_subspace(substitution: ParametricSubstitution, degree: int) -> SpanBasis:
    """Degree-d polynomials fixed by the substitution for all parameter
    values, as a nullspace over the monomial frame."""
    coords = substitution.coordinate_system
    varsys = substitution.varsys
    domain = SpanBasis.of_monomials(coords, monomials_of_degree(coords, degree))
    # Powers of every coordinate's image scaled by s, the lcm of its
    # denominators, as integer term maps built once: each monomial's image,
    # scaled by the product of the s^e, is a product of at most one cached
    # power per coordinate.
    unit = (0,) * varsys.nvars
    powers, image_scales = [], []
    for name in coords.names:
        terms, s = _integer_terms(substitution.image_of(name)._exponent_map().items())
        image = dict(terms)
        powers.append([{unit: 1}, image])
        image_scales.append(s)
        for _ in range(degree - 1):
            powers[-1].append(_product(powers[-1][-1], image))
    deltas, scales = [], {}
    out_frame: set[tuple[int, ...]] = set()
    for j, mono in enumerate(domain.ambient):
        factors = [row[e] for row, e in zip(powers, mono.exponents) if e]
        image = reduce(_product, factors, {unit: 1})
        scale = prod(s**e for s, e in zip(image_scales, mono.exponents))
        own = varsys.monomial(dict(zip(coords.names, mono.exponents))).exponents
        delta = _accumulate(image, ((own, -scale),))
        deltas.append(delta)
        out_frame.update(delta)
        if scale != 1:
            scales[j] = scale
    # Canonical order (`Monomial.sort_key`) of distinct exponent tuples.
    keys = sorted(out_frame, key=lambda e: (sum(e), e), reverse=True)
    return kernel_span(domain, deltas, keys, scales)


@dataclass(frozen=True)
class StabilityEntry:
    generator: str
    parameter_exponents: str
    certificate: MembershipCertificate


@dataclass(frozen=True)
class StabilityResult:
    """Per-generator, per-parameter-power membership of the image in the
    algebra: the degreewise certificate that a substitution stabilizes it."""

    stable: bool
    entries: tuple[StabilityEntry, ...]
    failure: tuple[str, str] | None = None


def substitution_stabilizes(
    substitution: ParametricSubstitution, algebra: SubalgebraSpec
) -> StabilityResult:
    """Certify that the substitution maps the algebra into its
    parameter-extended span: every parameter coefficient of every generator
    image must pass membership."""
    params = substitution.params
    param_system = VarSystem(params)
    entries: list[StabilityEntry] = []
    for label, generator in algebra.generators:
        image = substitution.apply(generator)
        for exps, coeff in image.coefficients_in(params).items():
            tag = format_monomial(Monomial(exps), param_system)
            certificate = membership(algebra, coeff)
            if certificate is None:
                return StabilityResult(False, tuple(entries), (label, tag))
            entries.append(StabilityEntry(label, tag, certificate))
    return StabilityResult(True, tuple(entries))


# -- standard instances --------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """Coordinate ring k[x1..xn, y1..ym, z], the non-finitely-generated
    invariant subalgebra inside it, the two group actions, and their
    infinitesimal generators."""

    n: int
    m: int
    varsys: VarSystem
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]
    z_name: str
    algebra: SubalgebraSpec
    translation: ParametricSubstitution
    scaling_shear: ParametricSubstitution
    translation_derivation: Derivation
    scaling_derivation: Derivation


def build_instance(n: int, m: int) -> Instance:
    """Construct the standard instance for given positive n, m.

    The subalgebra's generators are: every y_j and z; x_i^2 + x_i*z and
    x_i^3 + x_i^2*z for each i; and every nonempty squarefree x-monomial
    times one y_j (the empty one would give y_j again).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    x_names = tuple(f"x{i}" for i in range(1, n + 1))
    y_names = tuple(f"y{j}" for j in range(1, m + 1))
    z = "z"
    varsys = VarSystem(x_names + y_names + (z,))

    zvar = varsys.variable(z)
    generators: list[tuple[str, Polynomial]] = []
    for name in y_names:
        generators.append((name, varsys.variable(name)))
    generators.append((z, zvar))
    for i, name in enumerate(x_names, start=1):
        x = varsys.variable(name)
        generators.append((f"t{i}", x * x + x * zvar))
        generators.append((f"u{i}", x * x * x + x * x * zvar))
    for yname in y_names:
        for mask in range(1, 1 << n):
            mono = varsys.monomial(
                {yname: 1, **{x_names[i]: 1 for i in range(n) if mask >> i & 1}}
            )
            poly = Polynomial(varsys, {mono: Fraction(1)})
            label = "".join(x_names[i] for i in range(n) if mask >> i & 1) + yname
            generators.append((label, poly))
    algebra = SubalgebraSpec(varsys, generators, homogeneous=True)

    y1 = y_names[0]
    trans_vs = varsys.extend(("t",), PARAMETER)
    translation = ParametricSubstitution(
        trans_vs,
        ("t",),
        {z: trans_vs.variable(z) + trans_vs.variable("t") * trans_vs.variable(y1)},
        {"t": 0},
    )
    shear_vs = varsys.extend(("a", "b"), PARAMETER)
    scaling_shear = ParametricSubstitution(
        shear_vs,
        ("a", "b"),
        {
            **{
                name: shear_vs.variable("a") * shear_vs.variable(name)
                for name in y_names
            },
            z: shear_vs.variable(z) + shear_vs.variable("b") * shear_vs.variable(y1),
        },
        {"a": 1, "b": 0},
    )
    return Instance(
        n=n,
        m=m,
        varsys=varsys,
        x_names=x_names,
        y_names=y_names,
        z_name=z,
        algebra=algebra,
        translation=translation,
        scaling_shear=scaling_shear,
        translation_derivation=infinitesimal(translation, "t"),
        scaling_derivation=infinitesimal(scaling_shear, "a"),
    )


@dataclass(frozen=True)
class CuspInstance:
    """k[u, w] over the cusp subalgebra k[u^2, u^3, w], with the derivation
    family {d/dw} preserving both."""

    varsys: VarSystem
    algebra: SubalgebraSpec
    kernel_subalgebra: SubalgebraSpec
    derivation: Derivation


def build_cusp_instance() -> CuspInstance:
    varsys = VarSystem(("u", "w"))
    u = varsys.variable("u")
    w = varsys.variable("w")
    algebra = SubalgebraSpec(
        varsys, [("u2", u * u), ("u3", u * u * u), ("w", w)], homogeneous=True
    )
    kernel_subalgebra = SubalgebraSpec(
        varsys, [("u2", u * u), ("u3", u * u * u)], homogeneous=True
    )
    derivation = Derivation(varsys, {"w": varsys.one()})
    return CuspInstance(varsys, algebra, kernel_subalgebra, derivation)
