"""Parametric group actions as substitution homomorphisms.

Exact invariance tests with formal parameters, formal group-law checks,
infinitesimal generators, and builders for the standard instances the
verification scenarios run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping

from .algebra import MembershipCertificate, SubalgebraSpec, membership
from .derivation import Derivation
from .exactlin import SpanBasis, kernel_span, solve
from .poly import (
    COORDINATE,
    Polynomial,
    VarSystem,
    VarSystemMismatch,
    _integer_terms,
    _product,
    format_monomial,
    monomials_of_degree,
)


class ParametricSubstitution:
    """An algebra endomorphism with formal group parameters.

    `varsys` extends `coordinate_system` by the parameters, which `params`
    lists in declared order; `images` maps coordinates to polynomials over
    that extended system (identity default).  `identity_values` must cover
    exactly the parameters, and setting them to these values must give the
    identity substitution; both are verified at construction.
    """

    __slots__ = ("varsys", "params", "images", "identity_values", "coordinate_system")

    def __init__(
        self,
        varsys: VarSystem,
        images: Mapping[str, Polynomial],
        identity_values: Mapping[str, Fraction | int],
    ):
        params = tuple(varsys.names[i] for i in varsys.parameter_indices)
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
        self.coordinate_system = varsys.drop(params)
        ident = {p: self.varsys.constant(v) for p, v in self.identity_values.items()}
        # A coordinate without an image is the identity by definition.
        for name in filter(clean.__contains__, varsys.coordinate_names):
            collapsed = clean[name].substitute(ident, target=varsys)
            if collapsed != varsys.variable(name):
                raise ValueError(
                    f"substitution is not the identity at identity parameters ({name!r})"
                )

    def image_of(self, name: str) -> Polynomial:
        return self.images[name] if name in self.images else self.varsys.variable(name)

    def apply(self, f: Polynomial) -> Polynomial:
        """Pullback of f along the substitution, over the extended system."""
        if f.varsys != self.varsys:
            f = f.embed(self.varsys)
        return f.substitute(self.images, target=self.varsys)

    def doubled_system(self) -> tuple[VarSystem, tuple[str, ...]]:
        """The system extended by a second copy of the parameters."""
        copies = tuple(f"{p}_2" for p in self.params)
        return self.varsys.extend(copies), copies

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
    # A coordinate without an image has derivative 0, which `Derivation` drops.
    for name in filter(substitution.images.__contains__, substitution.varsys.coordinate_names):
        derived = substitution.images[name].partial(param)
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
    columns: list[dict[tuple[str, tuple[int, ...]], Fraction]] = [{} for _ in params]
    targets: dict[tuple[int, ...], dict[tuple[str, tuple[int, ...]], Fraction]] = {}
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
    rule_terms: list[dict[tuple[int, ...], Fraction]] = [{} for _ in params]
    for mu, target in targets.items():
        solution = solve([*columns, target])
        if solution is None:
            return None
        for j, value in solution.items():
            rule_terms[j][mu] = value
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
    frame = monomials_of_degree(coords, degree)
    # Each coordinate's image scaled to integer terms by s, the lcm of its
    # denominators: a one-term image c*t folds into an exponent shift t and
    # a factor c, a multi-term one is a cached power.  The image of monomial
    # j scaled by s_j, the product of the s^e, is the product of its cached
    # powers, shifted and scaled by its folds; s_j*monomial is its domain row.
    unit = (0,) * varsys.nvars
    place = [varsys.index(name) for name in coords.names]
    folds, powers, image_scales = [], [], []
    for name in coords.names:
        terms, s = _integer_terms(substitution.image_of(name).terms.items())
        image_scales.append(s)
        if len(terms) == 1:
            ((t, c),) = terms
            folds.append(([(i, x) for i, x in enumerate(t) if x], c))
            powers.append(None)
        else:
            folds.append(None)
            powers.append([{unit: 1}, dict(terms)])
            for _ in range(degree - 1):
                powers[-1].append(_product(powers[-1][-1], powers[-1][1]))
    rows, deltas = [], []
    for mono in frame:
        image, shift, own, factor, scale = None, list(unit), list(unit), 1, 1
        for k, e, fold, row, s in zip(place, mono, folds, powers, image_scales):
            if not e:
                continue
            own[k] = e
            scale *= s**e
            if fold is None:
                image = row[e] if image is None else _product(image, row[e])
            else:
                factor *= fold[1] ** e
                for i, x in fold[0]:
                    shift[i] += e * x
        if image is None:
            image = {tuple(shift): factor}
        else:  # a fresh map: cached powers stay as they are
            image = {tuple(map(add, t, shift)): c * factor for t, c in image.items()}
        own = tuple(own)
        if delta := image.pop(own, 0) - scale:
            image[own] = delta
        deltas.append(image)
        rows.append({mono: scale})
    return kernel_span(SpanBasis(coords, rows, frame), deltas)


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
            tag = format_monomial(exps, param_system)
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
    algebra = SubalgebraSpec(varsys, generators)

    y1 = y_names[0]
    trans_vs = varsys.extend(("t",))
    translation = ParametricSubstitution(
        trans_vs,
        {z: trans_vs.variable(z) + trans_vs.variable("t") * trans_vs.variable(y1)},
        {"t": 0},
    )
    shear_vs = varsys.extend(("a", "b"))
    scaling_shear = ParametricSubstitution(
        shear_vs,
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
    algebra = SubalgebraSpec(varsys, [("u2", u * u), ("u3", u * u * u), ("w", w)])
    kernel_subalgebra = SubalgebraSpec(varsys, [("u2", u * u), ("u3", u * u * u)])
    derivation = Derivation(varsys, {"w": varsys.one()})
    return CuspInstance(varsys, algebra, kernel_subalgebra, derivation)
