"""Integral and algebraic dependence searches with machine-checkable
certificates.

For a homogeneous element x of degree e, a monic degree-n relation may be
assumed homogeneous with coefficient degrees e*(n-i): inhomogeneous
relations split into homogeneous ones.  That turns each candidate degree
into one exact linear system over a monomial frame.  Negative answers from
the bounded searches mean "none up to the stated bounds"; the only
conclusive negatives are the specialization and constants arguments below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Mapping, Sequence

from .algebra import (
    GradedBasis,
    MembershipCertificate,
    NotHomogeneous,
    SubalgebraSpec,
    certificate_field,
    certificate_text,
    certificate_names,
    certificate_system,
    membership,
)
from .exactlin import integer_kernel, solve
from .poly import Polynomial, _check_budget


@dataclass(frozen=True)
class RelationCoefficient:
    power: int
    polynomial: Polynomial
    membership: MembershipCertificate


@dataclass(frozen=True)
class RelationCertificate:
    """A dependence relation sum_i a_i x^i = 0 with coefficients in a
    subalgebra (plus a leading x^degree term when monic), every coefficient
    carrying its own membership certificate."""

    element: Polynomial
    degree: int
    monic: bool
    coefficients: tuple[RelationCoefficient, ...]

    @classmethod
    def from_json_dict(cls, data: Mapping) -> RelationCertificate:
        """Invert `to_json_dict`, parsing every text under the parser budget;
        the exponent fields are checked first, so one that is malformed is
        named before any nested certificate is parsed."""
        varsys = certificate_system(certificate_names(data))
        element = certificate_text(data, "element", varsys)
        entries = certificate_field(data, "coefficients")
        if not (isinstance(entries, list) and all(map(isinstance, entries, repeat(Mapping)))):
            raise ValueError("field 'coefficients' must be a list of objects")
        degree = certificate_field(data, "degree")
        powers = [certificate_field(entry, "i") for entry in entries]
        _check_exponents([("degree", degree)] + [("i", i) for i in powers])
        coefficients = tuple(
            RelationCoefficient(
                i,
                certificate_text(entry, "polynomial", varsys),
                _nested_membership(entry),
            )
            for i, entry in zip(powers, entries)
        )
        return cls(element, degree, certificate_field(data, "monic"), coefficients)

    def verify(self) -> bool:
        """Re-check with poly arithmetic only, within one `MAX_CHECK_WORK`
        budget (each coefficient's membership certificate has its own); a
        malformed or trivial relation, or an expansion over the budget,
        raises ValueError naming the field."""
        element, degree, monic = self.element, self.degree, self.monic
        varsys = element.varsys
        powers = [c.power for c in self.coefficients]
        _check_exponents([("degree", degree)] + [("i", i) for i in powers])
        if type(monic) is not bool:
            raise ValueError("field 'monic' must be true or false")
        # A monic relation's x^degree term is implicit and must not cancel.
        if any(i > degree - monic for i in powers):
            raise ValueError("field 'i': every power must be at most the degree, "
                             "below it when monic")
        top = (c.polynomial for c in self.coefficients if c.power == degree)
        if not monic and sum(top, varsys.zero()).is_zero():
            raise ValueError("field 'coefficients': a non-monic relation needs a nonzero "
                             "coefficient at i == degree")
        budget = _check_budget("degree", varsys)
        total = budget.power(element, degree) if monic else varsys.zero()
        budget.what = "field 'i'"
        power_of = {i: budget.power(element, i) for i in set(powers)}
        budget.what = "field 'coefficients'"
        for coeff in self.coefficients:
            cert = coeff.membership
            if cert.target != coeff.polynomial or not cert.verify():
                return False
            total = total + budget.multiply(coeff.polynomial, power_of[coeff.power])
        return total.is_zero()

    def to_json_dict(self) -> dict:
        return {
            "cert_type": "relation",
            "degree": self.degree,
            "monic": self.monic,
            "element": str(self.element),
            "variables": list(self.element.varsys.names),
            "coefficients": [
                {
                    "i": coeff.power,
                    "polynomial": str(coeff.polynomial),
                    "certificate": coeff.membership.to_json_dict(),
                }
                for coeff in self.coefficients
            ],
        }


def _nested_membership(data: Mapping) -> MembershipCertificate:
    """The membership certificate in a certificate's `certificate` field."""
    if not isinstance(nested := certificate_field(data, "certificate"), Mapping):
        raise ValueError("field 'certificate' must be an object")
    return MembershipCertificate.from_json_dict(nested)


# The largest exponent a `degree`, `i` or `power` field may hold.  What the
# power costs to expand is charged against `MAX_CHECK_WORK` as it runs.
MAX_CERT_EXPONENT = 100_000


def _check_exponents(exponents: Iterable[tuple[str, object]]) -> None:
    """Before any arithmetic: every exponent a JSON integer >= 0 and at most
    `MAX_CERT_EXPONENT`, or ValueError naming the field."""
    for field, k in exponents:
        if type(k) is not int or k < 0:  # JSON true is a Python int
            raise ValueError(f"field {field!r} must be a nonnegative integer")
        if k > MAX_CERT_EXPONENT:
            raise ValueError(f"field {field!r}: exponent {k} is over the cap {MAX_CERT_EXPONENT}")


def verify_relation_json(data: Mapping) -> bool:
    """Re-check a serialized relation certificate: `verify` on the parsed object."""
    return RelationCertificate.from_json_dict(data).verify()


def _require_homogeneous(x: Polynomial, minimum_degree: int = 1) -> int:
    if not x.is_homogeneous():
        raise NotHomogeneous("search input must be homogeneous")
    e = x.degree()
    if e < minimum_degree:
        raise NotHomogeneous(f"search input must have degree >= {minimum_degree}")
    return e


def _powers(x: Polynomial, max_degree: int, minimum_degree: int) -> tuple[int, list[Polynomial]]:
    """x's degree e and its powers x^0..x^max_degree, once x is checked
    homogeneous and free of parameters, which coordinate frames lack."""
    e = _require_homogeneous(x, minimum_degree)
    vs = x.varsys
    for i in vs.parameter_indices:
        if any(m[i] for m in x.terms):
            raise ValueError(f"search input involves the parameter {vs.names[i]!r}")
    return e, list(accumulate(repeat(x, max_degree), mul, initial=vs.one()))


def _columns(
    basisdata: GradedBasis, powers: list[Polynomial], e: int, weight: int, top: int
) -> tuple[list[dict[tuple[int, ...], Fraction]], list[tuple[int, Polynomial]]]:
    """For i from `top` down to 0 and each basis row b of A_{weight - i*e}:
    the terms of b * x^i as a column, and (i, b) as its owner."""
    columns, owners = [], []
    for i in range(top, -1, -1):
        for basis_poly in basisdata.piece(weight - i * e).polynomials():
            columns.append((basis_poly * powers[i]).terms)
            owners.append((i, basis_poly))
    return columns, owners


def _relation(
    x: Polynomial, algebra: SubalgebraSpec, n: int, monic: bool, owners: list, vec: Mapping
) -> RelationCertificate:
    """The relation whose coefficient of x^i sums value * b over the
    owners (i, b) of `vec`, each certified.  A non-monic one is scaled so
    its x^n coefficient has leading coefficient 1.

    Every entry of `vec` is nonzero and one power's basis rows b are
    independent, so no coefficient is zero; a non-monic `vec` holds an
    x^n column."""
    by_power: dict[int, Polynomial] = {}
    for j, value in sorted(vec.items()):
        i, basis_poly = owners[j]
        by_power[i] = by_power.get(i, algebra.varsys.zero()) + basis_poly * value
    if not monic:
        top = by_power[n]
        scale = 1 / top.terms[top.leading_monomial()]
        by_power = {i: poly * scale for i, poly in by_power.items()}
    coefficients = []
    for i in sorted(by_power, reverse=True):
        poly = by_power[i]
        cert = membership(algebra, poly)
        if cert is None:
            raise RuntimeError("internal error: solved coefficient not in algebra")
        coefficients.append(RelationCoefficient(i, poly, cert))
    return RelationCertificate(x, n, monic, tuple(coefficients))


def integral_relation_search(
    x: Polynomial, algebra: SubalgebraSpec, max_degree: int
) -> RelationCertificate | None:
    """Least-degree monic relation x^n + a_{n-1} x^{n-1} + ... + a_0 = 0 with
    homogeneous coefficients a_i in the subalgebra, for n <= max_degree.

    None means no such relation up to the bound (not a proof that x fails
    to be integral; see `non_integrality_by_specialization` for the
    conclusive route).
    """
    e, powers = _powers(x, max_degree, 1)
    basisdata = algebra.graded_basis()
    for n in range(1, max_degree + 1):
        columns, owners = _columns(basisdata, powers, e, e * n, n - 1)
        columns.append((-powers[n]).terms)
        solution = solve(columns)
        if solution is None:
            continue
        return _relation(x, algebra, n, True, owners, solution)
    return None


def algebraic_relation_search(
    x: Polynomial,
    algebra: SubalgebraSpec,
    max_degree: int,
    max_coeff_degree: int,
) -> RelationCertificate | None:
    """Least nonzero relation b_n x^n + ... + b_0 = 0 with coefficients in
    the subalgebra and b_n != 0, minimizing n and then coefficient degree.

    Homogeneous weights: for x of degree e the candidate of weight w uses
    b_i of degree w - i*e, scanned for w up to max_coeff_degree.  A nonzero
    constant c (e = 0) gets x - c = 0 at weight 0.
    """
    e, powers = _powers(x, max_degree, 0)
    basisdata = algebra.graded_basis()
    for n in range(1, max_degree + 1):
        for weight in range(n * e, max_coeff_degree + 1):
            if basisdata.piece(weight - n * e).dim == 0:
                continue
            columns, owners = _columns(basisdata, powers, e, weight, n)
            # Every kernel vector holds an x^n column: one without is a relation of
            # top power n' < n at this weight, which the search at n' returned.
            kernel = integer_kernel(columns)
            if kernel:
                return _relation(x, algebra, n, False, owners, kernel[0])
    return None


@dataclass(frozen=True)
class LocalizationCertificate:
    """Witness that f lies in A[1/g]: the least power k with f*g^k in A."""

    numerator: Polynomial
    localizing: Polynomial
    power: int
    membership: MembershipCertificate

    @classmethod
    def from_json_dict(cls, data: Mapping) -> LocalizationCertificate:
        """Invert `to_json_dict`, parsing every text under the parser budget."""
        membership = _nested_membership(data)
        varsys = membership.algebra.varsys
        numerator = certificate_text(data, "numerator", varsys)
        localizing = certificate_text(data, "localizing", varsys)
        return cls(numerator, localizing, certificate_field(data, "power"), membership)

    def verify(self) -> bool:
        """Re-check f*g^k against the membership target within one
        `MAX_CHECK_WORK` budget; a malformed power raises ValueError."""
        _check_exponents([("power", self.power)])
        budget = _check_budget("power", self.numerator.varsys)
        product = budget.multiply(self.numerator, budget.power(self.localizing, self.power))
        return self.membership.target == product and self.membership.verify()

    def to_json_dict(self) -> dict:
        return {
            "cert_type": "localization",
            "numerator": str(self.numerator),
            "localizing": str(self.localizing),
            "power": self.power,
            "certificate": self.membership.to_json_dict(),
        }


def verify_localization_json(data: Mapping) -> bool:
    """Re-check a serialized localization certificate: `verify` on the parsed object."""
    return LocalizationCertificate.from_json_dict(data).verify()


def localization_contains(
    f: Polynomial, algebra: SubalgebraSpec, g: Polynomial, max_power: int
) -> LocalizationCertificate | None:
    """Least k <= max_power with f*g^k in the algebra, certifying that f
    belongs to the localization at g.  Requires g itself to be a member."""
    _require_homogeneous(f, minimum_degree=0)
    _require_homogeneous(g)
    if membership(algebra, g) is None:
        raise ValueError("localizing element is not in the algebra")
    product = f
    for k in range(max_power + 1):
        cert = membership(algebra, product)
        if cert is not None:
            return LocalizationCertificate(f, g, k, cert)
        product = product * g
    return None


def non_integrality_by_specialization(
    x: Polynomial, algebra: SubalgebraSpec, vanishing: Sequence[str]
) -> bool:
    """Conclusive non-integrality via a coordinate specialization.

    If sending the listed variables to zero kills every generator while
    leaving x nonconstant, then a monic relation of any degree would
    specialize to a monic polynomial identity over the constants for a
    nonconstant element of a polynomial ring, which is impossible.  True
    means x is certainly not integral over the algebra (no degree bound
    involved).  Specialization keeps exactly the terms free of the listed
    variables, and distinct terms cannot cancel, so only exponents are read.
    """
    vs = algebra.varsys
    zeroed = [vs.index(name) for name in vanishing]

    def kept(f: Polynomial) -> list[tuple[int, ...]]:
        return [m for m in f.terms if not any(m[i] for i in zeroed)]

    if any(kept(generator) for _, generator in algebra.generators):
        return False
    return any(vs.degree_of(m) >= 1 for m in kept(x.embed(vs)))


def transcendental_over_constants(x: Polynomial, algebra: SubalgebraSpec) -> bool:
    """Conclusive transcendence when the algebra is just the constants.

    A nonconstant element of a polynomial ring satisfying a nonzero
    polynomial over the ground field would be invertible, and the only
    units are the constants; so no algebraic relation exists at all.
    """
    return not algebra.generators and x.degree() >= 1
