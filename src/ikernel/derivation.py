"""k-derivations on polynomial rings.

Application via the Leibniz rule, invariance of subalgebras, and graded
kernel computation: the engine that turns rings of invariants into
degreewise linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import MembershipCertificate, SubalgebraSpec, membership
from .exactlin import SpanBasis, kernel_span
from .poly import Polynomial, VarSystem, VarSystemMismatch, monomials_of_degree
from .poly import _accumulate, _from_exponent_map


class InhomogeneousDerivation(ValueError):
    """The graded kernel machinery needs homogeneous images of one shift."""


class Derivation:
    """A k-derivation given by its images on variables (missing image = 0).

    The images are kept once, lowered and scaled to integers by s, the lcm
    of their denominators: per variable v with an image, v's index and the
    image's terms c*t as (t - v, s*c), so a term a*m of f maps to
    (m - v + t, a*m_v*s*c) in s*d(f).
    """

    __slots__ = ("varsys", "images", "_scale", "_lowered")

    def __init__(self, varsys: VarSystem, images: Mapping[str, Polynomial]):
        clean: dict[str, Polynomial] = {}
        for name, poly in images.items():
            varsys.index(name)
            if poly.varsys != varsys:
                raise VarSystemMismatch(f"image of {name!r} over a different system")
            if not poly.is_zero():
                clean[name] = poly
        self.varsys = varsys
        self.images = clean
        self._scale = s = lcm(*(c.denominator for p in clean.values() for c in p.terms.values()))
        self._lowered = []
        for name, poly in clean.items():
            i, terms = varsys.index(name), poly._exponent_map().items()
            self._lowered.append((i, [
                (t[:i] + (t[i] - 1,) + t[i + 1:], c.numerator * (s // c.denominator)) for t, c in terms
            ]))

    def _scaled_terms(self, terms: Iterable[tuple[tuple[int, ...], object]]) -> Iterator[tuple]:
        """The terms, not yet added up, of s*d(f) for f given by its
        (exponents, coefficient) terms."""
        return (
            (tuple(map(add, m, t)), a * e * c)
            for m, a in terms
            for i, lowered in self._lowered
            if (e := m[i])
            for t, c in lowered
        )

    def apply(self, f: Polynomial) -> Polynomial:
        """d(f) = sum over variables of image * df/dvariable, exactly, as one
        accumulation of term products."""
        if f.varsys != self.varsys:
            raise VarSystemMismatch("polynomial over a different system")
        image = _accumulate({}, self._scaled_terms(f._exponent_map().items()))
        if self._scale != 1:
            image = {t: c / self._scale for t, c in image.items()}
        return _from_exponent_map(self.varsys, image)

    def homogeneous_shift(self) -> int | None:
        """Degree shift of the induced graded map, or None for the zero map.

        Requires every image homogeneous and all shifts equal; otherwise the
        derivation does not map graded pieces to graded pieces.
        """
        shifts = set()
        for name, image in self.images.items():
            if not image.is_homogeneous():
                raise InhomogeneousDerivation(f"image of {name!r} is inhomogeneous")
            shifts.add(image.degree() - 1)
        if not shifts:
            return None
        if len(shifts) > 1:
            raise InhomogeneousDerivation("images have different degree shifts")
        return shifts.pop()

    def power_annihilates(self, f: Polynomial, max_iterations: int) -> int | None:
        """Least N <= max_iterations with d^N(f) = 0, or None if not reached.

        Public API: this is the local-nilpotence check behind the G_a
        actions of the paper, which exist exactly for locally nilpotent d."""
        current = f
        for n in range(max_iterations + 1):
            if current.is_zero():
                return n
            current = self.apply(current)
        return None

    def to_json_dict(self) -> dict[str, str]:
        return {name: str(poly) for name, poly in sorted(self.images.items())}

    def __repr__(self) -> str:
        inside = ", ".join(f"{n} -> {p}" for n, p in sorted(self.images.items()))
        return f"<Derivation {inside or '0'}>"


def kernel_graded_basis(
    derivations: Sequence[Derivation],
    ambient: VarSystem | SubalgebraSpec,
    degree: int,
) -> SpanBasis:
    """Basis of the joint kernel of a derivation family in one graded piece.

    The domain is the degree-d piece: every monomial of that degree over the
    full ring, the basis of A_d inside a subalgebra A.  One nullspace over
    the images of the domain's basis rows then gives exactly ker ∩ A_d,
    whether or not the family preserves A.
    """
    # Domain rows as integer terms with their scales: s_j * domain[j].
    if isinstance(ambient, SubalgebraSpec):
        varsys: VarSystem = ambient.varsys
        graded = ambient.graded_basis()
        domain = graded.piece(degree)
        rows = graded._pieces[degree].rows
    else:
        varsys = ambient
        domain = SpanBasis.of_monomials(varsys, monomials_of_degree(varsys, degree))
        rows = [([(m.exponents, 1)], 1) for m in domain.ambient]

    # Stack the derivations' scaled images, each in its own block of rows:
    # scaling a block leaves the kernel alone.
    images: list[dict[int, int]] = [{} for _ in rows]
    height = 0
    for drv in derivations:
        if drv.varsys != varsys:
            raise VarSystemMismatch("derivation over a different system")
        shift = drv.homogeneous_shift()
        if shift is None:
            continue
        targets = monomials_of_degree(varsys, degree + shift)
        row = {m.exponents: height + r for r, m in enumerate(targets)}
        height += len(targets)
        for image, (terms, _) in zip(images, rows):
            _accumulate(image, ((row[t], c) for t, c in drv._scaled_terms(terms)))

    scales = {j: s for j, (_, s) in enumerate(rows) if s != 1}
    return kernel_span(domain, images, range(height), scales)


@dataclass(frozen=True)
class PreservationResult:
    """Outcome of an invariance check d(A) ⊆ A on the generators."""

    preserved: bool
    certificates: dict[str, MembershipCertificate]
    failure: tuple[str, Polynomial] | None = None


def preserves_subalgebra(derivation: Derivation, algebra: SubalgebraSpec) -> PreservationResult:
    """Decide d(A) ⊆ A exactly, generator by generator.

    Returns a membership certificate per generator, or the first failing
    generator together with its image as a witness.
    """
    certificates: dict[str, MembershipCertificate] = {}
    for label, generator in algebra.generators:
        image = derivation.apply(generator)
        certificate = membership(algebra, image)
        if certificate is None:
            return PreservationResult(False, certificates, (label, image))
        certificates[label] = certificate
    return PreservationResult(True, certificates)
