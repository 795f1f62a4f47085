"""k-derivations on polynomial rings.

Application via the Leibniz rule, invariance of subalgebras, and graded
kernel computation: the engine that turns rings of invariants into
degreewise linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .algebra import MembershipCertificate, SubalgebraSpec, membership
from .exactlin import SpanBasis, kernel_span
from .poly import Polynomial, VarSystem, VarSystemMismatch


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
            i, terms = varsys.index(name), poly.terms.items()
            self._lowered.append((i, [
                (t[:i] + (t[i] - 1,) + t[i + 1:], c.numerator * (s // c.denominator)) for t, c in terms
            ]))

    def _leibniz(self, acc: dict, terms: Iterable[tuple]) -> dict:
        """Add s*d(f), for f given by its (exponents, coefficient) terms, into
        `acc` in place, keyed by exponent tuple; any entry that cancels is
        dropped."""
        get = acc.get
        for m, a in terms:
            for i, image in self._lowered:
                if e := m[i]:
                    ae = a * e
                    for t, c in image:
                        key = tuple(map(add, m, t))
                        if v := get(key, 0) + ae * c:
                            acc[key] = v
                        else:
                            del acc[key]
        return acc

    def apply(self, f: Polynomial) -> Polynomial:
        """d(f) = sum over variables of image * df/dvariable, exactly, as one
        accumulation of term products."""
        if f.varsys != self.varsys:
            raise VarSystemMismatch("polynomial over a different system")
        image = self._leibniz({}, f.terms.items())
        if self._scale != 1:
            image = {t: c / self._scale for t, c in image.items()}
        return Polynomial._trusted(self.varsys, image)

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

    The domain starts as the degree-d piece: every monomial of that degree
    over the full ring, the basis of A_d inside a subalgebra A.  Each
    derivation in turn replaces it by the kernel of its restriction, one
    `kernel_span` over the scaled images of the domain's rows keyed by
    monomial: ker D1 ∩ ker D2 ∩ A_d is the kernel of D2 on ker D1 ∩ A_d.
    That gives exactly ker ∩ A_d, whether or not the family preserves A.
    """
    if isinstance(ambient, SubalgebraSpec):
        varsys: VarSystem = ambient.varsys
        domain = ambient.graded_basis().piece(degree)
    else:
        varsys = ambient
        domain = SpanBasis.of_degree(varsys, degree)
    for drv in derivations:
        if drv.varsys != varsys:
            raise VarSystemMismatch("derivation over a different system")
        drv.homogeneous_shift()  # raises unless the images share one degree shift
        domain = kernel_span(domain, [drv._leibniz({}, row.items()) for row in domain.rows])
    return domain


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
