"""Finitely generated graded subalgebras of a polynomial ring.

Graded-piece bases, exact membership with evaluable certificates,
intersections with coordinate subrings, indecomposable generators, and the
fast path for monomial algebras.  Everything here is exact per degree:
positive homogeneous generators make each graded piece a finite linear
algebra problem, with no truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count, repeat
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .exactlin import Echelon, SpanBasis
from .poly import (
    Polynomial,
    VarSystem,
    VarSystemMismatch,
    _accumulate,
    _check_budget,
    _image_entry,
    _integer_terms,
    _product,
    _substitute_terms,
    format_monomial,
    monomials_of_degree,
)


class NotHomogeneous(ValueError):
    """A generator (or search input) violates a homogeneity requirement."""


class SubalgebraSpec:
    """A subalgebra given by labeled, nonzero, parameter-free generators
    over a fixed variable system.

    The graded machinery (`graded_basis` and every query through it) needs
    every generator homogeneous of positive degree; otherwise each graded
    query raises `NotHomogeneous` and nothing is cached.  Uses that only
    substitute the generators, such as certificate checks, take any list.
    `complete_through` marks a generator list that is only faithful up to
    some degree (used for algebras that are not finitely generated); graded
    queries beyond it are rejected rather than silently wrong.
    """

    __slots__ = (
        "varsys",
        "generators",
        "complete_through",
        "label_system",
        "_graded",
        "_texts",
        "_images",
    )

    def __init__(
        self,
        varsys: VarSystem,
        generators: Sequence[tuple[str, Polynomial]],
        complete_through: int | None = None,
    ):
        gens = tuple((label, poly) for label, poly in generators)
        labels = [label for label, _ in gens]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be distinct")
        param_idx = set(varsys.parameter_indices)
        for label, poly in gens:
            if poly.varsys != varsys:
                raise VarSystemMismatch(f"generator {label!r} over a different system")
            if poly.is_zero():
                raise ValueError(f"generator {label!r} is zero")
            if any(m[i] for m in poly.terms for i in param_idx):
                raise ValueError(f"generator {label!r} involves parameters")
        self.varsys = varsys
        self.generators = gens
        self.complete_through = complete_through
        self.label_system = VarSystem(tuple(labels))
        self._graded: GradedBasis | None = None
        self._texts: tuple[tuple[str, str], ...] | None = None
        self._images: tuple[tuple, ...] | None = None

    def generator_texts(self) -> list[list[str]]:
        """Fresh `[label, text]` pairs of the generators, each text printed
        once per algebra (every certificate over it carries them all)."""
        if self._texts is None:
            self._texts = tuple((label, str(poly)) for label, poly in self.generators)
        return [[label, text] for label, text in self._texts]

    def _image_table(self) -> tuple[tuple, ...]:
        """Per generator, in label order, its substitution table entry
        (`poly._image_entry`), built once per algebra: certificate checks
        read only the entries of the labels their expression uses."""
        if self._images is None:
            self._images = tuple(_image_entry(poly.terms) for _, poly in self.generators)
        return self._images

    def graded_basis(self) -> GradedBasis:
        if self._graded is None:
            self._graded = GradedBasis(self)
        return self._graded

    def __repr__(self) -> str:
        return f"<SubalgebraSpec {len(self.generators)} generators over {self.varsys!r}>"


class _Piece(NamedTuple):
    """One degree d: the basis of A_d, its rows' label expressions (None
    until `tracked_piece` adds them), (A+ . A+)_d, the products that
    raised the rank, each as (lower degree, lower row index, generator
    entry), the lone generators among them with lower degree 0, and per
    basis row, in pivot order, the `Echelon` stamp of the block (generator
    degree) in which d's stream last stored or changed it."""

    basis: SpanBasis
    exprs: tuple[Polynomial, ...] | None
    decomposable: SpanBasis
    sources: tuple[tuple[int, int, tuple], ...]
    stamps: tuple[int, ...]

    @property
    def representatives(self) -> tuple[Polynomial, ...]:
        """The degree-d generators that raise the rank past (A+ . A+)_d."""
        return tuple(gen for lower, _, (_, gen, _, _) in self.sources if lower == 0)


def _product_row(index: Mapping[tuple, int], bterms: Mapping, gterms: Mapping) -> dict[int, int]:
    """The integer row of the product of two integer term maps, over the
    frame whose column of each exponent tuple `index` gives."""
    if len(bterms) == 1:
        bterms, gterms = gterms, bterms
    if len(gterms) == 1:  # one term shifts the other's exponents injectively: nothing cancels
        ((e2, c2),) = gterms.items()
        return {index[tuple(map(add, e1, e2))]: c1 * c2 for e1, c1 in bterms.items()}
    return _accumulate({}, (
        (index[tuple(map(add, e1, e2))], c1 * c2)
        for e1, c1 in bterms.items() for e2, c2 in gterms.items()
    ))


class GradedBasis:
    """Memoized degreewise bases of a homogeneous subalgebra, made by its
    first graded query.  The constructor grades each generator once and
    raises `NotHomogeneous` naming the first that is not homogeneous of
    positive degree.

    Each degree is one elimination over one product stream: every basis row
    of A_{d-e} times every generator of degree e <= d, the lone degree-d
    generators (times the basis row 1 of A_0) last.  That spans A_d, since
    positive homogeneous grading rules out cancellation from higher
    products.  The prefix before the lone generators spans (A+ . A+)_d: a
    product of two positive-degree members is a sum of generator monomials
    of two or more factors, each a member of A_{d-e} times a generator of
    degree e < d.  So the lone generators that raise the rank represent the
    indecomposables.  Each product multiplies a basis row b of A_{d-e}, an
    integer multiple s_b*b of the reduced row with s_b its pivot entry, by
    the generator g scaled to integer terms by the lcm s_g of its
    denominators: the integer row s_b*s_g*b*g.  A degree's generators are
    scaled when its own piece is built, so a build never scales generators
    of degrees it does not reach.

    For e < d the stream skips every degree-e generator g that did not
    raise the rank of A_e (the subalgebra analogue of Buchberger's
    criteria, Gebauer and Möller 1988).  Such a g lies in the span of the
    products of A_e's stream before it: products b'*g' with g' of degree
    e' < e, and earlier degree-e generators.  So for b in A_{d-e}, b*g lies
    in the span of the products b*b'*g' of block e' (b*b' is in A_{d-e'})
    and b*g'' of earlier generators g'' of block e, all streamed before it;
    by induction on e this holds when those blocks are filtered too.  Each
    skipped product is therefore dependent at its turn, and an `insert`
    that returns False leaves `Echelon` unchanged, so skipping it moves no
    rank-raising product, no `sources` entry and no report byte.  The lone
    degree-d generators are all streamed: they decide the representatives.

    Block e < d also skips every basis row b of A_k, k = d-e, that lies in
    P(k, e), the span of A_k's own stream before its block e (all of A_k
    when e > k, so such a block is skipped whole); in the spirit of
    Faugère's F5 (ISSAC 2002), which likewise drops products known to
    reduce to zero.  Such a b is a sum of products b'*g' with g' of degree
    e' < e, and b'*g'*g = (b'*g)*g' with b'*g in A_{d-e'}: a product of
    block e', streamed before, and by induction on e also when earlier
    blocks are filtered.  `Echelon` stamps each row with the block in which
    it was last stored or changed, and b lies in P(k, e) iff its stamp is
    below e.  A row stamped s < e was stored, as it is now, when block e
    began.  A row stamped s >= e was, at its last change, either stored
    new or back-reduced by a nonzero multiple of a new row independent of
    everything stored before it, so it is outside P(k, e): the test is
    exact.  The row 1 of A_0 is no product and is never skipped.

    One cache entry per degree holds all of it, built once.  The products
    that raised the rank are recorded as where they came from, not as rows,
    and `tracked_piece` derives the label expressions from them on first
    request (the raw material for membership certificates).  Entries are
    only added or given expressions, so concurrent callers may compute
    either twice, but always to equal values.
    """

    def __init__(self, algebra: SubalgebraSpec):
        # Not the algebra itself: it caches this object, and a reference
        # cycle would keep dropped algebras' pieces until a full collection.
        self.varsys, self.labels = algebra.varsys, algebra.label_system
        self.complete_through = algebra.complete_through
        self._pieces: dict[int, _Piece] = {}
        # Ascending degrees; per generator: label index, polynomial.
        by_degree: dict[int, list[tuple[int, Polynomial]]] = {}
        for k, (label, gen) in enumerate(algebra.generators):
            degrees = set(map(self.varsys.degree_of, gen.terms))
            if len(degrees) > 1 or 0 in degrees:
                raise NotHomogeneous(f"generator {label!r} is not homogeneous of positive degree")
            by_degree.setdefault(degrees.pop(), []).append((k, gen))
        self._by_degree = dict(sorted(by_degree.items()))

    def _build(self, degree: int) -> _Piece:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.complete_through is not None and degree > self.complete_through:
            raise ValueError(
                f"generator list is only faithful through degree {self.complete_through}; "
                f"degree {degree} requested"
            )
        vs = self.varsys
        frame = monomials_of_degree(vs, degree)
        index = {m: i for i, m in enumerate(frame)}
        ech = Echelon(len(frame))
        sources = []
        decomposable = None
        if degree == 0:
            ech.insert({0: 1})
        for e, block in self._by_degree.items():
            if e > degree:
                break
            rows = self._lower_rows(degree, e)
            if not rows:
                continue
            # Per generator: label index, polynomial, integer terms, scale.
            if e < degree:
                gens = [gen for lower, _, gen in self._entry(e).sources if lower == 0]
            else:
                decomposable = SpanBasis.of_echelon(vs, frame, ech)
                gens = [(k, gen, dict(terms), s) for k, gen in block
                        for terms, s in [_integer_terms(gen.terms.items())]]
            ech.block = e
            for gen in gens:
                for i, brow in rows:
                    if ech.insert(_product_row(index, brow, gen[2])):
                        sources.append((degree - e, i, gen))
        basis = SpanBasis.of_echelon(vs, frame, ech)
        stamps = tuple(map(ech.stamps.__getitem__, ech.pivots))
        return _Piece(basis, None, decomposable or basis, tuple(sources), stamps)

    def _lower_rows(self, degree: int, e: int) -> list[tuple[int, Mapping]]:
        """The basis rows of A_{d-e}, with their indices, that block e of
        degree d streams: the row 1 of A_0 when e = d, else those stamped
        e or later, outside P(d-e, e), and none when e > d-e."""
        if e == degree:
            return list(enumerate(self.piece(0).rows))
        if 2 * e > degree:
            return []
        lower = self._entry(degree - e)
        return [(i, row) for (i, row), s in zip(enumerate(lower.basis.rows), lower.stamps) if s >= e]

    def _expressions(self, degree: int, entry: _Piece) -> tuple[Polynomial, ...]:
        """Each basis row's label expression, from the products that raised
        the rank.  Those r products P are independent and span A_d, so
        P = N*B for the basis rows B, with N the products' entries at the
        basis pivots, and B = N^-1 * P uniquely.  Eliminating the rows
        [N | I] gives rows that are multiples of [I | N^-1], so basis row
        i's expression is the combination sum_j (N^-1)_ij of the products'
        formals expr_b * label_g * s_b*s_g, each of which evaluates to its
        row."""
        if degree == 0:
            return (self.labels.one(),)
        basis = entry.basis
        position = {p: col for col, p in enumerate(basis.pivots)}
        r = basis.dim
        ech = Echelon(2 * r)
        formals = []
        lower_exprs = {d: self.tracked_piece(d)[1] for d in {s[0] for s in entry.sources}}
        for j, (lower, i, (k, _, gterms, sg)) in enumerate(entry.sources):
            lower_basis = self._pieces[lower].basis
            sb = lower_basis.rows[i][lower_basis.pivots[i]]
            product = _product(lower_basis.rows[i], gterms)
            row = {position[m]: v for m, v in product.items() if m in position}
            row[r + j] = 1
            ech.insert(row)
            formals.append((lower_exprs[lower][i].terms, k, sb * sg))
        return tuple(
            Polynomial._trusted(self.labels, _accumulate({}, (
                (e[:k] + (e[k] + 1,) + e[k + 1:], c * Fraction(s * x, row[i]))
                for j, x in row.items() if j >= r
                for t, k, s in [formals[j - r]] for e, c in t.items()
            ))) for i, row in enumerate(ech.emit()[0])
        )

    def _entry(self, degree: int) -> _Piece:
        if degree < 1:
            raise ValueError("degree must be positive")
        self.piece(degree)
        return self._pieces[degree]

    def piece(self, degree: int) -> SpanBasis:
        if degree not in self._pieces:
            self._pieces.setdefault(degree, self._build(degree))
        return self._pieces[degree].basis

    def tracked_piece(self, degree: int) -> tuple[SpanBasis, tuple[Polynomial, ...]]:
        """`piece(degree)` and, per basis row, a formal polynomial in the
        generator labels that evaluates to it."""
        self.piece(degree)
        entry = self._pieces[degree]
        if entry.exprs is None:
            entry = self._pieces[degree] = entry._replace(exprs=self._expressions(degree, entry))
        return entry.basis, entry.exprs


@dataclass(frozen=True, slots=True)
class MembershipCertificate:
    """A formal polynomial in generator labels that evaluates to the target.

    Soundness is checkable by anyone: substitute the generators for their
    labels and compare with the target using plain polynomial arithmetic.
    """

    algebra: SubalgebraSpec
    target: Polynomial
    expression: Polynomial

    @classmethod
    def from_json_dict(cls, data: Mapping) -> MembershipCertificate:
        """Invert `to_json_dict`: `from_key` of the `membership_key`.  Zero
        generators are allowed, as the constants lie in every subalgebra:
        with none, a constant expression can verify and any label fails to
        parse."""
        return cls.from_key(membership_key(data))

    @classmethod
    def from_key(cls, key: tuple) -> MembershipCertificate:
        """The certificate a `membership_key` holds, its algebra from the
        `_certificate_algebra` memo, every text parsed under the parser
        budget; each ValueError names its field."""
        names, generators, target, expression = key
        algebra = _certificate_algebra(names, generators)
        expression = _parse_field("expression", expression, algebra.label_system)
        return cls(algebra, _parse_field("target", target, algebra.varsys), expression)

    def verify(self) -> bool:
        """Substitute the generators into the expression within one
        `MAX_CHECK_WORK` budget and compare with the target, reading from
        the algebra's `_image_table` only the entries of the labels the
        expression uses.  An expression over any system but the algebra's
        `label_system` raises VarSystemMismatch."""
        algebra, expression = self.algebra, self.expression
        if expression.varsys != algebra.label_system:
            raise VarSystemMismatch("expression is not over the generator labels")
        budget = _check_budget("expression", algebra.varsys)
        image = _substitute_terms(expression.terms, algebra._image_table(), algebra.varsys, budget)
        return image == self.target

    def to_json_dict(self) -> dict:
        return {
            "cert_type": "membership",
            "variables": list(self.algebra.varsys.names),
            "generators": self.algebra.generator_texts(),
            "target": str(self.target),
            "expression": str(self.expression),
        }

    def __repr__(self) -> str:
        return f"<MembershipCertificate {self.target} = {self.expression}>"


def certificate_field(data: Mapping, field: str, varsys: VarSystem | None = None):
    """A serialized certificate's field, or ValueError if it is missing;
    given a system, the field's text parsed over it, a value that is no
    string and every parse error named by the field."""
    if varsys is not None:
        return _parse_field(field, _text_field(data, field), varsys)
    if field not in data:
        raise ValueError(f"field {field!r} is missing")
    return data[field]


def _text_field(data: Mapping, field: str) -> str:
    text = certificate_field(data, field)
    if not isinstance(text, str):
        raise ValueError(f"field {field!r} must be a string")
    return text


def _parse_field(field: str, text: str, varsys: VarSystem) -> Polynomial:
    try:
        return varsys.parse(text)
    except ValueError as exc:
        raise ValueError(f"field {field!r}: {exc}") from None


def certificate_names(data: Mapping) -> tuple[str, ...]:
    """A serialized certificate's `variables` field, shape-checked."""
    names = certificate_field(data, "variables")
    if not isinstance(names, list) or not all(map(isinstance, names, repeat(str))):
        raise ValueError("field 'variables' must be a list of strings")
    return tuple(names)


def certificate_system(names: tuple[str, ...]) -> VarSystem:
    """The system of `certificate_names`, errors named by the field."""
    try:
        return VarSystem(names)
    except ValueError as exc:
        raise ValueError(f"field 'variables': {exc}") from None


def membership_key(data: Mapping) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...], str, str]:
    """Every field a serialized membership certificate's check reads,
    shape-checked, as a hashable key: the `variables`, the `generators` as
    (label, text) pairs, and the `target` and `expression` texts.  A
    `cert_type` other than "membership", or a field that is missing or of
    the wrong type, raises ValueError naming it."""
    if certificate_field(data, "cert_type") != "membership":
        raise ValueError("field 'cert_type' must be \"membership\"")
    names = certificate_names(data)
    generators = certificate_field(data, "generators")
    if not (isinstance(generators, list) and all(map(isinstance, generators, repeat(list)))
            and set(map(len, generators)) <= {2}
            and all(map(isinstance, chain.from_iterable(generators), repeat(str)))):
        raise ValueError("field 'generators' must be a list of [label, text] string pairs")
    expression = _text_field(data, "expression")
    return names, tuple(map(tuple, generators)), _text_field(data, "target"), expression


# A report's certificates share one generator list (each of the nine
# scenario reports holds one).  `lru_cache` never stores a call that raised,
# so a bad list is parsed and rejected again on every call.
@lru_cache(maxsize=8)
def _certificate_algebra(
    names: tuple[str, ...], texts: tuple[tuple[str, str], ...]
) -> SubalgebraSpec:
    """The algebra of the labeled generator `texts`, parsed over the system
    of `names`.  Certificates only substitute its generators, which are
    never graded, so they need not be homogeneous."""
    varsys = certificate_system(names)
    try:
        generators = [(label, varsys.parse(text)) for label, text in texts]
        return SubalgebraSpec(varsys, generators)
    except ValueError as exc:
        raise ValueError(f"field 'generators': {exc}") from None


def verify_membership_json(data: Mapping) -> bool:
    """Re-check a serialized membership certificate: `verify` on the parsed object."""
    return MembershipCertificate.from_json_dict(data).verify()


def graded_piece(algebra: SubalgebraSpec, degree: int) -> SpanBasis:
    """Basis of the degree-d piece (span of all generator products of total
    degree exactly d; constants alone in degree 0)."""
    return algebra.graded_basis().piece(degree)


def membership(algebra: SubalgebraSpec, f: Polynomial) -> MembershipCertificate | None:
    """Exact membership test with an evaluable certificate on success.

    The generators must be homogeneous of positive degree (`graded_basis`
    raises `NotHomogeneous` otherwise).  The input is split into
    homogeneous components; it belongs to the algebra iff every component
    does.  A None answer is definitive.  Every component is reduced
    against its piece before any label expressions are derived, so a
    non-member never pays for them.
    """
    if f.varsys != algebra.varsys:
        raise VarSystemMismatch("candidate over a different system")
    labels = algebra.label_system
    terms: dict[tuple[int, ...], Fraction] = {}
    basisdata = algebra.graded_basis()
    parts = []
    for degree, component in f.homogeneous_components().items():
        coords, residual = basisdata.piece(degree)._reduce(component.terms)
        if residual:
            return None
        parts.append((degree, coords))
    for degree, coords in parts:
        exprs = basisdata.tracked_piece(degree)[1]
        for i in sorted(coords):
            c = coords[i]
            _accumulate(terms, ((m, v * c) for m, v in exprs[i].terms.items()))
    certificate = MembershipCertificate(algebra, f, Polynomial._trusted(labels, terms))
    if not certificate.verify():
        raise RuntimeError("internal error: certificate failed to re-evaluate")
    return certificate


def intersect_with_subring(
    algebra: SubalgebraSpec, names: Sequence[str], degree: int
) -> SpanBasis:
    """Basis of (A ∩ k[names])_d, computed as a span intersection."""
    subring = SpanBasis.of_degree(algebra.varsys, degree, names)
    return graded_piece(algebra, degree).intersect(subring)


def monomial_membership(
    varsys: VarSystem, x_names: Sequence[str], y_names: Sequence[str], mono: tuple[int, ...]
) -> bool:
    """Closed-form membership of a monomial of `varsys` in the y-positive
    monomial algebra over the `x_names` and `y_names` variables (the one
    `y_positive_monomial_algebra` truncates).

    Its span is exactly the constants plus all monomials in the x and y
    variables with positive total degree in the y variables; this is the
    independent fast path cross-checked against the generic engine.
    """
    if len(mono) != varsys.nvars:
        raise VarSystemMismatch("monomial length does not match system")
    if not any(mono):
        return True
    inside = {varsys.index(nm) for nm in (*x_names, *y_names)}
    ydeg = sum(mono[varsys.index(nm)] for nm in y_names)
    return ydeg >= 1 and all(i in inside for i in compress(count(), mono))


def y_positive_monomial_algebra(
    varsys: VarSystem,
    x_names: Sequence[str],
    y_names: Sequence[str],
    max_degree: int,
) -> SubalgebraSpec:
    """The algebra spanned by monomials in x and y with positive y-degree.

    It is not finitely generated, so the generator list is truncated at
    `max_degree`; the result is marked accordingly and exact up to there
    (every spanning monomial of degree <= max_degree is itself a
    generator).
    """
    generators: list[tuple[str, Polynomial]] = []
    y_idx = [varsys.index(nm) for nm in y_names]
    one = Fraction(1)
    for degree in range(1, max_degree + 1):
        for mono in monomials_of_degree(varsys, degree, tuple(x_names) + tuple(y_names)):
            if any(mono[i] for i in y_idx):
                gen = Polynomial._trusted(varsys, {mono: one})
                label = format_monomial(mono, varsys).replace("*", "_").replace("^", "e")
                generators.append(("m_" + label, gen))
    return SubalgebraSpec(varsys, generators, complete_through=max_degree)


def decomposable_span(algebra: SubalgebraSpec, degree: int) -> SpanBasis:
    """Basis of (A+ . A+)_d: products of two positive-degree members."""
    return algebra.graded_basis()._entry(degree).decomposable


def indecomposable_generators(algebra: SubalgebraSpec, degree: int) -> SpanBasis:
    """The span of the degree-d generators that raise the rank of A_d past
    (A+ . A+)_d, taken in generator order.

    It is a complement of (A+ . A+)_d inside A_d, and its dimension is the
    number of new generators the algebra needs in degree d.
    """
    entry = algebra.graded_basis()._entry(degree)
    return SpanBasis.from_polynomials(algebra.varsys, entry.representatives)
