"""Polynomial arithmetic, grading, substitution, and the text format."""

import re
from fractions import Fraction
from itertools import compress, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import descend_frame

from ikernel import poly
from ikernel.algebra import SubalgebraSpec, intersect_with_subring, y_positive_monomial_algebra
from ikernel.exactlin import SpanBasis
from ikernel.poly import (
    COORDINATE,
    MAX_PARSE_DEPTH,
    PARAMETER,
    Monomial,
    ParseError,
    Polynomial,
    VarSystem,
    VarSystemMismatch,
    _tokenize,
    format_polynomial,
    monomials_of_degree,
    parse_polynomial,
)

VS = VarSystem(("x1", "y1", "z"))
X, Y, Z = (VS.variable(n) for n in ("x1", "y1", "z"))
T1 = X * X + X * Z


def test_varsys_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        VarSystem(("x", "x"))
    with pytest.raises(ValueError):
        VarSystem(("x y",))


def test_add_identity_and_cancellation():
    assert T1 + VS.zero() == T1
    assert (X * X + X * Z) + (-(X * Z)) == X * X
    assert T1 + T1 == 2 * X * X + 2 * X * Z


def test_add_requires_shared_system():
    other = VarSystem(("x1", "y1"))
    with pytest.raises(VarSystemMismatch):
        X + other.variable("x1")


def test_mul_identity_and_products():
    assert T1 * VS.one() == T1
    assert X * (X + Z) == T1
    assert (X + Z) * (X - Z) == X * X - Z * Z


def test_degree_additivity():
    f = X * X + Y
    g = Z * Z * Z - X
    assert (f * g).degree() == f.degree() + g.degree()


def test_substitute_shear():
    extended = VS.extend(("t",))
    shear = {"z": extended.variable("z") + extended.variable("t") * extended.variable("y1")}
    assert Z.substitute(shear) == extended.parse("z + t*y1")
    assert T1.substitute({}, target=VS) == T1
    assert T1.substitute(shear) == extended.parse("x1^2 + x1*z + t*x1*y1")


def test_substitute_missing_target_variable():
    smaller = VarSystem(("x1",))
    with pytest.raises(VarSystemMismatch):
        (X + Y).substitute({"x1": smaller.variable("x1")})


def test_substitution_composes():
    sigma = {"x1": X + Z}
    tau = {"z": Z * Z}
    f = X * Y + Z
    once = f.substitute(sigma).substitute(tau)
    composed = {"x1": (X + Z).substitute(tau), "z": Z.substitute(tau)}
    assert once == f.substitute(composed)


def test_homogeneous_component():
    assert T1.homogeneous_components() == {2: T1}
    assert 1 not in T1.homogeneous_components()
    assert (Z + X * Y).homogeneous_components() == {1: Z, 2: X * Y}
    assert VS.zero().homogeneous_components() == {}
    f = X * X * Y - 3 * Z + VS.constant(Fraction(1, 2))
    assert list(f.homogeneous_components()) == [0, 1, 3]
    assert sum(f.homogeneous_components().values(), VS.zero()) == f


def test_parameters_carry_degree_zero():
    extended = VS.extend(("t",))
    f = extended.parse("t^3*x1 + t*y1")
    assert f.degree() == 1
    assert f.is_homogeneous() and f.degree() == 1
    assert max(sum(m) for m in f.terms) == 4  # parameters count in the monomial


def test_partial_derivative():
    assert T1.partial("x1") == 2 * X + Z
    assert T1.partial("y1").is_zero()
    assert (X ** 3).partial("x1") == 3 * X * X


def test_monomials_of_degree_counts_and_order():
    monos = monomials_of_degree(VS, 2)
    assert len(monos) == 6
    assert monos[0] == VS.monomial({"x1": 2})
    assert monos[-1] == VS.monomial({"z": 2})
    assert monomials_of_degree(VS, 0) == (VS.unit_monomial(),)
    assert [len(monomials_of_degree(VS, d, ("x1", "y1"))) for d in range(4)] == [1, 2, 3, 4]


def test_monomials_of_degree_lists_canonical_order_without_sorting():
    # A parameter in the middle and names given out of order.
    vs = VarSystem(("a", "b", "t", "c", "d", "e"), ["coordinate"] * 2 + ["parameter"] + ["coordinate"] * 3)
    for names in (None, ("e", "a"), ("d", "c", "b")):
        k = 5 if names is None else len(names)
        for d in range(7):
            monos = monomials_of_degree(vs, d, names)
            assert list(monos) == sorted(set(monos), key=Monomial.sort_key)
            assert len(monos) == comb(d + k - 1, k - 1)
            assert all(vs.degree_of(m) == d and not m[2] for m in monos)


@pytest.mark.parametrize("nvars", range(6))
def test_frames_match_the_exponent_recursion(nvars):
    """Every role pattern over `nvars` variables, every subset of its
    coordinates named in ascending and in descending order (and no names),
    degrees 0..6: the frame equals the recursion's and its own sort."""
    names = [f"v{i}" for i in range(nvars)]
    for roles in product((COORDINATE, PARAMETER), repeat=nvars):
        vs = VarSystem(names, roles)
        coords = vs.coordinate_names
        choices = [None]
        for mask in product((False, True), repeat=len(coords)):
            chosen = tuple(compress(coords, mask))
            choices += [chosen, chosen[::-1]]
        for chosen in choices:
            for d in range(7):
                frame = monomials_of_degree(vs, d, chosen)
                assert frame == descend_frame(vs, d, chosen)
                assert list(frame) == sorted(frame, key=Monomial.sort_key)


@pytest.mark.parametrize("build", [
    lambda: monomials_of_degree(VS, 2, ["x1", "x1"]),
    lambda: SpanBasis.of_degree(VS, 2, ["z", "x1", "z"]),
    lambda: intersect_with_subring(SubalgebraSpec(VS, [("g", X)]), ["y1", "y1"], 1),
    lambda: y_positive_monomial_algebra(VS, ["x1"], ["y1", "x1"], 2),
], ids=["monomials_of_degree", "of_degree", "intersect_with_subring", "y_positive_monomial_algebra"])
def test_a_repeated_coordinate_is_rejected_by_name(build):
    # Unchecked, a repeated name gives monomials of several degrees, out of order.
    with pytest.raises(ValueError, match="coordinate '(x1|y1|z)' is repeated"):
        build()


@pytest.mark.parametrize("roles", ["ppccc", "ccpcp", "cccpp", "ccc", "pp"])
def test_degree_of_sums_the_coordinate_exponents(roles):
    # Parameters first, in the middle and last; none, and no coordinates.
    names = [f"v{i}" for i in range(len(roles))]
    vs = VarSystem(names, [COORDINATE if r == "c" else PARAMETER for r in roles])
    for mono in product(range(3), repeat=len(roles)):
        assert vs.degree_of(mono) == sum(mono[i] for i in vs.coordinate_indices)
    with pytest.raises(VarSystemMismatch):
        vs.degree_of((0,) * (len(roles) + 1))


def test_coefficients_in_parameters():
    extended = VS.extend(("t",))
    f = extended.parse("x1^2 + x1*z + t*x1*y1")
    parts = f.coefficients_in(("t",))
    assert parts[(0,)] == T1
    assert parts[(1,)] == X * Y


def test_parse_examples():
    assert parse_polynomial("x1^2 + x1*z", VS) == T1
    assert parse_polynomial("x1^2+x1 z", VS) == T1
    assert parse_polynomial("-x1 + 1/2", VS) == -X + Fraction(1, 2)
    assert parse_polynomial("(x1+z)*(x1-z)", VS) == X * X - Z * Z
    assert parse_polynomial("0", VS).is_zero()


def test_parse_work_budget(monkeypatch):
    from ikernel import poly

    monkeypatch.setattr(poly, "MAX_PARSE_WORK", 600)
    # (x1+z)^k multiplies out in sum_{i<k} 2*(i+1) = k*(k+1) term products.
    k = 24
    assert k * (k + 1) <= 600 < (k + 1) * (k + 2)
    assert len(parse_polynomial(f"(x1+z)^{k}", VS).terms) == k + 1
    with pytest.raises(ParseError, match="term products"):
        parse_polynomial(f"(x1+z)^{k + 1}", VS)
    with pytest.raises(ParseError, match="term products"):
        parse_polynomial("(x1+z)^16*(x1+z)^16", VS)  # 2*272 + 17*17 = 833
    # Zero bases and single terms with coefficient +-1 cost nothing, whatever
    # the exponent; c^k costs k*ceil(log2(|numerator|*denominator)) bits.
    assert parse_polynomial("(x1-x1)^1000000000", VS).is_zero()
    assert parse_polynomial("(x1-x1)^0", VS) == VS.one()
    assert parse_polynomial("(-x1)^1000000000", VS) == X ** 1000000000
    assert parse_polynomial("2^600", VS) == VS.constant(2**600)
    assert parse_polynomial("(2*x1)^599", VS) == (2 * X) ** 599  # and 1 product
    with pytest.raises(ParseError, match="coefficient bits"):
        parse_polynomial("2^601", VS)
    with pytest.raises(ParseError, match="coefficient bits"):
        parse_polynomial("(3/7)^121", VS)  # 5 bits per power: 605


def test_parse_rejects_garbage():
    for text in ("x2", "x1^", "x1^-2", "1//2", "x1 +", "(x1", "x1$"):
        with pytest.raises(ParseError):
            parse_polynomial(text, VS)


def test_format_canonical():
    assert format_polynomial(T1) == "x1^2 + x1*z"
    assert format_polynomial(VS.zero()) == "0"
    assert format_polynomial(-X + Fraction(3, 2) * Y) == "-x1 + 3/2*y1"


def _coeffs():
    return st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    ).filter(lambda c: c != 0)


def _monomials():
    return st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    ).map(Monomial)


def _polys():
    return st.dictionaries(_monomials(), _coeffs(), max_size=5).map(
        lambda terms: Polynomial(VS, terms)
    )


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(_polys(), _polys())
def test_no_zero_divisors(f, g):
    if f and g:
        product = f * g
        assert product
        assert product.degree() == f.degree() + g.degree()


@settings(max_examples=40, deadline=None)
@given(_polys(), _polys())
def test_substitute_is_a_homomorphism(f, g):
    images = {"x1": Y + Z, "z": X * X - 1, "y1": Fraction(-3, 2) * X * Z}
    assert (f * g).substitute(images, target=VS) == f.substitute(
        images, target=VS
    ) * g.substitute(images, target=VS)
    assert (f + g).substitute(images, target=VS) == f.substitute(
        images, target=VS
    ) + g.substitute(images, target=VS)


_TARGET = VS.extend(("t",))


def _reference_substitute(f, images, target, budget):
    """The per-factor loop that `_substitute` folds: each term starts as a
    term map, and every image power, a variable without an image included,
    is multiplied in as a term map."""
    base = {}
    for i in {i for m in f.terms for i, e in enumerate(m) if e}:
        name = f.varsys.names[i]
        base[i] = (images[name] if name in images else target.variable(name)).terms
    unit = (0,) * target.nvars
    powers = {i: [{unit: Fraction(1)}] for i in base}

    def power(i, e):
        if len(base[i]) == 1:
            return budget.power_terms(base[i], e, unit)
        cache = powers[i]
        while len(cache) <= e:
            cache.append(budget.product(cache[-1], base[i]))
        return cache[e]

    result = {}
    for m, c in f.terms.items():
        term = {unit: c}
        for i, e in enumerate(m):
            if e:
                term = budget.product(term, power(i, e))
        poly._accumulate(result, term.items())
    return Polynomial._trusted(target, result)


def _images():
    """Images over `_TARGET` for some of `VS`'s variables: one term (+-1
    included, so (-1)^e and identity-like factors occur), several terms,
    several terms scaled by a fraction, or zero."""
    coeffs = st.sampled_from([Fraction(1), Fraction(-1)]) | st.fractions(
        min_value=-10**12, max_value=10**12, max_denominator=10**9
    ).filter(bool)
    monos = st.tuples(*[st.integers(0, 2)] * 4).map(Monomial)
    one_term = st.dictionaries(monos, coeffs, min_size=1, max_size=1)
    several = st.dictionaries(monos, coeffs, min_size=2, max_size=4)
    image = st.one_of(
        one_term.map(lambda t: Polynomial(_TARGET, t)),
        several.map(lambda t: Polynomial(_TARGET, t)),
        st.tuples(several, coeffs).map(lambda tc: Polynomial(_TARGET, tc[0]) * tc[1]),
        st.just(_TARGET.zero()),
    )
    return st.dictionaries(st.sampled_from(VS.names), image, max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_polys(), _images(), st.data())
def test_substitute_matches_the_per_factor_loop(f, images, data):
    """The same polynomial and the same `_Budget.work`; under a cap drawn up
    to that work, the same outcome, an error at the same `work` included."""
    def outcome(run, cap):
        budget = poly._Budget(cap, ValueError, "substitution", _TARGET)
        try:
            return run(budget), budget.work
        except ValueError as exc:
            return str(exc), budget.work

    def folded(budget):
        return f._substitute(images, _TARGET, budget)

    def per_factor(budget):
        return _reference_substitute(f, images, _TARGET, budget)

    want = outcome(per_factor, float("inf"))
    assert outcome(folded, float("inf")) == want
    cap = data.draw(st.integers(0, want[1]))
    assert outcome(folded, cap) == outcome(per_factor, cap)


_SWEEP_SOURCE = VarSystem(("s1", "s2", "s3", "s4", "s5"))
_SWEEP_TARGET = VarSystem(("x", "y", "t"))


def _sweep_case():
    """One-term images with coefficient 1 (`s1`, `s5`) and 3/2 (`s3`), and
    multi-term ones (`s2`, and `s4` with a 73-bit coefficient) at powers 1
    and 3, before and after each other in a term, plus a term with no
    variable."""
    parse = _SWEEP_TARGET.parse
    images = {
        "s1": parse("x*t"),
        "s2": parse("x - 2/3*y + t"),
        "s3": parse("3/2*y^2"),
        "s4": parse(f"{2**40 + 1}/{3**20}*x + y"),
        "s5": parse("t"),
    }
    f = _SWEEP_SOURCE.parse(
        "5/7*s1*s3*s2 + s1^2*s2^3*s5 - 1/3*s3^3*s4 + s4^3*s2*s3 + s1*s3*s5^2"
        " + 2*s2 + s4*s5 + 7/5*s4^3*s1 + s5^3*s3 - 1/2"
    )
    return f, images


def test_substitute_matches_the_per_factor_loop_under_every_cap():
    """Outcome, message and `work` equal the per-factor loop's under every
    cap from 0 to the full work."""
    f, images = _sweep_case()

    def outcome(run, cap):
        budget = poly._Budget(cap, ValueError, "substitution", _SWEEP_TARGET)
        try:
            return run(budget), budget.work
        except ValueError as exc:
            return str(exc), budget.work

    def folded(budget):
        return f._substitute(images, _SWEEP_TARGET, budget)

    def per_factor(budget):
        return _reference_substitute(f, images, _SWEEP_TARGET, budget)

    full = outcome(per_factor, float("inf"))
    assert full[0] == f.substitute(images) and full[1] > 100
    for cap in range(full[1] + 1):
        assert outcome(folded, cap) == outcome(per_factor, cap), cap


@settings(max_examples=80, deadline=None)
@given(_polys())
def test_text_round_trip(f):
    assert parse_polynomial(format_polynomial(f), VS) == f


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys(), _polys(), st.integers(-3, 3) | _coeffs(), st.integers(0, 4))
def test_results_are_canonical(f, g, h, scalar, k):
    extended = VS.extend(("t",))
    results = [
        f + g, f - g, f * g, f * scalar, scalar * f, f**k,
        f.partial("x1"), f.partial("z"),
        f.substitute({"x1": g, "z": h}, target=VS),
        f.substitute({"z": extended.variable("t") * h.embed(extended)}),
        f.embed(extended),
        parse_polynomial(format_polynomial(f), VS),
    ]
    for result in results:
        for mono, coeff in result.terms.items():
            assert type(coeff) is Fraction and coeff != 0
            assert type(mono) is tuple and len(mono) == result.varsys.nvars
            assert all(type(e) is int and e >= 0 for e in mono)
            assert mono == Monomial(mono) and hash(mono) == hash(Monomial(mono))
    power = VS.one()
    for _ in range(k):
        power = power * f
    assert f**k == power


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        Monomial((1, -1))
    for key in ((1, -1, 0), (0, 0, -2)):
        with pytest.raises(ValueError, match="nonnegative"):
            Polynomial(VS, {key: 1})
    for key in (Monomial((1, 2)), (1, 2), (1, 0, 0, 0)):
        with pytest.raises(VarSystemMismatch):
            Polynomial(VS, {key: Fraction(1)})
    assert Polynomial(VS, {Monomial((1, 0, 0)): 0}).is_zero()


def test_monomial_and_tuple_keys_meet_in_one_term_format():
    """Keys go in as `Monomial`s or plain tuples and are stored as plain
    tuples; lookups answer to either.  Frames are plain tuples too."""
    by_monomial = Polynomial(VS, {Monomial((1, 0, 2)): 3, VS.monomial({"y1": 1}): Fraction(-1, 2)})
    by_tuple = Polynomial(VS, {(1, 0, 2): 3, (0, 1, 0): Fraction(-1, 2)})
    assert by_monomial == by_tuple and by_monomial.terms == by_tuple.terms
    for f in (by_monomial, by_tuple):
        assert all(type(m) is tuple for m in f.terms)
        for key in (Monomial((1, 0, 2)), (1, 0, 2)):
            assert f.coeff(key) == 3 and key in f.terms and f.terms[key] == 3
        assert f.coeff(Monomial((0, 0, 1))) == f.coeff((0, 0, 1)) == 0
        assert type(f.leading_monomial()) is tuple
        assert all(type(m) is tuple for m in f.monomials())
    assert Monomial((1, 0, 2)) == (1, 0, 2) and hash(Monomial((1, 0, 2))) == hash((1, 0, 2))
    assert type(VS.monomial({"x1": 1})) is Monomial and VS.monomial({"x1": 1}) == (1, 0, 0)
    assert all(type(m) is tuple for m in monomials_of_degree(VS, 2))
    span = SpanBasis.from_polynomials(VS, [by_monomial])
    assert all(type(m) is tuple for m in (*span.pivots, *(m for row in span.rows for m in row)))


# -- differential parser test --------------------------------------------------
#
# The front end as it was when every token was a (kind, text) pair and every
# intermediate value a `Polynomial`; the plain-text tokenizer and term-map
# parser in `ikernel.poly` must agree with it on every text.

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/])|\Z)"
)


def _reference_tokenize(text):
    """One `re.match` and one (kind, text) pair per token."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:]
            excerpt = repr(rest) if len(rest) <= 24 else f"{rest[:24]!r}... ({len(rest)} characters)"
            raise ParseError(f"unexpected character at position {pos}: {excerpt}")
        if match.lastgroup is None:  # only whitespace is left
            break
        tokens.append((match.lastgroup, match.group(match.lastgroup)))
        pos = match.end()
    return tokens


class _ReferenceParser:
    def __init__(self, tokens, varsys):
        self.tokens = tokens
        self.pos = 0
        self.varsys = varsys

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, found {tok[1]!r}")

    def parse_expression(self):
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        result = self.parse_term() * sign
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.take()
            term = self.parse_term()
            result = result + term if tok[1] == "+" else result - term
        return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok == ("op", "*"):
                self.take()
                result = result * self.parse_factor()
            elif tok[0] in ("int", "name") or tok == ("op", "("):
                result = result * self.parse_factor()
            else:
                break
        return result

    def parse_factor(self):
        base = self.parse_primary()
        tok = self.peek()
        if tok == ("op", "^"):
            self.take()
            exp_tok = self.take()
            if exp_tok[0] != "int":
                raise ParseError(f"expected integer exponent, found {exp_tok[1]!r}")
            result = self.varsys.one()
            for _ in range(int(exp_tok[1])):
                result = result * base
            return result
        return base

    def parse_primary(self):
        kind, value = self.take()
        if kind == "int":
            numerator = int(value)
            if self.peek() == ("op", "/"):
                self.take()
                den_tok = self.take()
                if den_tok[0] != "int" or int(den_tok[1]) == 0:
                    raise ParseError("malformed rational coefficient")
                return self.varsys.constant(Fraction(numerator, int(den_tok[1])))
            return self.varsys.constant(numerator)
        if kind == "name":
            if value not in self.varsys:
                raise ParseError(f"unknown variable {value!r}")
            return self.varsys.variable(value)
        if (kind, value) == ("op", "("):
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}")


def _reference_parse(text, varsys):
    parser = _ReferenceParser(_reference_tokenize(text), varsys)
    result = parser.parse_expression()
    if parser.peek() is not None:
        raise ParseError(f"unexpected token {parser.peek()[1]!r}")
    return result


def _juxtapose(parts):
    """Join (joiner, factor) pairs into one term, dropping the first joiner.
    An empty joiner after an exponent becomes a space: "^1" then "12" would
    otherwise read as "^112", far outside the 0..3 exponents drawn here."""
    text = parts[0][1]
    for joiner, factor in parts[1:]:
        if not joiner and re.search(r"\^\d+$", text) and factor[0].isdigit():
            joiner = " "
        text += joiner + factor
    return text


def _texts():
    atom = st.one_of(
        st.sampled_from(("x1", "y1", "z")),
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 9), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    )

    def extend(inner):
        factor = st.one_of(atom, inner.map(lambda e: f"({e})"))
        powered = st.tuples(factor, st.none() | st.integers(0, 3)).map(
            lambda fk: fk[0] if fk[1] is None else f"{fk[0]}^{fk[1]}"
        )
        joiner = st.sampled_from(("*", " * ", " ", ""))
        term = st.lists(st.tuples(joiner, powered), min_size=1, max_size=3).map(_juxtapose)
        sign = st.sampled_from(("", "-", "+", "- "))
        plus = st.sampled_from((" + ", " - ", "+", "-"))
        expression = st.tuples(sign, st.lists(st.tuples(plus, term), min_size=1, max_size=3)).map(
            lambda sp: sp[0] + "".join(o + t for o, t in sp[1])[len(sp[1][0][0]):]
        )
        cancelling = expression.map(lambda e: f"{e} - ({e})")
        return st.one_of(expression, cancelling)

    return st.recursive(atom, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_texts())
def test_parser_matches_reference(text):
    try:
        expected = _reference_parse(text, VS)
    except ParseError:
        with pytest.raises(ParseError):
            parse_polynomial(text, VS)
        return
    assert parse_polynomial(text, VS) == expected


def test_parser_matches_reference_on_fixed_texts():
    for text in ("2x1", "x1 y1", "2x1 y1^2z", "-(x1 + z)^3", "(x1 - y1)^0", "((x1+1)^2)^2",
                 "3/6*x1 - 1/2 x1", "x1*z - z x1", "-1/3(y1 + 2/5)^2 - 0", " x1 + z \n"):
        assert parse_polynomial(text, VS) == _reference_parse(text, VS), text


@pytest.mark.parametrize("text", ["x1/2", "1/0", "x1^y1", "(x1", "x1 $", "w", "x1 + q", "", "x1^",
                                  "x1^-2", "1//2", "x1 +", ")", "x1)"])
def test_malformed_texts_raise_in_both_parsers(text):
    with pytest.raises(ParseError):
        _reference_parse(text, VS)
    with pytest.raises(ParseError):
        parse_polynomial(text, VS)


_TOKEN_PIECES = (
    "x1", "y1", "z", "_w9", "12", "0", "+", "-", "*", "^", "(", ")", "/",  # ASCII tokens
    " ", "\t", "\n", "\u00a0", "\u2003", "\x1c",  # whitespace, ASCII and not
    "\u0663", "\u00b2",  # a decimal digit, and a digit that is not decimal
    "#", "\u00e9", "\x00",  # characters no token holds
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=20).map("".join))
def test_tokenizer_matches_the_reference(text):
    try:
        expected = [value for _, value in _reference_tokenize(text)]
    except ParseError as exc:
        with pytest.raises(ParseError) as caught:
            _tokenize(text)
        assert str(caught.value) == str(exc)
    else:
        assert _tokenize(text) == expected


def test_regex_classes_match_the_str_predicates():
    """`_tokenize` places a bad character's error with `str.rstrip`, which
    must strip exactly the whitespace `\\s` matches; and every `\\d+` match
    must be decimal digits, which `int` and `str.isdecimal` read."""
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == list(filter(str.isspace, every))
    assert re.findall(r"\d", every) == list(filter(str.isdecimal, every))


def test_parser_caps_parenthesis_nesting():
    deepest = "(" * MAX_PARSE_DEPTH + "x1 + 1" + ")" * MAX_PARSE_DEPTH
    assert parse_polynomial(deepest, VS) == X + 1
    for depth in (MAX_PARSE_DEPTH + 1, 3000):
        with pytest.raises(ParseError, match=f"nest deeper than {MAX_PARSE_DEPTH}"):
            parse_polynomial("(" * depth + "x1" + ")" * depth, VS)
    # Sibling groups do not add up: only the nesting depth counts.
    assert parse_polynomial("+".join(["(x1)"] * 3000), VS) == 3000 * X


@pytest.mark.parametrize("text, named", [
    ("x1#" + "z" * 1_000_000, "unexpected character at position 2"),
    ("x1 " + "q" * 1_000_000, "unknown variable"),
    ("x1^" + "y1" * 300_000, "expected integer exponent"),
])
def test_parse_errors_quote_a_bounded_excerpt(text, named):
    with pytest.raises(ParseError, match=named) as caught:
        parse_polynomial(text, VS)
    assert len(str(caught.value)) < 200


# -- golden parse table ---------------------------------------------------------
#
# `_Parser.work` and the result of each text, and the exact message of each
# malformed one, as recorded from the parser that multiplied every factor in as
# a term map.  `W` stands for a 30-digit (97-bit, two-word) integer.

_W = "123456789012345678901234567890"
_WIDE = VarSystem(tuple(f"v{i}" for i in range(70)))  # two-word exponent tuples

_PARSE_WORK_TABLE = [
    ("x1", "x1", 0),
    ("x1*y1*z", "x1*y1*z", 2),
    ("4/3*x1*y1^3*z^2", "4/3*x1*y1^3*z^2", 3),
    ("-2*x1^2", "-2*x1^2", 1),
    ("-3/7*x1 y1", "-3/7*x1*y1", 2),
    ("2^60", "1152921504606846976", 60),
    ("1/2^3", "1/8", 3),
    ("(3/7)^5", "243/16807", 25),
    ("x1^0", "1", 0),
    ("x1^0*y1^0*7^0", "1", 2),
    ("0*x1", "0", 0),
    ("x1*0*y1^3", "0", 0),
    ("0^0", "1", 0),
    ("0^5 x1", "0", 0),
    ("0/7^1000000000", "0", 0),
    ("2x1 y1^2z", "2*x1*y1^2*z", 3),
    ("2 3 4", "24", 2),
    ("00012*x1", "12*x1", 1),
    ("7/1*x1", "7*x1", 1),
    ("6/4*2/3*x1", "x1", 2),
    ("W*x1*y1", "123456789012345678901234567890*x1*y1", 4),
    ("W/7*x1^2*y1", "17636684144620811271604938270*x1^2*y1", 4),
    ("x1*W^2*y1", "15241578753238836750495351562536198787501905199875019052100*x1*y1", 202),
    ("W*W*x1", "15241578753238836750495351562536198787501905199875019052100*x1", 8),
    ("x1*W*y1*z", "123456789012345678901234567890*x1*y1*z", 6),  # unit atoms after W: 2 each
    ("-W/7*y1^3*x1", "-17636684144620811271604938270*x1*y1^3", 4),
    ("x1^0*W*z", "123456789012345678901234567890*z", 4),
    ("(W/7*x1)^2", "311052627617119117357047991072167322193916432650510592900*x1^2", 190),
    ("(-x1)^1000000000", "x1^1000000000", 0),
    ("(x1+y1)*z", "x1*z + y1*z", 2),
    ("z*(x1+y1)*z", "x1*z^2 + y1*z^2", 4),
    ("x1*y1*(x1+z)", "x1^2*y1 + x1*y1*z", 3),
    ("x1 (y1+z) x1 y1", "x1^2*y1^2 + x1^2*y1*z", 6),
    ("(x1+y1)^3", "x1^3 + 3*x1^2*y1 + 3*x1*y1^2 + y1^3", 12),
    ("(x1 + y1)^0", "1", 0),
    ("(x1+1)^2 (y1+1)^2", "x1^2*y1^2 + 2*x1^2*y1 + 2*x1*y1^2 + x1^2 + 4*x1*y1 + y1^2 + 2*x1 + 2*y1 + 1", 21),
    ("((x1))^2*y1", "x1^2*y1", 1),
    ("0*(x1+y1)^3", "0", 12),
    ("1/3*(y1+2/5)^2*0", "0", 9),
    ("-(x1 + z)^3", "-x1^3 - 3*x1^2*z - 3*x1*z^2 - z^3", 12),
    ("3/6*x1 - 1/2 x1", "0", 2),
    ("(x1-x1)^1000000000", "0", 0),
    ("-3/4 x1^2 y1 + 5/6 z^3 - 1", "-3/4*x1^2*y1 + 5/6*z^3 - 1", 3),
    ("2/3*x1*(x1-y1)*3/2*y1^2", "x1^2*y1^2 - x1*y1^3", 7),
]

_WIDE_PARSE_WORK_TABLE = [
    ("v0*v1^2*v69", "v0*v1^2*v69", 4),
    ("3/5*v0*(v1+v2)*v69^2", "3/5*v0*v1*v69^2 + 3/5*v0*v2*v69^2", 10),
    ("(v0+v69)^2*2/3", "2/3*v0^2 + 4/3*v0*v69 + 2/3*v69^2", 18),
    ("v0*W*v69", "123456789012345678901234567890*v0*v69", 8),
    ("W/7*v3^2*v0*v69", "17636684144620811271604938270*v0*v3^2*v69", 12),
    ("v0^0*W*v5", "123456789012345678901234567890*v5", 8),
]

_PARSE_ERROR_TABLE = [
    ("x1/2", "unexpected token '/'"),
    ("2/0", "malformed rational coefficient"),
    ("2/x1", "malformed rational coefficient"),
    ("2/", "unexpected end of input"),
    ("x1^y1", "expected integer exponent, found 'y1'"),
    ("x1^", "unexpected end of input"),
    ("x1^-2", "expected integer exponent, found '-'"),
    ("w", "unknown variable 'w'"),
    ("x1*qqqqqqqqqqqqqqqqqqqqqqqqqqqqqq", "unknown variable 'qqqqqqqqqqqqqqqqqqqqqqqq'... (30 characters)"),
    ("", "unexpected end of input"),
    ("x1*", "unexpected end of input"),
    ("x1 *", "unexpected end of input"),
    ("1//2", "malformed rational coefficient"),
    ("(x1", "unexpected end of input"),
    ("x1)", "unexpected token ')'"),
    ("x1 $", "unexpected character at position 2: ' $'"),
    ("2^3^2", "unexpected token '^'"),
    ("x1 (y1 + )", "unexpected token ')'"),
    ("2^601", "text needs over 600 term products or coefficient bits"),
    ("0*2^601", "text needs over 600 term products or coefficient bits"),
    ("x1*(3/7)^121", "text needs over 600 term products or coefficient bits"),
    ("2^599*2 x1^", "text needs over 600 term products or coefficient bits"),
    ("2^599*x1^", "unexpected end of input"),
    ("(x1+y1)^24*x1", "text needs over 600 term products or coefficient bits"),
    ("x1*(x1+z)^24", "text needs over 600 term products or coefficient bits"),
    ("W^3*W^3*x1", "text needs over 600 term products or coefficient bits"),
]


def _parse_work(text, varsys):
    parser = poly._Parser(_tokenize(text.replace("W", _W)), varsys)
    result = parser.parse_expression()
    assert parser.tokens[parser.pos] is None
    return format_polynomial(Polynomial._trusted(varsys, result)), parser.work


@pytest.mark.parametrize("text, printed, work", _PARSE_WORK_TABLE)
def test_parse_work_matches_the_golden_table(text, printed, work):
    assert _parse_work(text, VS) == (printed, work)
    assert format_polynomial(parse_polynomial(text.replace("W", _W), VS)) == printed


@pytest.mark.parametrize("text, printed, work", _WIDE_PARSE_WORK_TABLE)
def test_parse_work_over_two_word_exponents_matches_the_golden_table(text, printed, work):
    assert _parse_work(text, _WIDE) == (printed, work)


@pytest.mark.parametrize("text, message", _PARSE_ERROR_TABLE)
def test_parse_errors_match_the_golden_table(monkeypatch, text, message):
    monkeypatch.setattr(poly, "MAX_PARSE_WORK", 600)
    with pytest.raises(ParseError) as caught:
        parse_polynomial(text.replace("W", _W), VS)
    assert str(caught.value) == message


@pytest.mark.parametrize("at_cap, over_cap", [
    ("x1*" * 600 + "x1", "x1*" * 601 + "x1"),  # one unit per product
    ("2^590*x1", "2^590*x1*y1"),  # 590 bits, then ten words of 2^590 per product
])
def test_parse_work_cap_is_inclusive_for_atom_only_terms(monkeypatch, at_cap, over_cap):
    monkeypatch.setattr(poly, "MAX_PARSE_WORK", 600)
    assert _parse_work(at_cap, VS)[1] == 600
    with pytest.raises(ParseError, match="text needs over 600 term products"):
        parse_polynomial(over_cap, VS)


def test_monomial_frames_are_memoized_and_bounded():
    frame = monomials_of_degree(VS, 6)
    assert monomials_of_degree(VarSystem(("x1", "y1", "z")), 6) is frame
    assert monomials_of_degree(VS, 6, ["z", "x1"]) is monomials_of_degree(VS, 6, ("z", "x1"))
    assert monomials_of_degree(VS, 6, ("x1", "z")) == monomials_of_degree(VS, 6, ("z", "x1"))
    assert poly._frame.cache_info().maxsize is not None
    with pytest.raises(ValueError):  # errors are raised every time, not cached
        monomials_of_degree(VS.extend(("t",)), 1, ("t",))
