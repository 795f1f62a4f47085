"""Polynomial arithmetic, grading, substitution, and the text format."""

import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikernel import poly
from ikernel.poly import (
    MAX_PARSE_DEPTH,
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
    assert f.is_homogeneous(1)
    assert max(m.degree() for m in f.terms) == 4  # parameters count in the monomial


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
            assert all(vs.degree_of(m) == d and not m.exponents[2] for m in monos)


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
            assert len(mono.exponents) == result.varsys.nvars
            assert all(type(e) is int and e >= 0 for e in mono.exponents)
            assert mono == Monomial(mono.exponents) and hash(mono) == hash(Monomial(mono.exponents))
    power = VS.one()
    for _ in range(k):
        power = power * f
    assert f**k == power


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(VarSystemMismatch):
        Polynomial(VS, {Monomial((1, 2)): Fraction(1)})
    assert Polynomial(VS, {Monomial((1, 0, 0)): 0}).is_zero()


# -- differential parser test --------------------------------------------------
#
# The parser as it was when every intermediate value was a `Polynomial`; the
# term-map parser in `ikernel.poly` must agree with it on every text.

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
    parser = _ReferenceParser(_tokenize(text), varsys)
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


def test_monomial_frames_are_memoized_and_bounded():
    frame = monomials_of_degree(VS, 6)
    assert monomials_of_degree(VarSystem(("x1", "y1", "z")), 6) is frame
    assert monomials_of_degree(VS, 6, ["z", "x1"]) is monomials_of_degree(VS, 6, ("z", "x1"))
    assert monomials_of_degree(VS, 6, ("x1", "z")) == monomials_of_degree(VS, 6, ("z", "x1"))
    assert poly._frame.cache_info().maxsize is not None
    with pytest.raises(ValueError):  # errors are raised every time, not cached
        monomials_of_degree(VS.extend(("t",)), 1, ("t",))
