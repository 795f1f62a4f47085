"""Exact sparse multivariate polynomial arithmetic over the rationals.

All values are immutable after construction and every operation is a pure
function, so they may be shared freely across threads.  Coefficients are
arbitrary-precision `fractions.Fraction`; nothing in this module rounds.

There is one term format: a polynomial's `terms` is a plain `{exponent
tuple: Fraction}` map, one nonnegative int per variable in each key, and
frames (`monomials_of_degree`, `monomials()`, `leading_monomial()`) are
plain exponent tuples too.  `Monomial` is a validated `tuple` that equals
and hashes as its plain tuple; it exists only where outside values come in
(`VarSystem.monomial` and the public `Polynomial(...)` constructor, which
checks every key and coefficient and stores plain tuples).  Ring
operations, calculus, substitution and the parser build term maps that are
canonical by construction (`_accumulate`, `_product`, `_power`) and wrap
each result once through `Polynomial._trusted`, which does not re-check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, compress, count
from math import gcd, inf, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

COORDINATE = "coordinate"
PARAMETER = "parameter"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class VarSystemMismatch(ValueError):
    """Operands do not live over compatible variable systems."""


class ParseError(ValueError):
    """Malformed polynomial text."""


class VarSystem:
    """An ordered list of distinct variable names, each tagged with a role.

    Coordinates carry grading weight 1; parameters (formal group
    parameters) carry weight 0.  The declared order is fixed forever and
    defines the canonical graded-lexicographic monomial order.
    """

    __slots__ = ("names", "roles", "_index", "_coord_idx", "_param_idx", "_coord_mask")

    def __init__(self, names: Sequence[str], roles: Sequence[str] | None = None):
        names = tuple(names)
        roles = tuple(roles) if roles is not None else (COORDINATE,) * len(names)
        if len(roles) != len(names):
            raise ValueError("need exactly one role per variable")
        for role in roles:
            if role not in (COORDINATE, PARAMETER):
                raise ValueError(f"unknown variable role {role!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
        self.names = names
        self.roles = roles
        self._index = {name: i for i, name in enumerate(names)}
        self._coord_idx = tuple(i for i, r in enumerate(roles) if r == COORDINATE)
        self._param_idx = tuple(i for i, r in enumerate(roles) if r == PARAMETER)
        self._coord_mask = tuple(r == COORDINATE for r in roles)

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def coordinate_names(self) -> tuple[str, ...]:
        return tuple(self.names[i] for i in self._coord_idx)

    @property
    def coordinate_indices(self) -> tuple[int, ...]:
        return self._coord_idx

    @property
    def parameter_indices(self) -> tuple[int, ...]:
        return self._param_idx

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise VarSystemMismatch(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, VarSystem):
            return NotImplemented
        return self.names == other.names and self.roles == other.roles

    def __hash__(self) -> int:
        return hash((self.names, self.roles))

    def __repr__(self) -> str:
        return f"VarSystem({list(self.names)!r})"

    def degree_of(self, mono: tuple[int, ...]) -> int:
        """Grading degree of a monomial: parameters weigh zero."""
        if len(mono) != self.nvars:
            raise VarSystemMismatch("monomial length does not match system")
        return sum(compress(mono, self._coord_mask))

    def extend(self, names: Iterable[str]) -> VarSystem:
        """This system with `names` appended as parameters."""
        extra = tuple(names)
        return VarSystem(self.names + extra, self.roles + (PARAMETER,) * len(extra))

    def drop(self, names: Iterable[str]) -> VarSystem:
        gone = set(names)
        keep = [i for i, nm in enumerate(self.names) if nm not in gone]
        return VarSystem(
            tuple(self.names[i] for i in keep), tuple(self.roles[i] for i in keep)
        )

    def unit_monomial(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    def monomial(self, exponents: Mapping[str, int]) -> Monomial:
        exps = [0] * self.nvars
        for name, e in exponents.items():
            exps[self.index(name)] = e
        return Monomial(exps)

    def variable(self, name: str) -> Polynomial:
        i, unit = self.index(name), (0,) * self.nvars
        return Polynomial._trusted(self, {unit[:i] + (1,) + unit[i + 1:]: Fraction(1)})

    def constant(self, value) -> Polynomial:
        c = Fraction(value)
        return Polynomial._trusted(self, {(0,) * self.nvars: c} if c else {})

    def zero(self) -> Polynomial:
        return Polynomial._trusted(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self)


class Monomial(tuple):
    """A validated exponent vector, one int per variable of some VarSystem.

    A `tuple` in all but its constructor: it equals, and hashes as, its
    plain tuple, so it can look up any term map or frame."""

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]) -> Monomial:
        mono = super().__new__(cls, map(int, exponents))
        if any(e < 0 for e in mono):
            raise ValueError("exponents must be nonnegative")
        return mono

    @staticmethod
    def sort_key(exps: tuple[int, ...]) -> tuple:
        """Sorting exponent tuples by this key lists them in graded-lex
        descending order (highest degree first, earlier variables heavier)."""
        return (-sum(exps), tuple(-e for e in exps))


class Polynomial:
    """Sparse polynomial: a finite map exponent tuple -> nonzero Fraction.

    Canonical form holds by construction: no stored coefficient is zero,
    and equality is equality of term maps over equal variable systems.
    """

    __slots__ = ("varsys", "terms")

    def __init__(self, varsys: VarSystem, terms: Mapping[tuple[int, ...], object]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            exps = tuple(Monomial(mono))
            if len(exps) != varsys.nvars:
                raise VarSystemMismatch("monomial length does not match system")
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c:
                clean[exps] = c
        self.varsys = varsys
        self.terms = clean

    @classmethod
    def _trusted(cls, varsys: VarSystem, terms: dict[tuple[int, ...], Fraction]) -> Polynomial:
        """Wrap a canonical term map (plain tuples of the system's length,
        nonzero `Fraction` values) without re-checking or copying it."""
        poly = object.__new__(cls)
        poly.varsys = varsys
        poly.terms = terms
        return poly

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, mono: tuple[int, ...]) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def constant_coefficient(self) -> Fraction:
        return self.coeff(self.varsys.unit_monomial())

    def monomials(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.terms, key=Monomial.sort_key))

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=Monomial.sort_key)

    def degree(self) -> int:
        """Grading (coordinate total) degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(self.varsys.degree_of, self.terms))

    def is_homogeneous(self) -> bool:
        degs = set(map(self.varsys.degree_of, self.terms))
        return len(degs) <= 1

    def homogeneous_components(self) -> dict[int, Polynomial]:
        vs = self.varsys
        split: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for m, c in self.terms.items():
            split.setdefault(vs.degree_of(m), {})[m] = c
        return {d: Polynomial._trusted(vs, t) for d, t in sorted(split.items())}

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other.varsys != self.varsys:
                raise VarSystemMismatch("polynomials over different systems")
            return other
        if isinstance(other, (int, Fraction)):
            return self.varsys.constant(other)
        return None

    def __add__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial._trusted(self.varsys, _accumulate(dict(self.terms), rhs.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._trusted(self.varsys, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.varsys.zero()
            return Polynomial._trusted(self.varsys, {m: c * other for m, c in self.terms.items()})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial._trusted(self.varsys, _product(self.terms, rhs.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        unit = (0,) * self.varsys.nvars
        return Polynomial._trusted(self.varsys, _power(self.terms, exponent, unit))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.varsys.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.varsys == other.varsys and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]  # mutable mapping inside

    # -- calculus and substitution --------------------------------------------

    def partial(self, name: str) -> Polynomial:
        """Formal partial derivative with respect to one variable."""
        i = self.varsys.index(name)
        terms = {m[:i] + (e - 1,) + m[i + 1:]: c * e for m, c in self.terms.items() if (e := m[i])}
        return Polynomial._trusted(self.varsys, terms)

    def substitute(
        self,
        images: Mapping[str, Polynomial],
        target: VarSystem | None = None,
    ) -> Polynomial:
        """Ring-homomorphism evaluation: replace variables by polynomials.

        Variables without an image map to the same-named variable of the
        target system (identity default).  All images must share one target
        system; a variable that has no image and is absent from the target
        is an error.
        """
        if target is None:
            target = next(iter(images.values())).varsys if images else self.varsys
        return self._substitute(images, target, _Budget(inf, ValueError, "substitution", target))

    def _substitute(
        self, images: Mapping[str, Polynomial], target: VarSystem, budget: _Budget
    ) -> Polynomial:
        """`substitute`, every product and power of term maps charged to
        `budget`: check the images, then run `_substitute_terms` on a table
        of the variables that occur."""
        for name in images:
            self.varsys.index(name)
        for name, img in images.items():
            if img.varsys != target:
                raise VarSystemMismatch(f"image of {name!r} is not over the target system")
        table = {}
        for i in {i for m in self.terms for i in compress(count(), m)}:
            name = self.varsys.names[i]
            if name in images:
                table[i] = _image_entry(images[name].terms)
            elif name in target:
                table[i] = _image_entry(target.variable(name).terms)
            else:
                raise VarSystemMismatch(f"variable {name!r} absent from the target system")
        return _substitute_terms(self.terms, table, target, budget)

    def embed(self, target: VarSystem) -> Polynomial:
        """Reinterpret over a larger (or reordered) system, matching by name."""
        if target == self.varsys:
            return self
        mapping = [target.index(name) for name in self.varsys.names]
        nv = target.nvars
        terms: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms.items():
            exps = [0] * nv
            for i, e in enumerate(m):
                if e:
                    exps[mapping[i]] = e
            terms[tuple(exps)] = c
        return Polynomial._trusted(target, terms)

    def coefficients_in(self, names: Sequence[str]) -> dict[tuple[int, ...], Polynomial]:
        """Collect terms by their exponents on `names`.

        Returns a map from exponent tuples (in the order given) to
        coefficient polynomials over the system with `names` removed.
        """
        idxs = [self.varsys.index(nm) for nm in names]
        gone = set(idxs)
        rest_vs = self.varsys.drop(names)
        split: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for m, c in self.terms.items():
            key = tuple(m[i] for i in idxs)
            rest = tuple(e for i, e in enumerate(m) if i not in gone)
            split.setdefault(key, {})[rest] = c
        return {k: Polynomial._trusted(rest_vs, t) for k, t in sorted(split.items())}

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<Polynomial {format_polynomial(self)}>"


# -- term maps ------------------------------------------------------------------
#
# Ring arithmetic on plain `{exponent tuple: Fraction}` maps, whose tuple keys
# hash and compare in C.  Every map holds nonzero coefficients only.

def _accumulate(acc: dict, terms: Iterable[tuple[object, Fraction]]) -> dict:
    """Add nonzero (key, coefficient) terms into `acc` in place, dropping
    any key whose coefficient cancels to zero; returns `acc`."""
    get = acc.get
    for key, c in terms:
        old = get(key)
        if old is None:
            acc[key] = c
        else:
            new = old + c
            if new:
                acc[key] = new
            else:
                del acc[key]
    return acc


def _product(f: dict, g: dict) -> dict:
    if len(f) == 1:
        f, g = g, f
    if len(g) == 1:  # one term shifts the other's exponents injectively: nothing cancels
        ((e2, c2),) = g.items()
        return {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in f.items()}
    return _accumulate(
        {}, ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in f.items() for e2, c2 in g.items())
    )


def _power(f: dict, k: int, unit: tuple[int, ...], product=_product) -> dict:
    if not f:
        return {} if k else {unit: Fraction(1)}
    if len(f) == 1:  # a single term: scale its exponents, no repeated products
        ((exps, c),) = f.items()
        return {tuple(e * k for e in exps): c**k}
    result = {unit: Fraction(1)}
    for _ in range(k):
        result = product(result, f)
    return result


def _image_entry(terms: dict) -> tuple:
    """A substitution table entry for an image with term map `terms`:
    (imap, s, w, folded).  The image is imap/s, with `_integer_terms`'s
    integer map imap and scale s, and w is `_words(terms)`.  For a one-term
    image {t: a/s}, folded is a and t's nonzero exponents (j, x); for any
    other image, None."""
    imap, s = _integer_terms(terms)
    folded = None
    if len(imap) == 1:
        ((t, a),) = imap.items()
        folded = a, [(j, x) for j, x in enumerate(t) if x]
    return imap, s, _words(terms), folded


def _substitute_terms(
    terms: dict, table: Mapping[int, tuple] | Sequence[tuple], target: VarSystem, budget: _Budget
) -> Polynomial:
    """Substitute, for each variable index i of `terms`, the image that
    `table[i]` (an `_image_entry`) holds; `table` needs entries only for the
    variables that occur.

    As in `_Parser.parse_term`, while a term is one term each power of a
    one-term image folds into a reduced integer numerator and denominator
    (`_Budget.charge_power`, then `_Budget.fold`) and an exponent list.  An
    image with coefficient 1 is a unit factor: its power costs 0, and
    folding it charges what `fold` would, but it only shifts exponents.
    From its first multi-term image on, the term is num/den times an
    integer term map, and each image power is an integer map over a scale
    (image^1 is the table's own map): products multiply integers, and a
    term becomes `Fraction`s only when it is added to the result, one per
    coefficient.  Every product is charged with the `_words` of the
    `Fraction` maps it stands for (`_scaled_words`, exact), and image^1 as
    the product 1 * image that it is.  So `work` is the same as multiplying
    every factor in as a `Fraction` term map, at every point."""
    unit = (0,) * target.nvars
    n_words, charge, charge_power, fold = budget.n_words, budget._charge, budget.charge_power, budget.fold
    powers: dict[int, list[tuple]] = {}

    def power(i: int, e: int) -> tuple[dict, int, int]:
        """image_i^e as (integer map, scale, words), its products charged."""
        imap, s, w, folded = table[i]
        if folded is not None:
            ((t, a),) = imap.items()
            charge_power(a, s, e)
            a, b = a**e, s**e
            return {tuple(x * e for x in t): a}, b, _fraction_words(a, b)
        cache = powers.get(i)
        if cache is None:
            charge(len(imap) * n_words * w)
            cache = powers[i] = [None, (imap, s, w)]
        while len(cache) <= e:
            p, ps, pw = cache[-1]
            charge(len(p) * len(imap) * n_words * pw * w)
            p, ps = _product(p, imap), ps * s
            cache.append((p, ps, _scaled_words(1, ps, p)))
        return cache[e]

    result: dict[tuple[int, ...], Fraction] = {}
    for m, c in terms.items():
        num, den, exps, term = c._numerator, c._denominator, list(unit), None
        for i in compress(count(), m):
            e = m[i]
            _, s, _, folded = table[i]
            if term is None and folded is not None:
                a, shift = folded
                if a == 1 and s == 1:
                    charge(n_words * _fraction_words(num, den))
                else:
                    charge_power(a, s, e)
                    num, den = fold(num, den, a**e, s**e)
                for j, x in shift:
                    exps[j] += e * x
                continue
            p, ps, pw = power(i, e)
            if term is None:
                charge(len(p) * n_words * _fraction_words(num, den) * pw)
                term = _product({tuple(exps): 1}, p)
            else:
                charge(len(term) * len(p) * n_words * _scaled_words(num, den, term) * pw)
                term = _product(term, p)
            g = gcd(num, ps)
            num, den = num // g, den * (ps // g)
        if term is not None:
            _accumulate(result, [(k, Fraction(num * v, den)) for k, v in term.items()])
        elif num == c._numerator and den == c._denominator:
            _accumulate(result, [(tuple(exps), c)])
        else:
            _accumulate(result, [(tuple(exps), Fraction(num, den))])
    return Polynomial._trusted(target, result)


def _integer_terms(terms: Mapping[object, Fraction]) -> tuple[dict, int]:
    """The map {key: c*s} of `terms` {key: c}, s the lcm of their
    denominators; and s.  Every rational map that meets integer arithmetic
    is scaled here."""
    s = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (s // c.denominator) for e, c in terms.items()}, s


def _words(f: dict) -> int:
    """64-bit words in f's widest coefficient, numerator and denominator, at
    least 1.  It runs on every charged product, so it reads `Fraction`'s
    slots, as `_Budget.power_terms` does: the public properties are Python
    calls that cost twice as much."""
    bits = 0
    for c in f.values():
        b = c._numerator.bit_length() + c._denominator.bit_length()
        if b > bits:
            bits = b
    return (bits + 63) // 64 or 1


def _scaled_words(num: int, den: int, imap: dict) -> int:
    """`_words` of the `Fraction` map {k: num*v/den} for the nonzero integer
    values v of `imap`.  No reduced coefficient is wider than num*v over
    den, so it is 1 at once when the bit lengths of num, den and the widest
    v sum to at most 64; otherwise each coefficient is reduced."""
    if not imap:
        return 1
    values = imap.values()
    widest = max(max(values), -min(values))
    if num.bit_length() + den.bit_length() + widest.bit_length() <= 64:
        return 1
    bits = 0
    for v in values:
        x = num * v
        g = gcd(x, den)
        b = (x // g).bit_length() + (den // g).bit_length()
        if b > bits:
            bits = b
    return (bits + 63) // 64


def _fraction_words(num: int, den: int) -> int:
    """`_words` of a one-term map whose coefficient is num/den, reduced."""
    return (num.bit_length() + den.bit_length() + 63) // 64 or 1


class _Budget:
    """Work charged against `cap` before it runs, in units that follow its
    time, for term maps over `varsys`.  A product of term maps f*g costs
    len(f) * len(g) times the 64-bit words of an exponent tuple and of f's
    and g's widest coefficients (each at least 1).  A power c**k of a single
    term (which scales exponents) costs k times the bit length of
    |numerator|*denominator less one (0 for c = +-1).  Past the cap, an
    `error` says that `what` needs more."""

    def __init__(self, cap: float, error: type[ValueError], what: str, varsys: VarSystem):
        self.cap, self.error, self.what, self.work = cap, error, what, 0
        self.n_words = (varsys.nvars + 63) // 64 or 1

    def _charge(self, work: int) -> None:
        self.work += work
        if self.work > self.cap:
            raise self.error(f"{self.what} needs over {self.cap} term products or coefficient bits")

    def charge_power(self, a: int, b: int, k: int) -> None:
        """Charge the k-th power of a one-term map whose coefficient is the
        reduced nonzero a/b."""
        self._charge(k * (abs(a) * b - 1).bit_length())

    def fold(self, num: int, den: int, a: int, b: int) -> tuple[int, int]:
        """The reduced product of reduced nonzero fractions num/den and a/b,
        charged as the `product` of two one-term maps with those coefficients."""
        self._charge(self.n_words * _fraction_words(num, den) * _fraction_words(a, b))
        g, h = gcd(num, b), gcd(a, den)  # both reduced: a factor cancels only across
        return (num // g) * (a // h), (den // h) * (b // g)

    def product(self, f: dict, g: dict) -> dict:
        self._charge(len(f) * len(g) * self.n_words * _words(f) * _words(g))
        return _product(f, g)

    def power_terms(self, f: dict, k: int, unit: tuple[int, ...]) -> dict:
        if len(f) == 1:
            (c,) = f.values()
            self.charge_power(c._numerator, c._denominator, k)
        return _power(f, k, unit, self.product)

    def power(self, f: Polynomial, k: int) -> Polynomial:
        return Polynomial._trusted(f.varsys, self.power_terms(f.terms, k, f.varsys.unit_monomial()))

    def multiply(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return Polynomial._trusted(f.varsys, self.product(f.terms, g.terms))


# The `_Budget` work of one certificate check: substituting the generators
# into a membership expression, or a relation's coefficients times powers of
# its element.  `membership()` re-checks every certificate it returns under
# it.  Genuine checks spend at most 1,037 in the tests (a degree-7 member of
# `build_instance(2, 1)`); `g^40` for a five-term generator needs millions.
MAX_CHECK_WORK = 1 << 18


def _check_budget(field: str, varsys: VarSystem) -> _Budget:
    """One certificate check's budget over `varsys`, named by the field it expands."""
    return _Budget(MAX_CHECK_WORK, ValueError, f"field {field!r}", varsys)


def monomials_of_degree(
    varsys: VarSystem, degree: int, names: Sequence[str] | None = None
) -> tuple[tuple[int, ...], ...]:
    """All monomials of the given grading degree in the chosen coordinates.

    Defaults to every coordinate of the system; parameters never appear,
    and a parameter or repeated name raises ValueError.
    The result is in canonical (graded-lex descending) order, with no sort:
    `combinations_with_replacement` lists the multisets of chosen indices
    lexicographically, and that is the order `Monomial.sort_key` defines.
    Frames are memoized per (system, degree, names) in a bounded cache; the
    tuples are immutable, so callers may share them across threads.
    """
    return _frame(varsys, degree, None if names is None else tuple(names))


# One pass of the nine scenarios uses 31 distinct frames at (2,2,5) and 52 at
# (1,1,11); the bound keeps a long-lived process from holding every frame it saw.
@lru_cache(maxsize=128)
def _frame(varsys: VarSystem, degree: int, names: tuple[str, ...] | None) -> tuple:
    if degree < 0:
        return ()
    if names is None:
        idxs = list(varsys.coordinate_indices)
    else:
        idxs = sorted(varsys.index(nm) for nm in names)
        for k, i in enumerate(idxs):
            if varsys.roles[i] != COORDINATE:
                raise ValueError(f"{varsys.names[i]!r} is not a coordinate")
            if k and idxs[k - 1] == i:
                raise ValueError(f"coordinate {varsys.names[i]!r} is repeated")
    out: list[tuple[int, ...]] = []
    for combo in combinations_with_replacement(idxs, degree):
        exps = [0] * varsys.nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(out)


# -- text format --------------------------------------------------------------
#
# ASCII with `^` for powers and optional `*`; exact rational coefficients as
# p/q.  `format_polynomial` and `parse_polynomial` round-trip bit-exactly.

def format_monomial(mono: tuple[int, ...], varsys: VarSystem) -> str:
    parts = []
    for name, e in zip(varsys.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_polynomial(f: Polynomial) -> str:
    """Terms in graded-lex descending order, each as its coefficient's
    magnitude (omitted when 1 before a monomial) and its monomial, joined by
    signs.  The magnitude prints from the coefficient's integer numerator
    and denominator, as `str(abs(c))` would (`p` or `p/q`), with no
    `Fraction` arithmetic."""
    if not f.terms:
        return "0"
    chunks: list[str] = []
    for mono in f.monomials():
        c = f.terms[mono]
        num, den = c._numerator, c._denominator
        mono_str = format_monomial(mono, f.varsys)
        mag = -num if num < 0 else num
        if mono_str == "1":
            body = str(mag) if den == 1 else f"{mag}/{den}"
        elif den == 1:
            body = mono_str if mag == 1 else f"{mag}*{mono_str}"
        else:
            body = f"{mag}/{den}*{mono_str}"
        if not chunks:
            chunks.append(body if num > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(chunks)


_OPERATORS = frozenset("+-*^()/")
_BAD_RE = re.compile(r"[^\s\dA-Za-z_+*^()/-]")  # neither whitespace nor in any token
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()/])")


def _excerpt(text: str, limit: int = 24) -> str:
    """`text` quoted for an error message, cut after `limit` characters."""
    return repr(text) if len(text) <= limit else f"{text[:limit]!r}... ({len(text)} characters)"


def _tokenize(text: str) -> list[str]:
    """The tokens of `text` as plain strings, from two scans in C: an
    operator is in `_OPERATORS`, an integer starts with a decimal digit and a
    name with an ASCII letter or `_`.  A bad character is reported where a
    scan token by token would stop, at the end of the last token before it:
    only whitespace lies between, and `\\s` matches exactly the characters
    `str.isspace` accepts, so `rstrip` removes just that whitespace."""
    bad = _BAD_RE.search(text)
    if bad is not None:
        pos = len(text[: bad.start()].rstrip())
        raise ParseError(f"unexpected character at position {pos}: {_excerpt(text[pos:])}")
    return _TOKEN_RE.findall(text)


# The `_Budget` work one text may ask of the parser.  Genuine reports stay
# far below it; `(a+b+c+d+e)^40`, `(x+y)^3000` or `(3/7*x)^1000000` would
# need millions.
MAX_PARSE_WORK = 1 << 18

# How deep parentheses may nest in one text.  Each level costs the parser a
# few stack frames, so this keeps it well inside Python's recursion limit.
MAX_PARSE_DEPTH = 100


class _Parser(_Budget):
    """Recursive descent over `{exponent tuple: Fraction}` term maps, charged
    against `MAX_PARSE_WORK` and nested at most `MAX_PARSE_DEPTH` deep; the
    caller wraps the final map once.  Its tokens are `_tokenize`'s strings.

    An atom is an integer, a `p/q` or a variable, each with an optional `^k`.
    Until a term meets a parenthesised factor, `parse_term` folds each atom
    into it as a reduced integer numerator and denominator and an exponent
    list, and charges each fold what the term-map arithmetic would: the
    atom's power as `power_terms` (`charge_power`) and its multiplication as
    `product` (`fold`).  A variable is a unit factor, coefficient 1: its
    power costs 0 and folding it leaves num/den as they are, so it only adds
    its exponent and charges `fold(num, den, 1, 1)`'s words, with no gcd.  So
    `work` always equals the charge of multiplying every factor in as a term
    map, and the same texts cross the cap at the same point."""

    def __init__(self, tokens: list[str], varsys: VarSystem):
        super().__init__(MAX_PARSE_WORK, ParseError, "text", varsys)
        self.tokens = tokens + [None]  # `None` ends the input: no bounds checks
        self.pos = 0
        self.depth = 0
        self.index = varsys._index
        self.unit = (0,) * varsys.nvars

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def exponent(self) -> int | None:
        """The k of a `^k` that comes next, if one does."""
        if self.tokens[self.pos] != "^":
            return None
        self.pos += 1
        tok = self.take()
        if not tok.isdecimal():
            raise ParseError(f"expected integer exponent, found {_excerpt(tok)}")
        return int(tok)

    def parse_expression(self) -> dict:
        result: dict = {}
        sign = self.tokens[self.pos]
        if sign == "+" or sign == "-":
            self.pos += 1
        while True:
            _accumulate(result, self.parse_term(sign == "-").items())
            sign = self.tokens[self.pos]
            if sign != "+" and sign != "-":
                return result
            self.pos += 1

    def parse_term(self, negative: bool) -> dict:
        """The next term, negated if `negative`, as a term map."""
        tokens, index = self.tokens, self.index
        num, den, exps = 1, 1, list(self.unit)  # the product until a parenthesised factor comes
        terms = None  # the product as a term map from its first parenthesised factor on
        first = True
        while True:
            tok = tokens[self.pos]
            if tok == "(":
                factor = self.parse_factor()
                if first:
                    terms = factor
                else:
                    if terms is None:
                        terms = {tuple(exps): Fraction(num, den)} if num else {}
                    terms = self.product(terms, factor)
            elif (i := index.get(tok)) is not None:
                self.pos += 1
                k = self.exponent() if tokens[self.pos] == "^" else 1
                if terms is not None:
                    terms = self.product(terms, {self.unit[:i] + (k,) + self.unit[i + 1:]: Fraction(1)})
                else:  # a unit factor: `fold(num, den, 1, 1)` without its gcds
                    exps[i] += k
                    if num and not first:
                        self._charge(self.n_words * _fraction_words(num, den))
            else:
                a, b = self.parse_number()
                if terms is not None:
                    terms = self.product(terms, {self.unit: Fraction(a, b)} if a else {})
                elif first:
                    num, den = a, b
                elif num and a:  # a product with zero is zero and costs nothing
                    num, den = self.fold(num, den, a, b)
                else:
                    num = 0
            first = False
            tok = tokens[self.pos]
            if tok == "*":
                self.pos += 1
            elif tok is None or (tok in _OPERATORS and tok != "("):
                break  # otherwise an integer, a name or `(`: an implicit product
        if terms is not None:
            return {e: -c for e, c in terms.items()} if negative else terms
        if not num:
            return {}
        return {tuple(exps): Fraction(-num if negative else num, den)}

    def parse_number(self) -> tuple[int, int]:
        """The next atom, which is not a variable, as the reduced a/b, raised
        to its power if it has one; that power is charged here."""
        tok = self.take()
        if tok in _OPERATORS:
            raise ParseError(f"unexpected token {tok!r}")
        if not tok.isdecimal():
            raise ParseError(f"unknown variable {_excerpt(tok)}")
        a, b = int(tok), 1
        if self.tokens[self.pos] == "/":
            self.pos += 1
            tok = self.take()
            b = int(tok) if tok.isdecimal() else 0
            if not b:
                raise ParseError("malformed rational coefficient")
            g = gcd(a, b)
            a, b = a // g, b // g
        k = self.exponent()
        if k is None:
            return a, b
        if not a:  # 0^0 = 1
            return (0 if k else 1), 1
        self.charge_power(a, b, k)
        return a**k, b**k

    def parse_factor(self) -> dict:
        """A parenthesised expression, its `(` next, with an optional `^k`."""
        self.pos += 1
        self.depth += 1
        if self.depth > MAX_PARSE_DEPTH:
            raise ParseError(f"parentheses nest deeper than {MAX_PARSE_DEPTH}")
        inner = self.parse_expression()
        tok = self.take()
        if tok != ")":
            raise ParseError(f"expected ')', found {tok!r}")
        self.depth -= 1
        k = self.exponent()
        return inner if k is None else self.power_terms(inner, k, self.unit)


def parse_polynomial(text: str, varsys: VarSystem) -> Polynomial:
    parser = _Parser(_tokenize(text), varsys)
    result = parser.parse_expression()
    tok = parser.tokens[parser.pos]
    if tok is not None:
        raise ParseError(f"unexpected token {tok!r}")
    return Polynomial._trusted(varsys, result)
