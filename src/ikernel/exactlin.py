"""Exact rational linear algebra over bases of monomials.

Elimination works on sparse `{column: int}` rows: `Echelon` keeps each
stored row primitive with a positive pivot entry, `emit` copies them out,
and `integer_kernel` reads integer nullspace vectors off them.  It first
peels the unknowns that one-entry rows force to zero, so such rows never
reach `Echelon`.  It and `solve` take a matrix as its columns, maps from
row keys to entries (a polynomial's `terms`, say), and read its shape from
them: one unknown per column, one row per key a column holds.  Column
indices live only in elimination: in these three and in the product
builders of `algebra.GradedBasis`, which feed `Echelon` directly; no
caller of `integer_kernel`, `solve` or `kernel_span` numbers its rows.  A
`SpanBasis` keys the same rows by exponent tuple, the keys of
`Polynomial.terms`, and `SpanBasis.of_echelon` is the one place where a
column becomes a monomial.  `Echelon` takes integer rows only: rational
input becomes integers through `poly._integer_terms` in `integer_kernel`
(each row it inserts) and in `SpanBasis.from_polynomials`.  `Fraction`s
come back only where a row is divided by its pivot entry (`polynomials()`,
coordinates), and where `solve` divides one kernel vector by its entry at
the right-hand-side column.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence

from .poly import (
    Monomial, Polynomial, VarSystem, VarSystemMismatch, _accumulate, _integer_terms, monomials_of_degree,
)

_STRIP_LIMIT = 1 << 64  # strip row content once entries grow past this
_ZERO = Fraction(0)


def _eliminate(row: dict, lead: int, a: int, other: Mapping) -> None:
    """row <- lead*row - a*other in place, dropping entries that cancel."""
    if lead != 1:
        for c in row:
            row[c] *= lead
    for c, y in other.items():
        v = row.get(c, 0) - a * y
        if v:
            row[c] = v
        else:
            del row[c]


class Echelon:
    """Gauss-Jordan accumulator over sparse, fraction-free integer rows.

    Rows come in as they are stored, `{column: int}` maps of nonzero
    entries; callers scale rational rows first.  Each stored row is kept
    primitive with positive leading entry; pivot columns are distinct and
    rows are mutually reduced, so dividing each by its pivot entry gives
    the unique reduced row echelon basis of the span.  New rows are
    reduced with the integer-preserving update `lead*x - a*y` over their
    nonzero entries; after a step that can multiply entries (`lead != 1`
    or `|a| > 1`) their content is stripped once entries pass
    `_STRIP_LIMIT`.  The column index `_cols` maps each column to the
    pivots of the stored rows that are nonzero there, so a new pivot is
    cleared from those rows only.  An entry outside `range(width)` can
    never cancel, so such a row raises `ValueError` before anything is
    stored.  A row of one entry in the frame is decided in O(1) when its
    column is the pivot of a stored unit row (dependent) or held by no
    stored row (a new unit row, nothing to back-reduce).  `rows` views
    each stored row's nonzero values in pivot order.

    `stamps` maps each stored row's pivot to the `block` (a caller's label
    for a stretch of inserts, 0 until set) in which that row was last
    stored or changed: an insert stamps its new row and every stored row
    it back-reduces.  A row stamped s is therefore not in the span stored
    before block s began.
    """

    __slots__ = ("width", "pivots", "block", "stamps", "_rows", "_cols")

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[int] = []
        self.block = 0
        self.stamps: dict[int, int] = {}
        self._rows: dict[int, dict[int, int]] = {}
        self._cols: dict[int, set[int]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> tuple[Iterable[int], ...]:
        return tuple(self._rows[p].values() for p in self.pivots)

    def insert(self, vec: Mapping[int, int]) -> bool:
        """Add one sparse integer row `{column: nonzero int}` to the span;
        True iff the rank grew.  An entry outside `range(width)` raises
        `ValueError`."""
        if len(vec) == 1:  # one entry: most such rows are decided without eliminating
            (c,) = vec
            if 0 <= c < self.width:
                rows, cols = self._rows, self._cols
                if c not in cols:  # no stored row holds c, so none has pivot c
                    rows[c] = {c: 1}
                    cols[c] = {c}
                    self.stamps[c] = self.block
                    insort(self.pivots, c)
                    return True
                if len(rows.get(c, ())) == 1:  # the stored unit row {c: 1}
                    return False

        # Reducing by a stored row never creates entries in other pivot
        # columns, so the pivots to clear are those the row starts with.
        rows, row = self._rows, dict(vec)
        for p in sorted(c for c in row if c in rows):
            lead, a = rows[p][p], row[p]
            _eliminate(row, lead, a, rows[p])
            if (lead != 1 or abs(a) != 1) and max(map(abs, row.values()), default=0) > _STRIP_LIMIT:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: x // g for c, x in row.items()}

        if not row:
            return False
        pivot = min(row)
        if pivot < 0 or max(row) >= self.width:
            raise ValueError("vector has a column outside the frame")

        g = gcd(*row.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {c: x // g for c, x in row.items()}

        # Store the row, then clear its pivot from the stored rows that hold
        # it; their supports change only in the new row's columns.
        cols, lead, stamps, block = self._cols, row[pivot], self.stamps, self.block
        holders = cols.pop(pivot, ())
        rows[pivot] = row
        stamps[pivot] = block
        for c in row:
            cols.setdefault(c, set()).add(pivot)
        for q in holders:
            stamps[q] = block
            other = rows[q]
            _eliminate(other, lead, other[pivot], row)
            for c in row:
                (cols[c].add if c in other else cols[c].discard)(q)
            gk = gcd(*other.values())
            if gk > 1:
                for c in other:
                    other[c] //= gk

        insort(self.pivots, pivot)
        return True

    def emit(self) -> tuple[tuple[dict[int, int], ...], tuple[int, ...]]:
        """Copies of the stored rows, columns ascending, and the pivots."""
        rows = self._rows
        return tuple({c: rows[p][c] for c in sorted(rows[p])} for p in self.pivots), tuple(self.pivots)


def integer_kernel(columns: Sequence[Mapping[Hashable, Fraction | int]]) -> list[dict[int, int]]:
    """The nullspace of the matrix whose j-th column maps row keys to
    entries (a polynomial's `terms`, say), one unknown per column: per free
    column f, ascending, the primitive integer vector with s at f and
    -v*s/lead at each pivot whose reduced row holds v at f (pivots
    ascending), s the lcm of the lead/gcd(v, lead).

    A row of one nonzero entry, at c, puts the unit row e_c in the row
    space R and forces unknown c to zero.  Deleting c from the other rows
    keeps R, and may leave rows of one entry that force in turn: the
    row-singleton peel of structured Gaussian elimination, run off a
    worklist so that it stays linear in the nonzeros.  Then R is
    span(forced e_c) (+) span(rows left with two or more entries), and only
    those rows go to `Echelon`, each scaled to integers by `_integer_terms`
    (which keeps its span).  Reduced echelon forms are unique, so R's rows
    at the forced pivots are the units, which hold no free column and add
    no kernel entry: neither the peel nor the order of the keys changes the
    result."""
    width = len(columns)
    by_key: defaultdict[Hashable, dict[int, Fraction | int]] = defaultdict(dict)
    for j, col in enumerate(columns):
        for key, v in col.items():
            if v:
                by_key[key][j] = v
    forcing = [j for row in by_key.values() if len(row) == 1 for j in row]
    holders: defaultdict[int, list[dict]] = defaultdict(list)  # column -> rows of 2+ entries
    if forcing:  # else nothing is peeled, and no row's holders are read
        for row in by_key.values():
            if len(row) > 1:
                for j in row:
                    holders[j].append(row)
    forced: set[int] = set()
    while forcing:
        c = forcing.pop()
        if c not in forced:
            forced.add(c)
            for row in holders.pop(c, ()):  # each still holds c: only forcing deletes
                del row[c]
                if len(row) == 1:
                    forcing.extend(row)
    ech = Echelon(width)
    for row in by_key.values():
        if len(row) > 1:
            ech.insert(_integer_terms(row)[0])
    stored = ech._rows
    held: dict[int, list] = {j: [] for j in range(width) if j not in stored and j not in forced}
    for p in ech.pivots:
        for j, v in stored[p].items():
            if j != p:  # a stored row is zero at every other pivot
                held[j].append((p, v, stored[p][p]))
    kernel = []
    for f, entries in held.items():
        s = lcm(*(lead // gcd(v, lead) for _, v, lead in entries))
        kernel.append({f: s} | {p: -v * s // lead for p, v, lead in entries})
    return kernel


def solve(columns: Sequence[Mapping[Hashable, Fraction | int]]) -> dict[int, Fraction] | None:
    """One exact solution `{unknown: value}` of the system whose last
    column (as `integer_kernel` reads columns) is the right-hand side and
    whose others are the unknowns', or None if inconsistent.

    Deterministic: the reduced-echelon particular solution with every free
    unknown set to zero.  The system is consistent iff the right-hand-side
    column is free; it is then the last free column, and its
    `integer_kernel` vector divided by its entry s there is -solution at
    the unknowns and 1 at that column.
    """
    rhs = len(columns) - 1
    kernel = integer_kernel(columns)
    if not kernel or rhs not in kernel[-1]:
        return None
    s = kernel[-1][rhs]
    return {j: Fraction(-x, s) for j, x in kernel[-1].items() if j != rhs}


class SpanBasis:
    """A subspace of polynomials given by its reduced echelon basis.

    Each row is an `{exponent tuple: int}` map of nonzero entries, an integer
    multiple of its reduced echelon row, positive at its pivot monomial: the
    first in `Monomial.sort_key` order.  `pivots` lists them in that order,
    and `polynomials()` divides each row by its pivot entry, so members have
    unique coordinates; `spans_same` compares the rows by cross-multiplying.
    """

    __slots__ = ("varsys", "rows", "pivots", "_polys", "_at_pivot")

    def __init__(self, varsys: VarSystem, rows: Sequence[Mapping], pivots: Sequence[tuple]):
        self.varsys = varsys
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self._polys: tuple[Polynomial, ...] | None = None
        self._at_pivot: dict[tuple[int, ...], int] | None = None  # row index by pivot monomial

    @classmethod
    def of_echelon(cls, varsys: VarSystem, frame: Sequence[tuple], ech: Echelon) -> SpanBasis:
        """The span of `ech`'s rows, column j standing for `frame[j]`, the
        frame in canonical order (as `monomials_of_degree` lists it)."""
        rows, pivots = ech.emit()
        keyed = [{frame[c]: v for c, v in row.items()} for row in rows]
        return cls(varsys, keyed, [frame[p] for p in pivots])

    @classmethod
    def of_degree(cls, varsys: VarSystem, degree: int, names: Sequence[str] | None = None) -> SpanBasis:
        """The span of every monomial of `degree` in the coordinates `names`
        (all of them by default), as `monomials_of_degree` lists them."""
        monos = monomials_of_degree(varsys, degree, names)
        return cls(varsys, [{m: 1} for m in monos], monos)

    @classmethod
    def from_polynomials(cls, varsys: VarSystem, polys: Iterable[Polynomial]) -> SpanBasis:
        """The span of `polys`, eliminated over the monomials they use, each
        nonzero one scaled to integer terms by `_integer_terms`."""
        polys = tuple(polys)
        frame = sorted({m for f in polys for m in f.terms}, key=Monomial.sort_key)
        index = {m: i for i, m in enumerate(frame)}
        ech = Echelon(len(frame))
        for f in polys:
            if f.varsys != varsys:
                raise VarSystemMismatch("spanning polynomial over a different system")
            if f.terms:
                ech.insert({index[m]: c for m, c in _integer_terms(f.terms)[0].items()})
        return cls.of_echelon(varsys, frame, ech)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def polynomials(self) -> tuple[Polynomial, ...]:
        if self._polys is None:
            # Row keys are exponent tuples and stored entries nonzero.
            vs = self.varsys
            self._polys = tuple(
                Polynomial._trusted(vs, {m: Fraction(v, row[p]) for m, v in row.items()})
                for row, p in zip(self.rows, self.pivots)
            )
        return self._polys

    def _reduce(self, terms: Mapping[tuple[int, ...], Fraction | int]) -> tuple[dict, dict]:
        """The coefficients of `terms` at the pivot monomials, keyed by row,
        and the residual less those multiples of `polynomials()`.  Those are
        zero at every other pivot, so `terms` is a member iff the residual
        is zero, and then the coefficients are its coordinates."""
        if self._at_pivot is None:
            self._at_pivot = {p: i for i, p in enumerate(self.pivots)}
        at_pivot = self._at_pivot
        coords = {at_pivot[m]: c for m, c in terms.items() if m in at_pivot}
        residual = dict(terms)
        for i, c in coords.items():
            row = self.rows[i]
            lead = row[self.pivots[i]]
            x = c if lead == 1 else Fraction(c, lead)
            _accumulate(residual, ((m, -x * v) for m, v in row.items()))
        return coords, residual

    def coordinates_of(self, f: Polynomial) -> tuple[Fraction, ...] | None:
        """Exact coordinates of f over the echelon basis rows, or None."""
        if f.varsys != self.varsys:
            raise VarSystemMismatch("target over a different system")
        coords, residual = self._reduce(f.terms)
        return None if residual else tuple(coords.get(i, _ZERO) for i in range(self.dim))

    def contains(self, f: Polynomial) -> bool:
        return self.coordinates_of(f) is not None

    def spans_same(self, other: SpanBasis) -> bool:
        """Whether both span one space.  Reduced echelon bases are unique,
        and each row is a positive multiple of its reduced row, so that
        holds iff the pivots match and rows a, b at each pivot p have the
        same monomials with a[m]*b[p] == b[m]*a[p]."""
        if self.varsys != other.varsys or self.pivots != other.pivots:
            return False
        for a, b, p in zip(self.rows, other.rows, self.pivots):
            ap, bp = a[p], b[p]
            if a.keys() != b.keys() or any(v * bp != b[m] * ap for m, v in a.items()):
                return False
        return True

    def intersect(self, other: SpanBasis) -> SpanBasis:
        """Intersection: the kernel of the map that sends each member to its
        residual modulo `other`."""
        if self.varsys != other.varsys:
            raise VarSystemMismatch("bases over different systems")
        residuals = [other._reduce(row)[1] for row in self.rows]
        return kernel_span(self, residuals)


def kernel_span(domain: SpanBasis, images: Sequence[Mapping[Hashable, Fraction | int]]) -> SpanBasis:
    """The span of  sum_j c_j*domain.rows[j]  over every c with
    sum_j c_j*images[j] = 0.

    `images[j]` is the image of `domain.rows[j]`, mapping the keys of the
    image space to entries (a polynomial's `terms`, say).

    One elimination, with the unknowns in reverse order: unknown k is
    domain row n-1-k.  The kernel vector of a free unknown f
    (`integer_kernel`) is primitive, positive at f and otherwise held by
    pivot unknowns before f, whose domain rows have later pivots.  So its
    member has row n-1-f's pivot, with a positive entry there, and is 0 at
    every other free unknown's: a positive multiple of a reduced echelon
    row of the kernel, the members' pivots ascending.
    """
    n = len(images)
    if n != domain.dim:
        raise ValueError("need one image per domain row")
    kernel = integer_kernel(images[::-1])
    rows, pivots = [], []
    for vec in reversed(kernel):
        i = n - 1 - max(vec)
        if len(vec) == 1:  # a primitive unit vector: the member is domain row i
            member = dict(domain.rows[i])
        else:
            member = {}
            for k, x in vec.items():
                _accumulate(member, ((m, x * v) for m, v in domain.rows[n - 1 - k].items()))
        rows.append(member)
        pivots.append(domain.pivots[i])
    return SpanBasis(domain.varsys, rows, pivots)
