"""Exact rational linear algebra over bases of monomials.

The one elimination engine is `Echelon`: rows are sparse `{column: int}`
maps holding only their nonzero entries, kept primitive and fraction-free,
and elimination touches nonzero entries only.  `Fraction`s exist only at
the edge: rows arrive as sparse rational maps (`sparse_row`,
`column_rows`), `Echelon.emit` returns reduced rational rows, and the dense
`RationalMatrix` / `solve_columns` facade converts onto the same engine.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence

from .poly import Monomial, Polynomial, VarSystem, VarSystemMismatch

_STRIP_LIMIT = 1 << 64  # strip row content once entries grow past this
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _content(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


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

    Each stored row is a `{column: int}` map of its nonzero entries, kept
    primitive with positive leading entry; pivot columns are distinct and
    rows are mutually reduced, so emitting (rows divided by their pivots)
    yields the unique reduced row echelon basis of the span.  New rows are
    reduced with the integer-preserving update `lead*x - a*y` over their
    nonzero entries, and their content is stripped once entries pass
    `_STRIP_LIMIT`.  With `track=True` every stored row also carries its
    expression as an exact linear combination of the inserted vectors,
    keyed by insertion ordinal.  `rows` views each stored row's nonzero
    values in pivot order.
    """

    __slots__ = ("width", "pivots", "inserted", "_rows", "_exprs")

    def __init__(self, width: int, track: bool = False):
        self.width = width
        self.pivots: list[int] = []
        self.inserted = 0
        self._rows: dict[int, dict[int, int]] = {}
        self._exprs: dict[int, dict[int, Fraction]] | None = {} if track else None

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> tuple[Iterable[int], ...]:
        return tuple(self._rows[p].values() for p in self.pivots)

    def insert(self, vec: Mapping[int, Fraction | int]) -> bool:
        """Add one sparse vector `{column: value}` to the span; True iff the
        rank grew.  Zero entries may be present or omitted."""
        if vec and (min(vec) < 0 or max(vec) >= self.width):
            raise ValueError("vector has a column outside the frame")
        ordinal = self.inserted
        self.inserted += 1

        scale = 1
        for v in vec.values():
            if v.denominator != 1:
                scale = lcm(scale, v.denominator)
        row = {c: v.numerator * (scale // v.denominator) for c, v in vec.items() if v}
        expr: dict[int, Fraction] | None = None
        if self._exprs is not None:
            expr = {ordinal: Fraction(scale)}

        # Reducing by a stored row never creates entries in other pivot
        # columns, so the pivots to clear are those the row starts with.
        for p in sorted(c for c in row if c in self._rows):
            a = row[p]
            lead = self._rows[p][p]
            _eliminate(row, lead, a, self._rows[p])
            if expr is not None:
                _eliminate(expr, lead, a, self._exprs[p])
            if max(map(abs, row.values()), default=0) > _STRIP_LIMIT:
                g = _content(row.values())
                if g > 1:
                    row = {c: x // g for c, x in row.items()}
                    if expr is not None:
                        expr = {j: c / g for j, c in expr.items()}

        if not row:
            return False
        pivot = min(row)

        g = _content(row.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {c: x // g for c, x in row.items()}
            if expr is not None:
                expr = {j: c / g for j, c in expr.items()}

        # Clear the new pivot column from the stored rows.
        lead = row[pivot]
        for q, other in self._rows.items():
            b = other.get(pivot)
            if not b:
                continue
            _eliminate(other, lead, b, row)
            gk = _content(other.values())
            if gk > 1:
                for c in other:
                    other[c] //= gk
            if expr is not None:
                _eliminate(self._exprs[q], lead, b, expr)
                if gk > 1:
                    self._exprs[q] = {j: c / gk for j, c in self._exprs[q].items()}

        self._rows[pivot] = row
        insort(self.pivots, pivot)
        if expr is not None:
            self._exprs[pivot] = expr
        return True

    def emit(
        self,
    ) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...], tuple[dict[int, Fraction], ...] | None]:
        """Reduced echelon rows (pivots normalized to 1), pivot columns, expressions."""
        vectors = []
        exprs_out = [] if self._exprs is not None else None
        for p in self.pivots:
            row = self._rows[p]
            lead = row[p]
            vec = [_ZERO] * self.width
            for c, x in row.items():
                vec[c] = Fraction(x, lead)
            vectors.append(tuple(vec))
            if exprs_out is not None:
                exprs_out.append({j: c / lead for j, c in self._exprs[p].items()})
        return tuple(vectors), tuple(self.pivots), (
            tuple(exprs_out) if exprs_out is not None else None
        )


def sparse_row(f: Polynomial, index: Mapping[Monomial, int]) -> dict[int, Fraction]:
    """The terms of f as a sparse row over a frame's monomial index."""
    return {index[m]: c for m, c in f.terms.items()}


def column_rows(
    columns: Sequence[Mapping[Hashable, Fraction]], keys: Iterable[Hashable]
) -> list[dict[int, Fraction]]:
    """Sparse rows, one per key in order, of the matrix whose j-th column
    maps row keys to entries (a polynomial's `terms`, say)."""
    index: dict[Hashable, int] = {}
    rows: list[dict[int, Fraction]] = []
    for key in keys:
        index[key] = len(rows)
        rows.append({})
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows[index[key]][j] = v
    return rows


def nullspace(rows: Iterable[Mapping[int, Fraction]], width: int) -> list[dict[int, Fraction]]:
    """Canonical nullspace basis of sparse rows over `width` columns: one
    sparse vector per free column, ascending, equal to 1 there."""
    ech = Echelon(width)
    for row in rows:
        ech.insert(row)
    reduced, pivots, _ = ech.emit()
    kernel = {j: {j: _ONE} for j in range(width)}
    for p in pivots:
        del kernel[p]
    for vec, p in zip(reduced, pivots):
        for j, v in enumerate(vec):
            if v and j in kernel:
                kernel[j][p] = -v
    return list(kernel.values())


def solve(rows: Iterable[Mapping[int, Fraction]], width: int) -> dict[int, Fraction] | None:
    """One exact solution `{unknown: value}` of sparse augmented rows whose
    column `width` holds the right-hand side, or None if inconsistent.

    Deterministic: the reduced-echelon particular solution with every free
    unknown set to zero, read off the canonical nullspace vector of the
    right-hand-side column (which exists iff that column is free).
    """
    kernel = nullspace(rows, width + 1)
    if not kernel or width not in kernel[-1]:
        return None
    return {j: -v for j, v in kernel[-1].items() if j != width}


def _sparse(vec: Sequence[Fraction | int]) -> dict[int, Fraction]:
    return {j: Fraction(v) for j, v in enumerate(vec) if v}


def _dense(vec: Mapping[int, Fraction], width: int) -> tuple[Fraction, ...]:
    out = [_ZERO] * width
    for j, v in vec.items():
        out[j] = v
    return tuple(out)


class RationalMatrix:
    """Dense matrix of exact rationals (a facade over `Echelon`)."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Sequence[Fraction | int]], ncols: int | None = None):
        data = []
        for row in rows:
            data.append(tuple(v if isinstance(v, Fraction) else Fraction(v) for v in row))
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = tuple(data)
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> RationalMatrix:
        return cls([_dense({i: _ONE}, n) for i in range(n)], ncols=n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows and self.ncols == other.ncols

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]})"

    def rref(self) -> tuple[RationalMatrix, tuple[int, ...]]:
        """Reduced row echelon form (same shape, zero rows at the bottom)
        together with the pivot columns."""
        ech = Echelon(self.ncols)
        for row in self.rows:
            ech.insert(_sparse(row))
        vectors, pivots, _ = ech.emit()
        zero = (_ZERO,) * self.ncols
        padded = vectors + (zero,) * (self.nrows - len(vectors))
        return RationalMatrix(padded, ncols=self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> tuple[tuple[Fraction, ...], ...]:
        """Canonical nullspace basis: one vector per free column, ascending."""
        kernel = nullspace(map(_sparse, self.rows), self.ncols)
        return tuple(_dense(vec, self.ncols) for vec in kernel)


def solve_columns(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """One exact solution of  sum_j c_j * columns[j] = target,  or None.

    Deterministic: the reduced-echelon particular solution with every free
    unknown set to zero.
    """
    m = len(target)
    for col in columns:
        if len(col) != m:
            raise ValueError("column height mismatch")
    n = len(columns)
    rows = column_rows([_sparse(col) for col in [*columns, target]], range(m))
    solution = solve(rows, n)
    return None if solution is None else _dense(solution, n)


class SpanBasis:
    """A subspace of polynomials presented over an explicit monomial frame.

    `vectors` are the unique reduced-echelon basis rows over `ambient`
    (canonical order), so representation of any member is unique.  When the
    basis was built from an explicit spanning family, `source_coords`
    expresses each echelon row in terms of that family.
    """

    __slots__ = ("varsys", "ambient", "vectors", "pivots", "source_coords", "_polys")

    def __init__(
        self,
        varsys: VarSystem,
        ambient: Sequence[Monomial],
        vectors: Sequence[Sequence[Fraction]],
        pivots: Sequence[int],
        source_coords: Sequence[Sequence[Fraction]] | None = None,
    ):
        self.varsys = varsys
        self.ambient = tuple(ambient)
        self.vectors = tuple(tuple(v) for v in vectors)
        self.pivots = tuple(pivots)
        self.source_coords = (
            tuple(tuple(c) for c in source_coords) if source_coords is not None else None
        )
        self._polys: tuple[Polynomial, ...] | None = None

    @classmethod
    def from_polynomials(
        cls,
        varsys: VarSystem,
        polys: Sequence[Polynomial],
        frame: Sequence[Monomial] | None = None,
        track_sources: bool = True,
    ) -> SpanBasis:
        for f in polys:
            if f.varsys != varsys:
                raise VarSystemMismatch("spanning polynomial over a different system")
        if frame is None:
            seen = set()
            for f in polys:
                seen.update(f.terms)
            frame = sorted(seen, key=Monomial.sort_key)
        frame = tuple(frame)
        index = {m: i for i, m in enumerate(frame)}
        ech = Echelon(len(frame), track=track_sources)
        for f in polys:
            try:
                row = sparse_row(f, index)
            except KeyError:
                raise ValueError("polynomial has a monomial outside the frame") from None
            ech.insert(row)
        vectors, pivots, exprs = ech.emit()
        coords = None
        if exprs is not None:
            coords = [tuple(e.get(j, _ZERO) for j in range(len(polys))) for e in exprs]
        return cls(varsys, frame, vectors, pivots, coords)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def polynomials(self) -> tuple[Polynomial, ...]:
        if self._polys is None:
            out = []
            for vec in self.vectors:
                terms = {m: c for m, c in zip(self.ambient, vec) if c}
                out.append(Polynomial(self.varsys, terms))
            self._polys = tuple(out)
        return self._polys

    def coordinates_of(self, f: Polynomial) -> tuple[Fraction, ...] | None:
        """Exact coordinates of f over the echelon basis rows, or None.

        Monomials of f outside the ambient frame behave as zero columns of
        the basis, so they force a negative answer unless they cancel.
        """
        if f.varsys != self.varsys:
            raise VarSystemMismatch("target over a different system")
        residual = f
        coords = []
        basis = self.polynomials()
        for row_poly, pivot in zip(basis, self.pivots):
            c = residual.coeff(self.ambient[pivot])
            coords.append(c)
            if c:
                residual = residual - row_poly * c
        if residual.is_zero():
            return tuple(coords)
        return None

    def source_coordinates_of(self, f: Polynomial) -> tuple[Fraction, ...] | None:
        """Coordinates of f over the originally supplied spanning family."""
        if self.source_coords is None:
            raise ValueError("basis was built without source tracking")
        coords = self.coordinates_of(f)
        if coords is None:
            return None
        n = len(self.source_coords[0]) if self.source_coords else 0
        out = [_ZERO] * n
        for c, row in zip(coords, self.source_coords):
            if c:
                for j, t in enumerate(row):
                    out[j] += c * t
        return tuple(out)

    def contains(self, f: Polynomial) -> bool:
        return self.coordinates_of(f) is not None

    def spans_same(self, other: SpanBasis) -> bool:
        if self.varsys != other.varsys or self.dim != other.dim:
            return False
        return all(self.contains(p) for p in other.polynomials())

    def _unified_frame(self, other: SpanBasis) -> tuple[Monomial, ...]:
        return tuple(sorted(set(self.ambient) | set(other.ambient), key=Monomial.sort_key))

    def plus(self, other: SpanBasis) -> SpanBasis:
        """Span of the union (subspace sum)."""
        if self.varsys != other.varsys:
            raise VarSystemMismatch("bases over different systems")
        frame = self._unified_frame(other)
        return SpanBasis.from_polynomials(
            self.varsys,
            self.polynomials() + other.polynomials(),
            frame=frame,
            track_sources=False,
        )

    def intersect(self, other: SpanBasis) -> SpanBasis:
        """Intersection via the kernel of the stacked bases."""
        if self.varsys != other.varsys:
            raise VarSystemMismatch("bases over different systems")
        frame = self._unified_frame(other)
        mine = self.polynomials()
        columns = [f.terms for f in mine] + [(-f).terms for f in other.polynomials()]
        if not columns:
            return SpanBasis.from_polynomials(self.varsys, [], frame=frame, track_sources=False)
        members = []
        for vec in nullspace(column_rows(columns, frame), len(columns)):
            member = self.varsys.zero()
            for j, c in sorted(vec.items()):
                if j < len(mine):
                    member = member + mine[j] * c
            members.append(member)
        return SpanBasis.from_polynomials(
            self.varsys, members, frame=frame, track_sources=False
        )


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    return matrix.rref()


def solve_in_span(basis: SpanBasis, target: Polynomial) -> tuple[Fraction, ...] | None:
    """Exact coordinates of target in the span, or None if it is not there.

    When the basis tracks its original spanning family the coordinates are
    over that family; otherwise they are over the reduced echelon rows.
    """
    if basis.source_coords is not None:
        return basis.source_coordinates_of(target)
    return basis.coordinates_of(target)


def intersect_spans(u: SpanBasis, v: SpanBasis) -> SpanBasis:
    return u.intersect(v)
