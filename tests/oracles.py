"""Independent reference implementations shared by the tests."""

from fractions import Fraction
from itertools import product
from math import lcm


def dense_rref(rows, width):
    """Textbook Gauss-Jordan over Fractions: reduced nonzero rows, pivots."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in rows[: len(pivots)]), tuple(pivots)


def dense_nullspace(rows, width):
    """Nullspace basis of dense rows, one vector per free column."""
    reduced, pivots = dense_rref(rows, width)
    kernel = []
    for free in (j for j in range(width) if j not in pivots):
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        kernel.append(vec)
    return kernel


def pairwise_decomposable(algebra, degree):
    """(A+ . A+)_d the direct way: the dense reduced rows and pivots of all
    products b*c of basis rows of A_e and A_{d-e}, 1 <= e <= d/2, over the
    degree-d monomials."""
    from ikernel.algebra import graded_piece
    from ikernel.poly import monomials_of_degree

    frame = monomials_of_degree(algebra.varsys, degree)
    rows = [
        [(b * c).coeff(m) for m in frame]
        for e in range(1, degree // 2 + 1)
        for b, c in product(
            graded_piece(algebra, e).polynomials(), graded_piece(algebra, degree - e).polynomials()
        )
    ]
    return dense_rref(rows, len(frame))


def _raises_rank(reduced, row):
    """Gauss-Jordan step over Fractions: reduce dense `row` by `reduced`, a
    `{pivot: row}` map of mutually reduced rows equal to 1 at their pivots;
    if anything is left, add it (normalized, its pivot cleared from the
    other rows) and return True."""
    for p, other in reduced.items():
        if row[p]:
            f = row[p]
            row = [a - f * b for a, b in zip(row, other)]
    pivot = next((j for j, v in enumerate(row) if v), None)
    if pivot is None:
        return False
    row = [v / row[pivot] for v in row]
    for p, other in reduced.items():
        if other[pivot]:
            f = other[pivot]
            reduced[p] = [a - f * b for a, b in zip(other, row)]
    reduced[pivot] = row
    return True


def product_stream_pieces(algebra, max_degree):
    """Graded pieces A_0..A_max_degree from the `Polynomial` product stream:
    per degree d, the dense rows over the degree-d monomials of every
    product b*g of a basis row of A_{d-e} and a generator of degree e < d,
    then of the lone degree-d generators; each formal is expr_b * label_g.
    A product is kept iff it raises the rank of the kept ones, decided by
    dense Gauss-Jordan.  With P the kept rows (independent), the textbook
    reduced form of [P | I] is [B | M], B the reduced basis and M*P = B,
    so basis row i's label expression is the sum of M_ij times product
    j's formal.  Returns per degree the basis and its label expressions."""
    from ikernel.exactlin import SpanBasis
    from ikernel.poly import monomials_of_degree

    vs, labels = algebra.varsys, algebra.label_system
    by_degree = {}
    for label, gen in algebra.generators:
        by_degree.setdefault(gen.degree(), []).append((labels.variable(label), gen))
    pieces = []
    for d in range(max_degree + 1):
        stream = [(vs.one(), labels.one())] if d == 0 else []
        for e in sorted(by_degree):
            if e < d:
                lower, lower_exprs = pieces[d - e]
                for glabel, gen in by_degree[e]:
                    for b, expr in zip(lower.polynomials(), lower_exprs):
                        stream.append((b * gen, expr * glabel))
        stream += [(gen, glabel) for glabel, gen in by_degree.get(d, [])]
        frame = monomials_of_degree(vs, d)
        width = len(frame)
        reduced = {}
        dense = [([poly.coeff(m) for m in frame], formal) for poly, formal in stream]
        raised = [(row, formal) for row, formal in dense if _raises_rank(reduced, row)]
        r = len(raised)
        rows, pivots = dense_rref(
            [row + [int(i == j) for j in range(r)] for i, (row, _) in enumerate(raised)],
            width + r,
        )
        exprs = tuple(
            sum((raised[j][1] * c for j, c in enumerate(row[width:]) if c), labels.zero())
            for row in rows
        )
        scales = [lcm(*(v.denominator for v in row[:width])) for row in rows]
        integer_rows = [
            {m: int(v * s) for m, v in zip(frame, row) if v} for row, s in zip(rows, scales)
        ]
        pieces.append((SpanBasis(vs, integer_rows, [frame[p] for p in pivots]), exprs))
    return pieces


def descend_frame(varsys, degree, names=None):
    """The degree-d monomials in the chosen coordinates (every coordinate
    by default) by exponent recursion: over the chosen indices ascending,
    each exponent from high to low, the last index taking what is left."""
    idxs = sorted(varsys.coordinate_indices if names is None else map(varsys.index, names))
    if degree < 0:
        return ()
    if not idxs:
        return ((0,) * varsys.nvars,) if degree == 0 else ()
    out = []

    def descend(pos, remaining, exps):
        if pos == len(idxs) - 1:
            exps[idxs[pos]] = remaining
            out.append(tuple(exps))
            exps[idxs[pos]] = 0
            return
        for e in range(remaining, -1, -1):
            exps[idxs[pos]] = e
            descend(pos + 1, remaining - e, exps)
        exps[idxs[pos]] = 0

    descend(0, degree, [0] * varsys.nvars)
    return tuple(out)


def monomial_label(mono, varsys):
    """A monomial generator's label spelled out: "m_" then, per variable
    in declared order, its name (exponent 1) or name, "e", exponent (above
    1), joined by "_"."""
    parts = []
    for name, e in zip(varsys.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}e{e}")
    return "m_" + "_".join(parts)
