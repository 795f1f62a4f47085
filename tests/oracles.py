"""Independent reference implementations shared by the tests."""

from fractions import Fraction
from itertools import product


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
