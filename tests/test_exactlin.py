"""Exact rational linear algebra: rref, nullspaces, span bases."""

import inspect
import random
import sys
from fractions import Fraction

import pytest

from ikernel import exactlin
from ikernel.exactlin import (
    Echelon,
    RationalMatrix,
    SpanBasis,
    intersect_spans,
    solve_columns,
    solve_in_span,
)
from ikernel.poly import VarSystem

VS = VarSystem(("x1", "y1", "z"))
X, Y, Z = (VS.variable(n) for n in ("x1", "y1", "z"))
T1 = X * X + X * Z


def test_rref_identity():
    m = RationalMatrix.identity(3)
    reduced, pivots = m.rref()
    assert reduced == m
    assert pivots == (0, 1, 2)


def test_rref_rank_one():
    reduced, pivots = RationalMatrix([[2, 4], [1, 2]]).rref()
    assert reduced == RationalMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_of_polynomial_rows():
    # {t1, z*x1} over the frame (x1^2, x1*z) with a duplicated x1*z column.
    reduced, pivots = RationalMatrix([[1, 1, 1], [0, 1, 1]]).rref()
    assert len(pivots) == 2
    assert reduced == RationalMatrix([[1, 0, 0], [0, 1, 1]])


def test_rref_idempotent_and_rational():
    m = RationalMatrix(
        [[Fraction(1, 2), Fraction(2, 3), 1], [3, Fraction(-1, 5), 0], [1, 1, 1]]
    )
    reduced, _ = m.rref()
    again, _ = reduced.rref()
    assert again == reduced


def test_rank_nullity_randomized():
    rng = random.Random(20240815)
    for _ in range(25):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = RationalMatrix(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        kernel = m.nullspace()
        assert m.rank() + len(kernel) == cols
        for vec in kernel:
            for row in m.rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_rank_nullity_forty_by_forty():
    rng = random.Random(7)
    m = RationalMatrix(
        [[Fraction(rng.randint(-2, 2)) for _ in range(40)] for _ in range(40)]
    )
    assert m.rank() + len(m.nullspace()) == 40


def test_solve_columns():
    columns = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert solve_columns(columns, [Fraction(2), Fraction(1)]) == (1, 1)
    assert solve_columns([[Fraction(0), Fraction(0)]], [Fraction(1), Fraction(0)]) is None


def test_span_basis_coordinates():
    basis = SpanBasis.from_polynomials(VS, [T1, X * Z])
    assert basis.dim == 2
    # Coordinates come back over the supplied spanning family: x1^2 = t1 - x1*z.
    assert solve_in_span(basis, X * X) == (1, -1)
    assert solve_in_span(basis, VS.zero()) == (0, 0)
    assert solve_in_span(basis, T1) == (1, 0)
    assert solve_in_span(basis, Y) is None


def test_span_reconstruction_property():
    rng = random.Random(99)
    family = [T1, X * Z, Y * Y - Z * Z, X * Y]
    basis = SpanBasis.from_polynomials(VS, family)
    for _ in range(20):
        target = VS.zero()
        weights = [Fraction(rng.randint(-3, 3)) for _ in family]
        for w, f in zip(weights, family):
            target = target + f * w
        coords = solve_in_span(basis, target)
        assert coords is not None
        rebuilt = VS.zero()
        for c, f in zip(coords, family):
            rebuilt = rebuilt + f * c
        assert rebuilt == target


def test_intersect_trivial_cases():
    v = SpanBasis.from_polynomials(VS, [X, Y + Z])
    assert intersect_spans(v, v).spans_same(v)
    zero = SpanBasis.from_polynomials(VS, [])
    assert intersect_spans(v, zero).dim == 0


def test_intersect_degree_two_example(inst11):
    # (A_{1,1})_2 meets k[x1, y1]_2 in span{x1*y1, y1^2}.
    from ikernel.algebra import graded_piece
    from ikernel.poly import Polynomial, monomials_of_degree

    piece = graded_piece(inst11.algebra, 2)
    monos = monomials_of_degree(inst11.varsys, 2, ("x1", "y1"))
    subring = SpanBasis.from_polynomials(
        inst11.varsys,
        [Polynomial(inst11.varsys, {mm: Fraction(1)}) for mm in monos],
        track_sources=False,
    )
    meet = intersect_spans(piece, subring)
    vs = inst11.varsys
    expected = SpanBasis.from_polynomials(
        vs, [vs.parse("x1*y1"), vs.parse("y1^2")], track_sources=False
    )
    assert meet.spans_same(expected)


def test_grassmann_identity_randomized():
    rng = random.Random(4242)
    from ikernel.poly import Monomial, Polynomial

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = Monomial([rng.randint(0, 2) for _ in range(3)])
            terms[mono] = Fraction(rng.randint(-3, 3))
        return Polynomial(VS, terms)

    for _ in range(15):
        u = SpanBasis.from_polynomials(
            VS, [random_poly() for _ in range(rng.randint(0, 4))], track_sources=False
        )
        v = SpanBasis.from_polynomials(
            VS, [random_poly() for _ in range(rng.randint(0, 4))], track_sources=False
        )
        meet = u.intersect(v)
        join = u.plus(v)
        assert meet.dim + join.dim == u.dim + v.dim
        for p in meet.polynomials():
            assert u.contains(p) and v.contains(p)


def test_spans_same_rejects_different_spaces():
    u = SpanBasis.from_polynomials(VS, [X])
    v = SpanBasis.from_polynomials(VS, [Y])
    assert not u.spans_same(v)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [1]])


# -- differential check of the sparse core against dense Gauss-Jordan --------


def _dense_rref(rows, width):
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


def _random_rows(rng, width, scale=1):
    """Mostly-zero rational rows with zero rows, duplicates and multiples."""
    rows = []
    for _ in range(rng.randint(0, width + 5)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * width)
        elif kind < 0.25 and rows:
            factor = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            rows.append([v * factor for v in rng.choice(rows)])
        else:
            density = rng.choice([0.05, 0.1, 0.3])
            rows.append(
                [
                    Fraction(rng.randint(-5, 5) * scale, rng.randint(1, 4))
                    if rng.random() < density
                    else 0
                    for _ in range(width)
                ]
            )
    return rows


def _check_against_dense(rows, width):
    ech = Echelon(width, track=True)
    raised = 0
    for k, row in enumerate(rows):
        # Alternate between omitting zeros and passing them explicitly.
        sparse = {j: v for j, v in enumerate(row) if v or k % 2}
        raised += ech.insert(sparse)
    vectors, pivots, exprs = ech.emit()
    assert (vectors, pivots) == _dense_rref(rows, width)
    assert ech.dim == raised == len(pivots)
    for vec, expr in zip(vectors, exprs):
        rebuilt = [Fraction(0)] * width
        for j, c in expr.items():
            for col, v in enumerate(rows[j]):
                rebuilt[col] += c * v
        assert tuple(rebuilt) == vec
    assert ech.width == width
    assert all(type(x) is int and x for row in ech.rows for x in row)


@pytest.mark.parametrize("seed", range(40))
def test_sparse_echelon_matches_dense_gauss_jordan(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 60)
    _check_against_dense(_random_rows(rng, width), width)


def _strip_branch_line():
    lines, start = inspect.getsourcelines(Echelon.insert)
    at = next(i for i, text in enumerate(lines) if "> _STRIP_LIMIT" in text)
    return start + at + 1  # the content computation that opens the branch


@pytest.mark.parametrize("seed", range(8))
def test_sparse_echelon_strips_content_of_huge_rows(seed, monkeypatch):
    callers = []
    real_content = exactlin._content

    def spy(values):
        callers.append(sys._getframe(1).f_lineno)
        return real_content(values)

    monkeypatch.setattr(exactlin, "_content", spy)
    rng = random.Random(1000 + seed)
    width = rng.randint(2, 30)
    big = (1 << 70) + rng.randint(0, 1 << 20)
    rows = [[1, 1] + [0] * (width - 2), [3 * big, 5 * big] + [0] * (width - 2)]
    rows += _random_rows(rng, width, scale=big)
    _check_against_dense(rows, width)
    assert _strip_branch_line() in callers
