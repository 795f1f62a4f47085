"""Exact rational linear algebra: the sparse echelon core, nullspaces,
solves and span bases, checked against dense Gauss-Jordan."""

import random
from fractions import Fraction
from math import gcd

import pytest
from oracles import dense_nullspace, dense_rref

from ikernel import exactlin
from ikernel.exactlin import (
    Echelon,
    SpanBasis,
    integer_kernel,
    kernel_span,
    solve,
)
from ikernel.poly import Monomial, Polynomial, VarSystem, _integer_terms, monomials_of_degree

VS = VarSystem(("x1", "y1", "z"))
X, Y, Z = (VS.variable(n) for n in ("x1", "y1", "z"))
T1 = X * X + X * Z


def _sparse_rows(rows):
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows]


def _columns(rows, width):
    """The columns of sparse `{column: value}` rows over `width` columns,
    each keyed by row index."""
    return [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(width)]


def _fraction_kernel(columns):
    """The canonical `Fraction` nullspace basis: each `integer_kernel`
    vector divided by its entry at the free column (its first key)."""
    return [{j: Fraction(x, s) for j, x in vec.items()}
            for vec in integer_kernel(columns) for s in [next(iter(vec.values()))]]


def _assert_integer_rows(rows, pivots):
    """Rows in the one row format: ascending nonzero `int` entries, each
    row's first column its pivot, with a positive entry there."""
    for row, p in zip(rows, pivots):
        assert list(row) == sorted(row) and min(row) == p and row[p] > 0
        assert all(type(v) is int and v for v in row.values())


def _assert_span_rows(basis):
    """A span's rows: plain exponent-tuple keys, nonzero `int` entries, and
    a positive entry at each row's pivot, which comes first in
    `Monomial.sort_key` order; the pivots ascend in that order."""
    for row, p in zip(basis.rows, basis.pivots):
        assert all(type(m) is tuple for m in row) and type(p) is tuple
        assert all(type(v) is int and v for v in row.values())
        assert min(row, key=Monomial.sort_key) == p and row[p] > 0
    assert list(basis.pivots) == sorted(basis.pivots, key=Monomial.sort_key)


def _dense(row, pivot, width):
    """A sparse integer row divided by its pivot entry, as a dense tuple
    over `width` columns."""
    _assert_integer_rows([row], [pivot])
    return tuple(Fraction(row.get(j, 0), row[pivot]) for j in range(width))


def _emitted(ech):
    """The emitted rows divided by their pivot entries, made dense, and
    the pivots."""
    rows, pivots = ech.emit()
    return tuple(_dense(row, p, ech.width) for row, p in zip(rows, pivots)), pivots


def _rref(rows, width):
    """Reduced nonzero rows and pivots of dense `rows`, through `Echelon`."""
    ech = Echelon(width)
    for row in _sparse_rows(rows):
        ech.insert(row)
    return _emitted(ech)


def _row_polynomials(basis):
    """A span's integer rows as polynomials, not divided by their pivots."""
    return [
        Polynomial(basis.varsys, {m: Fraction(v) for m, v in row.items()})
        for row in basis.rows
    ]


def _combination(coords, polys):
    total = VS.zero()
    for c, f in zip(coords, polys):
        total = total + f * c
    return total


def test_rref_identity():
    identity = tuple(tuple(Fraction(i == j) for j in range(3)) for i in range(3))
    assert _rref(identity, 3) == (identity, (0, 1, 2))


def test_rref_rank_one():
    assert _rref([[2, 4], [1, 2]], 2) == (((1, 2),), (0,))


def test_rref_of_polynomial_rows():
    # {t1, z*x1} over the frame (x1^2, x1*z) with a duplicated x1*z column.
    assert _rref([[1, 1, 1], [0, 1, 1]], 3) == (((1, 0, 0), (0, 1, 1)), (0, 1))


def test_rref_idempotent_and_rational():
    m = [[Fraction(1, 2), Fraction(2, 3), 1], [3, Fraction(-1, 5), 0], [1, 1, 1]]
    reduced, pivots = _rref(m, 3)
    assert _rref(reduced, 3) == (reduced, pivots)


def test_rank_nullity_randomized():
    rng = random.Random(20240815)
    for _ in range(25):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        kernel = _fraction_kernel(_columns(_sparse_rows(m), cols))
        assert len(dense_rref(m, cols)[1]) + len(kernel) == cols
        for vec in kernel:
            for row in m:
                assert sum(row[j] * c for j, c in vec.items()) == 0


def test_rank_nullity_forty_by_forty():
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-2, 2)) for _ in range(40)] for _ in range(40)]
    assert len(dense_rref(m, 40)[1]) + len(_fraction_kernel(_columns(_sparse_rows(m), 40))) == 40


def test_solve_columns():
    one, two = Fraction(1), Fraction(2)
    # c0*(1, 0) + c1*(1, 1) = (2, 1); the last column holds the target.
    assert solve([{0: one}, {0: one, 1: one}, {0: two, 1: one}]) == {0: 1, 1: 1}
    assert solve([{}, {0: one}]) is None


def test_span_basis_coordinates():
    basis = SpanBasis.from_polynomials(VS, [T1, X * Z])
    assert basis.dim == 2
    rows = basis.polynomials()
    # Coordinates come back over the echelon rows: x1^2 = t1 - x1*z.
    assert _combination(basis.coordinates_of(X * X), rows) == X * X
    assert basis.coordinates_of(VS.zero()) == (0, 0)
    assert _combination(basis.coordinates_of(T1), rows) == T1
    assert basis.coordinates_of(Y) is None


def test_span_reconstruction_property():
    rng = random.Random(99)
    family = [T1, X * Z, Y * Y - Z * Z, X * Y]
    basis = SpanBasis.from_polynomials(VS, family)
    for _ in range(20):
        weights = [Fraction(rng.randint(-3, 3)) for _ in family]
        target = _combination(weights, family)
        coords = basis.coordinates_of(target)
        assert coords is not None
        assert _combination(coords, basis.polynomials()) == target


def test_intersect_trivial_cases():
    v = SpanBasis.from_polynomials(VS, [X, Y + Z])
    assert v.intersect(v).spans_same(v)
    zero = SpanBasis.from_polynomials(VS, [])
    assert v.intersect(zero).dim == 0
    assert zero.intersect(v).dim == 0  # no unknowns: an empty elimination


def test_intersect_degree_two_example(inst11):
    # (A_{1,1})_2 meets k[x1, y1]_2 in span{x1*y1, y1^2}.
    from ikernel.algebra import graded_piece

    piece = graded_piece(inst11.algebra, 2)
    monos = monomials_of_degree(inst11.varsys, 2, ("x1", "y1"))
    subring = SpanBasis.from_polynomials(
        inst11.varsys, [Polynomial(inst11.varsys, {mm: Fraction(1)}) for mm in monos]
    )
    meet = piece.intersect(subring)
    vs = inst11.varsys
    expected = SpanBasis.from_polynomials(vs, [vs.parse("x1*y1"), vs.parse("y1^2")])
    assert meet.spans_same(expected)


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = Monomial([rng.randint(0, 2) for _ in range(3)])
        terms[mono] = Fraction(rng.randint(-3, 3))
    return Polynomial(VS, terms)


def test_grassmann_identity_randomized():
    rng = random.Random(4242)
    for _ in range(15):
        u = SpanBasis.from_polynomials(VS, [_random_poly(rng) for _ in range(rng.randint(0, 4))])
        v = SpanBasis.from_polynomials(VS, [_random_poly(rng) for _ in range(rng.randint(0, 4))])
        meet = u.intersect(v)
        join = SpanBasis.from_polynomials(VS, u.polynomials() + v.polynomials())
        assert meet.dim + join.dim == u.dim + v.dim
        echelon = SpanBasis.from_polynomials(VS, meet.polynomials())
        assert (meet.polynomials(), meet.pivots) == (echelon.polynomials(), echelon.pivots)
        for basis in (u, v, meet):
            _assert_span_rows(basis)
        for basis in (u, v, join, echelon):  # Echelon's rows are primitive
            assert all(gcd(*row.values()) == 1 for row in basis.rows)
        for p in meet.polynomials():
            assert u.contains(p) and v.contains(p)


def test_spans_same_rejects_different_spaces():
    u = SpanBasis.from_polynomials(VS, [X])
    v = SpanBasis.from_polynomials(VS, [Y])
    assert not u.spans_same(v)


def test_from_polynomials_takes_any_iterable():
    family = [T1, X * Z, T1 - X * Z]
    listed = SpanBasis.from_polynomials(VS, family)
    streamed = SpanBasis.from_polynomials(VS, iter(family))
    assert (streamed.rows, streamed.pivots) == (listed.rows, listed.pivots)
    assert streamed.spans_same(listed) and listed.dim == 2


# -- the kernel helper against a dense oracle ---------------------------------


def _random_family(rng, frame, size):
    """`size` random polynomials of up to three terms over `frame`."""
    family = []
    for _ in range(size):
        picked = rng.sample(frame, rng.randint(1, min(3, len(frame))))
        terms = {m: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for m in picked}
        family.append(Polynomial(VS, terms))
    return family


def _random_domain(rng, kind):
    """A domain basis over a degree-d frame: empty, every monomial, or the
    span of a few random degree-d polynomials."""
    d = rng.randint(0, 3)
    frame = monomials_of_degree(VS, d)
    if kind == "empty":
        return SpanBasis.from_polynomials(VS, [])
    if kind == "full":
        return SpanBasis.of_degree(VS, d)
    family = _random_family(rng, frame, rng.randint(1, len(frame) + 1))
    return SpanBasis.from_polynomials(VS, family)


@pytest.mark.parametrize("seed", range(30))
def test_kernel_span_matches_dense_rank(seed):
    """dim = domain dim - rank of the image matrix, and the basis is the
    reduced echelon basis of the dense oracle's kernel members."""
    rng = random.Random(seed)
    domain = _random_domain(rng, ("empty", "full", "random")[seed % 3])
    n = domain.dim
    height = rng.randint(0, 8)
    shape = rng.random()
    matrix = [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if shape > 0.2 and rng.random() < 0.3
            else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(height)
    ]
    images = [{r: row[j] for r, row in enumerate(matrix) if row[j]} for j in range(n)]
    basis = kernel_span(domain, images)

    assert basis.dim == n - len(dense_rref(matrix, n)[1])
    members = [_combination(vec, _row_polynomials(domain)) for vec in dense_nullspace(matrix, n)]
    oracle = SpanBasis.from_polynomials(VS, members)
    assert (basis.polynomials(), basis.pivots) == (oracle.polynomials(), oracle.pivots)
    assert {m for row in basis.rows for m in row} <= {m for row in domain.rows for m in row}
    _assert_span_rows(basis)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_span_over_non_unit_rows_matches_dense_nullspace(seed):
    """`images[j]` is the image of the integer row `domain.rows[j]`, whatever
    its pivot entry: rows {j: s_j}, as `invariant_subspace` builds them, and
    Echelon rows with a pivot entry above 1."""
    rng = random.Random(100 + seed)
    frame = monomials_of_degree(VS, rng.randint(1, 3))
    if seed % 2:
        domain = SpanBasis(VS, [{m: rng.randint(2, 6)} for m in frame], frame)
    else:  # 1/2*m0 + 1/3*m1 is the row 3*m0 + 2*m1; the others reduce nothing at m0
        head = Polynomial(VS, {frame[0]: Fraction(1, 2), frame[1]: Fraction(1, 3)})
        family = _random_family(rng, frame[2:], rng.randint(0, len(frame)))
        domain = SpanBasis.from_polynomials(VS, [head] + family)
        assert domain.rows[0] == {frame[0]: 3, frame[1]: 2}
    n = domain.dim
    matrix = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.4 else 0
         for _ in range(n)]
        for _ in range(rng.randint(0, n + 1))
    ]
    images = [{r: row[j] for r, row in enumerate(matrix) if row[j]} for j in range(n)]
    basis = kernel_span(domain, images)

    members = [_combination(vec, _row_polynomials(domain)) for vec in dense_nullspace(matrix, n)]
    oracle = SpanBasis.from_polynomials(VS, members)
    assert (basis.polynomials(), basis.pivots) == (oracle.polynomials(), oracle.pivots)
    _assert_span_rows(basis)


def _fraction_route(rows, width):
    """The kernel read-out `integer_kernel` replaced: each stored row divided
    by its pivot entry into the canonical `Fraction` nullspace, then each
    vector scaled back to integers by the lcm of its denominators."""
    ech = Echelon(width)
    for row in rows:
        ech.insert(row)
    emitted, pivots = ech.emit()
    kernel = {j: {j: Fraction(1)} for j in range(width) if j not in pivots}
    for row, p in zip(emitted, pivots):
        for j, v in row.items():
            if j != p:
                kernel[j][p] = Fraction(-v, row[p])
    fractions = list(kernel.values())
    return fractions, [dict(_integer_terms(vec.items())[0]) for vec in fractions]


@pytest.mark.parametrize("seed", range(30))
def test_kernel_read_out_matches_the_fraction_route(seed):
    """`integer_kernel` gives the same integer vectors, entries in the same
    order, and divided by their entries at the free columns the same
    `Fraction`s, on random sparse integer matrices."""
    rng = random.Random(500 + seed)
    width, density = rng.randint(1, 14), rng.random()
    rows = [
        {j: rng.randint(-9, 9) for j in range(width) if rng.random() < density}
        for _ in range(rng.randint(0, 16))
    ]
    fractions, integers = _fraction_route(rows, width)
    columns = _columns(rows, width)
    assert [list(vec.items()) for vec in integer_kernel(columns)] == [
        list(vec.items()) for vec in integers
    ]
    assert [list(vec.items()) for vec in _fraction_kernel(columns)] == [
        list(vec.items()) for vec in fractions
    ]


@pytest.mark.parametrize("seed", range(30))
def test_solve_matches_the_last_fraction_kernel_vector(seed):
    """`solve` divides only the last `integer_kernel` vector; the route it
    replaced divided them all and negated the last one when it was the
    right-hand side's."""
    rng = random.Random(900 + seed)
    width = rng.randint(0, 8)
    rows = [
        {j: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(width + 1)
         if rng.random() < 0.6}
        for _ in range(rng.randint(0, 8))
    ]
    columns = _columns(rows, width + 1)
    kernel = _fraction_kernel(columns)
    want = None
    if kernel and width in kernel[-1]:
        want = [(j, -v) for j, v in kernel[-1].items() if j != width]
    got = solve(columns)
    assert (got if got is None else list(got.items())) == want
    if got is not None:
        for row in rows:
            assert sum(v * got.get(j, 0) for j, v in row.items() if j != width) == row.get(width, 0)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_span_ignores_the_order_of_keys(seed):
    """The reduced echelon form of a row space is unique, so the order in
    which the keys (the matrix rows) first appear in the columns changes
    neither `integer_kernel`'s vectors, entries in the same order, nor a
    kernel span's rows and pivots."""
    rng = random.Random(700 + seed)
    domain = _random_domain(rng, ("full", "random")[seed % 2])
    keys = [f"k{r}" for r in range(rng.randint(0, 10))]
    images = [
        {k: v for k in keys if rng.random() < 0.4 and (v := rng.randint(-5, 5))}
        for _ in range(domain.dim)
    ]
    rng.shuffle(keys)
    shuffled = [{k: image[k] for k in keys if k in image} for image in images]
    assert [list(v.items()) for v in integer_kernel(shuffled)] == [
        list(v.items()) for v in integer_kernel(images)
    ]
    want, got = kernel_span(domain, images), kernel_span(domain, shuffled)
    assert (got.rows, got.pivots) == (want.rows, want.pivots)


def test_kernel_span_of_nothing():
    empty = SpanBasis.from_polynomials(VS, [])
    assert kernel_span(empty, []).dim == 0
    domain = SpanBasis.from_polynomials(VS, [X, Y])
    kernel = kernel_span(domain, [{}, {}])
    assert (kernel.polynomials(), kernel.pivots) == (domain.polynomials(), domain.pivots)
    with pytest.raises(ValueError):
        kernel_span(domain, [{}])


def _assert_dense_kernel(columns):
    """`integer_kernel` of `columns` is the dense oracle's nullspace of the
    matrix with one row per key, each vector scaled to 1 at its free
    column; its vectors are primitive with a positive entry there."""
    keys = list(dict.fromkeys(k for col in columns for k in col))
    matrix = [[col.get(k, 0) for col in columns] for k in keys]
    want = [{j: v for j, v in enumerate(vec) if v} for vec in dense_nullspace(matrix, len(columns))]
    assert _fraction_kernel(columns) == want
    for vec in integer_kernel(columns):
        assert gcd(*vec.values()) == 1 and next(iter(vec.values())) > 0


def test_integer_kernel_of_no_columns():
    assert integer_kernel([]) == []
    assert solve([]) is None  # no right-hand side: nothing to solve


def test_integer_kernel_of_empty_columns_is_the_unit_vectors():
    assert integer_kernel([{}, {}, {}]) == [{0: 1}, {1: 1}, {2: 1}]
    _assert_dense_kernel([{}, {}, {}])


def test_integer_kernel_with_a_key_held_by_one_column():
    # Only column 0 holds "a", so x0 = 0 in every kernel vector.
    columns = [{"a": 2, "b": 1}, {"b": 3}, {"b": Fraction(-1, 2)}]
    assert integer_kernel(columns) == [{2: 6, 1: 1}]
    _assert_dense_kernel(columns)
    _assert_dense_kernel([{"a": 1}, {}, {"b": 2}, {"b": 4}])


@pytest.mark.parametrize("seed", range(20))
def test_integer_kernel_matches_dense_oracle_on_keyed_columns(seed):
    rng = random.Random(1300 + seed)
    keys = [(rng.randint(0, 3), f"k{r}") for r in range(rng.randint(0, 8))]
    _assert_dense_kernel([
        {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in keys if rng.random() < 0.4}
        for _ in range(rng.randint(0, 8))
    ])


# -- peeling the unknowns that one-entry rows force to zero --------------------


def _count_inserts(monkeypatch):
    """Count the rows handed to `Echelon.insert` from now on."""
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda ech, row: calls.append(row) or insert(ech, row))
    return calls


def test_integer_kernel_peels_a_three_deep_cascade(monkeypatch):
    # Row 0 forces x0; then row 1 forces x1, and row 2 forces x2; row 3
    # alone reaches `Echelon`, and column 5 holds nothing.
    rows = [{0: 2}, {0: 1, 1: 3}, {1: -1, 2: 5}, {2: 1, 3: 1, 4: 1}]
    calls = _count_inserts(monkeypatch)
    assert integer_kernel(_columns(rows, 6)) == [{4: 1, 3: -1}, {5: 1}]
    assert calls == [{3: 1, 4: 1}]
    _assert_dense_kernel(_columns(rows, 6))


def test_integer_kernel_peels_past_zero_and_fraction_entries(monkeypatch):
    # Row "a" holds one nonzero entry among zeros, so it forces x2; then row
    # "b" forces x0; row "c" keeps x1 and x4, and x3 is free.
    columns = [
        {"a": 0, "b": Fraction(1, 2), "c": 0},
        {"a": Fraction(0), "c": Fraction(2, 3)},
        {"a": 3, "b": Fraction(-3, 4)},
        {"c": 0},
        {"c": Fraction(-1, 5), "b": 0},
    ]
    calls = _count_inserts(monkeypatch)
    assert integer_kernel(columns) == [{3: 1}, {4: 10, 1: 3}]
    assert calls == [{1: Fraction(2, 3), 4: Fraction(-1, 5)}]
    _assert_dense_kernel(columns)


@pytest.mark.parametrize("seed", range(30))
def test_integer_kernel_with_planted_one_entry_keys_matches_dense_oracle(seed):
    """Random columns plus keys that each hold one nonzero entry, some with
    zero entries beside it, so the peel cascades into the random rows."""
    rng = random.Random(1700 + seed)
    width = rng.randint(1, 10)
    keys = [f"k{r}" for r in range(rng.randint(0, 10))]
    columns = [
        {k: rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
         for k in keys if rng.random() < 0.35}
        for _ in range(width)
    ]
    for r in range(rng.randint(1, 4)):
        j = rng.randrange(width)
        columns[j][f"p{r}"] = rng.choice([rng.randint(1, 5), Fraction(-rng.randint(1, 5), 7)])
        for i in rng.sample(range(width), rng.randint(0, width - 1)):
            if i != j:
                columns[i][f"p{r}"] = 0
    _assert_dense_kernel(columns)


def test_integer_kernel_peels_a_chain_without_eliminating(monkeypatch):
    # Row 0 holds x0 alone and row i holds xi - x(i-1): forcing x0 forces
    # x1, and so on down 2,000 columns; no row reaches `Echelon`.
    width = 2000
    columns = [{j: 1, j + 1: -1} for j in range(width - 1)] + [{width - 1: 1}]
    calls = _count_inserts(monkeypatch)
    assert integer_kernel(columns) == []
    assert calls == []
    assert solve(columns + [{}]) == {}  # the right-hand side 0 is free


@pytest.mark.parametrize("degree", range(1, 7))
def test_instance_kernels_are_read_off_without_eliminating(inst11, monkeypatch, degree):
    """The kernels of y1*d/dz, of it with y1*d/dy1, and the invariant
    subspaces of both actions, at (1,1): every row their nullspaces see
    holds one entry after peeling, so none reaches `Echelon`."""
    from ikernel.actions import invariant_subspace
    from ikernel.derivation import kernel_graded_basis

    vs, drv = inst11.varsys, inst11.translation_derivation
    calls = _count_inserts(monkeypatch)
    assert kernel_graded_basis([drv], vs, degree).dim == degree + 1
    assert kernel_graded_basis([drv, inst11.scaling_derivation], vs, degree).dim == 1
    assert invariant_subspace(inst11.translation, degree).dim == degree + 1
    assert invariant_subspace(inst11.scaling_shear, degree).dim == 1
    assert calls == []


def test_solve_of_a_right_hand_side_alone():
    assert solve([{}]) == {}  # 0 = 0 needs no unknowns
    assert solve([{"r": 1}]) is None  # 0 = 1 has no solution
    assert solve([{"r": 2}, {"r": 1}]) == {0: Fraction(1, 2)}


def test_of_degree_is_the_echelon_basis_of_unit_polynomials():
    frame = monomials_of_degree(VS, 2)
    units = [Polynomial(VS, {m: Fraction(1)}) for m in frame]
    direct = SpanBasis.of_degree(VS, 2)
    oracle = SpanBasis.from_polynomials(VS, units)
    assert (direct.rows, direct.pivots) == (oracle.rows, oracle.pivots)
    assert direct.pivots == frame
    assert direct.polynomials() == tuple(units)


@pytest.mark.parametrize("names", [("x1", "z"), ("z", "x1"), ("y1",), ("z", "y1", "x1")])
def test_of_degree_ignores_the_order_of_names(names):
    for d in range(4):
        want = SpanBasis.of_degree(VS, d, sorted(names, key=VS.index))
        got = SpanBasis.of_degree(VS, d, names)
        assert (got.rows, got.pivots) == (want.rows, want.pivots)
        units = [Polynomial(VS, {m: Fraction(1)}) for m in monomials_of_degree(VS, d, names)]
        oracle = SpanBasis.from_polynomials(VS, units[::-1])
        assert (got.rows, got.pivots) == (oracle.rows, oracle.pivots)
        assert got.spans_same(oracle) and oracle.spans_same(got)
        _assert_span_rows(got)


def test_from_polynomials_ignores_the_order_of_polynomials_and_terms():
    """Two spans of one space are equal however their polynomials and their
    term maps are ordered: once a permuted frame gave `x + y`, `x - y`
    over (y, x) the pivots (y, x), and `spans_same` failed."""
    vs = VarSystem(("x", "y"))
    x, y = vs.variable("x"), vs.variable("y")
    probe = SpanBasis.from_polynomials(vs, [x + y, x - y])
    flipped = SpanBasis.from_polynomials(
        vs, [Polynomial(vs, dict(reversed(f.terms.items()))) for f in (x - y, x + y)])
    assert (probe.rows, probe.pivots) == (flipped.rows, flipped.pivots) == (
        ({(1, 0): 1}, {(0, 1): 1}), ((1, 0), (0, 1)))
    assert probe.spans_same(flipped) and flipped.spans_same(probe)
    assert probe.spans_same(SpanBasis.of_degree(vs, 1))

    rng = random.Random(31)
    for _ in range(20):
        frame = monomials_of_degree(VS, rng.randint(1, 3))
        family = _random_family(rng, frame, rng.randint(1, len(frame) + 1))
        want = SpanBasis.from_polynomials(VS, family)
        rng.shuffle(family)
        permuted = []
        for f in family:
            items = list(f.terms.items())
            rng.shuffle(items)
            permuted.append(Polynomial(VS, dict(items)))
        got = SpanBasis.from_polynomials(VS, permuted)
        assert (got.rows, got.pivots) == (want.rows, want.pivots)
        assert got.spans_same(want) and want.spans_same(got)
        _assert_span_rows(got)


# -- differential check of the sparse core against dense Gauss-Jordan --------


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
    ech = Echelon(width)
    raised = 0
    for k, row in enumerate(rows):
        # Alternate between omitting zeros and passing them explicitly.
        sparse = {j: v for j, v in enumerate(row) if v or k % 2}
        raised += ech.insert(sparse)
    assert _emitted(ech) == dense_rref(rows, width)
    pivots = ech.pivots
    assert ech.dim == raised == len(pivots)
    assert ech.width == width
    assert all(type(x) is int and x for row in ech.rows for x in row)


@pytest.mark.parametrize("seed", range(40))
def test_sparse_echelon_matches_dense_gauss_jordan(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 60)
    _check_against_dense(_random_rows(rng, width), width)


@pytest.mark.parametrize("seed", range(20))
def test_echelon_emits_the_same_from_int_and_equal_fraction_rows(seed):
    rng = random.Random(500 + seed)
    width = rng.randint(1, 40)
    rows = [[int(v * 12) for v in row] for row in _random_rows(rng, width)]
    emitted = []
    for wrap in (int, Fraction):
        ech = Echelon(width)
        # Zeros are omitted from every other row and passed explicitly in the rest.
        raised = [ech.insert({j: wrap(v) for j, v in enumerate(row) if v or k % 2})
                  for k, row in enumerate(rows)]
        emitted.append((raised, ech.emit(), tuple(map(tuple, ech.rows))))
    assert emitted[0] == emitted[1]
    assert all(type(x) is int for row in emitted[0][2] for x in row)


@pytest.mark.parametrize("seed", range(8))
def test_sparse_echelon_strips_content_of_huge_rows(seed, monkeypatch):
    """Between two elimination steps of one insert, a row that a step able
    to multiply entries (lead != 1 or |a| > 1) left past `_STRIP_LIMIT` is
    divided by its content; every other row goes on as the step left it."""
    rng = random.Random(1000 + seed)
    width = rng.randint(3, 30)
    big = (1 << 70) + rng.randint(0, 1 << 20)
    pad = [0] * (width - 3)
    # The third row's first step leaves big*(5, -3) for its second step.
    rows = [[1, 0, 1] + pad, [0, 1, 1] + pad, [3 * big, 5 * big, 0] + pad]
    rows += _random_rows(rng, width, scale=big)
    _check_against_dense(rows, width)

    ech = Echelon(width)
    steps = []  # (row before, row after, could multiply) per step on the new row
    real_eliminate = exactlin._eliminate

    def spy(row, lead, a, other):
        before = dict(row)
        real_eliminate(row, lead, a, other)
        if not any(row is stored for stored in ech._rows.values()):  # not a back-reduction
            steps.append((before, dict(row), lead != 1 or abs(a) != 1))

    monkeypatch.setattr(exactlin, "_eliminate", spy)
    stripped = 0
    for row in _sparse_rows(rows):
        steps.clear()
        ech.insert(row)
        for (_, left, multiplied), (handed, _, _) in zip(steps, steps[1:]):
            g = gcd(*left.values())
            if multiplied and max(map(abs, left.values()), default=0) > exactlin._STRIP_LIMIT:
                stripped += g > 1
                assert handed == {c: x // g for c, x in left.items()}
            else:
                assert handed == left
    assert stripped


def _one_entry_row(rng, rows, width):
    """A dense row with one nonzero entry, negative or a `Fraction` as often
    as not, at a column picked by what the reduced form of `rows` holds
    there: the pivot of a unit row, the pivot of a longer row, a non-pivot
    column some row holds, or a column no row holds."""
    reduced, pivots = dense_rref(rows, width)
    held = {j for row in reduced for j in range(width) if row[j]}
    unit = [p for row, p in zip(reduced, pivots) if sum(map(bool, row)) == 1]
    cases = (unit, [p for p in pivots if p not in unit], sorted(held - set(pivots)),
             [j for j in range(width) if j not in held])
    row = [0] * width
    row[rng.choice(rng.choice([case for case in cases if case]))] = rng.choice(
        [1, 3, -1, -2, Fraction(2, 3), Fraction(-5, 7)])
    return row


def _stepwise_rows(rng, width):
    """Random rows: about a quarter of them one-entry rows (`_one_entry_row`),
    a quarter combinations of earlier rows plus one new column (so
    back-reduction cancels entries); for half the seeds the rest are
    integer rows of ~70-bit entries, stored with leads not 1."""
    huge = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(1, width + 5)):
        if rng.random() < 0.25:
            row = _one_entry_row(rng, rows, width)
        elif rows and rng.random() < 0.35:
            picked = rng.sample(rows, min(len(rows), 3))
            row = [sum((rng.choice([-2, -1, 1, 2]) * old[j] for old in picked), Fraction(0))
                   for j in range(width)]
            row[rng.randrange(width)] += rng.choice([-2, -1, 1, 3])
        elif huge:
            row = [rng.randint(-5, 5) * (1 << 70) + rng.randint(-3, 3)
                   if rng.random() < 0.4 else 0 for _ in range(width)]
        else:
            row = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.3 else 0
                   for _ in range(width)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(30))
def test_echelon_matches_dense_gauss_jordan_after_every_insert(seed):
    """After each insert: it answered whether the rank grew, the emitted
    rows are the dense reduced form of the prefix, stored rows are
    primitive with a positive lead, and `_cols` is the column -> pivots
    support map of the stored rows.  Over the seeds, the one-entry rows
    hit every case of `_one_entry_row`, with every kind of scalar."""
    rng = random.Random(2000 + seed)
    width = rng.randint(1, 20)
    rows = _stepwise_rows(rng, width)
    ech = Echelon(width)
    rank = 0
    for k, row in enumerate(rows):
        raised = ech.insert({j: v for j, v in enumerate(row) if v})
        emitted, pivots = _emitted(ech)
        assert (emitted, pivots) == dense_rref(
            rows[: k + 1], width)
        assert raised == (len(pivots) > rank)
        rank = len(pivots)
        support = {}
        for p, stored in ech._rows.items():
            assert min(stored) == p and stored[p] > 0 and gcd(*stored.values()) == 1
            assert all(type(x) is int and x for x in stored.values())
            for c in stored:
                support.setdefault(c, set()).add(p)
        assert ech._cols == support


@pytest.mark.parametrize("column", [-1, 5, 6])
def test_insert_refuses_a_nonzero_entry_outside_the_frame(column):
    """A nonzero entry outside `range(width)` raises `ValueError`, whether
    the row is independent or first reduces against stored rows, and leaves
    the accumulator as it was; a zero entry there is dropped like any zero."""
    ech = Echelon(5)
    ech.insert({0: 2, 2: 3, 4: 1})
    ech.insert({1: 1, 2: Fraction(1, 2)})
    state = (ech.dim, list(ech.pivots), [list(row) for row in ech.rows],
             {c: set(pivots) for c, pivots in ech._cols.items()})
    for vec in ({column: 1}, {3: 1, column: -2}, {0: 2, 2: 3, 4: 1, column: 5},
                {0: 4, 1: Fraction(1, 3), 2: 6, 4: 2, column: Fraction(-1, 7)}):
        with pytest.raises(ValueError, match="outside the frame"):
            ech.insert(vec)
        assert (ech.dim, ech.pivots, [list(row) for row in ech.rows], ech._cols) == state
    for zero in ({column: 0}, {3: Fraction(0)}):  # lone zeros, outside and at a fresh column
        assert ech.insert(zero) is False
        assert (ech.dim, ech.pivots, [list(row) for row in ech.rows], ech._cols) == state
    assert ech.insert({column: 0, 0: 2, 2: 3, 4: 1}) is False
    assert ech.insert({column: Fraction(0), 3: Fraction(1, 2)}) is True
    assert ech.pivots == [0, 1, 3]


# -- span queries against the dense oracle -------------------------------------


def _dense_poly(f, frame):
    return [f.coeff(m) for m in frame]


@pytest.mark.parametrize("seed", range(30))
def test_span_queries_match_dense_oracle(seed):
    """Random spans: the basis is the dense reduced echelon form, a member's
    coordinates rebuild it from the oracle's rows, and a member plus a
    vector outside the span is refused."""
    rng = random.Random(500 + seed)
    frame = list(monomials_of_degree(VS, rng.randint(1, 3)))
    width = len(frame)
    family = _random_family(rng, frame, rng.randint(0, width))
    basis = SpanBasis.from_polynomials(VS, family)
    rows, pivots = dense_rref([_dense_poly(f, frame) for f in family], width)
    assert basis.pivots == tuple(frame[p] for p in pivots)
    assert tuple(tuple(_dense_poly(f, frame)) for f in basis.polynomials()) == rows
    _assert_span_rows(basis)

    weights = [Fraction(rng.randint(-3, 3)) for _ in family]
    member = sum((f * w for f, w in zip(family, weights)), VS.zero())
    coords = basis.coordinates_of(member)
    rebuilt = [sum((c * row[j] for c, row in zip(coords, rows)), Fraction(0))
               for j in range(width)]
    assert rebuilt == _dense_poly(member, frame)

    outside = [m for m in frame
               if len(dense_rref(list(rows) + [_dense_poly(Polynomial(VS, {m: 1}), frame)],
                                 width)[1]) > len(pivots)]
    assert bool(outside) == (len(pivots) < width)
    for m in outside:
        assert basis.coordinates_of(member + Polynomial(VS, {m: Fraction(2)})) is None
    off_frame = Polynomial(VS, {Monomial((0,) * 3): Fraction(1)})  # degree 0
    assert not basis.contains(member + off_frame)


@pytest.mark.parametrize("seed", range(20))
def test_spans_same_over_different_canonical_frames(seed):
    """The span of a family inside a subring is the dense reduced echelon
    basis over the full degree frame; `of_degree` over the subring spans
    what its unit polynomials span; `spans_same` fails against a larger
    space or one of the same dimension."""
    rng = random.Random(700 + seed)
    d = rng.randint(1, 3)
    names = tuple(rng.sample(VS.names, rng.randint(1, 2)))
    sub = list(monomials_of_degree(VS, d, names))
    full = list(monomials_of_degree(VS, d))
    family = _random_family(rng, sub, rng.randint(1, len(sub) + 1))
    narrow = SpanBasis.from_polynomials(VS, family)
    rows, _ = dense_rref([_dense_poly(f, full) for f in family], len(full))
    assert tuple(tuple(_dense_poly(f, full)) for f in narrow.polynomials()) == rows
    units = SpanBasis.from_polynomials(VS, [Polynomial(VS, {m: Fraction(1)}) for m in sub])
    assert SpanBasis.of_degree(VS, d, names).spans_same(units)
    assert units.spans_same(SpanBasis.of_degree(VS, d, names))

    extra = Polynomial(VS, {rng.choice([m for m in full if m not in sub]): Fraction(1)})
    bigger = SpanBasis.from_polynomials(VS, family + [extra])
    assert not narrow.spans_same(bigger) and not bigger.spans_same(narrow)
    if narrow.dim:
        swapped = SpanBasis.from_polynomials(VS, narrow.polynomials()[1:] + (extra,))
        assert swapped.dim == narrow.dim
        assert not narrow.spans_same(swapped) and not swapped.spans_same(narrow)


def _spans_over(rng, d):
    """Spans of degree-d polynomials, each built a different way:
    every monomial, a subring's monomials, a random family, and kernel spans
    over a domain of rows {m: s_m}, s_m > 1, as `invariant_subspace` builds
    them, whose rows are positive multiples of non-primitive rows."""
    frame = monomials_of_degree(VS, d)
    family = _random_family(rng, frame, rng.randint(1, len(frame)))
    scaled = SpanBasis(VS, [{m: rng.randint(2, 6)} for m in frame], frame)
    images = [{r: rng.randint(-2, 2) for r in range(3) if rng.random() < 0.4} for _ in frame]
    return [
        SpanBasis.of_degree(VS, d),
        SpanBasis.of_degree(VS, d, rng.sample(VS.names, 2)),
        SpanBasis.from_polynomials(VS, family),
        kernel_span(scaled, images),
        kernel_span(SpanBasis.of_degree(VS, d), images),
    ]


def _variants(rng, basis):
    """`basis` changed one way each, keeping its rows in the span format:
    rows times positive integers (the same space), one non-pivot entry
    changed (same pivots and keys, other rows), one monomial added to a row
    (other keys), the last row dropped (other dim), and another `varsys`."""
    rows, pivots = [dict(row) for row in basis.rows], basis.pivots
    out = {"scaled": SpanBasis(basis.varsys, [{m: rng.randint(1, 5) * v for m, v in row.items()}
                                              for row in basis.rows], pivots)}
    spots = [(i, m) for i, row in enumerate(rows) for m in row if m != pivots[i]]
    if spots:
        i, m = rng.choice(spots)
        changed = [dict(row) for row in rows]
        changed[i][m] += 1 if changed[i][m] != -1 else 2
        out["rows"] = SpanBasis(basis.varsys, changed, pivots)
    frame = monomials_of_degree(basis.varsys, sum(pivots[0])) if pivots else ()
    room = [(i, m) for i, p in enumerate(pivots) for m in frame
            if m not in rows[i] and m not in pivots and Monomial.sort_key(m) > Monomial.sort_key(p)]
    if room:
        i, m = rng.choice(room)
        grown = [dict(row) for row in rows]
        grown[i][m] = rng.choice([-3, 1, 2])
        out["keys"] = SpanBasis(basis.varsys, grown, pivots)
    if rows:
        out["dim"] = SpanBasis(basis.varsys, rows[:-1], pivots[:-1])
    out["varsys"] = SpanBasis(VarSystem(("x1", "y1", "w")), rows, pivots)
    return out


def test_spans_same_matches_comparing_polynomials():
    """The integer comparison gives what comparing `varsys` and the reduced
    basis polynomials gives, on seeded pairs of spans built every way."""
    rng = random.Random(2100)
    seen = set()
    for _ in range(40):
        d = rng.randint(1, 3)
        spans = _spans_over(rng, d)
        pairs = [(u, v) for u in spans for v in spans]
        for u in spans:
            for kind, v in _variants(rng, u).items():
                pairs.append((u, v))
                seen.add(kind)
        for u, v in pairs:
            want = u.varsys == v.varsys and u.polynomials() == v.polynomials()
            assert u.spans_same(v) is want and v.spans_same(u) is want
            seen.add(want)
    assert seen == {True, False, "scaled", "rows", "keys", "dim", "varsys"}
