"""The two elimination kernels of ``linalg``, the sparse ``Echelon`` behind
row spaces and the fraction-free Gauss–Jordan pass behind minors, and the
functions built on them, against the ``Fraction`` elimination and
determinant of ``linalg_oracles``.

Results are compared by ``repr``, so a ``Fraction`` returned where an
``int`` was (or the reverse) counts as a difference."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from newton_socle import linalg

import linalg_oracles as oracle

ENTRIES = st.one_of(st.integers(-9, 9),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Rows of int and p/q entries, often of lower rank: some rows are zero
    and some are integer combinations of earlier rows."""
    if ncols is None:
        ncols = draw(st.integers(1, 6))
    if nrows is None:
        nrows = draw(st.integers(0, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero":
            rows.append((0,) * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append(tuple(sum(c * r[k] for c, r in zip(coeffs, rows))
                              for k in range(ncols)))
        else:
            rows.append(tuple(draw(st.lists(ENTRIES, min_size=ncols,
                                            max_size=ncols))))
    return rows


def same(got, want):
    assert repr(got) == repr(want)


def numbered(vec):
    """``vec`` as a {column: entry} dict, its positions numbered right to
    left, so that the echelon's largest-column pivots are the leftmost
    positions."""
    last = len(vec) - 1
    return {last - j: x for j, x in enumerate(vec) if x}


def echelon(rows):
    """The sparse echelon span of ``rows``, each cleared of denominators
    before it is inserted."""
    ech = linalg.Echelon()
    for r in rows:
        ech.insert(linalg._integral(numbered(r))[0])
    return ech


def pivot_positions(rows):
    """The positions of the echelon's pivots, left to right."""
    last = len(rows[0]) - 1 if rows else 0
    return sorted(last - c for c in echelon(rows).rows)


def in_row_span(rows, vec):
    return not echelon(rows).reduce(numbered(vec))


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rref_rank_and_kernel_match_the_fraction_oracle(rows):
    same(linalg.rref(rows), oracle.rref(rows))
    same(linalg.rank(rows), oracle.rank(rows))
    # the echelon's pivot set depends only on the span: the rref pivots
    assert pivot_positions(rows) == oracle.rref(rows)[1]
    ncols = len(rows[0]) if rows else 3
    same(linalg.kernel_basis(rows, ncols), oracle.kernel_basis(rows, ncols))


@given(matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_solve_and_span_match_the_fraction_oracle(rows, data):
    ncols = len(rows[0]) if rows else 3
    # a consistent right-hand side from a chosen solution, and a free one
    # (inconsistent whenever the rows do not span)
    x0 = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    free = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    for rhs in ([linalg.dot(r, x0) for r in rows], free):
        got = linalg.solve(rows, rhs)
        same(got, oracle.solve(rows, rhs))
        if got is not None:
            assert [linalg.dot(r, got) for r in rows] == rhs
    vec = data.draw(st.one_of(matrices(1, ncols),
                              st.just([tuple(x0)]),
                              st.just([(0,) * ncols])))[0]
    same(in_row_span(rows, vec), oracle.in_row_span(rows, vec))
    if rows:
        combo = tuple(sum(r[k] for r in rows) for k in range(ncols))
        assert in_row_span(rows, combo)


@given(st.integers(0, 6).flatmap(lambda n: matrices(n, max(n, 1))))
@settings(max_examples=300, deadline=None)
def test_det_matches_the_fraction_oracle(rows):
    rows = [r[:len(rows)] for r in rows]
    same(linalg.det(rows), oracle.det(rows))


@given(st.lists(ENTRIES, max_size=6))
@settings(max_examples=300, deadline=None)
def test_primitive_matches_the_fraction_oracle(v):
    same(linalg.primitive(v), oracle.primitive(v))


def as_fractions(rows):
    """The same entries, each a ``Fraction``, so that they take the
    rational route."""
    return [tuple(map(Fraction, r)) for r in rows]


@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_integer_paths_match_the_rational_path(rows, q):
    # integer vectors skip the scaling to integers; Fraction vectors, with
    # denominator 1 or q, take it
    same(linalg.det(rows), linalg.det(as_fractions(rows)))
    same(linalg.det(rows) / q ** len(rows),
         linalg.det([[Fraction(x, q) for x in r] for r in rows]))
    for v in rows + [[]]:
        same(linalg.primitive(v), linalg.primitive(as_fractions([v])[0]))
        same(linalg.primitive(v),
             linalg.primitive([Fraction(x, q) for x in v]))
        same(linalg.primitive(tuple(v)), oracle.primitive(v))


def test_edge_shapes():
    for rows in ([], [()], [(0, 0, 0)], [(0, 0), (0, 0)],
                 [(1, 2, 3, 4, 5, 6, 7)], [(1,), (2,), (Fraction(1, 2),)]):
        same(linalg.rref(rows), oracle.rref(rows))
        same(linalg.rank(rows), oracle.rank(rows))
    same(linalg.kernel_basis([], ncols=2), oracle.kernel_basis([], ncols=2))
    assert linalg.solve([], [1]) is None
    # tall and inconsistent
    assert linalg.solve([(1, 0), (0, 1), (1, 1)], [1, 1, 3]) is None
    same(linalg.solve([(1, 0), (0, 1), (1, 1)], [1, 1, 2]),
         (Fraction(1), Fraction(1)))
    same(linalg.det([]), Fraction(1))
    same(linalg.det([(0, 1), (1, 0)]), Fraction(-1))
    same(linalg.det([(Fraction(1, 2), 1), (Fraction(1, 3), 1)]),
         Fraction(1, 6))
    assert in_row_span([], (0, 0)) and not in_row_span([], (0, 1))


@st.composite
def integer_matrices(draw, nrows, ncols):
    """Integer ``nrows`` x ``ncols`` matrices, full rank or not: some rows
    are zero or integer combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "random", "zero",
                                     "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(st.integers(-9, 9), min_size=ncols,
                                      max_size=ncols)))
    return rows


def minor_matrices():
    """Integer (k-1) x k matrices, k = 1..6."""
    return st.integers(1, 6).flatmap(lambda k: integer_matrices(k - 1, k))


@given(minor_matrices())
@settings(max_examples=400, deadline=None)
def test_signed_minors_match_one_determinant_per_minor(rows):
    got = linalg.signed_minors(rows)
    same(got, oracle.signed_minors(rows))
    # zero exactly when the rows are dependent
    assert any(got) == (oracle.rank(rows) == len(rows))


def test_signed_minors_edge_shapes():
    same(linalg.signed_minors([]), [1])
    same(linalg.signed_minors([[0, 0]]), [0, 0])
    same(linalg.signed_minors([[0, 3]]), [3, 0])
    same(linalg.signed_minors([[1, 2, 3], [2, 4, 6]]), [0, 0, 0])
    same(linalg.signed_minors([[0, 1, 0], [1, 0, 0]]), [0, 0, -1])


@st.composite
def sparse_rows(draw):
    """``(ncols, rows)``: rows {column: entry} over columns 0..ncols-1 with
    int and p/q entries, a few entries each; some rows are empty, some
    repeat an earlier row and some are combinations of earlier rows, so
    the rank is often deficient."""
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat",
                                     "combination"]))
        if kind == "zero":
            rows.append({})
        elif kind == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(ENTRIES, min_size=len(rows),
                                   max_size=len(rows)))
            row = {}
            for c, r in zip(coeffs, rows):
                for m, x in r.items():
                    row[m] = row.get(m, 0) + c * x
            rows.append({m: x for m, x in row.items() if x})
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=4))
            rows.append({m: draw(ENTRIES.filter(bool)) for m in cols})
    return ncols, rows


@given(sparse_rows())
@settings(max_examples=300, deadline=None)
def test_echelon_reduced_rows_and_kernel_match_the_fraction_oracle(shape):
    ncols, rows = shape
    last = ncols - 1
    # column m of the echelon is position last - m of the dense row
    dense = [tuple(r.get(last - j, 0) for j in range(ncols)) for r in rows]
    ech = linalg.Echelon()
    for r in rows:
        ech.insert(linalg._integral(r)[0])
    want, want_pivots = oracle.rref(dense)
    red = ech.reduced_rows()
    pivots = sorted(red, reverse=True)
    assert [last - p for p in pivots] == want_pivots
    got = []
    for p in pivots:
        row = red[p]
        # primitive, with a positive pivot and no zero entry
        assert row[p] > 0 and gcd(*row.values()) == 1 and all(row.values())
        got.append(tuple(Fraction(row.get(last - j, 0), row[p])
                         for j in range(ncols)))
    same(got, want)
    # reducing the rows in place keeps the span
    assert not any(ech.reduce(r) for r in rows)
    kernel = [tuple(v.get(last - j, Fraction(0)) for j in range(ncols))
              for v in ech.kernel(ncols)]
    same(kernel, oracle.kernel_basis(dense, ncols))


@given(st.integers(1, 6).flatmap(matrices), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_is_none_on_inconsistent_systems(rows, data):
    ncols = len(rows[0])
    rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    # an equation repeated with another right-hand side, and a zero row
    # with a nonzero one
    for extra_row, b in ((rows[0], rhs[0] + 1), ((0,) * ncols, 1)):
        assert linalg.solve(rows + [extra_row], rhs + [b]) is None
        assert oracle.solve(rows + [extra_row], rhs + [b]) is None


@given(st.integers(1, 5).flatmap(lambda r: st.integers(r, r + 3).flatmap(
    lambda c: integer_matrices(r, c))))
@settings(max_examples=300, deadline=None)
def test_gauss_jordan_gives_the_rref_over_one_minor(rows):
    mat = [list(r) for r in rows]
    pivots, d, sign = linalg._gauss_jordan(mat)
    want, want_pivots = oracle.rref(rows)
    assert pivots == want_pivots
    rank = len(pivots)
    # every pivot entry is d, so the pivot rows over d are the rref, and
    # the rows below them are zero
    same([tuple(Fraction(x, d) for x in row) for row in mat[:rank]], want)
    assert not any(any(row) for row in mat[rank:])
    if len(rows) == len(rows[0]):
        same(Fraction(sign * d if rank == len(rows) else 0),
             oracle.det(rows))
