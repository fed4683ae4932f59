"""The integer Gauss–Jordan kernel of ``linalg``, its sparse ``Echelon``
and its signed minors, against the ``Fraction`` elimination and the
determinant-per-minor route they replaced (``linalg_oracles``).

Results are compared by ``repr``, so a ``Fraction`` returned where an
``int`` was (or the reverse) counts as a difference."""

from fractions import Fraction
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
def minor_matrices(draw):
    """Integer (k-1) x k matrices, k = 1..6, full rank or not: some rows
    are zero or integer combinations of earlier rows."""
    k = draw(st.integers(1, 6))
    rows = []
    for _ in range(k - 1):
        kind = draw(st.sampled_from(["random", "random", "random", "zero",
                                     "combination"]))
        if kind == "zero":
            rows.append([0] * k)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(k)])
        else:
            rows.append(draw(st.lists(st.integers(-9, 9), min_size=k,
                                      max_size=k)))
    return rows


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
