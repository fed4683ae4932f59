"""Gaussian elimination on ``Fraction`` rows, kept as test oracles.

These are the ``rref`` and ``det`` that ``newton_socle.linalg`` used before
it moved to fraction-free elimination on primitive integer rows, with the
functions it built on them.  They divide by every pivot, so each entry is a
``Fraction`` and every step normalizes it; they serve only the small
matrices of the tests.  The package's functions of the same names must
return the same values, of the same types.  ``signed_minors`` is the
integer route through one determinant per minor.
"""

from fractions import Fraction
from math import gcd

from newton_socle.linalg import _bareiss


def primitive(v):
    denom = 1
    for x in v:
        d = Fraction(x).denominator
        denom = denom * d // gcd(denom, d)
    w = [int(Fraction(x) * denom) for x in v]
    g = 0
    for x in w:
        g = gcd(g, abs(int(x)))
    if g == 0:
        return tuple(0 for _ in w)
    return tuple(x // g for x in w)


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; zero rows are dropped.  Pivots
    are chosen left to right (first nonzero column), which makes the result
    canonical for a fixed row span.
    """
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def det(rows):
    """Exact determinant via fraction-free-ish Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    mat = [list(map(Fraction, r)) for r in rows]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            sign = -sign
        pv = mat[c][c]
        result *= pv
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return sign * result


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows, ncols=None):
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for empty matrix")
        return [tuple(Fraction(int(i == j)) for j in range(ncols))
                for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs):
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [tuple(list(map(Fraction, r)) + [Fraction(b)])
           for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return tuple(x)


def in_row_span(rows, vec):
    if not rows:
        return all(x == 0 for x in vec)
    return rank(list(rows)) == rank(list(rows) + [tuple(vec)])


def signed_minors(rows):
    """``linalg.signed_minors`` as it was before one elimination gave all
    the minors: k separate Bareiss determinants, one per deleted column."""
    k = len(rows) + 1
    return [(-1) ** t * _bareiss([[*r[:t], *r[t + 1:]] for r in rows])
            for t in range(k)]
