"""Exact linear algebra over the rationals.

Vectors are tuples of ``int`` or ``fractions.Fraction``; matrices are
sequences of row tuples.  Sizes here are desk scale, so plain elimination
with exact arithmetic is the right tool, but it never runs on ``Fraction``
entries.  Each row is turned once into a primitive integer row: scaled by
the lcm of its denominators and divided by the gcd of its entries (this
keeps its span); a row of ``int`` entries skips the scaling.
:func:`_row_reduce` is the one Gauss–Jordan routine behind ``rref``,
``rank``, ``solve`` and ``kernel_basis``: it cancels each pivot by integer
cross-multiplication and divides every row it changes by its gcd, so the
rows stay primitive.  :func:`_bareiss`, behind ``det``, is Bareiss's
fraction-free elimination on integer rows (E. H. Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math. Comp.
22 (1968)); ``signed_minors`` runs the same exact division by the previous
pivot as one Gauss–Jordan pass.  ``Fraction`` is built only
in what ``rref``, ``solve``, ``kernel_basis`` and ``det`` return.

Spans of sparse vectors (dicts from a column to its entry) go through
:class:`Echelon` instead: the same primitive integer rows, kept sparse and
pivoting on the largest column.  Callers number their columns once so that
this is the pivot order they want (a truncated local algebra numbers its
monomials in degrevlex order).  Ideal spans, face-ring quotients, parameter
choice, the Jacobian injectivity check and the Koszul rank all use it.
"""

from fractions import Fraction
from math import gcd, lcm


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _integer_row(v):
    """``(d, w)``: the lcm ``d`` of the denominators of ``v`` and the integer
    row ``w = d * v``."""
    d = lcm(*(x.denominator for x in v))
    return d, [x.numerator * (d // x.denominator) for x in v]


def _all_int(v):
    """Whether every entry of ``v`` is an ``int`` (``Fraction`` and ``bool``
    entries are not)."""
    for x in v:
        if type(x) is not int:
            return False
    return True


def primitive(v):
    """Primitive integer vector spanning the same ray as ``v`` (direction kept).

    Accepts rational entries; returns the zero vector unchanged.  An integer
    vector goes straight to its gcd; any other is first scaled to integers.
    """
    w = v if _all_int(v) else _integer_row(v)[1]
    g = gcd(*w)
    if g <= 1:
        return tuple(w)
    return tuple(x // g for x in w)


def _row_reduce(mat, ncols):
    """Fraction-free Gauss–Jordan elimination of integer rows.

    ``mat`` is a list of integer lists, changed in place; primitive rows keep
    the entries small, but any integer rows will do.  Pivots are chosen
    left to right (first nonzero column, first row from the top that has it),
    and each is cancelled from every other row ``row`` by ``row <- (p/g) row
    - (a/g) pivot_row`` with ``g = gcd(a, p)``, after which the row is
    divided by its gcd.  The result is the reduced echelon form up to a
    nonzero integer scale per row.  Returns the pivot columns; ``mat[i]`` is
    then the row with pivot ``pivots[i]``.
    """
    pivots = []
    nrows = len(mat)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if mat[i][c]:
                break
        else:
            continue
        prow = mat[i]
        mat[i] = mat[r]
        mat[r] = prow
        p = prow[c]
        for i in range(nrows):
            row = mat[i]
            a = row[c]
            if not a or i == r:
                continue
            g = gcd(a, p)
            s, t = p // g, a // g
            # prow is zero left of c, so there the row is only scaled
            row = [s * x for x in row[:c]] + \
                [s * x - t * y for x, y in zip(row[c:], prow[c:])]
            h = gcd(*row)
            mat[i] = [x // h for x in row] if h > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def _primitive_rows(rows):
    return [list(primitive(r)) for r in rows]


def _primitive_sparse_row(terms, ncols):
    """``list(primitive(v))`` for the row ``v`` of length ``ncols`` whose
    nonzero entries are ``terms`` {column: rational}; the lcm and gcd run
    over those entries only."""
    ints, _ = _integral(terms)
    g = gcd(*ints.values())
    row = [0] * ncols
    for j, x in ints.items():
        row[j] = x // g
    return row


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; zero rows are dropped.  Pivots
    are chosen left to right (first nonzero column), which makes the result
    canonical for a fixed row span.  Entries are ``Fraction``.
    """
    mat = _primitive_rows(rows)
    if not mat:
        return [], []
    pivots = _row_reduce(mat, len(mat[0]))
    return [tuple(Fraction(x, row[c]) for x in row)
            for row, c in zip(mat, pivots)], pivots


def rank(rows):
    mat = _primitive_rows(rows)
    if not mat:
        return 0
    return len(_row_reduce(mat, len(mat[0])))


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel {x : A x = 0}.

    ``ncols`` must be given when ``rows`` is empty (kernel is then the full
    space).
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for empty matrix")
        return [tuple(Fraction(int(i == j)) for j in range(ncols))
                for i in range(ncols)]
    return _integer_kernel(_primitive_rows(rows), len(rows[0]))


def _integer_kernel(mat, ncols):
    """``kernel_basis`` of the integer rows ``mat``, which it reduces in
    place."""
    pivots = _row_reduce(mat, ncols)
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    mat = _primitive_rows(tuple(r) + (b,) for r, b in zip(rows, rhs))
    pivots = _row_reduce(mat, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(mat, pivots):
        x[pc] = Fraction(row[ncols], row[pc])
    return tuple(x)


def _bareiss(mat):
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination; ``mat`` is a list of int lists, changed in place.

    After step ``k`` every entry left is a ``(k+1)``-minor of the matrix, so
    the division by the previous pivot is exact and the last pivot is the
    determinant (up to the sign of the row swaps)."""
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n):
        if not mat[k][k]:
            for i in range(k + 1, n):
                if mat[i][k]:
                    break
            else:
                return 0
            mat[k], mat[i] = mat[i], mat[k]
            sign = -sign
        prow = mat[k]
        p = prow[k]
        for row in mat[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - a * prow[j]) // prev
        prev = p
    return sign * prev


def det(rows):
    """Exact determinant, as a ``Fraction``: integer rows go to
    :func:`_bareiss` as they are, and any other row is first scaled to
    integers by the lcm of its denominators."""
    n = len(rows)
    scale = 1
    mat = []
    for r in rows:
        r = r[:n]
        if _all_int(r):
            mat.append(list(r))
        else:
            d, w = _integer_row(r)
            scale *= d
            mat.append(w)
    return Fraction(_bareiss(mat), scale)


def signed_minors(rows):
    """The signed maximal minors C_0..C_{k-1} of the integer (k-1) x k
    matrix ``rows``: C_t is (-1)^t times the determinant of ``rows`` without
    column t, so that det[u; rows] = sum_t u_t C_t for every row u.  The
    vector C is orthogonal to every row, and it is zero exactly when the
    rows are dependent.

    One fraction-free Gauss–Jordan elimination (Bareiss's division by the
    previous pivot, applied to the rows above the pivot as well) leaves
    every pivot entry equal to d, the minor on the pivot columns up to the
    sign of the row swaps, and the free column f holding the Cramer
    numerators.  So x_f = d, x_(p_i) = -row_i[f] spans the kernel, and C is
    that vector times (-1)^f and the swap sign.  Dependent rows leave more
    than one free column, and C is then zero."""
    k = len(rows) + 1
    mat = [list(r[:k]) for r in rows]
    sign = 1
    prev = 1
    pivots, free = [], []
    r = 0
    for c in range(k):
        for i in range(r, k - 1):
            if mat[i][c]:
                break
        else:
            free.append(c)
            if len(free) > 1:
                return [0] * k
            continue
        if i != r:
            mat[r], mat[i] = mat[i], mat[r]
            sign = -sign
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            if i == r:
                continue
            a = row[c]
            for j in range(k):
                row[j] = (p * row[j] - a * prow[j]) // prev
        prev = p
        pivots.append(c)
        r += 1
    f, = free
    s = sign if f % 2 == 0 else -sign
    out = [0] * k
    out[f] = s * prev
    for c, row in zip(pivots, mat):
        out[c] = -s * row[f]
    return out


def _integral(terms):
    """``terms`` over the common denominator d of its coefficients: an
    integer dict without zero entries, and d."""
    d = lcm(*(v.denominator for v in terms.values()))
    return {k: v.numerator * (d // v.denominator)
            for k, v in terms.items() if v}, d


def _sub_multiple(dst, b, src):
    """dst -= b * src over integer dicts, dropping the entries that vanish."""
    for k, v in src.items():
        w = dst.get(k, 0) - b * v
        if w:
            dst[k] = w
        else:
            del dst[k]


# Entry length in bits beyond which a lead-only elimination divides its work
# row by its content.  CPython's ints hold 30 bits per digit: below that the
# arithmetic is one digit per entry and the division would cost more than it
# saves.  Rows whose entries grow past it (the Koszul rank's long chains of
# pivots) are kept small.
_CONTENT_BITS = 30


class Echelon:
    """Sparse row-echelon span of integer dicts {column: entry}, pivoting on
    the largest column.

    Columns are numbered so that the wanted pivot order is the native order
    of the column labels, usually integers; callers number them once, and
    insert integer rows without zero entries, clearing denominators
    themselves (:func:`_integral`).  Rows are primitive integer dicts with a
    positive pivot entry, and elimination is fraction-free: ``Fraction``
    appears only where ``reduce`` hands its results back.  ``len(rows)`` is
    the rank, and the pivot set (the keys of ``rows``) depends only on the
    span."""

    def __init__(self):
        self.rows = {}

    def _eliminate(self, work, lead_only):
        """Cancel pivot columns, largest first, from the integer dict
        ``work`` in place.  Before each cancellation ``work`` is multiplied
        by the least factor that keeps it integral; the product of these
        factors is the scale.  Returns the entries split off as
        {column: (entry, scale then)}.  ``lead_only`` stops at the first
        column that is not a pivot, and divides ``work`` by its content
        before cancelling an entry longer than ``_CONTENT_BITS``, so that
        the entries do not grow with every pivot the row passes; the scale
        it returns then means nothing."""
        out = {}
        scale = 1
        while work:
            m = max(work)
            c = work[m]
            row = self.rows.get(m)
            if row is None:
                out[m] = (c, scale)
                del work[m]
                if lead_only:
                    break
                continue
            if lead_only and c.bit_length() > _CONTENT_BITS:
                h = gcd(*work.values())
                if h > 1:
                    for k in work:
                        work[k] //= h
                    c //= h
            p = row[m]
            g = gcd(c, p)
            a, b = p // g, c // g
            if a != 1:
                scale *= a
                for k in work:
                    work[k] *= a
            _sub_multiple(work, b, row)
        return out

    def reduce(self, terms):
        """Normal form of ``terms`` (rational entries): what is left once
        every pivot column is cancelled; empty exactly when ``terms`` lies
        in the span."""
        work, d = _integral(terms)
        out = self._eliminate(work, lead_only=False)
        return {m: Fraction(c, s * d) for m, (c, s) in out.items()}

    def insert(self, row):
        """Add the integer row ``row`` to the span; False when it is already
        in it.  Only the leading entry is reduced and the new row's tail
        stays as it is: pivots and normal forms depend only on the span."""
        work = dict(row)
        out = self._eliminate(work, lead_only=True)
        if not out:
            return False
        (pivot, (c, _)), = out.items()
        row = {pivot: c}
        row.update(work)
        g = gcd(*row.values())
        if c < 0:
            g = -g
        if g != 1:
            row = {m: v // g for m, v in row.items()}
        self.rows[pivot] = row
        return True


def hermite_basis(rows):
    """Z-basis of the lattice spanned by the integer vectors ``rows``: the
    nonzero rows of their row Hermite normal form (H. Cohen, "A Course in
    Computational Algebraic Number Theory", 1993, §2.4).

    Column by column, integer row operations (Euclid on the column) leave
    one row with a positive pivot there and zeros below it; entries above a
    pivot are reduced into ``[0, pivot)``.  The rows returned are in echelon
    form, so they are independent and their number is the rank."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c]]
            if not live:
                break
            i = min(live, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i] = mat[i], mat[r]
            if len(live) == 1:
                break
            prow = mat[r]
            for k in range(r + 1, len(mat)):
                q = mat[k][c] // prow[c]
                if q:
                    mat[k] = [x - q * y for x, y in zip(mat[k], prow)]
        if not live:
            continue
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        prow = mat[r]
        for i in range(r):
            q = mat[i][c] // prow[c]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], prow)]
        r += 1
    return [tuple(row) for row in mat[:r]]

