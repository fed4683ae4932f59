"""Exact linear algebra over the rationals.

Vectors are tuples of ``int`` or ``fractions.Fraction``; matrices are
sequences of row tuples.  Sizes here are desk scale, so plain elimination
with exact arithmetic is the right tool, but it never runs on ``Fraction``
entries: each row is cleared of denominators once (scaled by the lcm of
its denominators; a row of ``int`` entries skips this), and ``Fraction`` is
built only in what the functions return.  Two eliminations do all the
work, each picked by its job.

Row spaces go through :class:`Echelon`, a sparse echelon of primitive
integer rows {column: entry} that pivots on the largest column.  Its
elimination never touches a zero entry, and it divides rows by their
content, so it serves tall and nearly empty systems: ideal spans, face-ring
quotients, parameter choice, the socle's multiplication maps, the Jacobian
injectivity check, the Koszul rank and the trace functional's solve.
Callers number their columns once so that the pivot order is the one they
want.  ``rref``,
``rank``, ``solve`` and ``kernel_basis`` number the positions of a dense
row right to left, so that the pivots are the leftmost positions and the
reduced form (:meth:`Echelon.reduced_rows`) is the canonical RREF.

Minors go through :func:`_gauss_jordan`, Bareiss's fraction-free
Gauss–Jordan elimination of dense integer rows (E. H. Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22 (1968)).  Every entry it leaves is a minor of its input, so one
pass gives a determinant (``det``), all maximal minors of a (k-1) x k
matrix (``signed_minors``) and the slice parametrizations of ``combid``.
Its rows are never divided by their content, which is what keeps them
minors, so it serves the small dense matrices whose minors are wanted.
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


def _dense_echelon(rows):
    """The :class:`Echelon` of the dense rows ``rows``: position j of a row
    of length l is column l - 1 - j, so that the pivots are the leftmost
    positions."""
    ech = Echelon()
    for r in rows:
        last = len(r) - 1
        terms = {last - j: x for j, x in enumerate(r) if x}
        ech.insert(terms if _all_int(terms.values()) else _integral(terms)[0])
    return ech


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; zero rows are dropped.  Pivots
    are chosen left to right (first nonzero column), which makes the result
    canonical for a fixed row span.  Entries are ``Fraction``.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    last = ncols - 1
    red = _dense_echelon(rows).reduced_rows()
    pivots = sorted(red, reverse=True)
    out = []
    for p in pivots:
        row = red[p]
        vec = [Fraction(0)] * ncols
        for m, x in row.items():
            vec[last - m] = Fraction(x, row[p])
        out.append(tuple(vec))
    return out, [last - p for p in pivots]


def rank(rows):
    return len(_dense_echelon(rows).rows)


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
    ncols = len(rows[0])
    last = ncols - 1
    basis = []
    for terms in _dense_echelon(rows).kernel(ncols):
        vec = [Fraction(0)] * ncols
        for m, x in terms.items():
            vec[last - m] = x
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent.

    The right-hand side is column 0 of the augmented rows, the last pivot
    candidate, so the system is inconsistent exactly when it is a pivot."""
    if not rows:
        return None
    ncols = len(rows[0])
    ech = _dense_echelon(tuple(r) + (b,) for r, b in zip(rows, rhs))
    if 0 in ech.rows:
        return None
    x = [Fraction(0)] * ncols
    for p, row in ech.reduced_rows().items():
        x[ncols - p] = Fraction(row.get(0, 0), row[p])
    return tuple(x)


def _gauss_jordan(mat):
    """Bareiss's fraction-free Gauss–Jordan elimination of the integer rows
    ``mat`` (lists of one length), changed in place.

    Pivots are chosen left to right (first nonzero column, first row from
    the top that has it), and each is cancelled from every other row, the
    rows above it too, with an exact division by the previous pivot: after
    each step every entry is a minor of the input on the pivot rows and
    columns so far, so every pivot entry is the last pivot d, the minor on
    all pivot rows and columns up to the sign of the row swaps.  Row i of
    ``mat[:len(pivots)]`` then reads d x_(p_i) + sum_f e_if x_f over the
    free columns f, and the rows below it are zero.  Returns ``(pivots, d,
    sign)``, with d = 1 when there is no pivot."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if mat[i][c]:
                break
        else:
            continue
        if i != r:
            mat[r], mat[i] = mat[i], mat[r]
            sign = -sign
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            if i != r:
                a = row[c]
                mat[i] = [(p * x - a * y) // prev for x, y in zip(row, prow)]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, prev, sign


def _int_det(mat):
    """Determinant of the square integer matrix ``mat`` (int lists, changed
    in place)."""
    pivots, d, sign = _gauss_jordan(mat)
    return sign * d if len(pivots) == len(mat) else 0


def det(rows):
    """Exact determinant, as a ``Fraction``: integer rows go to
    :func:`_gauss_jordan` as they are, and any other row is first scaled to
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
    return Fraction(_int_det(mat), scale)


def signed_minors(rows):
    """The signed maximal minors C_0..C_{k-1} of the integer (k-1) x k
    matrix ``rows``: C_t is (-1)^t times the determinant of ``rows`` without
    column t, so that det[u; rows] = sum_t u_t C_t for every row u.  The
    vector C is orthogonal to every row, and it is zero exactly when the
    rows are dependent.

    After :func:`_gauss_jordan` every pivot entry is d, the minor on the
    pivot columns up to the sign of the row swaps, and the free column f
    holds the Cramer numerators.  So x_f = d, x_(p_i) = -row_i[f] spans the
    kernel, and C is that vector times (-1)^f and the swap sign.  Dependent
    rows leave more than one free column, and C is then zero."""
    k = len(rows) + 1
    mat = [list(r[:k]) for r in rows]
    pivots, d, sign = _gauss_jordan(mat)
    if len(pivots) < k - 1:
        return [0] * k
    f, = set(range(k)).difference(pivots)
    s = sign if f % 2 == 0 else -sign
    out = [0] * k
    out[f] = s * d
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
    appears only where ``reduce`` and ``kernel`` hand their results back.
    Inserting leaves the rows in echelon form, whose tails may hold other
    pivot columns; :meth:`reduced_rows` clears them.  ``len(rows)`` is
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

    def reduced_rows(self):
        """Reduce every row against the others, in place, and return
        ``rows``: then no row has an entry in another row's pivot column,
        and each row is primitive with a positive pivot entry, so it is the
        row of the reduced echelon form times a positive integer.  Rows are
        taken by ascending pivot, so each row is cancelled against rows that
        are already reduced, once per pivot column in its tail."""
        rows = self.rows
        for p in sorted(rows):
            work = rows[p]
            tail = [m for m in work if m != p and m in rows]
            if not tail:
                continue
            work = dict(work)
            for m in tail:
                row = rows[m]
                g = gcd(work[m], row[m])
                a, b = row[m] // g, work[m] // g
                if a != 1:
                    for k in work:
                        work[k] *= a
                _sub_multiple(work, b, row)
            g = gcd(*work.values())
            rows[p] = {m: v // g for m, v in work.items()} if g > 1 else work
        return rows

    def kernel(self, ncols):
        """Basis of the vectors over columns ``0..ncols-1`` orthogonal to
        every row, one per free column f, largest f first: the dict with
        x_f = 1 and x_p = -row_p[f] / row_p[p] at each pivot p of the
        reduced rows (:meth:`reduced_rows`)."""
        basis = {f: {f: Fraction(1)} for f in range(ncols - 1, -1, -1)
                 if f not in self.rows}
        for p, row in self.reduced_rows().items():
            for m, x in row.items():
                if m != p:
                    basis[m][p] = Fraction(-x, row[p])
        return list(basis.values())


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

