"""The determinant identities behind the residue computation: the
signed-permutation sum of chain coefficients equals a minor, and for full
index sets it collapses to the determinant with a ones column.

The identities run on one integer matrix M = s·A, where s is a common
denominator of A; ``Fraction`` is built only in what the public functions
return.  Every minor and every slice below comes from one routine,
``linalg._gauss_jordan``, Bareiss's fraction-free Gauss–Jordan elimination:
its entries stay minors of its input, which is what this module reads, and
its matrices are small and dense.  The coefficients c_l^I making a unit
combination on the affine slice E_I = {x : A_I x = 1} come from Cramer's
rule on integer determinants,
  c_l^I = det[m_l; M_I cols 0..k-2] / (s·det[1...1; M_I cols 0..k-2]),
both expanded along their first row, so one set of cofactors
(``linalg.signed_minors``) serves every l (none when the denominator
vanishes).  They are checked on every subset of two or more rows against a
parametrization of the slice: one pass over [M_I | s] leaves every pivot
entry equal to one minor d, so scaled by d the point of E_I with free
coordinates 0 and the kernel vector of each free column are read off its
rows, and the Cramer numerators substituted into them must give the
denominator at the point and 0 on every kernel vector.  As the rows are
independent, the unit combinations supported on coordinates k-1..n-1 are
in one-to-one correspondence with the solutions of the Cramer system, so a
subset is singular for both or for neither, and a Cramer answer that passes
is the unique combination on the slice.  The second route whole, which
solves the square system of the point and the kernel vectors for c, is a
test oracle (``tests/combid_oracles.py``).

The signed sum over orderings of the chain products is one pass over
subsets by size, T(∅) = 1 and
T(P) = c^P_{|P|-1} · Σ_{i∈P} (-1)^{#{p∈P : p>i}} · T(P∖{i}),
grouping the orderings of P by their last element: 2^r·r products instead
of Σ_k C(r,k)·k!·k.  The minor it is compared with, on I and the first
|I| columns, is read off the same pass over [M_I | s]: the signed pivot
entry when its pivots are those columns, else 0."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
import random

from ._record import DERIVED, record
from .errors import CapError, InputError, VerificationError
from .linalg import _gauss_jordan, _int_det, signed_minors

# The largest row count random trials accept.  A trial visits all 2^rows row
# subsets, and the elimination for the Cramer cofactors of each subset
# (``signed_minors``) and that of its slice are most of its time: one square
# trial takes 1.2-1.7 s at 12 rows and 3.1-4.1 s at 13 (three runs each, a
# shared two-core x86-64 host, Python 3.11).
MAX_TRIAL_ROWS = 12


# ---------------------------------------------------------------------------
# Abstract determinant identities
# ---------------------------------------------------------------------------

@record
class MinorTable:
    """An (r+1) x n rational matrix with independent rows and its minors.

    ``scaled`` is the integer matrix ``scale`` times ``matrix``, with
    ``scale`` the lcm of all denominators."""

    matrix: tuple
    scale: int = DERIVED
    scaled: tuple = DERIVED
    full_slice: tuple = DERIVED

    def __post_init__(self):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x)
                           for x in r) for r in self.matrix)
        if not rows or len({len(r) for r in rows}) != 1:
            raise InputError("a minor table needs rows of one length")
        s = lcm(*(x.denominator for r in rows for x in r))
        scaled = tuple(tuple(x.numerator * (s // x.denominator) for x in r)
                       for r in rows)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "scaled", scaled)
        full = _full_slice(scaled, s)
        if full is None:
            raise InputError("rows are linearly dependent")
        object.__setattr__(self, "full_slice", full)

    @property
    def nrows(self):
        return len(self.matrix)

    @property
    def ncols(self):
        return len(self.matrix[0])

    def minor(self, row_set, col_set):
        rows = sorted(row_set)
        cols = sorted(col_set)
        if len(rows) != len(cols):
            raise InputError("minor needs equal index counts")
        return Fraction(_int_det([[self.scaled[i][j] for j in cols]
                                  for i in rows]),
                        self.scale ** len(rows))


def _leading_minor(M, rows):
    """The integer minor of ``M`` on ``rows`` and the first |rows| columns."""
    k = len(rows)
    return _int_det([list(M[i][:k]) for i in rows])


def _cramer_coefficients(M, s, rows):
    """``(nums, den)`` with c_l^I = nums[l - k + 1] / den for l = k-1..n-1,
    or None when I is empty or the Cramer system is singular.  ``M`` is the
    integer matrix s·A and ``rows`` is sorted."""
    k = len(rows)
    if not k:
        return None
    if k == 1:
        # b = (1): the combination is the row itself
        return list(M[rows[0]]), s
    # det[u; R] = sum_t u_t C_t for R = (M_I cols 0..k-2) transposed
    cof = signed_minors([[M[j][l] for j in rows] for l in range(k - 1)])
    den = sum(cof)
    if not den:
        return None
    nums = [0] * (len(M[0]) - k + 1)
    for j, c in zip(rows, cof):
        nums = [x + c * y for x, y in zip(nums, M[j][k - 1:])]
    return nums, s * den


def _slice_parametrization(M, s, rows):
    """The reduced [M_I | s], its pivot columns, its common pivot entry d
    and the sign of its row swaps (:func:`linalg._gauss_jordan`).  Row i
    reads d x_{p_i} + sum_f e_if x_f = r_i over the free columns f, so
    scaled by d the point of E_I with free x = 0 and the kernel vector of
    each free column are integer.  ``rows`` is sorted and nonempty."""
    mat = [list(M[j]) + [s] for j in rows]
    pivots, d, sign = _gauss_jordan(mat)
    return mat, pivots, d, sign


def _full_slice(M, s):
    """The slice parametrization of all rows of ``M`` = s·A, or None when
    the rows are dependent.  They are independent exactly when [M | s] has
    a pivot in every row and none in its last column."""
    full = _slice_parametrization(M, s, range(len(M)))
    pivots = full[1]
    if len(pivots) < len(M) or pivots[-1] == len(M[0]):
        return None
    return full


def _on_slice(param, k, nums, den):
    """Whether sum_l nums[l - k + 1] x_l = den on E_I, for the k rows of
    I: the Cramer numerators substituted into the point and every kernel
    vector of ``param``, the slice parametrization of I."""
    mat, pivots, d, _ = param
    n = len(mat[0]) - 1
    # scaled by d, the point has x_{p_i} = r_i and the kernel vector of a
    # free f has x_f = d and x_{p_i} = -e_if, so with w_i = nums at p_i the
    # substituted values are sum_i w_i r_i and d nums_f - sum_i w_i e_if
    w = [nums[p - k + 1] if p >= k - 1 else 0 for p in pivots]
    if sum(wi * row[n] for wi, row in zip(w, mat)) != den * d:
        return False
    free = set(range(n)).difference(pivots)
    return all(sum(wi * row[f] for wi, row in zip(w, mat))
               == (nums[f - k + 1] * d if f >= k - 1 else 0) for f in free)


def chain_coefficients_cramer(table, index_set):
    """The coefficients c_k^I, ..., c_n^I of the unit combination on the slice
    cut out by the rows in I, via the Cramer system sum(b_j) = 1,
    sum(b_j a_jl) = 0 for l < k.  None when that system is singular."""
    rows = sorted(index_set)
    got = _cramer_coefficients(table.scaled, table.scale, rows)
    if got is None:
        return None
    nums, den = got
    return {l: Fraction(x, den) for l, x in enumerate(nums, len(rows) - 1)}


def _subset_plan(nrows, max_size):
    """The nonempty row subsets P of at most ``max_size`` rows, listed by
    size, each as ``(rows, mask, below)``: the sorted tuple, its bit mask,
    and for each i in P the pair (mask of P minus i, parity of
    #{p in P : p > i})."""
    plan = []
    for size in range(1, max_size + 1):
        for subset in combinations(range(nrows), size):
            mask = 0
            for i in subset:
                mask |= 1 << i
            # #{p in P : p > i} = size - 1 - pos, as P is sorted
            below = tuple((mask ^ (1 << i), (size - 1 - pos) & 1)
                          for pos, i in enumerate(subset))
            plan.append((subset, mask, below))
    return plan


def _signed_chain_sums(coeff, plan, nrows):
    """T(P), indexed by mask, for every P of ``plan``, from ``coeff``, which
    holds c^P_{|P|-1} for the subsets of ``plan`` in order, each a pair
    ``(num, den)`` or None.  Each T(P) is a reduced pair ``(num, den)`` with
    ``den > 0``, or None when any coefficient below P is None."""
    sums = [None] * (1 << nrows)
    sums[0] = (1, 1)
    for (_, mask, below), c in zip(plan, coeff):
        if c is None:
            continue
        num, den = 0, 1
        for under, odd in below:
            term = sums[under]
            if term is None:
                break
            u, w = term
            m = lcm(den, w)
            num = num * (m // den) + (-u if odd else u) * (m // w)
            den = m
        else:
            num *= c[0]
            den *= c[1]
            g = gcd(num, den)
            if den < 0:
                g = -g
            sums[mask] = (num // g, den // g)
    return sums


def _minor_identity(M, s, plan, full):
    """:func:`check_minor_identity` on the integer matrix ``M`` = s·A with
    independent rows, over the subsets of ``plan``; ``full`` is the slice
    parametrization of all rows."""
    nrows = len(M)
    coeff = []
    minors = []
    skipped = []
    for rows, _, _ in plan:
        k = len(rows)
        if k == 1:
            # one row is its own slice equation: c = M_i0 / s, and nothing
            # to substitute
            coeff.append((M[rows[0]][0], s))
            minors.append(M[rows[0]][0])
            continue
        cc = _cramer_coefficients(M, s, rows)
        if cc is None:
            coeff.append(None)
            minors.append(None)
            skipped.append(list(rows))
            continue
        param = full if k == nrows else _slice_parametrization(M, s, rows)
        if not _on_slice(param, k, *cc):
            raise VerificationError(
                "coefficient routes disagree on %r" % (rows,))
        coeff.append((cc[0][0], cc[1]))
        # the same pass gives the minor on I and columns 0..k-1: sign·d
        # when they are its first pivots, else 0, as pivots are taken left
        # to right and those columns then have rank below k
        _, pivots, d, sign = param
        minors.append(sign * d if pivots[:k] == list(range(k)) else 0)
    sums = _signed_chain_sums(coeff, plan, nrows)
    checked = 0
    failures = []
    for (rows, mask, _), minor in zip(plan, minors):
        total = sums[mask]
        if total is None:
            continue
        checked += 1
        scale = s ** len(rows)
        if total[0] * scale != minor * total[1]:
            failures.append({"rows": list(rows),
                             "sum": str(Fraction(*total)),
                             "minor": str(Fraction(minor, scale))})
    return {"ok": not failures, "checked": checked, "skipped": skipped,
            "failures": failures}


def check_minor_identity(table, k_max=None):
    """For each row subset I the signed sum over orderings of the chain
    products c_1 ... c_k equals the minor on the first k columns.

    Subsets whose Cramer systems are singular are skipped with a note; on
    every other subset of two or more rows the Cramer coefficients are
    substituted into the slice parametrization."""
    r1 = table.nrows
    if k_max is None:
        k_max = r1
    return _minor_identity(table.scaled, table.scale,
                           _subset_plan(r1, min(k_max, r1)), table.full_slice)


def _ones_column_identity(M, s, plan):
    """:func:`check_ones_column_identity` on the integer matrix ``M`` = s·A
    with independent rows; ``plan`` lists the subsets of fewer than all
    rows."""
    r1 = len(M)
    coeff = []
    for rows, _, _ in plan:
        cc = _cramer_coefficients(M, s, rows)
        if cc is None:
            return {"ok": False, "note": "singular chain system",
                    "skipped": True}
        coeff.append((cc[0][0], cc[1]))
    sums = _signed_chain_sums(coeff, plan, r1)
    full = tuple(range(r1))
    top = (1 << r1) - 1
    total = sum(Fraction(*sums[top ^ (1 << i)]) * (-1) ** (r1 - 1 - i)
                for i in full)
    minor_sum = Fraction(
        sum((-1) ** (r1 + 1 + i) * _leading_minor(M, full[:i] + full[i + 1:])
            for i in full),
        s ** (r1 - 1))
    out = {"ok": total == minor_sum, "sum": str(total),
           "minor_sum": str(minor_sum), "skipped": False}
    if len(M[0]) == r1 and all(sum(row) == s for row in M):
        ones_det = Fraction(_int_det([list(row[:r1 - 1]) + [s] for row in M]),
                            s ** r1)
        plain_det = Fraction(_leading_minor(M, full), s ** r1)
        out["ones_column_det"] = str(ones_det)
        out["det"] = str(plain_det)
        out["ok"] = out["ok"] and total == ones_det == plain_det
    return out


def check_ones_column_identity(table):
    """For the full row set, the signed sum of chain products of length r
    equals the alternating sum of row-deleted minors; for a square matrix
    with unit row sums both equal the plain determinant (the ones-column
    form)."""
    r1 = table.nrows
    return _ones_column_identity(table.scaled, table.scale,
                                 _subset_plan(r1, r1 - 1))


def validate_trials(rows, cols, trials):
    """Reject a shape no trial can use (InputError) and a row count above
    ``MAX_TRIAL_ROWS`` (CapError), before any work."""
    if not 1 <= rows <= cols:
        raise InputError("trials need 1 <= rows <= cols, got rows=%d, "
                         "cols=%d" % (rows, cols))
    if trials < 0:
        raise InputError("the trial count must be >= 0, got %d" % trials)
    if rows > MAX_TRIAL_ROWS:
        raise CapError("rows=%d is above the cap of %d rows: each trial "
                       "visits all 2^rows row subsets"
                       % (rows, MAX_TRIAL_ROWS))


def _draw_entries(bits, count):
    """``count`` pairs (p, q) in lowest terms, with p from -9..9 and then q
    from 1..3, as ``randint(-9, 9)`` and ``randint(1, 3)`` of the same
    ``random.Random`` draw them: ``randint`` takes ``getrandbits`` of the
    range's bit length (5 bits for 19 values, 2 for 3) and draws again
    while the value is out of range, and so does this, without its
    per-call checks."""
    out = []
    for _ in range(count):
        p = bits(5)
        while p >= 19:
            p = bits(5)
        q = bits(2)
        while q == 3:
            q = bits(2)
        p -= 9
        q += 1
        g = gcd(p, q)
        out.append((p // g, q // g))
    return out


def random_minor_identity_trials(rows, cols, trials, seed):
    """Seeded random matrices fed through the minor identity; returns the
    first counterexample if any (expected none).

    Each entry is p/q with p drawn from -9..9, then q from 1..3
    (:func:`_draw_entries`), and kept as the integer pair in lowest terms;
    ``Fraction`` is built only for the matrix of a reported failure."""
    validate_trials(rows, cols, trials)
    bits = random.Random(seed).getrandbits
    plan = _subset_plan(rows, rows)
    ran = 0
    skipped = 0
    for t in range(trials):
        entries = _draw_entries(bits, rows * cols)
        s = lcm(*(q for _, q in entries))
        M = [[p * (s // q) for p, q in entries[i:i + cols]]
             for i in range(0, rows * cols, cols)]
        full = _full_slice(M, s)
        if full is None:
            skipped += 1
            continue
        report = _minor_identity(M, s, plan, full)
        ran += 1
        if not report["ok"]:
            return {"ok": False, "trial": t, "matrix":
                    [[str(Fraction(p, q)) for p, q in entries[i:i + cols]]
                     for i in range(0, rows * cols, cols)],
                    "failures": report["failures"]}
        if rows == cols:
            sums = [sum(row) for row in M]
            if not all(sums):
                continue
            # row i over its sum is M_i / sums_i, so over the common
            # denominator L every row sums to L; scaling rows keeps them
            # independent
            L = lcm(*sums)
            stochastic = [[x * (L // row_sum) for x in row]
                          for row, row_sum in zip(M, sums)]
            rep2 = _ones_column_identity(stochastic, L, plan[:-1])
            if not rep2.get("skipped") and not rep2["ok"]:
                return {"ok": False, "trial": t, "stochastic": True,
                        "report": rep2}
    return {"ok": True, "trials": ran, "degenerate_skipped": skipped}
