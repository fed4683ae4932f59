"""The det-lemma routines on ``Fraction`` matrices, kept as test oracles.

These are the ``chain_coefficients_cramer``, ``chain_coefficients_direct``,
``check_minor_identity``, ``check_ones_column_identity`` and
``random_minor_identity_trials`` that ``newton_socle.combid`` used before it
moved to integer determinants and a pass over row subsets.  Each solves its
linear systems with the ``Fraction`` elimination of ``linalg_oracles``, and
the signed chain sum runs over every ordering of a subset, so they serve
only the small tables of the tests.  The package's functions of the same
names must return the same values, of the same types.  Tables are
``newton_socle.MinorTable``s.

``slice_coefficients`` is the integer form of ``chain_coefficients_direct``
on the package's slice parametrization, which its Cramer coefficients are
compared against.
"""

from fractions import Fraction
from itertools import combinations, permutations
import random

from linalg_oracles import det, kernel_basis, rank, solve
from newton_socle.combid import MinorTable, _slice_parametrization
from newton_socle.errors import InputError, VerificationError
from newton_socle.linalg import _row_reduce


def slice_coefficients(M, s, rows):
    """``(nums, dens)`` with c_l^I = nums[l - k + 1] / dens[l - k + 1],
    solved from the slice parametrization of the integer matrix ``M`` =
    s·A, or None when I is empty or the combination is not unique.
    ``rows`` is sorted."""
    k = len(rows)
    if not k:
        return None
    n = len(M[0])
    mat, pivots, L = _slice_parametrization(M, s, rows)
    point = [0] * n
    for row, p in zip(mat, pivots):
        point[p] = row[n] * (L // row[p])
    system = [point[k - 1:] + [L]]
    for f in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[f] = L
        for row, p in zip(mat, pivots):
            v[p] = -row[f] * (L // row[p])
        system.append(v[k - 1:] + [0])
    m = n - k + 1
    if _row_reduce(system, m + 1) != list(range(m)):
        return None
    nums = [row[m] for row in system]
    dens = [row[i] for i, row in enumerate(system)]
    return nums, dens


def _sign_of_sequence(seq):
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def chain_coefficients_cramer(table, index_set):
    """The coefficients c_k^I, ..., c_n^I of the unit combination on the slice
    cut out by the rows in I, via the Cramer system sum(b_j) = 1,
    sum(b_j a_jl) = 0 for l < k.  None when that system is singular."""
    rows = sorted(index_set)
    k = len(rows)
    sys_rows = [tuple(Fraction(1) for _ in rows)]
    for l in range(k - 1):
        sys_rows.append(tuple(table.matrix[j][l] for j in rows))
    if rank(sys_rows) < k:
        return None
    b = solve(sys_rows, [Fraction(1)] + [Fraction(0)] * (k - 1))
    if b is None:
        return None
    return {l: sum(b[t] * table.matrix[j][l] for t, j in enumerate(rows))
            for l in range(k - 1, table.ncols)}


def chain_coefficients_direct(table, index_set):
    """Same coefficients from the defining property: the combination of the
    coordinate covectors k..n restricted to the slice E_I equals 1.  None when
    the restricted system is singular."""
    rows = sorted(index_set)
    k = len(rows)
    n = table.ncols
    a_rows = [table.matrix[j] for j in rows]
    x0 = solve(a_rows, [Fraction(1)] * k)
    if x0 is None:
        return None
    directions = kernel_basis(a_rows, ncols=n)
    sys_rows = [tuple(x0[l] for l in range(k - 1, n))]
    sys_rows += [tuple(v[l] for l in range(k - 1, n)) for v in directions]
    rhs = [Fraction(1)] + [Fraction(0)] * len(directions)
    if rank(sys_rows) < n - k + 1:
        return None
    c = solve(sys_rows, rhs)
    if c is None:
        return None
    return {l: c[l - (k - 1)] for l in range(k - 1, n)}


def check_minor_identity(table, k_max=None):
    """For each row subset I the signed sum over orderings of the chain
    products c_1 ... c_k equals the minor on the first k columns.

    Subsets whose Cramer systems are singular are skipped with a note; both
    coefficient routes are cross-checked wherever both exist."""
    r1 = table.nrows
    if k_max is None:
        k_max = r1
    coeffs = {}
    skipped = []
    for size in range(1, min(k_max, r1) + 1):
        for subset in combinations(range(r1), size):
            cc = chain_coefficients_cramer(table, subset)
            cd = chain_coefficients_direct(table, subset)
            if cc is not None and cd is not None and cc != cd:
                raise VerificationError(
                    "coefficient routes disagree on %r" % (subset,))
            coeffs[frozenset(subset)] = cc if cc is not None else cd
            if coeffs[frozenset(subset)] is None:
                skipped.append(subset)
    checked = 0
    failures = []
    for size in range(1, min(k_max, r1) + 1):
        for subset in combinations(range(r1), size):
            needed = [frozenset(s) for sz in range(1, size + 1)
                      for s in combinations(subset, sz)]
            if any(coeffs[s] is None for s in needed):
                continue
            total = Fraction(0)
            for perm in permutations(subset):
                product = Fraction(1)
                for j in range(size):
                    prefix = frozenset(perm[:j + 1])
                    product *= coeffs[prefix][j]
                total += _sign_of_sequence(perm) * product
            expected = table.minor(subset, range(size))
            checked += 1
            if total != expected:
                failures.append({"rows": list(subset),
                                 "sum": str(total), "minor": str(expected)})
    return {"ok": not failures, "checked": checked,
            "skipped": [list(s) for s in skipped], "failures": failures}


def check_ones_column_identity(table):
    """For the full row set, the signed sum of chain products of length r
    equals the alternating sum of row-deleted minors; for a square matrix
    with unit row sums both equal the plain determinant (the ones-column
    form)."""
    r1 = table.nrows
    subset = tuple(range(r1))
    coeffs = {}
    for size in range(1, r1):
        for s in combinations(subset, size):
            coeffs[frozenset(s)] = chain_coefficients_cramer(table, s)
    total = Fraction(0)
    for perm in permutations(subset):
        product = Fraction(1)
        usable = True
        for j in range(r1 - 1):
            prefix = frozenset(perm[:j + 1])
            if coeffs[prefix] is None:
                usable = False
                break
            product *= coeffs[prefix][j]
        if not usable:
            return {"ok": False, "note": "singular chain system",
                    "skipped": True}
        total += _sign_of_sequence(perm) * product
    minor_sum = Fraction(0)
    for pos, i in enumerate(subset, start=1):
        rest = [j for j in subset if j != i]
        minor_sum += (-1) ** (r1 + pos) * table.minor(rest, range(r1 - 1))
    out = {"ok": total == minor_sum, "sum": str(total),
           "minor_sum": str(minor_sum), "skipped": False}
    if table.ncols == r1 and all(sum(row) == 1 for row in table.matrix):
        ones_det = det([row[:r1 - 1] + (Fraction(1),)
                        for row in table.matrix])
        plain_det = det(list(table.matrix))
        out["ones_column_det"] = str(ones_det)
        out["det"] = str(plain_det)
        out["ok"] = out["ok"] and total == ones_det == plain_det
    return out


def random_minor_identity_trials(rows, cols, trials, seed):
    """Seeded random matrices fed through the minor identity; returns the
    first counterexample if any (expected none)."""
    rng = random.Random(seed)
    ran = 0
    skipped = 0
    for t in range(trials):
        matrix = []
        for _ in range(rows):
            matrix.append(tuple(Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 3))
                                for _ in range(cols)))
        try:
            table = MinorTable(tuple(matrix))
        except InputError:
            skipped += 1
            continue
        report = check_minor_identity(table)
        ran += 1
        if not report["ok"]:
            return {"ok": False, "trial": t, "matrix":
                    [[str(x) for x in row] for row in matrix],
                    "failures": report["failures"]}
        if table.ncols == table.nrows:
            sums = [sum(row) for row in matrix]
            if any(s == 0 for s in sums):
                continue
            stochastic = tuple(tuple(x / s for x in row)
                               for row, s in zip(matrix, sums))
            try:
                st = MinorTable(stochastic)
            except InputError:
                continue
            rep2 = check_ones_column_identity(st)
            if not rep2.get("skipped") and not rep2["ok"]:
                return {"ok": False, "trial": t, "stochastic": True,
                        "report": rep2}
    return {"ok": True, "trials": ran, "degenerate_skipped": skipped}
