import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from newton_socle import combid
from newton_socle import (MinorTable, check_minor_identity,
                          check_ones_column_identity,
                          random_minor_identity_trials)
from newton_socle.combid import chain_coefficients_cramer
from newton_socle.errors import InputError, VerificationError
from newton_socle.linalg import det

import combid_oracles as oracle
import linalg_oracles


def table(rows):
    return MinorTable(tuple(tuple(Fraction(x) for x in r) for r in rows))


def test_base_case_coefficient_is_entry():
    A = table([[2, 5, 7], [1, -1, 3]])
    for i in range(2):
        cc = chain_coefficients_cramer(A, (i,))
        assert cc[0] == A.matrix[i][0]


def test_coefficient_routes_agree():
    A = table([[2, 1, 3, -1], [1, -2, 1, 4], [3, 1, 0, 1]])
    for subset in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
        cc = chain_coefficients_cramer(A, subset)
        cd = oracle.chain_coefficients_direct(A, subset)
        assert cc == cd


def test_minor_identity_small():
    A = table([[2, 1, 3, -1, 1], [1, -2, 1, 4, 0], [3, 1, 0, 1, 2]])
    rep = check_minor_identity(A)
    assert rep["ok"] and rep["checked"] == 7 and not rep["skipped"]


def test_minor_identity_two_rows_expansion():
    # with two rows the identity reads c1^{1} c2^{12} - c1^{2} c2^{12} summed
    # over the two orderings equals the 2x2 minor on the first two columns
    A = table([[3, 1, 2], [1, 2, -1]])
    rep = check_minor_identity(A)
    assert rep["ok"]
    c1 = chain_coefficients_cramer(A, (0,))
    c2 = chain_coefficients_cramer(A, (1,))
    c12 = chain_coefficients_cramer(A, (0, 1))
    lhs = c1[0] * c12[1] - c2[0] * c12[1]
    assert lhs == A.minor((0, 1), (0, 1))


def test_ones_column_row_stochastic():
    A = table([[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
               [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
               [2, -3, 2]])
    rep = check_ones_column_identity(A)
    assert rep["ok"]
    assert Fraction(rep["det"]) == det(A.matrix)
    assert rep["ones_column_det"] == rep["det"]


def test_ones_column_r_zero():
    rep = check_ones_column_identity(table([[1]]))
    assert rep["ok"]
    assert Fraction(rep["sum"]) == 1


def test_ones_column_random_nonsquare():
    rng = random.Random(6)
    for _ in range(10):
        rows = 1 + rng.randint(0, 3)
        cols = rows + rng.randint(0, 2)
        mat = [[Fraction(rng.randint(-6, 6)) for _ in range(cols)]
               for _ in range(rows)]
        try:
            A = table(mat)
        except InputError:
            continue
        rep = check_ones_column_identity(A)
        if not rep.get("skipped"):
            assert rep["ok"]


def test_random_trials_clean():
    rep = random_minor_identity_trials(3, 5, 60, seed=9)
    assert rep["ok"]
    rep2 = random_minor_identity_trials(4, 4, 40, seed=10)
    assert rep2["ok"]


def test_square_trials_check_the_ones_column_form(monkeypatch):
    # square trials rescale each row to sum 1: every table the ones-column
    # identity sees has row sums equal to its scale
    seen = []
    real = combid._ones_column_identity

    def spy(M, s, plan):
        seen.append(all(sum(row) == s for row in M))
        return real(M, s, plan)

    monkeypatch.setattr(combid, "_ones_column_identity", spy)
    assert random_minor_identity_trials(3, 3, 10, seed=2)["ok"]
    assert seen and all(seen)


def test_minor_table_rejects_dependent_rows():
    with pytest.raises(InputError):
        table([[1, 2, 3], [2, 4, 6]])


def test_singular_subsets_are_skipped():
    # equal first-column entries make the size-2 chain system singular, and
    # on the slice the tail coordinates are dependent, so no unit combination
    # exists; the subset must be skipped, not reported as a failure
    A = table([[2, 1, 3], [2, 5, -1]])
    assert chain_coefficients_cramer(A, (0, 1)) is None
    assert oracle.chain_coefficients_direct(A, (0, 1)) is None
    rep = check_minor_identity(A)
    assert rep["ok"]
    assert [0, 1] in rep["skipped"]


def slice_route(A, index_set):
    """The integer slice route's coefficients as ``Fraction``s."""
    rows = sorted(index_set)
    got = oracle.slice_coefficients(A.scaled, A.scale, rows)
    if got is None:
        return None
    return {l: Fraction(x, d)
            for l, (x, d) in enumerate(zip(*got), len(rows) - 1)}


ENTRIES = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def tables(draw):
    """A ``MinorTable`` of p/q entries with 1-5 rows and at least as many
    columns.  Half the draws give every row the same first entry, so chain
    systems of two or more rows are singular; half of the square draws are
    scaled to unit row sums (the ones-column case)."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(nrows, 7))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if draw(st.booleans()):
        for row in rows[1:]:
            row[0] = rows[0][0]
    sums = [sum(row) for row in rows]
    if nrows == ncols and all(sums) and draw(st.booleans()):
        rows = [[x / s for x in row] for row, s in zip(rows, sums)]
    try:
        return MinorTable(tuple(map(tuple, rows)))
    except InputError:
        return None


@given(tables())
@settings(max_examples=200, deadline=None)
def test_det_lemma_matches_fraction_oracles(A):
    if A is None:
        return
    for size in range(A.nrows + 1):
        for subset in combinations(range(A.nrows), size):
            assert repr(chain_coefficients_cramer(A, subset)) == \
                repr(oracle.chain_coefficients_cramer(A, subset))
            assert repr(slice_route(A, subset)) == \
                repr(oracle.chain_coefficients_direct(A, subset))
    assert repr(check_minor_identity(A)) == \
        repr(oracle.check_minor_identity(A))
    assert repr(check_minor_identity(A, k_max=2)) == \
        repr(oracle.check_minor_identity(A, k_max=2))
    assert repr(check_ones_column_identity(A)) == \
        repr(oracle.check_ones_column_identity(A))


@given(st.integers(1, 4).flatmap(
    lambda r: st.lists(st.lists(ENTRIES, min_size=r + 1, max_size=r + 1),
                       min_size=r, max_size=r)))
@settings(max_examples=200, deadline=None)
def test_minor_table_matches_fraction_elimination(rows):
    """Independence and every minor agree with the ``Fraction`` routines."""
    independent = linalg_oracles.rank(rows) == len(rows)
    try:
        A = table(rows)
    except InputError:
        assert not independent
        return
    assert independent
    cols = range(len(rows[0]))
    for size in range(len(rows) + 1):
        for rs in combinations(range(len(rows)), size):
            for cs in combinations(cols, size):
                want = linalg_oracles.det([[rows[i][j] for j in cs]
                                           for i in rs])
                assert repr(A.minor(rs, cs)) == repr(Fraction(want))


@pytest.mark.parametrize("shape", [(3, 5), (4, 4)])
def test_trial_reports_match_fraction_oracles(shape):
    for seed in range(6):
        assert repr(random_minor_identity_trials(*shape, 15, seed)) == \
            repr(oracle.random_minor_identity_trials(*shape, 15, seed))


def test_drawn_entries_are_the_randint_ones():
    # 3 x 5 entries for 25 trials, as verify-all draws them
    for seed in range(51):
        rng = random.Random(seed)
        want = []
        for _ in range(375):
            p, q = rng.randint(-9, 9), rng.randint(1, 3)
            x = Fraction(p, q)
            want.append((x.numerator, x.denominator))
        assert combid._draw_entries(random.Random(seed).getrandbits,
                                    375) == want


def test_disagreeing_routes_are_caught(monkeypatch):
    # each corruption changes what the substitution compares: the last
    # Cramer numerator (which no chain sum reads, so only the slice check
    # can see it) or the point of the slice parametrization, moved by 1
    # along the last pivot column, which is at least k - 1; the table is
    # built under the corruption, as it eliminates the full row set
    rows = [[2, 1, 3, -1], [1, -2, 1, 4]]
    cramer = combid._cramer_coefficients
    param = combid._slice_parametrization

    def off_numerator(M, s, rows):
        got = cramer(M, s, rows)
        if got is None or len(rows) < 2:
            return got
        nums, den = got
        return nums[:-1] + [nums[-1] + den], den

    def off_point(M, s, rows):
        mat, pivots, L = param(M, s, rows)
        mat[-1][-1] += mat[-1][pivots[-1]]
        return mat, pivots, L

    for name, corrupt in (("_cramer_coefficients", off_numerator),
                          ("_slice_parametrization", off_point)):
        with monkeypatch.context() as m:
            m.setattr(combid, name, corrupt)
            with pytest.raises(VerificationError):
                check_minor_identity(table(rows))
    assert check_minor_identity(table(rows))["ok"]


@given(tables())
@settings(max_examples=200, deadline=None)
def test_cramer_and_slice_are_singular_together(A):
    """On independent rows a subset's Cramer system is singular exactly
    when the square system of the slice parametrization is."""
    if A is None:
        return
    for size in range(1, A.nrows + 1):
        for rows in combinations(range(A.nrows), size):
            cramer = combid._cramer_coefficients(A.scaled, A.scale, rows)
            direct = oracle.slice_coefficients(A.scaled, A.scale, rows)
            assert (cramer is None) == (direct is None), rows
