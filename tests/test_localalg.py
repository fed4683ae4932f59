import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from newton_socle import (INFINITY, SparsePoly, build_ideal, certified_ideal,
                          coset_newton_order, ideal_generators,
                          jacobian_multiplication_check, member,
                          newton_polyhedron, socle, socle_newton_order,
                          verify_interior_membership)
from newton_socle import localalg
from newton_socle.errors import CapError, InputError, TruncationError
from newton_socle.grobner import degrevlex_key
from newton_socle.linalg import Echelon, _integral, kernel_basis, rref
from newton_socle.localalg import (CertifiedSpans, TruncatedLocalAlgebra,
                                   interior_truncation,
                                   jacobian_multiplication_report,
                                   monomials_of_degree,
                                   socle_truncation_floor, truncated_span)

from conftest import FAMILY, poly, supports
from residue_oracles import _Echelon as _TrackedEchelon, _shifted_span


def log_ideal(f_text, D=None):
    f = poly(f_text)
    gens = ideal_generators(f)[0]
    return build_ideal(gens, D) if D else certified_ideal(gens)


def test_build_ideal_certificate():
    span = log_ideal("x1^2 + x2^3", D=8)
    assert span.m_power_bound == 4


def test_build_ideal_maximal_ideal():
    span = build_ideal([poly("x1", nvars=2), poly("x2", nvars=2)], 3)
    assert span.m_power_bound == 1


def test_build_ideal_jacobian_of_quadric():
    f = poly("x1^2 + x2^2")
    jac = ideal_generators(f)[1]
    assert [str(g) for g in jac] == ["2*x1", "2*x2"]
    span = build_ideal(jac, 3)
    assert span.m_power_bound == 1


def test_build_ideal_rejects_units():
    with pytest.raises(InputError):
        build_ideal([poly("1 + x1")], 4)


def test_member_examples():
    span = log_ideal("x1^2 + x2^3", D=8)
    assert member(poly("x1^2*x2^2"), span)
    assert not member(poly("x1*x2^2"), span)
    assert member(SparsePoly.zero(2), span)


def test_member_requires_certificate():
    span = build_ideal([poly("x1^3", nvars=2)], 4)   # infinite colength
    assert span.m_power_bound is None
    with pytest.raises(TruncationError):
        member(poly("x1^3", nvars=2), span)


def test_socle_examples():
    span = log_ideal("x1^2 + x2^3", D=8)
    assert [str(s) for s in socle(span)] == ["x1*x2^2"]
    span2 = log_ideal("x1^2 + x2^2", D=6)
    assert [str(s) for s in socle(span2)] == ["x1*x2"]
    span3 = build_ideal([poly("x1", nvars=2), poly("x2", nvars=2)], 3)
    assert [str(s) for s in socle(span3)] == ["1"]


def _dense_socle(span):
    """The socle as it was computed before it went sparse: dense ``Fraction``
    rows of the multiplication maps on the quotient basis, then
    ``kernel_basis``."""
    basis = span.quotient_basis()
    index = {m: i for i, m in enumerate(basis)}
    nvars = span.algebra.nvars
    rows = []
    for v in range(nvars):
        cols = []
        for b in basis:
            shifted = tuple(x + int(i == v) for i, x in enumerate(b))
            col = [Fraction(0)] * len(basis)
            for m, c in span.reduce({shifted: Fraction(1)}).items():
                col[index[m]] = c
            cols.append(col)
        rows.extend(tuple(col[i] for col in cols) for i in range(len(basis)))
    return [{basis[j]: c for j, c in enumerate(vec) if c}
            for vec in kernel_basis(rows, ncols=len(basis))]


def test_socle_matches_the_dense_route(family):
    spans = [certified_ideal(gens) for f in family
             for gens in ideal_generators(f)]
    spans.append(build_ideal([poly("x1^2", nvars=2), poly("x1*x2"),
                              poly("x2^3", nvars=2)], 6))
    for span in spans:
        assert [s.terms for s in socle(span)] == _dense_socle(span)


@given(st.integers(2, 4), st.integers(2, 4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.builds(Fraction, st.integers(-5, 5),
                                    st.integers(1, 4))),
                min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_socle_matches_the_dense_route_on_random_ideals(a, b, extra):
    """Pure powers plus p/q terms of positive degree: finite colength and
    socles of several dimensions, with rational coefficients."""
    gens = [{(a, 0): Fraction(1)}, {(0, b): Fraction(1)}]
    for k, (i, j, c) in enumerate(extra):
        if i + j and (i, j) not in ((a, 0), (0, b)):
            gens[k % 2][(i, j)] = gens[k % 2].get((i, j), 0) + c
    if len(extra) > 2:
        gens.append({(1, 1): Fraction(1), (extra[2][0], 2): extra[2][2]})
    span = build_ideal([SparsePoly(2, g) for g in gens], 2 * (a + b))
    if span.m_power_bound is None:
        return
    assert [s.terms for s in socle(span)] == _dense_socle(span)


def test_truncation_stability(family):
    for f in family:
        base = certified_ideal(ideal_generators(f)[0])
        D = base.algebra.D
        span_a = build_ideal(ideal_generators(f)[0], D)
        span_b = build_ideal(ideal_generators(f)[0], D + 2)
        assert span_a.m_power_bound == span_b.m_power_bound
        probes = [poly("x1*x2", nvars=f.nvars),
                  poly("x1^2", nvars=f.nvars),
                  poly("x1^2*x2^2", nvars=f.nvars)]
        for h in probes:
            assert member(h, span_a) == member(h, span_b)
        assert sorted(map(str, socle(span_a))) == sorted(map(str, socle(span_b)))


# the log and Jacobian ideals of the regression family, one of infinite
# colength, and (3*x1^3, 3*x2^3, 3*x3^3), whose k0 = 7 lies just under a cap
# of 150 monomials (D <= 7 in three variables)
CUBES = ideal_generators(poly("x1^3+x2^3+x3^3"))[0]
STORE_IDEALS = [gens for text in FAMILY
                for gens in ideal_generators(poly(text))] + [
    (poly("x1^2", nvars=2), poly("x1*x2", nvars=2)), CUBES]
# 10^4 is above the monomial cap in two or more variables
_TRUNCATIONS = st.integers(1, 20) | st.just(10 ** 4)


def _answer(call):
    try:
        span = call()
    except (CapError, InputError, TruncationError) as exc:
        return type(exc), str(exc)
    return span.algebra.D, span.m_power_bound, span.echelon.rows


@given(st.sampled_from(STORE_IDEALS),
       st.lists(st.tuples(st.none() | _TRUNCATIONS,
                          st.integers(0, 20) | st.just(10 ** 4)),
                min_size=1, max_size=6),
       st.booleans())
# the escalation from 8 is refused at 8, not at k0 + 4 = 11
@example(CUBES, [(7, 0), (None, 8)], True)
@settings(max_examples=200, deadline=None)
def test_span_store_answers_as_a_new_store(gens, requests, small_cap):
    # under a cap of 150 monomials, D >= 16 in two variables and D >= 8 in
    # three are refused; a certified span is built once
    store = CertifiedSpans(gens)
    built = []

    def counted(gens, D):
        span = build_ideal(gens, D)
        if span.m_power_bound is not None:
            built.append(D)
        return span

    with pytest.MonkeyPatch.context() as patch:
        if small_cap:
            patch.setattr(localalg, "MAX_ALGEBRA_MONOMIALS", 150)
        for D, min_D in requests:
            patch.setattr(localalg, "build_ideal", counted)
            answer = _answer(lambda: store.certified(D, min_D))
            patch.setattr(localalg, "build_ideal", build_ideal)
            assert answer == _answer(lambda: certified_ideal(gens, D, min_D))
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_algebra_lists_its_monomials_in_degrevlex_order(nvars):
    for D in range(1, 9):
        alg = TruncatedLocalAlgebra(nvars, D)
        assert alg.ascending == sorted(
            (m for d in range(D + 1) for m in monomials_of_degree(nvars, d)),
            key=degrevlex_key)
        assert alg.prefix(D - 1 or 1).ascending == \
            TruncatedLocalAlgebra(nvars, D - 1 or 1).ascending


def _normal_forms(span):
    return [span.reduce({m: 1}) for m in span.algebra.ascending]


@given(supports(min_vars=2, max_vars=3, convenient=True), st.integers(0, 1),
       st.integers(2, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_a_derived_truncation_matches_a_fresh_build(f, which, top, data):
    gens = ideal_generators(f)[which]
    assume(all(not g.is_zero() and g.order() >= 1 for g in gens))
    big = build_ideal(gens, top)
    assume(big.m_power_bound is not None)
    D = data.draw(st.integers(big.m_power_bound, top))
    derived = truncated_span(big, D)
    fresh = build_ideal(gens, D)
    assert derived.algebra.ascending == fresh.algebra.ascending
    assert derived.algebra.column == fresh.algebra.column
    assert derived.echelon.rows.keys() == fresh.echelon.rows.keys()
    assert derived.m_power_bound == fresh.m_power_bound
    assert _normal_forms(derived) == _normal_forms(fresh)


# the first build at the polyhedron's truncation certifies; one at 3 does
# not, and one at 10^4 is above the monomial cap and skipped, so both
# escalate as a store without a first build does
@pytest.mark.parametrize("first", [None, 3, 10 ** 4])
@pytest.mark.parametrize("min_D", [0, 9, 14])
@pytest.mark.parametrize("text", ["x1^2 + x2^5", "x1^5 + x2^7",
                                  "x1^2+x2^3+x3^4", "x1^3+x2^3+x3^3"])
def test_a_store_with_a_first_build_answers_as_one_without(text, min_D,
                                                           first):
    f = poly(text)
    gens = ideal_generators(f)[0]
    if first is None:
        first = interior_truncation(newton_polyhedron(f))
    store = CertifiedSpans(gens, first)
    span = store.certified(min_D=min_D)
    fresh = certified_ideal(gens, min_D=min_D)
    assert span.algebra.D == fresh.algebra.D
    assert span.m_power_bound == fresh.m_power_bound
    assert span.echelon.rows.keys() == fresh.echelon.rows.keys()
    assert _normal_forms(span) == _normal_forms(fresh)


# A store whose first build certifies answers where the degree cap would
# refuse, at the truncation the escalation reaches without the cap (here
# k0 + 4, as the start lies below k0); a store without a first build keeps
# the refusal.
@pytest.mark.parametrize("text, refusal", [
    ("x1^7+x2^8+x3^9", "no finite-colength certificate up to D=20"),
    ("x1^20+x2^23", "the escalation would start at D=46, beyond the cap 40"),
])
def test_a_certifying_first_build_answers_beyond_the_degree_cap(text,
                                                                 refusal):
    f = poly(text)
    gens = ideal_generators(f)[0]
    store = CertifiedSpans(gens, interior_truncation(newton_polyhedron(f)))
    span = store.certified()
    assert span.algebra.D == span.m_power_bound + 4
    fresh = build_ideal(gens, span.algebra.D)
    assert span.m_power_bound == fresh.m_power_bound
    assert _normal_forms(span) == _normal_forms(fresh)
    with pytest.raises(TruncationError, match=refusal):
        certified_ideal(gens)


def test_socle_newton_order_cusp():
    report = socle_newton_order(poly("x1^2 + x2^3"))
    assert report["nu_socle"] == Fraction(7, 6)
    assert report["match"]


def test_socle_newton_order_quadric():
    assert socle_newton_order(poly("x1^2 + x2^2"))["nu_socle"] == 1


def test_socle_newton_order_three_squares():
    report = socle_newton_order(poly("x1^2 + x2^2 + x3^2"))
    assert report["nu_socle"] == Fraction(3, 2)


def test_socle_newton_order_family(family):
    for f in family:
        report = socle_newton_order(f)
        assert report["match"], str(f)


def test_socle_newton_order_explicit_truncation_stable(family):
    for f in family:
        base = socle_newton_order(f)
        again = socle_newton_order(f, D=base["truncation"] + 2)
        assert again["nu_socle"] == base["nu_socle"], str(f)
        assert again["socle_basis"] == base["socle_basis"]


def test_coset_newton_order_reaches_into_ideal():
    f = poly("x1^2 + x2^3")
    span = certified_ideal(ideal_generators(f)[0], min_D=8)
    D = newton_polyhedron(f)
    # x1^2*x2^2 is in the ideal: its coset order is infinite
    assert coset_newton_order(poly("x1^2*x2^2"), span, D) is INFINITY
    # the socle representative cannot be raised beyond 7/6
    assert coset_newton_order(poly("x1*x2^2"), span, D) == Fraction(7, 6)
    # a representative with lower raw order still raises to its coset's order:
    # x1*x2^2 + x1^2*x2^2 has nu = min(7/6, 5/3)... raw order of the sum
    h = poly("x1*x2^2 + x1^2*x2^2")
    assert coset_newton_order(h, span, D) == Fraction(7, 6)


def test_jacobian_multiplication_cusp():
    rep = jacobian_multiplication_check(poly("x1^2 + x2^3"))
    assert rep["ok"] and rep["well_defined"] and rep["injective"]
    assert rep["quotient_basis_j"] == ["1", "x2"]


def test_jacobian_multiplication_quadric():
    rep = jacobian_multiplication_check(poly("x1^2 + x2^2"))
    assert rep["ok"]
    assert rep["quotient_basis_j"] == ["1"]


def test_jacobian_multiplication_full_jacobian():
    # (x + y/2)... the conic with maximal-ideal Jacobian: j = (2x+y, x+2y)
    rep = jacobian_multiplication_check(poly("x1^2 + x1*x2 + x2^2"))
    assert rep["ok"]
    assert rep["quotient_basis_j"] == ["1"]


def test_jacobian_multiplication_not_injective():
    # x1*x2 kills all but 1 and x2 of the nine monomials below (x1^3, x2^3)
    # modulo (x1^2, x2^3)
    rep = jacobian_multiplication_report(
        certified_ideal([poly("x1^2", nvars=2), poly("x2^3", nvars=2)]),
        certified_ideal([poly("x1^3", nvars=2), poly("x2^3", nvars=2)], D=8))
    assert rep["well_defined"] and rep["random_image_samples_ok"]
    assert len(rep["quotient_basis_j"]) == 9
    assert not rep["injective"] and not rep["ok"]


def test_jacobian_multiplication_not_well_defined():
    # x1*x2 * x1 = x1^2*x2 is not in (x1^3, x2^3)
    rep = jacobian_multiplication_report(
        certified_ideal([poly("x1^3", nvars=2), poly("x2^3", nvars=2)]),
        certified_ideal([poly("x1", nvars=2), poly("x2^2", nvars=2)], D=8))
    assert not rep["well_defined"] and not rep["random_image_samples_ok"]
    assert not rep["ok"]


def test_jacobian_multiplication_family(family):
    for f in family:
        assert jacobian_multiplication_check(f)["ok"], str(f)


def test_interior_membership_examples():
    f = poly("x1^2 + x2^3")
    assert verify_interior_membership(f, poly("x1^2*x2^2"))
    assert verify_interior_membership(f, SparsePoly.zero(2))
    with pytest.raises(InputError):
        verify_interior_membership(f, poly("x1*x2^2"))  # boundary of 2-dilate


def test_interior_membership_random_monomials(family_polyhedra):
    rng = random.Random(2024)
    for f, D in family_polyhedra:
        n = f.nvars
        span = certified_ideal(ideal_generators(f)[0])
        cap = span.algebra.D
        found = 0
        while found < 30:
            m = tuple(rng.randint(0, cap) for _ in range(n))
            shifted = tuple(x + 1 for x in m)
            if not D.interior_contains(shifted, n):
                continue
            found += 1
            assert member(SparsePoly.monomial(m), span), (str(f), m)


# ---------------------------------------------------------------------------
# The fraction-free echelon, plain and tracked, against a Fraction rref oracle
# ---------------------------------------------------------------------------

_COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                    st.integers(1, 4))
_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         _COEFFS, min_size=1, max_size=4)


def _combine(comb, originals):
    """The sum of coefficient * original over a combination."""
    total = {}
    for label, v in comb.items():
        for m, c in originals[label].items():
            total[m] = total.get(m, 0) + v * c
    return {m: c for m, c in total.items() if c}


@given(st.lists(_TERMS, min_size=1, max_size=5), _TERMS)
@settings(max_examples=150, deadline=None)
def test_echelon_matches_rref_oracle(polys, target):
    columns = sorted({m for p in polys + [target] for m in p},
                     key=degrevlex_key, reverse=True)
    reduced, pivot_cols = rref([[p.get(m, 0) for m in columns]
                                for p in polys])
    pivots = [columns[j] for j in pivot_cols]
    expected = {m: Fraction(c) for m, c in target.items()}
    for m, row in zip(pivots, reduced):
        c = expected.get(m, 0)
        for mc, v in zip(columns, row):
            expected[mc] = expected.get(mc, 0) - c * v
    expected = {m: c for m, c in expected.items() if c}

    # the plain echelon runs on the monomials numbered in ascending
    # degrevlex order, the tracked one on the monomials under degrevlex_key
    ascending = columns[::-1]
    column = {m: i for i, m in enumerate(ascending)}

    def numbered(terms):
        return {column[m]: c for m, c in terms.items()}

    plain = Echelon()
    tracked = _TrackedEchelon(degrevlex_key)
    for i, p in enumerate(polys):
        plain.insert(_integral(numbered(p))[0])
        tracked.insert(p, {i: Fraction(1)})
    originals = dict(enumerate(polys))
    assert {ascending[i] for i in plain.rows} == set(pivots)
    assert {ascending[i]: c for i, c in
            plain.reduce(numbered(target)).items()} == expected
    assert set(tracked.rows) == set(pivots)
    assert tracked.reduce(target) == expected
    for m, row in tracked.rows.items():
        assert all(isinstance(c, int) for c in row.values())
        assert row[m] > 0
        assert row == _combine(tracked.combs[m], originals)
    comb = {}
    remainder = tracked.reduce(target, comb)
    lhs = dict(remainder)
    for m, c in _combine(comb, originals).items():
        lhs[m] = lhs.get(m, 0) - c
    assert {m: c for m, c in lhs.items() if c} == target


# ---------------------------------------------------------------------------
# Spans on numbered columns against the monomial-keyed route
# ---------------------------------------------------------------------------

def _oracle_bound(ech, nvars, D):
    """The colength certificate of a monomial-keyed span."""
    for k in range(1, D + 1):
        if all(not ech.reduce({m: Fraction(1)})
               for m in monomials_of_degree(nvars, k)):
            return k
    return None


def _oracle_coset_order(h, ech, poly, D):
    """``coset_newton_order`` as it was on monomial keys: the span's rows,
    largest pivot first, re-inserted into an echelon under the key
    (-level, degrevlex)."""
    pos = poly.positive_facets()

    def level(m):
        return min(Fraction(sum(l * x for l, x in zip(fc.normal, m)),
                            fc.offset) for fc in pos)

    nu = _TrackedEchelon(lambda m: (-level(m), degrevlex_key(m)))
    for pivot in sorted(ech.rows, key=degrevlex_key, reverse=True):
        nu.insert(ech.rows[pivot])
    red = nu.reduce({e: c for e, c in h.terms.items() if sum(e) <= D})
    return min(map(level, red)) if red else INFINITY


_PQ = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@st.composite
def _span_inputs(draw):
    """1-3 generators in 2-3 variables with p/q coefficients on monomials of
    degree 1-3, a truncation, targets reaching one degree past it, and a
    Newton polyhedron to read coset orders against."""
    n = draw(st.integers(2, 3))
    D = draw(st.integers(2, 8 if n == 2 else 5))
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda m: 1 <= sum(m) <= 3)
    gens = draw(st.lists(st.dictionaries(monomial, _PQ, min_size=1,
                                         max_size=4), min_size=1, max_size=3))
    if draw(st.booleans()):
        # pure powers make the colength finite
        gens += [{tuple(2 * int(i == j) for j in range(n)): Fraction(1)}
                 for i in range(n)]
    target = st.dictionaries(
        st.tuples(*[st.integers(0, D + 1)] * n).filter(
            lambda m: sum(m) <= D + 1), _PQ, max_size=5)
    # a diagonal Newton polyhedron, whose levels order the coset echelon
    powers = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    diagonal = {tuple(p * int(i == j) for j in range(n)): 1
                for i, p in enumerate(powers)}
    return (n, D, gens, draw(st.lists(target, min_size=1, max_size=3)),
            newton_polyhedron(SparsePoly(n, diagonal)))


@given(_span_inputs())
@settings(max_examples=150, deadline=None)
def test_spans_on_columns_match_the_monomial_keyed_route(inputs):
    n, D, gens, targets, poly = inputs
    gens = [SparsePoly(n, g) for g in gens]
    span = build_ideal(gens, D)
    oracle = _shifted_span(gens, D)
    ascending = span.algebra.ascending
    assert ascending == sorted(ascending, key=degrevlex_key)
    # the same elimination, so the same rows, not only the same pivots
    assert {ascending[p]: {ascending[i]: c for i, c in row.items()}
            for p, row in span.echelon.rows.items()} == oracle.rows
    assert span.m_power_bound == _oracle_bound(oracle, n, D)
    if span.m_power_bound is not None:
        assert span.quotient_basis() == sorted(
            (m for m in ascending
             if m not in oracle.rows and sum(m) < span.m_power_bound),
            key=degrevlex_key)
    for t in targets:
        assert span.reduce(t) == oracle.reduce(
            {m: c for m, c in t.items() if sum(m) <= D})
        assert span.reduce(SparsePoly(n, t)) == span.reduce(t)
        h = SparsePoly(n, t)
        assert coset_newton_order(h, span, poly) == \
            _oracle_coset_order(h, oracle, poly, D)


def test_coset_newton_order_matches_the_monomial_keyed_route(family):
    for f in family:
        poly = newton_polyhedron(f)
        gens = ideal_generators(f)[0]
        span = certified_ideal(gens, min_D=socle_truncation_floor(poly))
        D = span.algebra.D
        oracle = _shifted_span(gens, D)
        reps = socle(span)
        probes = reps + [SparsePoly.monomial(m) for k in range(4)
                         for m in monomials_of_degree(f.nvars, k)]
        probes.append(sum(probes[1:], SparsePoly.zero(f.nvars)))
        # the same cosets through representatives of lower raw order
        probes += [h + g for h in reps for g in gens]
        for h in probes:
            assert coset_newton_order(h, span, poly) == \
                _oracle_coset_order(h, oracle, poly, D), (str(f), str(h))
