import json
import os
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from newton_socle import (SparsePoly, buchberger, compact_faces, face_part,
                          face_parts, newton_polyhedron, nondegenerate,
                          nondegeneracy_report, torus_has_zero)
from newton_socle import grobner
from newton_socle.errors import InputError, VerificationError
from newton_socle.grobner import face_torus_polynomial
from newton_socle.linalg import det, hermite_basis, rank, solve

import grobner_oracles as oracle
from conftest import poly

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from perfbench.workloads import k_support  # noqa: E402


def test_buchberger_already_a_basis():
    gb = buchberger([poly("x1", nvars=2), poly("x2", nvars=2)])
    leads = sorted(max(dict(g)) for g in gb.basis)
    assert leads == [(0, 1), (1, 0)]


def test_buchberger_membership():
    gb = buchberger([poly("x1^2 - x2"), poly("x2^2 - x1")])
    assert gb.contains(poly("x1^4 - x1", nvars=2))
    assert not gb.contains(poly("x1^3 - x1", nvars=2))
    assert not gb.contains(poly("x1", nvars=2))


def test_buchberger_unit():
    gb = buchberger([poly("1", nvars=2)])
    assert gb.is_unit_ideal()


def test_buchberger_permutation_invariance():
    gens = [poly("x1^2 - x2", nvars=3), poly("x2^2 - x3", nvars=3),
            poly("x1*x3 - x2^2", nvars=3)]
    rng = random.Random(5)
    reference = buchberger(gens).basis
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).basis == reference


@st.composite
def systems(draw, max_terms=4):
    """1-4 generators in 1-3 variables, each of 1-``max_terms`` terms with
    exponents at most 2 and integer or p/q coefficients."""
    n = draw(st.integers(1, 3))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                      st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 2)] * n)
    terms = st.dictionaries(mono, coeff, min_size=1, max_size=max_terms)
    return [SparsePoly(n, t) for t in draw(st.lists(terms, min_size=1,
                                                    max_size=4))]


@given(systems())
@settings(max_examples=100, deadline=None)
def test_buchberger_matches_the_oracle(gens):
    assert buchberger(gens).basis == oracle.buchberger(gens).basis


# The Rabinowitsch system has one variable more; with four 4-term
# generators in 3 variables the oracle's run can take seconds.
@given(systems(max_terms=3))
@settings(max_examples=60, deadline=None)
def test_torus_has_zero_matches_the_oracle(gens):
    assert torus_has_zero(gens) == oracle.torus_has_zero(gens)


@st.composite
def reductions(draw):
    """A system of :func:`systems` and h in its variables: up to 6 terms
    with exponents at most 3 and p/q coefficients."""
    gens = draw(systems())
    coeff = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                      st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 3)] * gens[0].nvars)
    h = SparsePoly(gens[0].nvars, draw(st.dictionaries(mono, coeff,
                                                       max_size=6)))
    return gens, h


@given(reductions())
@settings(max_examples=100, deadline=None)
def test_reduce_matches_the_oracle_normal_form(problem):
    gens, h = problem
    gb = buchberger(gens)
    basis = [dict(g) for g in gb.basis]
    expected = oracle.normal_form(h.terms, basis)
    assert gb.reduce(h) == expected
    assert gb.contains(h) == (not expected)
    # any basis of rational polynomials, not only a reduced monic one
    raw = [g.terms for g in gens]
    assert grobner.normal_form(h.terms, raw) == \
        oracle.normal_form(h.terms, raw)


# A dense system whose reduction in Fractions spent most of its time in gcds
# and Fraction arithmetic.
DENSE_SYSTEM = [
    "-x3^2 - x1*x3 + 3*x1^2 + 2*x1^2*x2*x3",
    "1/2*x1 + 1/2*x1*x2*x3 + 3*x1^2*x3 + 1/3*x1^2*x3^2",
    "-3/2*x1 + 1/2*x1*x2*x3 - 1/3*x1*x2^2 - x1^2*x2^2",
    "2/3*x2*x3 - x2^2 + 3/2*x2^2*x3^2 + 2/3*x1*x2^2*x3",
]


def test_dense_system_has_no_torus_zero():
    gens = [poly(text, nvars=3) for text in DENSE_SYSTEM]
    assert not torus_has_zero(gens)
    assert buchberger(gens).basis == oracle.buchberger(gens).basis


def test_buchberger_stops_at_the_unit_ideal():
    # x2 * x1 - (x1*x2 - 1) = 1: the constant appears only in the S-pair
    gens = [poly("x1*x2 - 1"), poly("x1", nvars=2)]
    gb = buchberger(gens)
    assert gb.basis == ((((0, 0), Fraction(1)),),)
    assert gb.generators == tuple(gens)
    assert gb.basis == oracle.buchberger(gens).basis


def test_degenerate_k10_faces_run_to_a_full_basis(monkeypatch):
    f = SparsePoly.from_json(json.loads(k_support(10)))
    real, runs = grobner.buchberger, []

    def recording(gens):
        runs.append(real(gens))
        return runs[-1]

    monkeypatch.setattr(grobner, "buchberger", recording)
    report = nondegeneracy_report(f)
    zero = [e for e in report["faces"] if e["torus_zero"]]
    assert zero and all(e["method"] == "groebner-Q" for e in zero)
    assert not report["nondegenerate"]
    assert sum(not gb.is_unit_ideal() for gb in runs) == len(zero)
    for gb in runs:
        assert gb.basis == oracle.buchberger(list(gb.generators)).basis


def test_buchberger_rejects_mismatched_rings():
    with pytest.raises(InputError):
        buchberger([poly("x1"), poly("x1 + x2")])


def test_torus_zero_monomials():
    assert not torus_has_zero([poly("x1^2", nvars=2), poly("x2^3", nvars=2)])


def test_torus_zero_linear():
    assert torus_has_zero([poly("x1 + x2")])
    # x1 = x2 = 0 is the only common zero
    assert not torus_has_zero([poly("x1 + x2"), poly("x1 - x2")])


def test_torus_zero_unit():
    assert not torus_has_zero([poly("1", nvars=2)])


def test_nondegenerate_cusp():
    assert nondegenerate(poly("x1^2 + x2^3"))


def test_nondegenerate_square_of_linear():
    assert not nondegenerate(poly("x1^2 + 2*x1*x2 + x2^2"))


def test_nondegenerate_axis_condition():
    report = nondegeneracy_report(poly("x1^2", nvars=2))
    assert not report["axis_condition"]
    assert not report["nondegenerate"]


def test_nondegenerate_requires_order_two():
    with pytest.raises(InputError):
        nondegenerate(poly("x1 + x2^2"))


def test_monomial_faces_short_circuit(family):
    for f in family:
        report = nondegeneracy_report(f)
        assert report["nondegenerate"]
        for entry in report["faces"]:
            if f == poly("x1^2 + x1*x2 + x2^3") and entry["dim"] == 1:
                continue  # mixed edges go through the Groebner path
            if len(entry["vertices"]) == 1:
                assert entry["method"] == "monomial"


def _minor_gcd(rows, r):
    """gcd of the r x r minors of an integer matrix, the r-th determinantal
    divisor, which unimodular row operations keep."""
    g = 0
    for rs in combinations(rows, r):
        for cs in combinations(range(len(rows[0])), r):
            g = gcd(g, int(det([[row[c] for c in cs] for row in rs])))
    return g


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
    min_size=1, max_size=5)))
@settings(max_examples=100, deadline=None)
def test_hermite_basis_spans_the_same_lattice(rows):
    basis = hermite_basis(rows)
    r = rank(rows)
    assert len(basis) == r
    if not r:
        return
    # every row is an integer combination of the basis ...
    columns = list(zip(*basis))
    for row in rows:
        coords = solve(columns, row)
        assert coords is not None
        assert all(a.denominator == 1 for a in coords)
    # ... and both have the same r-th determinantal divisor, so that
    # inclusion of lattices of rank r has index 1
    assert _minor_gcd(rows, r) == _minor_gcd(basis, r)


@st.composite
def face_polys(draw):
    """f in 2-3 variables of order >= 2 with a term on every axis and p/q
    coefficients.  Half of them are h^2 plus terms of higher degree, with h
    a sum of pure powers x_i^k: the face of h^2 then has torus zeros and,
    for k = 2, a lattice of index 2."""
    n = draw(st.integers(2, 3))
    hi = 4 if n == 2 else 3
    coeff = st.builds(lambda p, q: "%d/%d" % (p, q),
                      st.integers(-3, 3).filter(bool), st.integers(1, 2))
    low = 2
    if draw(st.booleans()):
        k = draw(st.integers(1, 2))
        h = SparsePoly(n, {tuple(k * int(i == j) for j in range(n)): draw(coeff)
                           for i in draw(st.sets(st.integers(0, n - 1),
                                                 min_size=2))})
        f = h * h
        low = 2 * k + 1
    else:
        f = SparsePoly.zero(n)
    point = st.tuples(*[st.integers(0, hi)] * n).filter(
        lambda e: sum(e) >= low)
    f = f + SparsePoly(n, draw(st.dictionaries(point, coeff, max_size=3)))
    for i in range(n):
        if f.restrict_to_axis(i).is_zero():
            e = tuple(draw(st.integers(low, low + 2)) * int(i == j)
                      for j in range(n))
            f = f + SparsePoly(n, {e: draw(coeff)})
    return f


@given(face_polys())
@settings(max_examples=60, deadline=None)
def test_face_torus_verdicts_match_the_full_variable_systems(f):
    report = nondegeneracy_report(f)
    faces = compact_faces(newton_polyhedron(f))
    assert len(report["faces"]) == len(faces)
    for entry, face in zip(report["faces"], faces):
        fs = face_part(f, face)
        derivs = [fs.x_ddx(i) for i in range(f.nvars)]
        assert entry["torus_zero"] == torus_has_zero(derivs)
    assert report["nondegenerate"] == (
        not any(e["torus_zero"] for e in report["faces"]))


@pytest.mark.parametrize("text", [
    # the repeated-root edge (x1 + x3)^2 (2 x1 + 3 x3) with a pure x2^3
    "2*x1^3 + 7*x1^2*x3 + 8*x1*x3^2 + 3*x3^3 + x2^3",
    # (x1^2 + x2^2)^2: the edge lattice has index 2
    "x1^4 + 2*x1^2*x2^2 + x2^4",
    # a^3 + b^3 + c^3 - 3abc at a, b, c = x1^2, x2^2, x3^2: index-2 2-face
    "x1^6+x2^6+x3^6 - 3*x1^2*x2^2*x3^2",
])
def test_degenerate_faces_are_found_over_q(text):
    report = nondegeneracy_report(poly(text))
    assert not report["nondegenerate"]
    assert any(e["torus_zero"] and e["method"] == "groebner-Q"
               for e in report["faces"])


def test_index_two_edge_reduces_to_one_variable():
    # f_sigma = x2^4 * F(x1^2 / x2^2): F = (1 + y)^2 has the torus zero
    # y = -1, while F = 1 + y + y^2 has simple roots only
    square = poly("x1^4 + 2*x1^2*x2^2 + x2^4")
    assert face_torus_polynomial(square) == poly("1 + 2*x1 + x1^2")
    good = poly("x1^4 + x1^2*x2^2 + x2^4")
    assert face_torus_polynomial(good) == poly("1 + x1 + x1^2")
    report = nondegeneracy_report(good)
    assert report["nondegenerate"]
    assert [e["method"] for e in report["faces"]] == \
        ["monomial", "monomial", "groebner-Q"]


def same_terms(got, want):
    """``==``, and the same terms in the same order with the same types."""
    assert got == want
    assert [(e, c, type(c)) for e, c in got.terms.items()] == \
        [(e, c, type(c)) for e, c in want.terms.items()]


@st.composite
def face_supports(draw):
    """A polynomial of 2-6 terms in 2-4 variables with p/q coefficients,
    standing in for a face part.  Half of the supports are k*P + s, so that
    their differences span a lattice of index k^rank (k = 2, 3)."""
    n = draw(st.integers(2, 4))
    points = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                           min_size=2, max_size=6, unique=True))
    if draw(st.booleans()):
        k = draw(st.integers(2, 3))
        shift = draw(st.tuples(*[st.integers(0, 2)] * n))
        points = [tuple(k * x + y for x, y in zip(p, shift)) for p in points]
    coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                      st.integers(1, 3))
    return SparsePoly(n, {p: draw(coeff) for p in points})


@given(face_supports())
@settings(max_examples=200, deadline=None)
def test_lattice_substitution_matches_the_solve_route(fs):
    F = face_torus_polynomial(fs)
    same_terms(F, oracle.face_torus_polynomial(fs))
    m0 = next(iter(fs.terms))
    assert F.nvars == rank([tuple(a - b for a, b in zip(m, m0))
                            for m in fs.terms])


def test_lattice_substitution_on_the_index_two_edge():
    for text in ("x1^4 + 2*x1^2*x2^2 + x2^4", "x1^4 + x1^2*x2^2 + x2^4",
                 "x1^6 + x1^4*x2^2 + x1^2*x2^4 + 3*x2^6"):
        fs = poly(text)
        same_terms(face_torus_polynomial(fs), oracle.face_torus_polynomial(fs))


def test_lattice_substitution_raises_off_the_lattice():
    # the differences of the index-two edge x1^4, x1^2*x2^2, x2^4
    basis = hermite_basis([(0, 0), (-2, 2), (-4, 4)])
    assert basis == [(2, -2)]
    assert grobner._hermite_coordinates(basis, [(2, -2), (-4, 4)]) == \
        [(1,), (-2,)]
    # in the span but not in the lattice, and outside the span
    for v in ((1, -1), (1, 0), (0, 2)):
        with pytest.raises(VerificationError):
            grobner._hermite_coordinates(basis, [v])


@given(systems(max_terms=4))
@settings(max_examples=100, deadline=None)
def test_clean_constructions_equal_the_validating_ones(gens):
    # x_i d/dx_i, the Rabinowitsch system and every face part are built
    # without validating their terms again; the validating constructor
    # gives the same polynomials, terms in the same order
    for g in gens:
        for i in range(g.nvars):
            same_terms(g.x_ddx(i), SparsePoly(g.nvars, {
                e: c * e[i] for e, c in g.terms.items()}))
    system = grobner._rabinowitsch_system(gens)
    want = oracle.rabinowitsch_system(gens)
    assert len(system) == len(want)
    for got, expected in zip(system, want):
        same_terms(got, expected)
    f = sum(gens[1:], gens[0])
    if f.is_zero() or any(sum(e) == 0 for e in f.terms):
        return
    faces = compact_faces(newton_polyhedron(f))
    for face, part in zip(faces, face_parts(f, faces)):
        same_terms(part, SparsePoly(f.nvars, {
            e: c for e, c in f.terms.items() if face.contains(e)}))
