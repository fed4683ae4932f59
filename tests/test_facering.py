import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from newton_socle import (SparsePoly, canonical_quotient, class_nonzero,
                          compact_faces, cone_from_rays, face_cone,
                          face_derivatives, grading_form, newton_polyhedron,
                          poincare_series, select_parameters)
from newton_socle.context import RunContext
from newton_socle.errors import InputError
from newton_socle.facering import (_parameter_degree, graded_monomials,
                                   graded_pieces, grading_from_covector)
from newton_socle.linalg import det, dot, rref, solve
from newton_socle.polylattice import parallelepiped_points

from conftest import poly
from facering_oracles import dense_quotient, image_rows


def edge_face(f_text):
    D = newton_polyhedron(poly(f_text))
    return [fc for fc in compact_faces(D) if fc.dim == 1
            and not fc.in_coordinate_hyperplane][0]


def vertex_face(f_text):
    D = newton_polyhedron(poly(f_text))
    return [fc for fc in compact_faces(D) if fc.dim == 0
            and not fc.in_coordinate_hyperplane][0]


# ---------------------------------------------------------------------------
# Grading forms
# ---------------------------------------------------------------------------

def test_grading_form_cusp_edge():
    fc = face_cone(edge_face("x1^2 + x2^3"))
    g = grading_form(fc)
    assert g.covector == (Fraction(1, 2), Fraction(1, 3))
    assert g.denominator == 6
    assert fc.r == 0


def test_grading_form_vertex():
    fc = face_cone(vertex_face("x1^2 + x1*x2 + x2^3"))
    g = grading_form(fc)
    assert g.value((1, 1)) == 1
    assert g.value((3, 3)) == 3
    assert fc.r == 1


def test_grading_form_diagonal_vertex():
    fc = face_cone(vertex_face("x1*x2*x3 + x1^4 + x2^4 + x3^4"))
    # the diagonal vertex (1,1,1) has grading (sum of coordinates)/3
    assert fc.delta.vertices() == [(1, 1, 1)]
    g = grading_form(fc)
    assert g.value((1, 1, 1)) == 1
    assert g.covector == (Fraction(1, 3),) * 3


def test_face_cone_rejects_bad_faces():
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    hyp = [fc for fc in compact_faces(D) if fc.in_coordinate_hyperplane][0]
    with pytest.raises(InputError):
        face_cone(hyp)
    noncompact = [fc for fc in __import__("newton_socle").faces(D)
                  if not fc.compact][0]
    with pytest.raises(InputError):
        face_cone(noncompact)


# ---------------------------------------------------------------------------
# Face derivatives and parameter selection
# ---------------------------------------------------------------------------

def test_face_derivatives_cusp_edge():
    face = edge_face("x1^2 + x2^3")
    derivs = face_derivatives(poly("x1^2 + x2^3"), face)
    assert derivs == [poly("2*x1^2", nvars=2), poly("3*x2^3", nvars=2)]


def test_face_derivatives_vertex():
    face = vertex_face("x1^2 + x1*x2 + x2^3")
    derivs = face_derivatives(poly("x1^2 + x1*x2 + x2^3"), face)
    assert derivs == [poly("x1*x2"), poly("x1*x2")]


def test_face_derivatives_monomial():
    fmono = poly("x1^2*x2^3")
    D = newton_polyhedron(fmono)
    vert = compact_faces(D)[0]
    derivs = face_derivatives(fmono, vert)
    assert derivs == [poly("2*x1^2*x2^3"), poly("3*x1^2*x2^3")]


def test_select_parameters():
    face = edge_face("x1^2 + x2^3")
    fc = face_cone(face)
    chosen = select_parameters(face_derivatives(poly("x1^2 + x2^3"), face), fc)
    assert chosen == [poly("2*x1^2", nvars=2), poly("3*x2^3", nvars=2)]

    facev = vertex_face("x1^2 + x1*x2 + x2^3")
    fcv = face_cone(facev)
    chosen_v = select_parameters(
        face_derivatives(poly("x1^2 + x1*x2 + x2^3"), facev), fcv)
    assert chosen_v == [poly("x1*x2")]

    with pytest.raises(InputError):
        select_parameters([SparsePoly.zero(2), SparsePoly.zero(2)], fc)


# ---------------------------------------------------------------------------
# The canonical quotient
# ---------------------------------------------------------------------------

def test_quotient_cusp_edge():
    face = edge_face("x1^2 + x2^3")
    fc = face_cone(face)
    params = select_parameters(face_derivatives(poly("x1^2 + x2^3"), face), fc)
    q = canonical_quotient(fc, params)
    assert sum(q.graded_dims.values()) == 6
    assert q.socle_degree == 2
    assert [str(b) for b in q.socle_basis] == ["x1^2*x2^3"]
    monos = {b.support()[0] for b in q.socle_basis}
    assert monos == {(2, 3)}


def test_quotient_vertex_case():
    face = vertex_face("x1^2 + x1*x2 + x2^3")
    fc = face_cone(face)
    params = select_parameters(
        face_derivatives(poly("x1^2 + x1*x2 + x2^3"), face), fc)
    q = canonical_quotient(fc, params)
    assert sum(q.graded_dims.values()) == 1
    assert q.socle_degree == 1
    assert [str(b) for b in q.socle_basis] == ["x1*x2"]


def _half_open_parallelepiped(rays):
    n = len(rays[0])
    corners = []
    for bits in range(1 << len(rays)):
        corners.append(tuple(sum(r[k] for i, r in enumerate(rays)
                                 if bits >> i & 1) for k in range(n)))
    lo = [min(c[i] for c in corners) for i in range(n)]
    hi = [max(c[i] for c in corners) for i in range(n)]
    mat = [tuple(r[k] for r in rays) for k in range(n)]
    pts = set()
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            coeffs = solve(mat, (x, y))
            if coeffs is not None and all(0 < t <= 1 for t in coeffs):
                pts.add((x, y))
    return pts


def test_quotient_simplicial_monomial_is_parallelepiped():
    rng = random.Random(42)
    done = 0
    while done < 8:
        m1 = (rng.randint(1, 3), rng.randint(0, 3))
        m2 = (rng.randint(0, 3), rng.randint(1, 3))
        if m1[0] * m2[1] - m1[1] * m2[0] == 0:
            continue
        sigma = cone_from_rays([m1, m2])
        if len(sigma.rays) != 2:
            continue
        grading = grading_from_covector((1, 1), sigma)
        params = [SparsePoly.monomial(m1), SparsePoly.monomial(m2)]
        q = canonical_quotient(sigma, params, grading=grading)
        got = {b.support()[0] for b in _collect_basis(sigma, grading, params)}
        expected = _half_open_parallelepiped([m1, m2])
        assert got == expected
        assert sum(q.graded_dims.values()) == len(expected)
        done += 1


def _collect_basis(sigma, grading, params):
    """All monomial classes of the quotient: non-pivot monomials degree by
    degree (matches the socle-basis construction at every degree)."""
    from newton_socle.facering import (_image_span, _parameter_degree,
                                       _quotient_monomials)
    degs = [_parameter_degree(p, grading) for p in params]
    out = []
    for k in range(0, sum(degs) + 1):
        ech, column = _image_span(sigma, grading, params, k, degs)
        out.extend(map(SparsePoly.monomial, _quotient_monomials(ech, column)))
    return out


def test_quotient_rejects_non_parameters():
    face = edge_face("x1^2 + x2^3")
    fc = face_cone(face)
    # two proportional parameters cannot have finite colength
    with pytest.raises(InputError):
        canonical_quotient(fc, [poly("x1^2", nvars=2), poly("2*x1^2", nvars=2)])


@st.composite
def simplicial_systems(draw):
    """A simplicial 2-D or 3-D cone in the orthant, graded by the sum of the
    coordinates, with one parameter per ray: the ray's monomial, or that
    plus a multiple of another cone monomial of the same degree."""
    n = draw(st.sampled_from([2, 3]))
    entry = st.integers(0, 3 if n == 2 else 2)
    rays = draw(st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n))
    assume(det(rays) != 0)
    sigma = cone_from_rays(rays)
    grading = grading_from_covector((1,) * n, sigma)
    params = []
    for v in rays:
        p = SparsePoly.monomial(v)
        others = [w for w in graded_monomials(sigma, grading,
                                              grading.scaled(v), False)
                  if w != v]
        if others and draw(st.booleans()):
            c = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]))
            p = p + SparsePoly.monomial(draw(st.sampled_from(others)), c)
        params.append(p)
    return sigma, grading, params


@given(simplicial_systems())
@settings(max_examples=60, deadline=None)
def test_quotient_matches_the_dense_route(system):
    sigma, grading, params = system
    want = dense_quotient(sigma, grading, params)
    if want is None:
        with pytest.raises(InputError):
            canonical_quotient(sigma, params, grading=grading)
        return
    q = canonical_quotient(sigma, params, grading=grading)
    assert (q.graded_dims, q.socle_basis) == want
    assert all(class_nonzero(b, q) for b in q.socle_basis)


# ---------------------------------------------------------------------------
# Graded piece enumeration against a brute-force oracle
# ---------------------------------------------------------------------------

def test_graded_monomials_against_box_oracle():
    rng = random.Random(17)
    for _ in range(10):
        m1 = (rng.randint(1, 3), rng.randint(0, 2))
        m2 = (rng.randint(0, 2), rng.randint(1, 3))
        if m1[0] * m2[1] - m1[1] * m2[0] == 0:
            continue
        sigma = cone_from_rays([m1, m2])
        grading = grading_from_covector((1, 2), sigma)
        d = grading.denominator
        mat = [tuple(r[k] for r in (m1, m2)) for k in range(2)]
        for k in range(1, 9):
            for interior in (False, True):
                got = set(graded_monomials(sigma, grading, k, interior))
                expected = set()
                for x in range(0, 30):
                    for y in range(0, 30):
                        if dot(grading.covector, (x, y)) * d != k:
                            continue
                        coeffs = solve(mat, (x, y))
                        if coeffs is None:
                            continue
                        ok = all(t > 0 for t in coeffs) if interior \
                            else all(t >= 0 for t in coeffs)
                        if ok:
                            expected.add((x, y))
                assert got == expected
        # the parallelepiped of the same rays, for each kind of interval
        for low_closed, high_closed in ((False, True), (True, False),
                                        (True, True)):
            got = set(parallelepiped_points([m1, m2], low_closed, high_closed))
            expected = set()
            for x in range(-1, 7):
                for y in range(-1, 7):
                    coeffs = solve(mat, (x, y))
                    if (x, y) != (0, 0) and all(
                            (0 <= t if low_closed else 0 < t)
                            and (t <= 1 if high_closed else t < 1)
                            for t in coeffs):
                        expected.add((x, y))
            assert got == expected


@st.composite
def graded_cones(draw):
    """A cone of 1-4 nonzero generators in the 2- or 3-D orthant (so
    lower-dimensional cones with equations too) and a grading positive on
    it, possibly with a denominator."""
    n = draw(st.sampled_from([2, 3]))
    vec = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    sigma = cone_from_rays(draw(st.lists(vec, min_size=1, max_size=4)))
    cov = draw(st.tuples(*[st.sampled_from([1, 2, 3, Fraction(1, 2),
                                            Fraction(2, 3)])] * n))
    return sigma, grading_from_covector(cov, sigma)


@given(graded_cones(), st.integers(0, 9), st.booleans())
@settings(max_examples=150, deadline=None)
def test_range_scan_matches_one_degree_scans(cone, top, interior):
    sigma, grading = cone
    pieces = graded_pieces(sigma, grading, top, interior)
    assert pieces == [graded_monomials(sigma, grading, k, interior)
                      for k in range(top + 1)]


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------

def test_poincare_orthant_unit_grading():
    ps = poincare_series(cone_from_rays([(1, 0), (0, 1)]), (1, 1), 6)
    assert ps.module_dims == {Fraction(k): k - 1 for k in range(2, 7)}
    assert ps.numerator == {2: 1}
    assert ps.infinity_value == 1


def test_poincare_ray():
    ps = poincare_series(cone_from_rays([(1, 1)]), (1, 0), 5)
    assert ps.numerator == {1: 1}
    assert ps.infinity_value == -1
    assert ps.module_dims == {Fraction(k): 1 for k in range(1, 6)}


def test_poincare_from_quotient_grading():
    face = edge_face("x1^2 + x2^3")
    fc = face_cone(face)
    ps = poincare_series(fc, None, 3)
    # the quotient by the degree-1 parameters has top degree 2 and dim 6:
    # P(K) * (1 - t)^2 must reproduce its dimensions (scaled by 6)
    d = ps.grading_denominator
    assert d == 6
    coeffs = {int(k * d): v for k, v in ps.module_dims.items()}
    pred = {}
    for k in range(0, 13):
        pred[k] = (coeffs.get(k, 0) - 2 * coeffs.get(k - 6, 0)
                   + coeffs.get(k - 12, 0))
    expected = {5: 1, 7: 1, 8: 1, 9: 1, 10: 1, 12: 1}
    assert {k: v for k, v in pred.items() if v} == expected


def test_poincare_random_simplicial_value_at_infinity():
    rng = random.Random(23)
    done = 0
    while done < 20:
        n = rng.choice((2, 3))
        rays = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n)]
        if any(all(x == 0 for x in r) for r in rays):
            continue
        sigma = cone_from_rays(rays)
        if sigma.dim != n or len(sigma.rays) != n:
            continue
        grading = tuple(rng.randint(1, 3) for _ in range(n))
        ps = poincare_series(sigma, grading, 4)
        assert ps.infinity_value == (-1) ** n
        done += 1


def test_poincare_rejects_nonpositive_grading():
    with pytest.raises(InputError):
        poincare_series(cone_from_rays([(1, 0), (0, 1)]), (1, 0), 4)


# ---------------------------------------------------------------------------
# Classes in the quotient
# ---------------------------------------------------------------------------

def test_class_nonzero_examples():
    face = edge_face("x1^2 + x2^3")
    fc = face_cone(face)
    params = select_parameters(face_derivatives(poly("x1^2 + x2^3"), face), fc)
    q = canonical_quotient(fc, params)
    assert class_nonzero(poly("x1^2*x2^3"), q)
    assert not class_nonzero(poly("x1^3*x2"), q)
    assert not class_nonzero(SparsePoly.zero(2), q)
    with pytest.raises(InputError):
        class_nonzero(poly("x1*x2 + x1^2*x2^3"), q)  # inhomogeneous


@pytest.mark.parametrize("text", ["x1^2 + x2^3", "x1^4 + x1^2*x2^2 + x2^5",
                                  "x1^2+x2^3+x3^4",
                                  "x1^3+x2^3+x3^3+x1*x2*x3"])
def test_class_nonzero_at_the_socle_degree_matches_the_dense_image(text):
    # at the socle degree class_nonzero reads the echelon canonical_quotient
    # kept; the dense oracle eliminates the image afresh
    f = poly(text)
    rng = random.Random(5)
    for face in RunContext(f).admissible_faces:
        fc = face_cone(face)
        params = select_parameters(face_derivatives(f, face), fc)
        q = canonical_quotient(fc, params)
        degs = [_parameter_degree(p, q.grading) for p in params]
        rows, piece = image_rows(fc.sigma, q.grading, params, sum(degs), degs)
        rank = len(rref(rows)[1])
        for _ in range(12):
            g = SparsePoly(f.nvars, {m: rng.choice((-2, -1, 1, 3))
                                     for m in rng.sample(piece, 2)}
                           if len(piece) > 1 else {piece[0]: 1})
            row = tuple(Fraction(g.coeff(m)) for m in piece)
            assert class_nonzero(g, q) == (len(rref(rows + [row])[1]) > rank)


def test_class_nonzero_scalar_invariant():
    face = edge_face("x1^2 + x2^3")
    fc = face_cone(face)
    params = select_parameters(face_derivatives(poly("x1^2 + x2^3"), face), fc)
    q = canonical_quotient(fc, params)
    rng = random.Random(4)
    for mono in ("x1*x2", "x1^2*x2^3", "x1^2*x2", "x1*x2^2"):
        g = poly(mono)
        base = class_nonzero(g, q)
        for _ in range(5):
            c = Fraction(rng.randint(1, 30), rng.randint(1, 7))
            assert class_nonzero(g.scale(c), q) == base
            assert class_nonzero(g.scale(-c), q) == base
