"""Cross-cutting stress tests: certificate checks on random inputs and
independent consistency properties between modules."""

import random
from fractions import Fraction

import pytest

from newton_socle import (SparsePoly, buchberger, cone_from_rays,
                          fan_from_json, grothendieck_residue, is_regular,
                          newton_polyhedron, poincare_series, regularize)
from newton_socle.errors import VerificationError
from newton_socle.grobner import leading_monomial, normal_form
from newton_socle.linalg import dot, rank, solve

from conftest import poly


def test_hull_certificates_random_3d():
    rng = random.Random(314)
    for _ in range(15):
        supp = {(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(1, 6))}
        f = SparsePoly(3, {e: 1 for e in supp})
        D = newton_polyhedron(f)
        # every support point satisfies every inequality
        for m in supp:
            assert D.contains(m)
        # each facet is tight on an (n-1)-dimensional set of vertices and
        # recession directions
        n = 3
        for fc in D.facets:
            spanning = []
            tight_verts = [v for v in D.vertices if dot(fc.normal, v) == fc.offset]
            assert tight_verts
            v0 = tight_verts[0]
            spanning += [tuple(a - b for a, b in zip(v, v0))
                         for v in tight_verts[1:]]
            spanning += [tuple(int(i == k) for k in range(n))
                         for i in range(n) if fc.normal[i] == 0]
            assert rank(spanning) == n - 1
        # each vertex is a support point tight on n independent facets
        for v in D.vertices:
            assert v in supp


def test_groebner_spolys_reduce_to_zero():
    rng = random.Random(5)
    for trial in range(8):
        n = rng.choice((2, 3))
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {tuple(rng.randint(0, 2) for _ in range(n)):
                     Fraction(rng.randint(-3, 3)) for _ in range(3)}
            g = SparsePoly(n, terms)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        gb = buchberger(gens)
        basis = [dict(b) for b in gb.basis]
        for i in range(len(basis)):
            for j in range(i):
                f, g = basis[i], basis[j]
                lf, lg = leading_monomial(f), leading_monomial(g)
                l = tuple(max(a, b) for a, b in zip(lf, lg))
                sf = {tuple(e + q for e, q in zip(m, tuple(a - b for a, b in zip(l, lf)))): c / f[lf]
                      for m, c in f.items()}
                sg = {tuple(e + q for e, q in zip(m, tuple(a - b for a, b in zip(l, lg)))): c / g[lg]
                      for m, c in g.items()}
                spoly = dict(sf)
                for m, c in sg.items():
                    spoly[m] = spoly.get(m, Fraction(0)) - c
                spoly = {m: c for m, c in spoly.items() if c}
                assert not normal_form(spoly, basis)
        # and every input generator reduces to zero
        for g in gens:
            assert gb.contains(g)


def test_residue_invariant_under_ideal_shifts():
    rng = random.Random(77)
    system = [poly("2*x1^2 + x1*x2", nvars=2), poly("x1*x2 + 3*x2^3", nvars=2)]
    g = poly("x1*x2^2 + 2*x1^2", nvars=2)
    base = grothendieck_residue(g, system).value
    for _ in range(5):
        q0 = SparsePoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            Fraction(rng.randint(-3, 3))})
        q1 = SparsePoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            Fraction(rng.randint(-3, 3))})
        shifted = g + q0 * system[0] + q1 * system[1]
        assert grothendieck_residue(shifted, system).value == base


def test_fan_validation_rejects_overlap():
    with pytest.raises(VerificationError):
        fan_from_json({"rays": [[1, 0], [1, 1], [1, 2], [0, 1]],
                       "cones": [[0, 2], [1, 3]]})


def test_fan_validation_rejects_gap():
    with pytest.raises(VerificationError):
        fan_from_json({"rays": [[1, 0], [1, 1]], "cones": [[0, 1]]})


def test_hj_chain_long_cone():
    fan = fan_from_json({"rays": [[1, 0], [1, 12], [0, 1]],
                         "cones": [[0, 1], [1, 2]]})
    reg = regularize(fan)
    assert is_regular(reg)
    assert set((1, k) for k in range(13)) <= set(reg.rays)


def test_stellar_subdivision_det_five():
    fan = fan_from_json({"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 5]],
                         "cones": [[0, 1, 3], [0, 2, 3], [1, 2, 3]]})
    reg = regularize(fan)
    assert is_regular(reg)
    for c in reg.maximal_cones():
        assert any(all(big.contains(r) for r in c.rays)
                   for big in fan.maximal_cones())


def test_poincare_non_simplicial_cone():
    square_cone = cone_from_rays([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert len(square_cone.rays) == 4 and square_cone.dim == 3
    ps = poincare_series(square_cone, (0, 0, 1), 4)
    assert ps.numerator is None
    # interior points at height h form an (h-1) x (h-1) grid
    assert ps.module_dims == {Fraction(h): (h - 1) ** 2 for h in (2, 3, 4)}
    assert ps.ring_dims[Fraction(1)] == 4


def test_socle_order_on_weighted_homogeneous_mix():
    # an extra polynomial beyond the regression family, mixing two facets
    from newton_socle import socle_newton_order
    rep = socle_newton_order(poly("x1^3 + x1*x2^2 + x2^4"))
    assert rep["match"]
    rep2 = socle_newton_order(poly("x1^5 + x1*x2 + x2^5"))
    assert rep2["match"]


def _staircase_area_doubled(D):
    """Twice the area between the axes and the compact part of the boundary,
    by the shoelace formula on the path 0 -> x-intercept -> ... -> y-intercept."""
    verts = sorted(D.vertices, key=lambda v: (v[0], -v[1]), reverse=True)
    cycle = [(0, 0)] + verts
    total = 0
    for (x1, y1), (x2, y2) in zip(cycle, cycle[1:] + cycle[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total)


def test_colength_matches_newton_number_2d():
    """For nondegenerate plane singularities the Jacobian colength equals
    2*Area - a - b + 1 read off the Newton diagram (exact, both sides)."""
    from newton_socle import certified_ideal, ideal_generators, nondegenerate
    cases = ["x1^2 + x2^3", "x1^2 + x2^2", "x1^2 + x1*x2 + x2^3",
             "x1^3 + x2^3", "x1^2 + x2^5", "x1^3 + x1*x2^2 + x2^4",
             "x1^5 + x1*x2 + x2^5", "x1^4 + x2^4"]
    for text in cases:
        f = poly(text)
        assert nondegenerate(f)
        D = newton_polyhedron(f)
        a = max(v[0] for v in D.vertices)
        b = max(v[1] for v in D.vertices)
        expected = _staircase_area_doubled(D) - a - b + 1
        span = certified_ideal(ideal_generators(f)[1])
        colength = len(span.quotient_basis())
        assert colength == expected, (text, colength, expected)


def test_colength_matches_newton_number_3d():
    from newton_socle import certified_ideal, ideal_generators
    # the ordinary double point: Newton number 1
    f = poly("x1^2 + x2^2 + x3^2")
    span = certified_ideal(ideal_generators(f)[1])
    assert len(span.quotient_basis()) == 1
    # Fermat cubic in three variables: (3-1)^3 = 8
    g = poly("x1^3 + x2^3 + x3^3")
    span_g = certified_ideal(ideal_generators(g)[1])
    assert len(span_g.quotient_basis()) == 8


def test_nonzero_face_classes_stay_outside_ideals():
    """Monomials with a nonzero class modulo the face derivatives cannot fall
    into the log-Jacobian ideal after multiplying by f^r; dividing out
    x1...xn transports the statement to the Jacobian ideal."""
    from newton_socle import certified_ideal, ideal_generators, member

    # edge face of the cusp, r = 0: xy^2 survives in the quotient, so it is
    # not in (x f_x, y f_y), and y is not in (f_x, f_y)
    f = poly("x1^2 + x2^3")
    log_span = certified_ideal(ideal_generators(f)[0])
    jac_span = certified_ideal(ideal_generators(f)[1])
    assert not member(poly("x1*x2^2"), log_span)
    assert not member(poly("x2", nvars=2), jac_span)

    # vertex face of x^2+xy+y^3, r = 1: the unit class is nonzero modulo
    # (xy), so f itself must stay outside (x f_x, y f_y)
    g = poly("x1^2 + x1*x2 + x2^3")
    log_g = certified_ideal(ideal_generators(g)[0])
    assert not member(g, log_g)
    # while f^2 has Newton order 2 = n and strictly interior multiples enter
    assert member(g * g * poly("x1*x2"), log_g)


def test_full_pipeline_on_random_plane_singularities():
    """Random supports with the axis condition, generic small coefficients:
    whenever the sample is nondegenerate, the socle Newton order, the
    multiplication map, and the per-face residues must all come out as the
    theory demands."""
    from newton_socle import (canonical_quotient, compact_faces, face_cone,
                              face_derivatives, jacobian_multiplication_check,
                              nondegenerate, select_parameters,
                              socle_newton_order, verify_residue_nonvanishing)
    from newton_socle.errors import InputError

    rng = random.Random(60309)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 120:
        attempts += 1
        supp = {(rng.randint(2, 4), 0), (0, rng.randint(2, 4))}
        supp |= {(rng.randint(0, 3), rng.randint(0, 3))
                 for _ in range(rng.randint(0, 2))}
        supp.discard((0, 0))
        supp.discard((1, 0))
        supp.discard((0, 1))
        f = SparsePoly(2, {e: rng.choice((1, -1)) * rng.randint(1, 4)
                           for e in supp})
        if f.order() < 2 or not nondegenerate(f):
            continue
        checked += 1
        assert socle_newton_order(f)["match"], str(f)
        assert jacobian_multiplication_check(f)["ok"], str(f)
        D = newton_polyhedron(f)
        for face in compact_faces(D):
            if face.in_coordinate_hyperplane:
                continue
            fc = face_cone(face)
            params = select_parameters(face_derivatives(f, face), fc)
            quotient = canonical_quotient(fc, params)
            assert quotient.socle_degree == 2 - fc.r, str(f)
            for b in quotient.socle_basis:
                exps = b.support()[0]
                h = SparsePoly.monomial(tuple(e - 1 for e in exps))
                res = verify_residue_nonvanishing(f, face, h, fc.r)
                assert res.value != 0 and res.stable, (str(f), str(h))
    assert checked == 8


def test_one_variable_pipeline():
    """Everything must degrade gracefully to one variable: the polyhedron is
    a half-line, the fan is the coordinate fan, and the socle order of x^k is
    (k-1)/k = 1 - nu(x)."""
    from newton_socle import (dual_fan, is_regular, jacobian_multiplication_check,
                              newton_order, nondegenerate, socle_newton_order)
    f = poly("x1^3")
    D = newton_polyhedron(f)
    assert D.vertices == ((3,),) and D.facets[0].offset == 3
    fan = dual_fan(D)
    assert fan.rays == ((1,),) and is_regular(fan)
    assert newton_order(poly("x1"), D) == Fraction(1, 3)
    assert nondegenerate(f)
    rep = socle_newton_order(f)
    assert rep["nu_socle"] == Fraction(2, 3) and rep["match"]
    assert rep["socle_basis"] == ["x1^2"]
    assert jacobian_multiplication_check(f)["ok"]


def test_socle_degree_adds_parameter_degrees():
    # mixed-degree parameters on the orthant under the unit grading: the
    # quotient's top degree is the sum of the parameter degrees
    from newton_socle import canonical_quotient, cone_from_rays
    from newton_socle.facering import grading_from_covector
    sigma = cone_from_rays([(1, 0), (0, 1)])
    grading = grading_from_covector((1, 1), sigma)
    params = [SparsePoly.monomial((2, 0)), SparsePoly.monomial((0, 3))]
    q = canonical_quotient(sigma, params, grading=grading)
    assert q.socle_degree == 5
    assert {b.support()[0] for b in q.socle_basis} == {(2, 3)}
    assert sum(q.graded_dims.values()) == 6
