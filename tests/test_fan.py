import io
import json
import math
import os
import random
from itertools import combinations
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from newton_socle import (SparsePoly, cone_from_rays, dual_fan,
                          fan_from_json, interior_rays, is_regular,
                          multiplicity, newton_polyhedron, regularize,
                          support_function)
from newton_socle import fan as fanmod
from newton_socle.cli import main
from newton_socle.errors import (InputError, RegularizationError,
                                 VerificationError)
from newton_socle.fan import (_triangulates_orthant, cone_faces,
                              dual_fan_of_faces, face_normal_cone,
                              fan_from_cones, validate_fan)
from newton_socle.linalg import det, dot, solve
from newton_socle.polylattice import faces

from conftest import FAMILY, poly, supports
from face_oracles import (brute_cone_faces, brute_meets_in_faces,
                          double_polar_cone, eager_fan, hull_hj_chain,
                          inequality_normal_cone, regularize_3d,
                          unvalidated_fan)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from perfbench.workloads import SURFACES, k_support  # noqa: E402


@given(supports(max_vars=3, convenient=True))
@settings(max_examples=20, deadline=None)
def test_cone_faces_match_brute_force_oracle_on_fans(f):
    n = f.nvars
    D = newton_polyhedron(f)
    assume(len(D.facets) <= 12)
    fan = dual_fan(D)
    cones = list(fan.cones)
    try:
        cones += regularize(fan).maximal_cones()
    except RegularizationError:
        pass
    for c in cones:
        assert cone_faces(c, n) == brute_cone_faces(c, n)


@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_cone_faces_match_brute_force_oracle_with_lineality(vectors):
    # mixed signs give cones with lineality, the zero cone and the whole space
    c = cone_from_rays(vectors)
    assert cone_faces(c, 3) == brute_cone_faces(c, 3)


@st.composite
def generator_lists(draw):
    """Generators in 1-4 dimensions, mixed-sign half the time (lineality,
    the zero cone, the whole space), padded with duplicates, positive
    multiples and sums of drawn generators, which are never extreme unless
    parallel to one."""
    n = draw(st.integers(1, 4))
    low = draw(st.sampled_from([0, -2]))
    vec = st.tuples(*[st.integers(low, 3)] * n)
    gens = draw(st.lists(vec, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["duplicate", "multiple", "sum"]))
        a = draw(st.sampled_from(gens))
        if kind == "duplicate":
            gens.append(a)
        elif kind == "multiple":
            k = draw(st.integers(2, 4))
            gens.append(tuple(k * x for x in a))
        else:
            b = draw(st.sampled_from(gens))
            gens.append(tuple(x + y for x, y in zip(a, b)))
    return draw(st.permutations(gens))


@given(generator_lists())
@settings(max_examples=300, deadline=None)
def test_cone_from_rays_matches_double_polar_oracle(gens):
    assert cone_from_rays(gens) == double_polar_cone(gens)


RAY_POOL_3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
              (0, 1, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)]


@given(st.lists(st.lists(st.sampled_from(RAY_POOL_3), min_size=1, max_size=4,
                         unique=True),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_validate_fan_matches_pairwise_oracle(cone_rays):
    # validate_fan checks the orthant, a full-dimensional cone, the fan
    # axiom, then the support; the oracle checks the fan axiom on all pairs
    fan = unvalidated_fan(3, [cone_from_rays(c) for c in cone_rays])
    assume(fan.maximal_cones())
    try:
        validate_fan(fan)
        axiom_holds = True
    except VerificationError as exc:
        axiom_holds = str(exc).startswith("support is not the orthant")
    assert axiom_holds == brute_meets_in_faces(fan)


def test_validate_fan_rejects_a_cone_inside_another_but_not_a_face():
    # (1, 0, 0) and (0, 1, 1) are opposite corners of the quadrilateral cone
    quad = cone_from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    diagonal = cone_from_rays([(1, 0, 0), (0, 1, 1)])
    top = cone_from_rays([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    with pytest.raises(VerificationError, match="not one of its faces"):
        fan_from_cones(3, [quad, top, diagonal])
    # without the diagonal the two cones make a fan of the orthant
    assert len(fan_from_cones(3, [quad, top]).maximal_cones()) == 2


def test_fan_validation_rejects_each_dropped_cone_in_3d():
    reg = regularize(dual_fan(newton_polyhedron(poly("x1^2 + x2^3 + x3^4"))))
    maxs = reg.maximal_cones()
    assert len(maxs) == 13
    for i in range(len(maxs)):
        with pytest.raises(VerificationError,
                           match="support is not the orthant"):
            fan_from_cones(3, maxs[:i] + maxs[i + 1:])


def _units(n):
    return [tuple(int(i == k) for k in range(n)) for i in range(n)]


STELLAR_POOLS = {
    3: [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1),
        (1, 1, 2), (2, 1, 0)],
    4: [(1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 1, 0),
        (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 0), (0, 1, 1, 2)],
}


def _star_subdivide(simplices, point):
    """Each cone that holds the point trades each ray on which the point has
    a positive coefficient for the point."""
    out = []
    for t in simplices:
        coeffs = solve([tuple(r[k] for r in t) for k in range(len(point))],
                       point)
        if any(x < 0 for x in coeffs):
            out.append(t)
            continue
        out += [tuple(sorted(t[:i] + (point,) + t[i + 1:]))
                for i, x in enumerate(coeffs) if x > 0]
    return out


def _star_subdivided_orthant(n, points):
    simplices = [tuple(sorted(_units(n)))]
    for p in points:
        simplices = _star_subdivide(simplices, p)
    return sorted(set(simplices))


@st.composite
def simplicial_cone_sets(draw, n):
    """The maximal cones of a star-subdivided n-orthant, as they are or with
    one cone dropped, one simplicial cone added, or a second subdivision
    laid over them (which covers the orthant twice)."""
    def triangulation():
        return _star_subdivided_orthant(n, draw(st.lists(
            st.sampled_from(STELLAR_POOLS[n]), max_size=2, unique=True)))

    simplices = triangulation()
    kind = draw(st.sampled_from(["none", "drop", "add", "overlay"]))
    if kind == "drop" and len(simplices) > 1:
        simplices.pop(draw(st.integers(0, len(simplices) - 1)))
    elif kind == "add":
        rays = draw(st.lists(st.sampled_from(_units(n) + STELLAR_POOLS[n]),
                             min_size=n, max_size=n, unique=True))
        assume(det(rays) != 0)
        simplices.append(tuple(sorted(rays)))
    elif kind == "overlay":
        simplices += triangulation()
    return [cone_from_rays(list(t)) for t in simplices]


def _check_simplicial_against_pairwise(n, cones):
    """The facet-pair criterion accepts exactly the fans validate_fan
    accepts, and a fan it rejects fails with validate_fan's own message.
    Returns that message, or None for a fan."""
    fan = unvalidated_fan(n, cones)
    try:
        validate_fan(fan)
        pairwise = None
    except VerificationError as exc:
        pairwise = str(exc)
    assert _triangulates_orthant(n, fan.maximal_cones()) == (pairwise is None)
    try:
        assert fan_from_cones(n, cones) == fan
        message = None
    except VerificationError as exc:
        message = str(exc)
    assert message == pairwise
    return message


@pytest.mark.parametrize("n", [3, 4])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_simplicial_fans_match_the_pairwise_route(n, data):
    cones = data.draw(simplicial_cone_sets(n))
    fan = unvalidated_fan(n, cones)
    if _check_simplicial_against_pairwise(n, cones) is None:
        assert brute_meets_in_faces(fan)


@pytest.mark.parametrize("n, points", [
    (3, [(1, 1, 1), (2, 1, 1)]),
    (4, [(1, 1, 1, 1), (1, 1, 0, 0), (2, 1, 1, 1)]),
])
def test_simplicial_validation_of_a_subdivided_orthant(n, points):
    simplices = _star_subdivided_orthant(n, points)
    cones = [cone_from_rays(list(t)) for t in simplices]
    assert _check_simplicial_against_pairwise(n, cones) is None
    if n == 4:
        assert brute_meets_in_faces(fan_from_cones(n, cones))
    for i in range(len(cones)):
        message = _check_simplicial_against_pairwise(
            n, cones[:i] + cones[i + 1:])
        assert message.startswith("support is not the orthant")


@pytest.mark.parametrize("n", [3, 4])
def test_simplicial_validation_rejects_a_double_cover(n):
    # two subdivisions of the orthant with no (n-1)-face in common: every
    # facet pairs up, but each generic point lies in two cones
    fine = _star_subdivided_orthant(n, [
        tuple(int(k in pair) for k in range(n))
        for pair in combinations(range(n), 2)])
    coarse = _star_subdivided_orthant(n, [(1,) * n])
    cones = [cone_from_rays(list(t)) for t in fine + coarse]
    assert not _triangulates_orthant(n, cones)
    with pytest.raises(VerificationError, match="intersection of two cones"):
        fan_from_cones(n, cones)
    _check_simplicial_against_pairwise(n, cones)


def test_simplicial_closure_matches_cone_faces():
    reg = regularize(dual_fan(newton_polyhedron(poly("x1^2 + x2^3 + x3^4"))))
    closed = {f for c in reg.maximal_cones() for f in cone_faces(c, 3)}
    assert set(reg.cones) == closed and len(reg.cones) == len(closed)


@pytest.mark.parametrize("text", ["x1^2 + x2^5", "x1^8 + x1^3*x2^2 + x2^9",
                                  "x1^2 + x2^3 + x3^4", "x1^5+x2^6+x3^7",
                                  "x1^2+x2^2+x3^3+x4^3"])
def test_lazy_face_closure_matches_the_eager_one(text):
    f = poly(text)
    reg = regularize(dual_fan(newton_polyhedron(f)))
    assert "cones" not in vars(reg)
    eager = eager_fan(f.nvars, reg.maximal_cones())
    assert reg.maximal_cones() == eager.maximal_cones()
    assert reg.rays == eager.rays
    assert reg.cones == eager.cones and reg == eager


@pytest.mark.parametrize("text", ["x1^2 + x2^2", "x1^3 + x2^3",
                                  "x1^2+x2^2+x3^2", "x1^3+x2^3+x3^3",
                                  "x1^2+x2^2+x3^2+x4^2"])
def test_regularizing_a_regular_dual_fan_builds_no_cone(monkeypatch, text):
    fan = dual_fan(newton_polyhedron(poly(text)))
    assert is_regular(fan)

    def no_cone(rays):
        raise AssertionError("built the cone of %r" % (rays,))

    monkeypatch.setattr(fanmod, "cone_from_rays", no_cone)
    reg = regularize(fan)
    assert reg.to_json() == fan.to_json()


def test_fan_routes_make_few_double_descriptions(monkeypatch):
    calls = []
    real = fanmod.polar_generators

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(fanmod, "polar_generators", counting)
    with redirect_stdout(io.StringIO()):
        assert main(["verify-all", "--poly", "x1^2+x2^3+x3^4",
                     "--seed", "1"]) == 0
    # the dual fan's 10 normal cones; the regular fan's faces are not built
    assert len(calls) <= 10
    D = newton_polyhedron(SparsePoly.from_json(json.loads(k_support(10))))
    calls.clear()
    fan = dual_fan(D)
    assert len(calls) <= 46
    assert len(fan.cones) == len(faces(D))


# ---------------------------------------------------------------------------
# The dual fan
# ---------------------------------------------------------------------------

@given(supports(max_vars=3))
@settings(max_examples=60, deadline=None)
def test_face_normal_cone_matches_inequality_route(f):
    # supports that miss an axis give faces with recession axes
    D = newton_polyhedron(f)
    for face in faces(D):
        assert face_normal_cone(D, face) == inequality_normal_cone(D, face)


def test_dual_fan_of_faces_checks_the_face_list():
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    fs = faces(D)
    with pytest.raises(VerificationError, match="two faces share"):
        dual_fan_of_faces(D, fs + fs[:1])
    with pytest.raises(VerificationError, match="zero normal cone"):
        dual_fan_of_faces(D, [f for f in fs if f.dim < 2])


def test_dual_fan_of_cusp():
    fan = dual_fan(newton_polyhedron(poly("x1^2 + x2^3")))
    assert fan.rays == ((0, 1), (1, 0), (3, 2))
    assert sorted(c.rays for c in fan.maximal_cones()) == \
        [((0, 1), (3, 2)), ((1, 0), (3, 2))]


def test_dual_fan_of_monomial_is_coordinate_fan():
    fan = dual_fan(newton_polyhedron(poly("x1*x2")))
    assert fan.rays == ((0, 1), (1, 0))
    assert [c.rays for c in fan.maximal_cones()] == [((0, 1), (1, 0))]


def test_dual_fan_three_vertices():
    fan = dual_fan(newton_polyhedron(poly("x1^2 + x1*x2 + x2^3")))
    assert fan.rays == ((0, 1), (1, 0), (1, 1), (2, 1))


def test_dual_fan_cones_biject_with_faces(family_polyhedra):
    for _, D in family_polyhedra:
        fan = dual_fan(D)
        fs = faces(D)
        assert len(fan.cones) == len(fs)
        dims = sorted(c.dim for c in fan.cones)
        assert dims == sorted(D.nvars - f.dim for f in fs)


def test_support_function_linear_on_dual_fan_cones():
    rng = random.Random(5)
    D = newton_polyhedron(poly("x1^2 + x1*x2 + x2^3"))
    fan = dual_fan(D)
    for c in fan.maximal_cones():
        for _ in range(10):
            ca = [rng.randint(0, 3) for _ in c.rays]
            cb = [rng.randint(0, 3) for _ in c.rays]
            a = tuple(sum(t * r[k] for t, r in zip(ca, c.rays))
                      for k in range(2))
            b = tuple(sum(t * r[k] for t, r in zip(cb, c.rays))
                      for k in range(2))
            ab = tuple(x + y for x, y in zip(a, b))
            assert support_function(D, ab) == \
                support_function(D, a) + support_function(D, b)


def test_dual_fan_rejects_subdivided_boundary():
    f = poly("x1^2 + x2^3 + x3^2*x1 + x3^2*x2")
    with pytest.raises(InputError):
        dual_fan(newton_polyhedron(f))


# ---------------------------------------------------------------------------
# Regularization
# ---------------------------------------------------------------------------

def test_regularize_inserts_mediant():
    fan = fan_from_json({"rays": [[1, 0], [1, 2], [0, 1]],
                         "cones": [[0, 1], [1, 2]]})
    assert not is_regular(fan)
    reg = regularize(fan)
    assert (1, 1) in reg.rays
    assert is_regular(reg)


def test_regularize_identity_on_regular():
    fan = dual_fan(newton_polyhedron(poly("x1^2 + x1*x2 + x2^3")))
    assert is_regular(fan)
    assert regularize(fan).rays == fan.rays


def test_regularize_cusp_fan():
    fan = dual_fan(newton_polyhedron(poly("x1^2 + x2^3")))
    reg = regularize(fan)
    assert reg.rays == ((0, 1), (1, 0), (1, 1), (2, 1), (3, 2))
    assert is_regular(reg)


def test_regularize_properties_random_2d():
    rng = random.Random(99)
    for _ in range(12):
        supp = {(rng.randint(0, 6), 0), (0, rng.randint(0, 6))} | {
            (rng.randint(0, 6), rng.randint(0, 6)) for _ in range(4)}
        f = SparsePoly(2, {e: 1 for e in supp})
        fan = dual_fan(newton_polyhedron(f))
        reg = regularize(fan)
        assert is_regular(reg)
        assert set(fan.rays) <= set(reg.rays)
        assert (1, 0) in reg.rays and (0, 1) in reg.rays
        for c in reg.maximal_cones():
            assert any(all(big.contains(r) for r in c.rays)
                       for big in fan.maximal_cones())


@st.composite
def quadrant_cones(draw):
    """``(u, v)``: primitive vectors of the closed quadrant, u before v
    counterclockwise, with det(u, v) at most 200; either may be an axis."""
    ray = st.one_of(st.sampled_from([(1, 0), (0, 1)]),
                    st.tuples(st.integers(0, 20), st.integers(0, 20)))
    u, v = draw(ray), draw(ray)
    assume(math.gcd(*u) == 1 and math.gcd(*v) == 1)
    d = u[0] * v[1] - u[1] * v[0]
    assume(d and abs(d) <= 200)
    return (u, v) if d > 0 else (v, u)


@given(quadrant_cones())
@settings(max_examples=300, deadline=None)
def test_hj_chain_matches_hull_oracle(cone):
    u, v = cone
    assert fanmod._hj_chain(u, v) == hull_hj_chain(u, v)


def test_regularize_3d_stellar():
    fan = fan_from_json({"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 2]],
                         "cones": [[0, 1, 3], [0, 2, 3], [1, 2, 3]]})
    assert not is_regular(fan)
    reg = regularize(fan)
    assert is_regular(reg)
    assert set(fan.rays) <= set(reg.rays)


@pytest.mark.parametrize("text", [f for f in FAMILY if "x3" in f]
                         + [item["poly"] for item in SURFACES]
                         + ["x1^5+x2^6+x3^7"])
def test_regularize_3d_matches_the_stellar_oracle(text):
    fan = dual_fan(newton_polyhedron(poly(text)))
    assert regularize(fan).to_json() == regularize_3d(fan).to_json()


@st.composite
def convenient_3var(draw):
    """x1^a + x2^b + x3^c with a, b, c in 2..7, plus at most 3 other terms
    of degree >= 2; about a quarter have a non-simplicial maximal cone."""
    terms = {tuple(draw(st.integers(2, 7)) * (i == j) for j in range(3)): 1
             for i in range(3)}
    others = st.tuples(*[st.integers(0, 4)] * 3).filter(lambda e: sum(e) >= 2)
    terms.update({e: 1 for e in draw(st.lists(others, max_size=3))})
    return SparsePoly(3, terms)


@given(convenient_3var())
@settings(max_examples=40, deadline=None)
def test_regularize_3d_matches_the_stellar_oracle_on_random_inputs(f):
    fan = dual_fan(newton_polyhedron(f))
    assert regularize(fan).to_json() == regularize_3d(fan).to_json()


@pytest.mark.parametrize("text", [
    "x1^2+x2^2+x3^3+x4^3",
    "x1^3+x2^4+x3^5+x4^6",
    # non-simplicial maximal cones that share a non-simplicial facet
    "x1^2+x2^3+x3^3+x4^2+x2*x3",
    "x1^5+x2^2+x3^5+x4^2+x1*x3*x4",
    "x1^2+x2^2+x3^3+x4^3+x5^4",
])
def test_regularize_beyond_three_variables(text):
    f = poly(text)
    n = f.nvars
    fan = dual_fan(newton_polyhedron(f))
    reg = regularize(fan)
    maxs = reg.maximal_cones()
    assert all(abs(det(list(c.rays))) == 1 for c in maxs)
    assert _triangulates_orthant(n, maxs)
    for c in maxs:
        assert any(all(big.contains(r) for r in c.rays)
                   for big in fan.maximal_cones())
    assert set(fan.rays) <= set(reg.rays)


def test_fan_regular_in_four_variables_exits_0():
    with redirect_stdout(io.StringIO()) as out:
        assert main(["fan", "--poly", "x1^2+x2^2+x3^3+x4^3",
                     "--regular"]) == 0
    rep = json.loads(out.getvalue())
    assert len(rep["regular_fan"]["cones"]) == 12


def test_stellar_cap_exits_3_and_names_the_cap(monkeypatch, capsys):
    # x1^2 + x2^3 + x3^4 needs 5 stellar steps
    monkeypatch.setattr(fanmod, "STELLAR_STEPS", 2)
    assert main(["fan", "--poly", "x1^2+x2^3+x3^4", "--regular"]) == 3
    err = capsys.readouterr().err
    assert "cap of 2 steps" in err and "singular cones left" in err
    with pytest.raises(RegularizationError, match="cap of 2 steps"):
        regularize(dual_fan(newton_polyhedron(poly("x1^2+x2^3+x3^4"))))


def test_is_regular_examples():
    assert is_regular(fan_from_json({"rays": [[1, 0], [0, 1]],
                                     "cones": [[0, 1]]}))
    assert not is_regular(fan_from_json({"rays": [[1, 0], [1, 2], [0, 1]],
                                         "cones": [[0, 1], [1, 2]]}))


# ---------------------------------------------------------------------------
# Multiplicities and rays
# ---------------------------------------------------------------------------

def test_multiplicity_examples():
    f = poly("x1^2 + x2^3")
    assert multiplicity((3, 2), f) == 6
    assert multiplicity((1, 0), f) == 0
    g = poly("x1^2*x2^5")
    assert multiplicity((4, 7), g) == 2 * 4 + 5 * 7
    with pytest.raises(InputError):
        multiplicity((1, 1), SparsePoly.zero(2))


def test_interior_rays_cusp():
    f = poly("x1^2 + x2^3")
    reg = regularize(dual_fan(newton_polyhedron(f)))
    rays = interior_rays(reg, f)
    assert [r.generator for r in rays] == [(1, 1), (2, 1), (3, 2)]
    assert [r.multiplicity for r in rays] == [2, 3, 6]
    assert rays[2].normalized == (Fraction(1, 2), Fraction(1, 3))


def test_interior_rays_coordinate_fan_empty():
    f = poly("x1*x2")
    fan = fan_from_json({"rays": [[1, 0], [0, 1]], "cones": [[0, 1]]})
    assert interior_rays(fan, f) == []


def test_interior_rays_needs_coordinate_rays():
    fan = fan_from_cones(2, [cone_from_rays([(1, 0), (1, 1)]),
                             cone_from_rays([(1, 1), (0, 1)])])
    bad = unvalidated_fan(2, [cone_from_rays([(1, 2), (1, 0)])])
    with pytest.raises(InputError):
        interior_rays(bad, poly("x1 + x2"))
    assert [r.generator for r in interior_rays(fan, poly("x1*x2"))] == [(1, 1)]


def test_normalized_covector_cuts_out_face(family_polyhedra):
    for f, D in family_polyhedra:
        if D.nvars != 2:
            continue
        reg = regularize(dual_fan(D))
        for rd in interior_rays(reg, f):
            mins = [v for v in D.vertices
                    if dot(rd.generator, v) == rd.multiplicity]
            assert mins, "normalized form must attain 1 on the polyhedron"
            matches = [face for face in faces(D)
                       if sorted(face.vertices()) == sorted(mins)
                       and face.compact]
            assert len(matches) == 1


def test_fan_json_round_trip():
    fan = dual_fan(newton_polyhedron(poly("x1^2 + x2^3")))
    again = fan_from_json(fan.to_json())
    assert again.rays == fan.rays
    assert sorted(c.rays for c in again.maximal_cones()) == \
        sorted(c.rays for c in fan.maximal_cones())
