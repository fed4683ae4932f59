import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from newton_socle import (SparsePoly, compact_faces, grothendieck_residue,
                          ideal_generators, koszul_check,
                          koszul_top_dimension, lattice_space,
                          monomial_residue, newton_polyhedron,
                          normalized_volume, trace_volume_check,
                          verify_residue_nonvanishing, volume_by_lattice_count)
from newton_socle.errors import InputError
from newton_socle.linalg import det
from newton_socle.residue import random_section

from conftest import poly
from residue_oracles import transformation_law_residue

TRIANGLE = [(0, 0), (2, 0), (0, 3)]
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
CUBE = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def edge_face(f_text):
    D = newton_polyhedron(poly(f_text))
    return [fc for fc in compact_faces(D)
            if fc.dim == 1 and not fc.in_coordinate_hyperplane][0]


def vertex_face(f_text):
    D = newton_polyhedron(poly(f_text))
    return [fc for fc in compact_faces(D)
            if fc.dim == 0 and not fc.in_coordinate_hyperplane][0]


# ---------------------------------------------------------------------------
# Monomial residues
# ---------------------------------------------------------------------------

def test_monomial_residue_examples():
    assert monomial_residue(poly("1", nvars=2), (1, 1)) == 1
    assert monomial_residue(poly("x1*x2"), (2, 2)) == 1
    assert monomial_residue(poly("x1^3 + 5*x1^2*x2"), (3, 2)) == 5
    assert monomial_residue(poly("x1^3"), (1, 1)) == 0
    with pytest.raises(InputError):
        monomial_residue(poly("x1"), (0, 1))


# ---------------------------------------------------------------------------
# The residue as the trace functional of the quotient
# ---------------------------------------------------------------------------

def test_residue_monomial_denominators():
    r = grothendieck_residue(poly("x1*x2^2"),
                             [poly("2*x1^2", nvars=2),
                              poly("3*x2^3", nvars=2)])
    assert r.value == Fraction(1, 6)
    assert r.stable


def test_residue_linear_forms():
    r = grothendieck_residue(poly("1", nvars=2),
                             [poly("2*x1 + x2"), poly("x1 + 2*x2")])
    assert r.value == Fraction(1, 3)


def test_residue_agrees_with_monomial_case():
    rng = random.Random(8)
    for _ in range(5):
        a = (rng.randint(1, 3), rng.randint(1, 3))
        system = [SparsePoly.monomial((a[0], 0)), SparsePoly.monomial((0, a[1]))]
        g = SparsePoly(2, {(rng.randint(0, 3), rng.randint(0, 3)):
                           Fraction(rng.randint(-5, 5))
                           for _ in range(3)})
        if g.is_zero():
            continue
        r = grothendieck_residue(g, system)
        assert r.value == monomial_residue(g, a)


def test_residue_linear_form_law_random_matrices():
    rng = random.Random(21)
    done = 0
    while done < 8:
        n = rng.choice((2, 3))
        C = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = det(C)
        if d == 0:
            continue
        system = [SparsePoly(n, {tuple(int(k == j) for k in range(n)):
                                 Fraction(C[i][j]) for j in range(n)
                                 if C[i][j]})
                  for i in range(n)]
        r = grothendieck_residue(SparsePoly.monomial((0,) * n), system)
        assert r.value == Fraction(1) / d
        done += 1


def test_residue_linearity():
    system = [poly("2*x1^2 + x1*x2", nvars=2), poly("x1*x2 + 3*x2^3", nvars=2)]
    rng = random.Random(3)
    for _ in range(4):
        g1 = SparsePoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            Fraction(rng.randint(-4, 4)) for _ in range(2)})
        g2 = SparsePoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            Fraction(rng.randint(-4, 4)) for _ in range(2)})
        a, b = Fraction(rng.randint(1, 5)), Fraction(rng.randint(-5, -1))
        combo = g1.scale(a) + g2.scale(b)
        lhs = grothendieck_residue(combo, system).value if not combo.is_zero() \
            else Fraction(0)
        r1 = grothendieck_residue(g1, system).value if not g1.is_zero() else 0
        r2 = grothendieck_residue(g2, system).value if not g2.is_zero() else 0
        assert lhs == a * r1 + b * r2


def test_residue_stability_flag():
    r = grothendieck_residue(poly("x1*x2^2"),
                             [poly("2*x1^2 + x1*x2", nvars=2),
                              poly("x1*x2 + 3*x2^3", nvars=2)])
    assert r.stable
    # recomputing with a larger explicit truncation gives the same value
    r2 = grothendieck_residue(poly("x1*x2^2"),
                              [poly("2*x1^2 + x1*x2", nvars=2),
                               poly("x1*x2 + 3*x2^3", nvars=2)],
                              D=r.truncation_used + 2)
    assert r2.value == r.value


def test_residue_scales_inversely_with_a_rational_generator():
    # the log system of x1^3+x2^3+x3^3+x1*x2*x3: every x_i^N needs real
    # elimination through the x1*x2*x3 terms
    f = poly("x1^3 + x2^3 + x3^3 + x1*x2*x3")
    system = list(ideal_generators(f)[0])
    g = poly("x1^2*x2^2*x3^2")
    base = grothendieck_residue(g, system)
    assert base.value == Fraction(1, 28)
    scaled = grothendieck_residue(
        g, [system[0].scale(Fraction(3, 2))] + system[1:])
    assert scaled.value == base.value * Fraction(2, 3)
    assert base.stable and scaled.stable


_COEFFS = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                    st.integers(1, 4))


@st.composite
def finite_colength_systems(draw):
    """g and a system c_i*x_i^(a_i) + (other terms) in 2 or 3 variables with
    p/q coefficients, and a permutation of the system.  Every other term has
    weighted degree above 1 for the weights 1/a_i, so the pure powers lead
    and the colength is finite (the system is semi-quasihomogeneous).  A
    multiple of the second generator is added to the first, which keeps the
    ideal and the residue, and g has a term x^(a-1), on which the residue of
    the leading powers is nonzero.  Three-variable systems stay small (a is
    a permutation of (1, 1, 2), one other term of degree at most 3): the
    transformation-law oracle takes minutes on denser ones."""
    n = draw(st.integers(2, 3))
    if n == 2:
        a, extra, top = draw(st.tuples(*[st.integers(1, 3)] * 2)), 3, 4
    else:
        a, extra, top = draw(st.permutations([1, 1, 2])), 1, 3
    exps = st.tuples(*[st.integers(0, 3)] * n)
    system = []
    for i in range(n):
        terms = {e: c for e, c in draw(st.dictionaries(
            exps, _COEFFS, max_size=extra)).items()
            if sum(e) <= top and sum(Fraction(x, y) for x, y in zip(e, a)) > 1}
        terms[tuple(a[i] * (k == i) for k in range(n))] = draw(_COEFFS)
        system.append(SparsePoly(n, terms))
    system[0] = system[0] + system[1].scale(draw(_COEFFS))
    g = SparsePoly(n, draw(st.dictionaries(exps, _COEFFS, max_size=3))) + \
        SparsePoly.monomial(tuple(x - 1 for x in a), draw(_COEFFS))
    return g, system, draw(st.permutations(range(n)))


@given(finite_colength_systems())
@settings(max_examples=25, deadline=None)
def test_residue_matches_transformation_law_oracle(case):
    g, system, _ = case
    assert grothendieck_residue(g, system).value == \
        transformation_law_residue(g, system).value


@given(finite_colength_systems())
@settings(max_examples=40, deadline=None)
def test_permuted_system_multiplies_residue_by_the_sign(case):
    g, system, perm = case
    inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                     for j in range(i + 1, len(perm)))
    value = grothendieck_residue(g, system).value
    assert grothendieck_residue(g, [system[i] for i in perm]).value == \
        (-1) ** inversions * value


def test_residue_infinite_colength_rejected():
    with pytest.raises(Exception):
        grothendieck_residue(poly("x1", nvars=2),
                             [poly("x1^2", nvars=2), poly("x1*x2", nvars=2)])


# ---------------------------------------------------------------------------
# Residue nonvanishing for face data
# ---------------------------------------------------------------------------

def test_nonvanishing_cusp():
    f = poly("x1^2 + x2^3")
    r = verify_residue_nonvanishing(f, edge_face("x1^2 + x2^3"),
                                    poly("x1*x2^2"), 0)
    assert r.value == Fraction(1, 6) and r.stable


def test_nonvanishing_quadric():
    f = poly("x1^2 + x2^2")
    r = verify_residue_nonvanishing(f, edge_face("x1^2 + x2^2"),
                                    poly("x1*x2"), 0)
    assert r.value == Fraction(1, 4)


def test_nonvanishing_vertex_r1():
    f = poly("x1^2 + x1*x2 + x2^3")
    r = verify_residue_nonvanishing(f, vertex_face("x1^2 + x1*x2 + x2^3"),
                                    poly("1", nvars=2), 1)
    assert r.value != 0 and r.stable


def test_nonvanishing_three_squares():
    f = poly("x1^2 + x2^2 + x3^2")
    D = newton_polyhedron(f)
    facet = [fc for fc in compact_faces(D) if fc.dim == 2][0]
    r = verify_residue_nonvanishing(f, facet, poly("x1*x2*x3"), 0)
    assert r.value == Fraction(1, 8)


def test_nonvanishing_rejects_boundary_support():
    f = poly("x1^2 + x2^3")
    with pytest.raises(InputError):
        verify_residue_nonvanishing(f, edge_face("x1^2 + x2^3"),
                                    poly("x1", nvars=2), 0)


def test_nonvanishing_rejects_zero_class():
    f = poly("x1^2 + x2^3")
    # x1...xn * h = x1^3 x2^2 is interior to the 2-dilate but x^2 divides it
    with pytest.raises(InputError):
        verify_residue_nonvanishing(f, edge_face("x1^2 + x2^3"),
                                    poly("x1^2*x2"), 0)


def test_nonvanishing_across_family(family):
    from newton_socle import (canonical_quotient, face_cone,
                              face_derivatives, select_parameters)
    for f in family:
        D = newton_polyhedron(f)
        admissible = [fc for fc in compact_faces(D)
                      if not fc.in_coordinate_hyperplane]
        assert admissible
        for face in admissible:
            fc = face_cone(face)
            params = select_parameters(face_derivatives(f, face), fc)
            quotient = canonical_quotient(fc, params)
            for b in quotient.socle_basis:
                exps = b.support()[0]
                h = SparsePoly.monomial(tuple(e - 1 for e in exps))
                r = verify_residue_nonvanishing(f, face, h, fc.r)
                assert r.value != 0 and r.stable, (str(f), str(h))


# ---------------------------------------------------------------------------
# Lattice spaces, Koszul model, trace
# ---------------------------------------------------------------------------

def test_lattice_space_triangle():
    ls = lattice_space(TRIANGLE, 1)
    assert set(ls.points) == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1),
                              (0, 2), (0, 3)}
    assert lattice_space(TRIANGLE, 0).points == ((0, 0),)
    assert set(lattice_space(TRIANGLE, 1, interior=True).points) == {(1, 1)}
    assert set(lattice_space(TRIANGLE, 2, interior=True).points) == \
        {(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)}


def test_lattice_space_counts_match_brute(family_polyhedra):
    # dilates of the unit square: (l+1)^2 points, (l-1)^2 interior
    for l in range(1, 5):
        assert len(lattice_space(SQUARE, l).points) == (l + 1) ** 2
        assert len(lattice_space(SQUARE, l, interior=True).points) == \
            (l - 1) ** 2


def test_koszul_dimension_one_examples():
    rng = random.Random(0)
    for pts in (SQUARE, TRIANGLE):
        gs = [random_section(pts, rng, 2) for _ in range(3)]
        assert koszul_top_dimension(pts, gs) == 1


def test_koszul_degenerate_tuple_flagged():
    rng = random.Random(1)
    g = random_section(SQUARE, rng, 2)
    assert koszul_top_dimension(SQUARE, [g, g, g]) != 1


def test_koszul_check_resamples():
    rep = koszul_check(TRIANGLE, seed=12)
    assert rep["ok"] and rep["dimension"] == 1


def test_trace_volume_cross_checks():
    assert trace_volume_check(TRIANGLE)["trace_expected"] == 6
    assert trace_volume_check([(0, 0), (1, 0), (0, 1)])["trace_expected"] == 1
    sq = trace_volume_check(SQUARE)
    assert sq["trace_expected"] == 2 and sq["equal"]
    cube = trace_volume_check(CUBE)
    assert cube["trace_expected"] == 6 and cube["equal"]


def test_volume_by_lattice_count_matches():
    assert volume_by_lattice_count(TRIANGLE) == normalized_volume(TRIANGLE)
    assert volume_by_lattice_count(CUBE) == 6
    assert volume_by_lattice_count([(0, 0), (1, 1), (2, 2)]) == 0
