import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from newton_socle import (INFINITY, SparsePoly, face_part, face_parts,
                          faces, newton_order, newton_polyhedron,
                          normalized_volume, support_function)
from newton_socle import polylattice
from newton_socle.errors import InputError
from newton_socle.linalg import dot, rank
from newton_socle.polylattice import _dd_extreme_rays, incidence_closures

from conftest import FAMILY, poly, supports
from face_oracles import (box_parallelepiped_points, brute_faces,
                          rank_dd_extreme_rays)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def staircase_vertices_2d(support):
    """Vertices of conv(support) + R_+^2 by the lower-left staircase scan;
    shares nothing with the double-description hull."""
    minimal = [p for p in set(support)
               if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                          for q in support)]
    pts = sorted(minimal)
    verts = []
    for p in pts:
        while len(verts) >= 2:
            a, b = verts[-2], verts[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross <= 0:  # b on or above the segment a--p: not a vertex
                verts.pop()
            else:
                break
        verts.append(p)
    return sorted(verts)


def shoelace_double_area(vertex_cycle):
    total = 0
    for (x1, y1), (x2, y2) in zip(vertex_cycle, vertex_cycle[1:] + vertex_cycle[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total)


# ---------------------------------------------------------------------------
# Hull construction
# ---------------------------------------------------------------------------

def test_hull_two_point_example():
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    assert D.vertices == ((0, 3), (2, 0))
    assert {(f.normal, f.offset) for f in D.facets} == \
        {((1, 0), 0), ((0, 1), 0), ((3, 2), 6)}
    assert [f.compact for f in D.facets] == \
        [f.normal == (3, 2) for f in D.facets]


def test_hull_monomial_is_shifted_orthant():
    D = newton_polyhedron(poly("x1^2*x2"))
    assert D.vertices == ((2, 1),)
    assert {(f.normal, f.offset) for f in D.facets} == {((1, 0), 2), ((0, 1), 1)}


def test_hull_drops_dominated_and_keeps_lower_vertices():
    D = newton_polyhedron(poly("x1^2 + x1*x2 + x2^3"))
    assert D.vertices == ((0, 3), (1, 1), (2, 0))
    # (1,1) sits below the segment from (2,0) to (0,3)
    assert 3 * 1 + 2 * 1 < 6


def test_hull_rejects_zero():
    with pytest.raises(InputError):
        newton_polyhedron(SparsePoly.zero(2))


def test_hull_against_staircase_oracle_random():
    rng = random.Random(20240811)
    for _ in range(40):
        supp = {(rng.randint(0, 7), rng.randint(0, 7))
                for _ in range(rng.randint(1, 7))}
        f = SparsePoly(2, {e: 1 for e in supp})
        D = newton_polyhedron(f)
        assert sorted(D.vertices) == staircase_vertices_2d(supp)
        # every support point satisfies every facet inequality
        for m in supp:
            for fc in D.facets:
                assert dot(fc.normal, m) >= fc.offset


def test_facet_offsets_are_support_values(family_polyhedra):
    for _, D in family_polyhedra:
        for fc in D.facets:
            assert support_function(D, fc.normal) == fc.offset
        from newton_socle.linalg import rank
        for v in D.vertices:
            tight = [fc.normal for fc in D.facets
                     if dot(fc.normal, v) == fc.offset]
            assert rank(tight) == D.nvars


# ---------------------------------------------------------------------------
# Support function
# ---------------------------------------------------------------------------

def test_support_function_examples():
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    assert support_function(D, (3, 2)) == 6
    assert support_function(D, (1, 0)) == 0
    assert support_function(D, (0, 0)) == 0
    with pytest.raises(InputError):
        support_function(D, (-1, 2))


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1,
                max_size=5),
       st.tuples(st.integers(0, 9), st.integers(0, 9)),
       st.tuples(st.integers(0, 9), st.integers(0, 9)))
@settings(max_examples=60, deadline=None)
def test_support_function_superadditive_and_homogeneous(supp, a, b):
    f = SparsePoly(2, {e: 1 for e in supp})
    D = newton_polyhedron(f)
    sab = support_function(D, tuple(x + y for x, y in zip(a, b)))
    assert sab >= support_function(D, a) + support_function(D, b)
    assert support_function(D, tuple(3 * x for x in a)) == \
        3 * support_function(D, a)


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

def test_faces_of_cusp():
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    all_faces = faces(D)
    compact = [f for f in all_faces if f.compact]
    assert sorted(f.dim for f in compact) == [0, 0, 1]
    off_hyperplane = [f for f in compact if not f.in_coordinate_hyperplane]
    assert len(off_hyperplane) == 1 and off_hyperplane[0].dim == 1
    assert len(all_faces) == 6  # 2 vertices, 3 edges, the polyhedron


def test_faces_of_monomial():
    D = newton_polyhedron(poly("x1^2*x2^3"))
    compact = [f for f in faces(D) if f.compact]
    assert len(compact) == 1 and compact[0].dim == 0
    assert compact[0].vertices() == [(2, 3)]


def test_faces_of_three_vertex_polyhedron():
    D = newton_polyhedron(poly("x1^2 + x1*x2 + x2^3"))
    good = [f for f in faces(D) if f.compact and not f.in_coordinate_hyperplane]
    verts = sorted(tuple(sorted(f.vertices())) for f in good)
    assert verts == [(((0, 3)), ((1, 1))), ((1, 1),), (((1, 1)), ((2, 0)))]


def test_normal_certificate_cuts_out_face(family_polyhedra):
    for _, D in family_polyhedra:
        for face in faces(D):
            cert = face.normal_certificate
            s = support_function(D, cert)
            for i, v in enumerate(D.vertices):
                on_face = i in face.vertex_indices
                assert (dot(cert, v) == s) == on_face


def test_incidence_closures_of_a_triangle():
    # atom a is the vertex opposite edge a; each closure is listed at its
    # first facet subset by size, then lexicographically
    assert incidence_closures([[1, 2], [0, 2], [0, 1]], 3) == \
        [(0, 1, 2), (1, 2), (0, 2), (0, 1), (2,), (1,), (0,), ()]


@given(supports())
@settings(max_examples=200, deadline=None)
def test_faces_match_brute_force_oracle(f):
    D = newton_polyhedron(f)
    assume(len(D.facets) <= 12)
    assert faces(D) == brute_faces(D)


# (dim, vertex_indices, recession_axes) of every face, in the order of the
# facet-subset scan: faces that tie on (dim, vertex_indices), like the two
# unbounded edges v + cone(e1) and v + cone(e2), keep the order in which
# the scan first reaches them
TIE_ORDER = {
    "x1*x2 + x3^2": [
        (0, (0,), ()), (0, (1,), ()),
        (1, (0,), (0,)), (1, (0,), (2,)), (1, (0,), (1,)), (1, (0, 1), ()),
        (1, (1,), (0,)), (1, (1,), (1,)),
        (2, (0,), (0, 2)), (2, (0,), (1, 2)), (2, (0, 1), (0,)),
        (2, (0, 1), (1,)), (2, (1,), (0, 1)),
        (3, (0, 1), (0, 1, 2)),
    ],
    "x1*x2 + x3^2 + x4^2": [
        (0, (0,), ()), (0, (1,), ()), (0, (2,), ()),
        (1, (0,), (0,)), (1, (0,), (3,)), (1, (0,), (1,)), (1, (0, 1), ()),
        (1, (0, 2), ()), (1, (1,), (0,)), (1, (1,), (2,)), (1, (1,), (1,)),
        (1, (1, 2), ()), (1, (2,), (0,)), (1, (2,), (1,)),
        (2, (0,), (0, 3)), (2, (0,), (1, 3)), (2, (0, 1), (0,)),
        (2, (0, 1), (2, 3)), (2, (0, 1), (1,)), (2, (0, 1, 2), ()),
        (2, (0, 2), (0,)), (2, (0, 2), (1,)), (2, (1,), (0, 2)),
        (2, (1,), (1, 2)), (2, (1, 2), (0,)), (2, (1, 2), (1,)),
        (2, (2,), (0, 1)),
        (3, (0, 1), (0, 2, 3)), (3, (0, 1), (1, 2, 3)),
        (3, (0, 1, 2), (0,)), (3, (0, 1, 2), (1,)), (3, (0, 2), (0, 1, 3)),
        (3, (1, 2), (0, 1, 2)),
        (4, (0, 1, 2), (0, 1, 2, 3)),
    ],
    "x1*x2 + x3*x4": [
        (0, (0,), ()), (0, (1,), ()),
        (1, (0,), (2,)), (1, (0,), (3,)), (1, (0,), (0,)), (1, (0,), (1,)),
        (1, (0, 1), ()), (1, (1,), (0,)), (1, (1,), (1,)), (1, (1,), (2,)),
        (1, (1,), (3,)),
        (2, (0,), (0, 2)), (2, (0,), (0, 3)), (2, (0,), (2, 3)),
        (2, (0,), (1, 2)), (2, (0,), (1, 3)), (2, (0, 1), (0,)),
        (2, (0, 1), (2,)), (2, (0, 1), (3,)), (2, (0, 1), (1,)),
        (2, (1,), (0, 1)), (2, (1,), (0, 2)), (2, (1,), (1, 2)),
        (2, (1,), (0, 3)), (2, (1,), (1, 3)),
        (3, (0,), (0, 2, 3)), (3, (0,), (1, 2, 3)), (3, (0, 1), (0, 2)),
        (3, (0, 1), (0, 3)), (3, (0, 1), (1, 2)), (3, (0, 1), (1, 3)),
        (3, (1,), (0, 1, 2)), (3, (1,), (0, 1, 3)),
        (4, (0, 1), (0, 1, 2, 3)),
    ],
}


@pytest.mark.parametrize("text", sorted(TIE_ORDER))
def test_face_order_breaks_ties_by_facet_subset_scan(text):
    D = newton_polyhedron(poly(text))
    got = [(fc.dim, fc.vertex_indices, fc.recession_axes) for fc in faces(D)]
    assert got == TIE_ORDER[text]


def k_support(K):
    """x1^a x2^b x3^c with (a+1)(b+1) <= K and c = ceil(K/((a+1)(b+1))) - 1."""
    terms = {}
    for a in range(K):
        for b in range(K // (a + 1)):
            terms[(a, b, -(-K // ((a + 1) * (b + 1))) - 1)] = 1
    return SparsePoly(3, terms)


@pytest.mark.parametrize("K, nfaces", [(24, 116), (36, 152)])
def test_faces_of_large_supports_satisfy_euler_relation(K, nfaces):
    D = newton_polyhedron(k_support(K))
    counts = [0] * 4
    for fc in faces(D):
        counts[fc.dim] += 1
    assert sum(counts) == nfaces
    # a pointed unbounded polyhedron has Euler characteristic 0, and its
    # 2-faces are its facets
    assert counts[0] - counts[1] + counts[2] - counts[3] == 0
    assert counts[2] == len(D.facets) and counts[3] == 1


def test_face_part_examples():
    f = poly("x1^2 + x2^3")
    D = newton_polyhedron(f)
    edge = [fc for fc in faces(D) if fc.compact and fc.dim == 1][0]
    assert face_part(f, edge) == f
    g = poly("x1^2 + x1*x2 + x2^3")
    D2 = newton_polyhedron(g)
    vert = [fc for fc in faces(D2) if fc.compact and fc.dim == 0
            and not fc.in_coordinate_hyperplane][0]
    assert face_part(g, vert) == poly("x1*x2")
    assert face_part(poly("x1^2"), vert).is_zero()


def _face_part_by_contains(g, face):
    return SparsePoly(g.nvars, {e: c for e, c in g.terms.items()
                                if face.contains(e)})


def _with_box_terms(f, top):
    """f plus every monomial with exponents at most ``top``, coefficient
    1/2: terms outside the polyhedron, on its faces and inside it."""
    box = SparsePoly(f.nvars, {e: Fraction(1, 2) for e in product(
        range(top + 1), repeat=f.nvars)})
    return f + box


@pytest.mark.parametrize("text", FAMILY + ["K=10"])
def test_face_parts_match_face_contains(text):
    f = k_support(10) if text == "K=10" else poly(text)
    D = newton_polyhedron(f)
    every = faces(D)
    assert any(not fc.compact for fc in every)
    for g in (f, _with_box_terms(f, 3)):
        expected = [_face_part_by_contains(g, fc) for fc in every]
        assert face_parts(g, every) == expected
        assert [face_part(g, fc) for fc in every] == expected
        assert face_parts(g, []) == []


def test_face_parts_of_faces_of_two_polyhedra():
    f, h = poly("x1^2 + x2^3"), poly("x1^3 + x1*x2 + x2^4")
    mixed = faces(newton_polyhedron(f)) + faces(newton_polyhedron(h))
    for g in (f, h, _with_box_terms(h, 4)):
        assert face_parts(g, mixed) == [_face_part_by_contains(g, fc)
                                        for fc in mixed]


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------

@st.composite
def cone_rows(draw):
    """Inequality rows of a cone in 2-5 dimensions, shuffled: random rows,
    half the time with the coordinate rows (a pointed cone), plus
    duplicates, positive multiples and sums of rows (redundant rows)."""
    dim = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                         min_size=1, max_size=8))
    if draw(st.booleans()):
        rows += [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    index = st.integers(0, len(rows) - 1)
    for i, j, k in draw(st.lists(st.tuples(index, index, st.integers(1, 3)),
                                 max_size=4)):
        rows.append(tuple(k * x for x in rows[i]))
        rows.append(tuple(x + y for x, y in zip(rows[i], rows[j])))
    return dim, draw(st.permutations(rows))


def _rays_or_error(dd, rows, dim):
    try:
        return dd(rows, dim)
    except ValueError as exc:
        return str(exc)


@given(cone_rows())
@settings(max_examples=300, deadline=None)
def test_dd_extreme_rays_match_the_rank_adjacency_oracle(problem):
    dim, rows = problem
    assert _rays_or_error(_dd_extreme_rays, rows, dim) == \
        _rays_or_error(rank_dd_extreme_rays, rows, dim)


@st.composite
def independent_rays(draw):
    """1 to n linearly independent integer rays in n = 2..4 dimensions,
    entries in -3..6."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 6)] * n),
                         min_size=k, max_size=k))
    assume(rank(rays) == k)
    return rays


@given(independent_rays())
@settings(max_examples=300, deadline=None)
def test_parallelepiped_cosets_match_the_box_scan(rays):
    for flags in product((False, True), repeat=2):
        assert polylattice.parallelepiped_points(rays, *flags) == \
            box_parallelepiped_points(rays, *flags)


@pytest.mark.parametrize("K", [10, 14])
def test_newton_polyhedra_match_the_rank_adjacency_dd(K, monkeypatch):
    f = k_support(K)
    D = newton_polyhedron(f)
    monkeypatch.setattr(polylattice, "_dd_extreme_rays", rank_dd_extreme_rays)
    assert newton_polyhedron(f) == D


# ---------------------------------------------------------------------------
# Newton order
# ---------------------------------------------------------------------------

def test_newton_order_examples():
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    assert newton_order(poly("x1*x2"), D) == Fraction(5, 6)
    assert newton_order(poly("x1^2"), D) == 1
    assert newton_order(poly("1", nvars=2), D) == 0
    assert newton_order(SparsePoly.zero(2), D) is INFINITY


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                max_size=4),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                max_size=4))
@settings(max_examples=60, deadline=None)
def test_newton_order_superadditive(sg, sh):
    D = newton_polyhedron(poly("x1^2 + x1*x2 + x2^3"))
    g = SparsePoly(2, {e: 1 for e in sg})
    h = SparsePoly(2, {e: 1 for e in sh})
    assert newton_order(g * h, D) >= newton_order(g, D) + newton_order(h, D)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                max_size=4))
@settings(max_examples=60, deadline=None)
def test_newton_order_is_largest_dilation(sg):
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    g = SparsePoly(2, {e: 1 for e in sg})
    nu = newton_order(g, D)
    for m in g.support():
        assert D.contains(m, nu)
    bigger = nu + Fraction(1, 7)
    assert any(not D.contains(m, bigger) for m in g.support())


# ---------------------------------------------------------------------------
# Normalized volume
# ---------------------------------------------------------------------------

def test_normalized_volume_examples():
    assert normalized_volume([(0, 0), (2, 0), (0, 3)]) == 6
    assert normalized_volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert normalized_volume([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2


def test_normalized_volume_rejects_degenerate():
    with pytest.raises(ValueError):
        normalized_volume([(0, 0), (1, 1), (2, 2)])


def test_normalized_volume_against_shoelace_random():
    rng = random.Random(7)
    for _ in range(25):
        pts = {(rng.randint(0, 6), rng.randint(0, 6))
               for _ in range(rng.randint(3, 8))}
        pts = list(pts)
        from newton_socle.linalg import rank, vec_sub
        if rank([vec_sub(p, pts[0]) for p in pts[1:]]) < 2:
            continue
        from newton_socle.polylattice import hull_vertices
        verts = [tuple(int(x) for x in v) for v in hull_vertices(pts)]
        cx = Fraction(sum(v[0] for v in verts), len(verts))
        cy = Fraction(sum(v[1] for v in verts), len(verts))
        import math
        verts.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
        assert normalized_volume(pts) == shoelace_double_area(verts)


def test_normalized_volume_against_lattice_count_random_3d():
    from newton_socle import volume_by_lattice_count
    rng = random.Random(13)
    done = 0
    while done < 6:
        pts = [(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
               for _ in range(5)]
        from newton_socle.linalg import rank, vec_sub
        if rank([vec_sub(p, pts[0]) for p in pts[1:]]) < 3:
            continue
        assert normalized_volume(pts) == volume_by_lattice_count(pts)
        done += 1


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    f = poly("3*x1^2*x2 - 1/2*x2^3 + x1")
    assert f.coeff((2, 1)) == 3
    assert f.coeff((0, 3)) == Fraction(-1, 2)
    assert f.coeff((1, 0)) == 1
    again = SparsePoly.from_json(f.to_json())
    assert again == f


_COEFFS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def sparse_polys(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    return SparsePoly(nvars, draw(st.dictionaries(exps, _COEFFS, max_size=6)))


@given(sparse_polys())
@settings(max_examples=150, deadline=None)
def test_parse_inverts_str(p):
    assert SparsePoly.parse(str(p), nvars=p.nvars) == p


def test_parse_sign_runs():
    assert poly("--x1") == poly("x1")
    assert poly("-+x1") == poly("x1").scale(-1)
    assert poly("x1 + -1*x2") == poly("x1 - x2")
    assert poly("x1 - -x2") == poly("x1 + x2")
    for bad in ("x1 -", "x1 + -", "-"):
        with pytest.raises(InputError, match="trailing operator"):
            poly(bad)
    with pytest.raises(InputError, match="dangling sign"):
        poly("x1 + + x2")


def test_parse_rejects_junk():
    for bad in ("", "x1 + + x2", "x0", "2**x1", "x1^", "y1"):
        with pytest.raises(InputError):
            poly(bad)


def test_polyhedron_json_round_trip():
    from newton_socle import NewtonPolyhedron
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    again = NewtonPolyhedron.from_json(D.to_json())
    assert again == D


# ---------------------------------------------------------------------------
# The lattice-point enumerator against a brute-force box filter
# ---------------------------------------------------------------------------

_SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))


@st.composite
def lattice_problems(draw):
    n = draw(st.integers(1, 3))
    lo = [draw(_SMALL) for _ in range(n)]
    # a negative width gives an empty box
    hi = [x + draw(st.builds(Fraction, st.integers(-2, 12), st.integers(1, 3)))
          for x in lo]
    row = st.tuples(*[_SMALL] * n)
    ineqs = draw(st.lists(st.tuples(row, _SMALL, st.booleans()), max_size=4))
    eqs = draw(st.lists(st.tuples(row, _SMALL), max_size=2))
    return lo, hi, ineqs, eqs


@given(lattice_problems())
@settings(max_examples=200, deadline=None)
def test_lattice_points_against_box_filter(problem):
    from itertools import product
    from math import ceil, floor
    from newton_socle.polylattice import lattice_points
    lo, hi, ineqs, eqs = problem
    expected = []
    for m in product(*[range(ceil(a), floor(b) + 1) for a, b in zip(lo, hi)]):
        if all(dot(a, m) > b if strict else dot(a, m) >= b
               for a, b, strict in ineqs) \
                and all(dot(a, m) == b for a, b in eqs):
            expected.append(m)
    assert lattice_points(lo, hi, ineqs, eqs) == expected
