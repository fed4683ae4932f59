"""Brute-force face enumerators and reference cone constructors, kept as
test oracles.

Both enumerators try every subset of facets, by size and then
lexicographically, and keep the first subset that reaches each face.  Their
cost is 2^facets, so they serve only small inputs; ``polylattice.faces`` and
``fan.cone_faces`` must return the same lists in the same order.
``brute_meets_in_faces`` checks the fan axiom on every pair of cones, where
``fan.validate_fan`` intersects only the maximal ones and
``fan.fan_from_cones`` checks a simplicial fan by its facet pairs.
``double_polar_cone`` builds a cone by two double descriptions, generators
to inequalities and back, where ``fan.cone_from_rays`` reads a pointed
cone's rays off the facet incidences of its generators;
``brute_cone_faces`` builds its faces with it.  ``inequality_normal_cone``
builds a face's normal cone from the vertex differences of the polyhedron,
where ``fan.face_normal_cone`` spans it by the normals of the facets that
hold the face.  ``hull_hj_chain`` reads a 2D cone's regular subdivision off
the convex hull of its parallelepiped points, where ``fan._hj_chain`` walks
the continued fraction.  ``rank_dd_extreme_rays`` is the double
description with the algebraic adjacency test (the rows tight on two rays
have rank dim - 2), where ``polylattice._dd_extreme_rays`` compares the
rays' zero-set bitmasks.  ``box_parallelepiped_points`` scans the bounding
box of a parallelepiped, where ``polylattice.parallelepiped_points`` lists
one point per lattice coset.  ``regularize_3d`` is the 3D stellar
subdivision that solves for every coefficient, where
``fan._regularize_stellar`` reads them off facet normals computed once.
``eager_fan`` closes the given cones under faces at once, where
``fan.fan_from_cones`` leaves the closure of full-dimensional simplicial
cones until ``Fan.cones`` is read.  ``unvalidated_fan`` assembles a fan as
``fan.fan_from_cones`` does but skips its validation, for the tests that
need fans it would reject.
"""

from functools import cmp_to_key
from itertools import combinations

from newton_socle import fan as fanmod
from newton_socle.fan import (Cone, Fan, _angle_cmp, _cone_ambient,
                              _generators, _intersect_cones, _polar_cone,
                              _std_basis, cone_faces, cone_from_rays,
                              fan_from_cones, zero_cone)
from newton_socle.errors import (InputError, RegularizationError,
                                 VerificationError)
from newton_socle.linalg import det, dot, kernel_basis, primitive, rank, \
    solve, vec_sub
from newton_socle.polylattice import (FaceDescriptor, lattice_points,
                                      parallelepiped_points, polar_generators,
                                      polyhedron_hull)


def double_polar_cone(rays):
    """Canonical cone spanned by the given vectors."""
    if not rays:
        raise InputError("cone needs an ambient dimension; give at least the zero vector")
    n = len(rays[0])
    gens = [primitive(r) for r in rays if any(x != 0 for x in r)]
    if not gens:
        return zero_cone(n)
    lin_n, normals = polar_generators(gens, dim=n)
    equations = tuple(sorted(lin_n))
    lin_c, extreme = polar_generators(list(normals), list(equations), dim=n)
    allrays = _generators(lin_c, extreme)
    d = rank(gens)
    return Cone(tuple(sorted(set(allrays))), tuple(sorted(normals)),
                equations, d)


def rank_dd_extreme_rays(rows, dim):
    """Extreme rays of the pointed cone {x : r.x >= 0 for all r in rows},
    sorted; ValueError("cone is not pointed") when rank(rows) < dim.

    Incremental double description from a simplicial subcone of ``dim``
    independent rows; a positive and a negative ray are combined when the
    processed rows tight on both have rank dim - 2."""
    if dim == 0:
        return []
    base = []
    rest = []
    for r in rows:
        if len(base) < dim and rank(base + [r]) > len(base):
            base.append(r)
        else:
            rest.append(r)
    if len(base) < dim:
        raise ValueError("cone is not pointed")
    rays = []
    for i in range(dim):
        rhs = [int(j == i) for j in range(dim)]
        rays.append(primitive(solve(base, rhs)))
    processed = list(base)

    for a in rest:
        vals = {r: dot(a, r) for r in rays}
        if all(v >= 0 for v in vals.values()):
            processed.append(a)
            continue
        pos = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        neg = [r for r in rays if vals[r] < 0]
        new = []
        for rp in pos:
            for rn in neg:
                tight = [p for p in processed
                         if dot(p, rp) == 0 and dot(p, rn) == 0]
                if rank(tight) != dim - 2:
                    continue
                w = tuple(vals[rp] * x - vals[rn] * y
                          for x, y in zip(rn, rp))
                new.append(primitive(w))
        seen = set()
        rays = []
        for r in pos + zero + new:
            if r not in seen:
                seen.add(r)
                rays.append(r)
        processed.append(a)
    return sorted(rays)


def brute_faces(poly):
    n = poly.nvars
    nfac = len(poly.facets)
    seen = {}
    for size in range(nfac + 1):
        for subset in combinations(range(nfac), size):
            vidx = [i for i, v in enumerate(poly.vertices)
                    if all(dot(poly.facets[j].normal, v) == poly.facets[j].offset
                           for j in subset)]
            if not vidx:
                continue
            axes = [i for i in range(n)
                    if all(poly.facets[j].normal[i] == 0 for j in subset)]
            # closure: every facet tight on the whole face
            tight = []
            for j, fc in enumerate(poly.facets):
                if all(dot(fc.normal, poly.vertices[i]) == fc.offset for i in vidx) \
                        and all(fc.normal[i] == 0 for i in axes):
                    tight.append(j)
            key = tuple(tight)
            if key in seen:
                continue
            v0 = poly.vertices[vidx[0]]
            spanning = [vec_sub(poly.vertices[i], v0) for i in vidx[1:]]
            spanning += [tuple(int(i == k) for k in range(n)) for i in axes]
            dim = rank(spanning)
            compact = not axes
            in_hyp = any(all(poly.vertices[i][k] == 0 for i in vidx) and k not in axes
                         for k in range(n))
            if tight:
                cert = tuple(sum(poly.facets[j].normal[k] for j in tight)
                             for k in range(n))
            else:
                cert = (0,) * n
            seen[key] = FaceDescriptor(poly, tuple(vidx), key, tuple(axes),
                                       dim, compact, in_hyp, cert)
    return sorted(seen.values(), key=lambda f: (f.dim, f.vertex_indices))


def brute_cone_faces(cone, nvars=None):
    n = nvars if nvars is not None else _cone_ambient(cone)
    seen = {}
    nfac = len(cone.facet_normals)
    for size in range(nfac + 1):
        for subset in combinations(range(nfac), size):
            tight_rays = [r for r in cone.rays
                          if all(dot(cone.facet_normals[j], r) == 0 for j in subset)]
            key = frozenset(tight_rays)
            if key in seen:
                continue
            seen[key] = (double_polar_cone(tight_rays) if tight_rays
                         else zero_cone(n))
    return sorted(seen.values(), key=lambda c: (c.dim, c.rays))


def brute_meets_in_faces(fan):
    """True iff every two cones of the fan meet in a cone of the fan that is
    a face of both."""
    cone_set = set(fan.cones)
    faces_of = {c: brute_cone_faces(c, fan.nvars) for c in cone_set}
    for c1, c2 in combinations(fan.cones, 2):
        inter = _intersect_cones(c1, c2, fan.nvars)
        if inter not in cone_set \
                or inter not in faces_of[c1] or inter not in faces_of[c2]:
            return False
    return True


def inequality_normal_cone(poly, face):
    """The cone of covectors whose minimum on the polyhedron is attained on
    the whole face, as {a >= 0 : a.(w - v0) >= 0 for every vertex w} cut by
    a.(v - v0) = 0 for the face's vertices v and a_i = 0 for its recession
    axes i."""
    n = poly.nvars
    verts = face.vertices()
    v0 = verts[0]
    ineqs = list(_std_basis(n))
    ineqs += [vec_sub(w, v0) for w in poly.vertices]
    eqs = [vec_sub(v, v0) for v in verts[1:]]
    eqs += [tuple(int(i == k) for k in range(n)) for i in face.recession_axes]
    return _polar_cone(ineqs, eqs, n)


def hull_hj_chain(u, v):
    """Rays of the regular subdivision of the 2D cone <u, v>: the lattice
    points on the bounded boundary of the convex hull of the nonzero lattice
    points of the cone, in angular order.  The hull of the cone's closed
    parallelepiped points plus the cone as recession has that boundary."""
    candidates = parallelepiped_points([u, v], True, True)
    _, facets = polyhedron_hull(candidates, [u, v])
    chain = set()
    for normal, c in facets:
        if dot(normal, u) > 0 and dot(normal, v) > 0:
            for p in candidates:
                if dot(normal, p) == c:
                    chain.add(p)
    return sorted(chain, key=cmp_to_key(_angle_cmp))


def box_parallelepiped_points(rays, low_closed, high_closed):
    """Nonzero lattice points sum(t_i * r_i) over linearly independent rays
    with every t_i between 0 and 1, each end included when its flag is set,
    found by scanning the bounding box of the rays.

    The coefficient t_i is the dual-basis covector d_i (d_i.r_j = 1 if
    i = j, else 0) applied to the point, and the equations confine the
    points to the span of the rays."""
    rays = list(rays)
    n = len(rays[0])
    ineqs = []
    for i in range(len(rays)):
        d = solve(rays, [int(i == j) for j in range(len(rays))])
        if d is None:
            raise ValueError("parallelepiped rays are not independent")
        ineqs.append((d, 0, not low_closed))
        ineqs.append((tuple(-x for x in d), -1, not high_closed))
    eqs = [(w, 0) for w in kernel_basis(rays)]
    lo = [sum(min(0, r[k]) for r in rays) for k in range(n)]
    hi = [sum(max(0, r[k]) for r in rays) for k in range(n)]
    return [m for m in lattice_points(lo, hi, ineqs, eqs) if any(m)]


def _coeffs_in_cone(point, rays):
    """Coefficients of ``point`` over linearly independent rays, or None when
    the point is outside their span."""
    n = len(point)
    rows = [tuple(r[k] for r in rays) for k in range(n)]
    return solve(rows, point)


def regularize_3d(fan):
    """Regular subdivision of a 3D fan: star triangulation of each
    non-simplicial maximal cone from its least ray, then stellar subdivision
    at the shortest point of the half-open parallelepiped of the cone of
    largest multiplicity (least rays on ties), with every determinant and
    coefficient recomputed at every step.  A triangle that holds the point
    is replaced by the point joined to each of its edges that misses it."""
    n = 3
    triangles = []
    for c in fan.maximal_cones():
        if len(c.rays) == n:
            triangles.append(tuple(sorted(c.rays)))
            continue
        apex = c.rays[0]
        for f in cone_faces(c, n):
            if f.dim == n - 1 and not f.contains(apex):
                if len(f.rays) != 2:
                    raise VerificationError("2-face of a 3-cone with != 2 rays")
                triangles.append(tuple(sorted((apex,) + f.rays)))
    triangles = sorted(set(triangles))

    for _ in range(fanmod.STELLAR_STEPS):
        worst = None
        worst_det = 1
        for t in triangles:
            d = abs(det(list(t)))
            if d > worst_det or (d == worst_det > 1 and (worst is None or t < worst)):
                worst, worst_det = t, d
        if worst_det == 1:
            max_cones = [cone_from_rays(list(t)) for t in triangles]
            return fan_from_cones(3, max_cones)
        pts = box_parallelepiped_points(worst, True, False)
        center = primitive(min(pts, key=lambda p: (sum(x * x for x in p), p)))
        new_triangles = []
        for t in triangles:
            coeffs = _coeffs_in_cone(center, list(t))
            if coeffs is None or any(x < 0 for x in coeffs):
                new_triangles.append(t)
                continue
            for pair in combinations(t, 2):
                cpair = _coeffs_in_cone(center, list(pair))
                if cpair is not None and all(x >= 0 for x in cpair):
                    continue  # center lies on this face; keep it undivided
                new_triangles.append(tuple(sorted(pair + (center,))))
        triangles = sorted(set(new_triangles))
    raise RegularizationError("stellar subdivision hit the iteration cap")


def unvalidated_fan(nvars, max_cones):
    """The fan :func:`fan_from_cones` assembles from the given cones, with
    no check that it is one: the full-dimensional simplicial cones as its
    maximal cones, any others closed under faces at once."""
    if max_cones and all(len(c.rays) == c.dim == nvars for c in max_cones):
        maxs = sorted({c.rays: c for c in max_cones}.values(),
                      key=lambda c: c.rays)
        return Fan.of_simplices(nvars, maxs)
    cones = fanmod._face_closure(nvars, max_cones)
    rays = sorted({c.rays[0] for c in cones if c.dim == 1})
    return Fan(nvars, cones, tuple(rays))


def eager_fan(nvars, max_cones):
    """The fan of the given cones and all their faces, built at once: one
    :func:`cone_faces` memo seeded with the cones, and the rays read off
    the one-dimensional cones."""
    built = {c.rays: c for c in max_cones}
    for c in max_cones:
        cone_faces(c, nvars, built)
    cones = tuple(sorted(set(built.values()), key=lambda c: (c.dim, c.rays)))
    rays = tuple(sorted({c.rays[0] for c in cones if c.dim == 1}))
    return Fan(nvars, cones, rays)
