"""Cone and fan combinatorics on the positive orthant: face lattices, the
coarsest fan on which the support function is linear, exact
regular subdivision (continued fractions in 2D, stellar subdivision in every
other dimension) and ray multiplicities.

Closed forms replace the double description where one exists.
:func:`cone_from_rays` gives a full-dimensional simplicial cone its facet
normals from the signed maximal minors of its rays.  Any other cone takes
one double description, and its rays are read off the facet incidences of
its generators when it is pointed; only a cone with lineality takes a
second, the polar's polar.  The 2D regular subdivision walks each cone's
Hirzebruch–Jung continued fraction with integer Bezout steps.

Fans are assembled without intersecting cones where the combinatorics is
known.  The normal fan is read off the face lattice: each face's normal cone
is spanned by the normals of the facets that hold it, one double description
per face.  Other fans are closed under faces by :func:`cone_faces` with one
memo, so a face shared by several cones is built once (for a simplicial cone
the faces are its ray subsets).  A fan of full-dimensional simplicial cones
is checked by the pseudomanifold and covering criterion for triangulations
from its maximal cones alone, and closed under faces only when its
``cones`` are read; any other fan, and one the criterion rejects, is checked
pairwise by :func:`validate_fan`.  Regularization starts its cone memo with
the input fan's cones, so a cone it keeps is not built again.
"""

from fractions import Fraction
from functools import cache, cached_property, cmp_to_key
from itertools import combinations
import json

from ._record import record
from .errors import InputError, RegularizationError, VerificationError
from .linalg import det, dot, primitive, rank
from .polylattice import (exact_int, faces, incidence_closures,
                          parallelepiped_points, polar_generators,
                          _simplicial_normals)

# Stellar subdivisions _regularize_stellar makes before RegularizationError.
STELLAR_STEPS = 400


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

@record
class Cone:
    """Rational polyhedral cone by primitive generators and inequalities.

    The cone is {a : l(a) >= 0 for l in facet_normals, e(a) = 0 for e in
    equations}; ``rays`` generate it (extreme rays, plus +/- pairs spanning the
    lineality when the cone is not pointed).
    """

    rays: tuple
    facet_normals: tuple
    equations: tuple
    dim: int

    def contains(self, point):
        return (all(dot(l, point) >= 0 for l in self.facet_normals)
                and all(dot(e, point) == 0 for e in self.equations))

    def relative_interior_contains(self, point):
        return (all(dot(l, point) > 0 for l in self.facet_normals)
                and all(dot(e, point) == 0 for e in self.equations))


def cone_from_rays(rays):
    """Canonical cone spanned by the given vectors.

    When the distinct primitive generators are n independent vectors in
    n-space the cone is simplicial and full-dimensional, and facet normal i
    is the primitive vector of the signed maximal minors of the other n - 1
    rays, signed to be positive on ray i.  Otherwise one double description
    of the generators gives equations and facet normals.  If these have rank
    n the cone is pointed and its rays are the primitive generators whose
    tight normals plus the equations have rank n - 1; else they are the
    extreme rays and lineality pairs of the polar's polar."""
    if not rays:
        raise InputError("cone needs an ambient dimension; give at least the zero vector")
    n = len(rays[0])
    gens = [primitive(r) for r in rays if any(x != 0 for x in r)]
    if not gens:
        return zero_cone(n)
    distinct = sorted(set(gens))
    if len(distinct) == n:
        normals = _simplicial_normals(distinct)
        if normals is not None:
            return Cone(tuple(distinct), tuple(sorted(normals)), (), n)
    lin_n, normals = polar_generators(gens, dim=n)
    equations = sorted(lin_n)
    if rank(normals + equations) == n:
        allrays = [g for g in set(gens)
                   if rank([l for l in normals if dot(l, g) == 0]
                           + equations) == n - 1]
    else:
        allrays = _generators(*polar_generators(normals, equations, dim=n))
    return Cone(tuple(sorted(set(allrays))), tuple(sorted(normals)),
                tuple(equations), n - len(equations))


def _generators(lineality, extreme):
    """Generators of a cone from its ``polar_generators`` description: the
    extreme rays plus a +/- pair for each lineality basis vector."""
    gens = list(extreme)
    for l in lineality:
        gens.append(l)
        gens.append(tuple(-x for x in l))
    return gens


def _polar_cone(ineqs, eqs, n):
    """The cone {x : r.x >= 0 for r in ineqs, e.x = 0 for e in eqs}."""
    gens = _generators(*polar_generators(list(ineqs), list(eqs), dim=n))
    return cone_from_rays(gens) if gens else zero_cone(n)


def _std_basis(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def zero_cone(n):
    return Cone((), (), tuple(sorted(_std_basis(n))), 0)


def _cone_ambient(cone):
    for coll in (cone.rays, cone.facet_normals, cone.equations):
        for v in coll:
            return len(v)
    raise InputError("cannot infer ambient dimension of the zero cone; pass nvars")


def cone_faces(cone, nvars=None, built=None):
    """All faces of the cone (itself and its minimal face included).

    The faces are the facet intersections from :func:`incidence_closures`.
    The atoms are the generating rays, each on the facets whose normal
    vanishes on it; an intersection without rays is the zero cone.  Sorted
    by dimension and rays.  ``built`` maps the tuple of a face's tight rays
    to its cone; faces found there are not built again, and new ones are
    added."""
    n = nvars if nvars is not None else _cone_ambient(cone)
    if built is None:
        built = {}
    incidences = [[j for j, l in enumerate(cone.facet_normals) if dot(l, r) == 0]
                  for r in cone.rays]
    out = []
    for atoms in incidence_closures(incidences, len(cone.facet_normals)):
        tight_rays = tuple(cone.rays[a] for a in atoms)
        if tight_rays not in built:
            built[tight_rays] = (cone_from_rays(list(tight_rays)) if tight_rays
                                 else zero_cone(n))
        out.append(built[tight_rays])
    return sorted(out, key=lambda c: (c.dim, c.rays))


# ---------------------------------------------------------------------------
# Fans
# ---------------------------------------------------------------------------

class Fan:
    """A fan supported on the positive orthant, closed under taking faces:
    ``cones`` lists all of them, sorted by dimension and rays.

    A fan assembled from full-dimensional simplicial cones keeps them as
    its maximal cones, takes its rays from them, and closes them under
    faces only when ``cones`` is first read."""

    def __init__(self, nvars, cones, rays):
        self.nvars = nvars
        self.cones = cones
        self.rays = rays
        self._maximal = None

    @classmethod
    def of_simplices(cls, nvars, maximal):
        """The fan of the full-dimensional simplicial cones ``maximal``,
        distinct and sorted by rays, with its face closure left open."""
        fan = cls.__new__(cls)
        fan.nvars = nvars
        fan.rays = tuple(sorted({r for c in maximal for r in c.rays}))
        fan._maximal = tuple(maximal)
        return fan

    @cached_property
    def cones(self):
        return _face_closure(self.nvars, self._maximal)

    def maximal_cones(self):
        if self._maximal is not None:
            return list(self._maximal)
        return [c for c in self.cones if c.dim == self.nvars]

    def _key(self):
        return self.nvars, self.cones, self.rays

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Fan(nvars=%r, cones=%r, rays=%r)" % self._key()

    def to_json(self):
        ray_index = {r: i for i, r in enumerate(self.rays)}
        cones = sorted(sorted(ray_index[r] for r in c.rays)
                       for c in self.maximal_cones())
        return {"rays": [list(r) for r in self.rays], "cones": cones}


def _face_closure(nvars, max_cones):
    """The cones and all their faces, sorted by dimension and rays.  One
    :func:`cone_faces` memo, seeded with the given cones, serves them all,
    so each distinct face is built once."""
    built = {c.rays: c for c in max_cones}
    for c in max_cones:
        cone_faces(c, nvars, built)
    return tuple(sorted(set(built.values()), key=lambda c: (c.dim, c.rays)))


def fan_from_cones(nvars, max_cones, validate=True):
    """Close the given cones under faces and assemble a fan.

    When the given cones are all full-dimensional and simplicial, they are
    the maximal cones, the closure waits until ``Fan.cones`` is read, and
    :func:`_triangulates_orthant` validates the fan from them alone; any
    other fan, and one the criterion rejects, goes to :func:`validate_fan`,
    which names the fault."""
    if max_cones and all(len(c.rays) == c.dim == nvars for c in max_cones):
        maxs = sorted({c.rays: c for c in max_cones}.values(),
                      key=lambda c: c.rays)
        fan = Fan.of_simplices(nvars, maxs)
        if validate and not _triangulates_orthant(nvars, maxs):
            validate_fan(fan)
        return fan
    cones = _face_closure(nvars, max_cones)
    rays = sorted({c.rays[0] for c in cones if c.dim == 1})
    fan = Fan(nvars, cones, tuple(rays))
    if validate:
        validate_fan(fan)
    return fan


def _triangulates_orthant(n, maxs):
    """True when the distinct full-dimensional simplicial cones ``maxs``
    are the maximal cones of a fan whose support is the orthant.

    This is the pseudomanifold and covering criterion for triangulations
    (De Loera, Rambau & Santos, *Triangulations*, 2010, ch. 4): the rays lie
    in the orthant; each (n-1)-face in a coordinate hyperplane lies in one
    cone, and each other (n-1)-face in exactly two, on opposite sides (the
    signs of two determinants); and the sum of the first cone's rays, a
    point in its interior, lies in no other cone.  The number of cones over
    a generic point is then the same on the whole orthant, namely one."""
    sides = {}
    for c in maxs:
        if any(x < 0 for r in c.rays for x in r):
            return False
        # det[facet; apex] is det(rays) with row i moved last, after
        # n - 1 - i transpositions
        positive = det(list(c.rays)) > 0
        for i in range(n):
            side = positive == ((n - 1 - i) % 2 == 0)
            sides.setdefault(c.rays[:i] + c.rays[i + 1:], []).append(side)
    for facet, signs in sides.items():
        if any(all(r[k] == 0 for r in facet) for k in range(n)):
            if len(signs) != 1:
                return False
        elif sorted(signs) != [False, True]:
            return False
    point = tuple(map(sum, zip(*maxs[0].rays)))
    return sum(c.contains(point) for c in maxs) == 1


def fan_from_json(obj):
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        rays = [tuple(map(exact_int, r)) for r in obj["rays"]]
        cone_rays = [[rays[i] for i in c] for c in obj["cones"]]
        if any(i < 0 for c in obj["cones"] for i in c):
            raise IndexError("negative cone index")
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed fan JSON (%s: %s)"
                         % (type(exc).__name__, exc)) from None
    if not rays:
        raise InputError("fan JSON needs rays")
    n = len(rays[0])
    if not n or any(len(r) != n for r in rays):
        raise InputError("fan rays must share one positive dimension")
    for i, r in enumerate(rays):
        if not any(r):
            raise InputError("fan ray %d is the zero vector" % i)
    for i, c in enumerate(cone_rays):
        if not c:
            raise InputError("fan cone %d has no rays" % i)
    max_cones = [cone_from_rays(c) for c in cone_rays]
    return fan_from_cones(n, max_cones)


def validate_fan(fan):
    """Check the fan axioms and that the support is the whole orthant.

    The fan comes from :func:`fan_from_cones`, so its cones are the faces
    of the cones it was assembled from, and once their rays are known to lie
    in the orthant every cone is pointed and spanned by its rays.  Call a
    cone maximal when its ray set lies in no other cone's ray set; a maximal
    cone is one the fan was assembled from, so all its faces are in the fan.
    Two checks then suffice:

    (a) every cone is a face of each maximal cone whose rays contain its
        rays (checked by facet-ray dot products: the rays of the maximal
        cone on every facet that holds the cone's rays are exactly those
        rays);
    (b) any two maximal cones meet in a cone of the fan whose rays are rays
        of both; by (a) it is then a face of both.

    Lemma: (a) and (b) make any two cones meet in a common face in the fan.
    By (a) each cone is a face of a maximal cone, so take faces t1 of s1
    and t2 of s2 with s1, s2 maximal.  By (b) r = s1 & s2 is a face of
    both.  t1 & r is an intersection of faces of s1 lying in r, hence a
    face of r; so is t2 & r.  Their intersection t1 & t2 is then a face of
    r, hence of s1 and of s2; lying in t1 and t2, it is a face of each, and
    as a face of s1 it is in the fan.  So only the maximal cones are
    intersected, each pair through a double description.
    """
    n = fan.nvars
    for c in fan.cones:
        for r in c.rays:
            if any(x < 0 for x in r):
                raise VerificationError("fan ray %r leaves the orthant" % (r,))
    maxs = fan.maximal_cones()
    if not maxs:
        raise VerificationError("fan has no full-dimensional cone")
    ray_sets = [set(c.rays) for c in fan.cones]
    tops = [(c, rs) for c, rs in zip(fan.cones, ray_sets)
            if not any(rs < other for other in ray_sets)]
    for c, rs in zip(fan.cones, ray_sets):
        for top, top_rays in tops:
            if c is top or not rs <= top_rays:
                continue
            held = [l for l in top.facet_normals
                    if all(dot(l, r) == 0 for r in c.rays)]
            if {r for r in top.rays
                    if all(dot(l, r) == 0 for l in held)} != rs:
                raise VerificationError(
                    "cone %r lies in %r but is not one of its faces"
                    % (c.rays, top.rays))
    cone_set = set(fan.cones)
    for (c1, _), (c2, _) in combinations(tops, 2):
        inter = _intersect_cones(c1, c2, n)
        if inter not in cone_set:
            raise VerificationError(
                "intersection of two cones is not in the fan: %r, %r"
                % (c1.rays, c2.rays))
        if not (set(inter.rays) <= set(c1.rays) and set(inter.rays) <= set(c2.rays)):
            raise VerificationError(
                "intersection of %r and %r is not a common face"
                % (c1.rays, c2.rays))
    # support equals the orthant: every (n-1)-face of a maximal cone either
    # lies in the orthant boundary or is shared by exactly two maximal cones;
    # by (a) its (n-1)-faces are the (n-1)-cones whose rays it holds
    facet_count = {}
    for c, rs in tops:
        for f, f_rays in zip(fan.cones, ray_sets):
            if c.dim == n and f.dim == n - 1 and f_rays <= rs:
                facet_count[f.rays] = facet_count.get(f.rays, 0) + 1
    for rays_key, count in facet_count.items():
        on_boundary = any(all(r[i] == 0 for r in rays_key) for i in range(n))
        expected = 1 if on_boundary else 2
        if count != expected:
            raise VerificationError(
                "support is not the orthant near face %r" % (rays_key,))
    return True


def _intersect_cones(c1, c2, n):
    return _polar_cone(c1.facet_normals + c2.facet_normals,
                       c1.equations + c2.equations, n)


# ---------------------------------------------------------------------------
# The coarsest fan with linear support function
# ---------------------------------------------------------------------------

def face_normal_cone(poly, face):
    """The cone of covectors whose minimum on the polyhedron is attained on
    the whole face: the cone spanned by the normals of the facets that hold
    the face, and the zero cone for the polyhedron itself."""
    normals = [poly.facets[j].normal for j in face.tight_facets]
    return cone_from_rays(normals) if normals else zero_cone(poly.nvars)


def dual_fan(poly):
    """The coarsest fan on the orthant on which the support function of the
    polyhedron is linear; its cones biject with the faces of the polyhedron.

    The orthant boundary must come out unsubdivided (all proper boundary
    cones of the orthant belong to the fan); a subdivided boundary means the
    complement of the polyhedron in the orthant is unbounded in a way the
    downstream resolution cannot use, and is rejected."""
    return dual_fan_of_faces(poly, faces(poly))


def dual_fan_of_faces(poly, poly_faces):
    """The fan of :func:`dual_fan`, from ``poly_faces``, the list
    :func:`polylattice.faces` gives for ``poly``.

    The normal fan of a polyhedron is the set of its faces' normal cones
    (Ziegler, *Lectures on Polytopes*, 7.1), so the fan is read off the face
    lattice: no cone is intersected with another.  The checks are linear in
    the face count: each normal cone has dimension n - dim F, no two faces
    share one, and the zero cone is among them (the polyhedron's own)."""
    n = poly.nvars
    cones = []
    for face in poly_faces:
        c = face_normal_cone(poly, face)
        if c.dim != n - face.dim:
            raise VerificationError("normal cone dimension mismatch")
        cones.append(c)
    if len(set(cones)) != len(cones):
        raise VerificationError("two faces share a normal cone")
    if zero_cone(n) not in cones:
        raise VerificationError("no face has the zero normal cone")
    cones.sort(key=lambda c: (c.dim, c.rays))
    rays = sorted(c.rays[0] for c in cones if c.dim == 1)
    units = set(_std_basis(n))
    for r in rays:
        if any(x == 0 for x in r) and r not in units:
            raise InputError("coordinate-axis condition violated")
    return Fan(n, tuple(cones), tuple(rays))


# ---------------------------------------------------------------------------
# Regular subdivision
# ---------------------------------------------------------------------------

def is_regular(fan):
    """True iff every maximal cone's rays form a lattice basis, so a fan
    with a non-simplicial maximal cone is not regular."""
    n = fan.nvars
    return all(len(c.rays) == n and abs(det(list(c.rays))) == 1
               for c in fan.maximal_cones())


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angle_cmp(u, v):
    d = _det2(u, v)
    if d > 0:
        return -1
    if d < 0:
        return 1
    return 0


def _hj_chain(u, v):
    """Rays of the regular subdivision of the 2D cone <u, v>, u before v
    counterclockwise: the Hirzebruch–Jung continued fraction of the cone
    (Fulton, *Introduction to Toric Varieties*, 1993, §2.6), which are the
    lattice points on the bounded boundary of the convex hull of the
    nonzero lattice points of the cone.  Endpoints included, consecutive
    determinants +-1.

    The ray after w is the lattice point p with det(w, p) = 1 and
    0 <= det(p, v) < det(w, v).  Those p with det(w, p) = 1 are p0 + t w,
    with p0 = (-y, x) from a Bezout identity a x + b y = 1 for the
    primitive w = (a, b), and det(p, v) grows by det(w, v) with t, so one
    t qualifies.  det(w, v) falls at each step and the walk stops at v, the
    only such p with det(p, v) = 0."""
    chain = [tuple(u)]
    w = chain[0]
    gap = _det2(w, v)
    while gap > 0:
        a, b = w
        x = pow(a, -1, b) if b else a
        p0 = ((a * x - 1) // b if b else 0, x)
        t = -(_det2(p0, v) // gap)
        w = (p0[0] + t * a, p0[1] + t * b)
        chain.append(w)
        gap = _det2(w, v)
    if chain[-1] != tuple(v):
        raise VerificationError("continued fraction walk missed the endpoint")
    for a, b in zip(chain, chain[1:]):
        if abs(_det2(a, b)) != 1:
            raise VerificationError("chain step with determinant != 1")
    return chain


def _regularize_2d(fan):
    rays = sorted(fan.rays, key=cmp_to_key(_angle_cmp))
    if rays[0] != (1, 0) or rays[-1] != (0, 1):
        raise InputError("fan must contain the coordinate rays")
    # distinct primitive rays of the quadrant span a cone with exactly
    # those rays, so cones are matched by their ray tuples
    built = {c.rays: c for c in fan.cones}
    new_rays = [rays[0]]
    for u, v in zip(rays, rays[1:]):
        if tuple(sorted((u, v))) not in built:
            raise InputError("2D fan is not a chain of adjacent cones")
        new_rays.extend(_hj_chain(u, v)[1:])
    return fan_from_cones(2, [_simplex_cone(tuple(sorted(pair)), built)
                              for pair in zip(new_rays, new_rays[1:])])


def _simplex_cone(t, built):
    """The cone of the sorted independent rays ``t``: the one in ``built``
    (a :func:`cone_faces` memo, keyed by rays), else a new one."""
    cone = built.get(t)
    return cone if cone is not None else cone_from_rays(list(t))


def _pulling_triangulation(cone, n, built):
    """Pulling triangulation of the cone as sorted ray tuples (De Loera,
    Rambau & Santos, *Triangulations*, 2010, §4.3): a simplicial cone is its
    own; any other is its least ray joined to that of each facet missing
    the ray.  One global ray order cuts a face shared by two cones the same
    way from both.  ``built`` is the :func:`cone_faces` memo."""
    if len(cone.rays) == cone.dim:
        return [cone.rays]
    apex = cone.rays[0]
    return [tuple(sorted((apex,) + s))
            for f in cone_faces(cone, n, built)
            if f.dim == cone.dim - 1 and apex not in f.rays
            for s in _pulling_triangulation(f, n, built)]


def _regularize_stellar(fan):
    """Pulling triangulation, then stellar subdivision until every cone is
    unimodular (Kempf, Knudsen, Mumford & Saint-Donat, *Toroidal Embeddings
    I*, 1973) at w, the shortest point of the half-open parallelepiped of
    the cone of largest multiplicity (least rays on ties).  A simplex with a
    facet normal l and l.w < 0 stays; any other simplex t becomes t - v_i + w
    for each ray v_i whose opposite normal is positive on w.  Each simplex's
    facet normals and multiplicity are computed once.  The cone memo starts
    with the input fan's cones, so a fan that is already regular builds no
    cone."""
    n = fan.nvars
    built = {c.rays: c for c in fan.cones}

    @cache
    def simplex(t):
        return _simplicial_normals(list(t)), abs(det(list(t)))

    cones = {t for c in fan.maximal_cones()
             for t in _pulling_triangulation(c, n, built)}
    for _ in range(STELLAR_STEPS):
        worst = min(cones, key=lambda t: (-simplex(t)[1], t))
        if simplex(worst)[1] == 1:
            return fan_from_cones(n, [_simplex_cone(t, built) for t in cones])
        pts = parallelepiped_points(worst, True, False)
        w = primitive(min(pts, key=lambda p: (sum(x * x for x in p), p)))
        new = set()
        for t in cones:
            sides = [dot(l, w) for l in simplex(t)[0]]
            if min(sides) < 0:
                new.add(t)
                continue
            new.update(tuple(sorted(t[:i] + (w,) + t[i + 1:]))
                       for i, side in enumerate(sides) if side > 0)
        cones = new
    singular = [simplex(t)[1] for t in cones if simplex(t)[1] > 1]
    partial = fan_from_cones(n, [_simplex_cone(t, built) for t in cones],
                             validate=False)
    raise RegularizationError(
        "stellar subdivision stopped at its cap of %d steps with %d singular "
        "cones left, of multiplicity up to %d"
        % (STELLAR_STEPS, len(singular), max(singular)), partial_fan=partial)


def regularize(fan):
    """A regular subdivision of the fan: the continued-fraction walk in 2D,
    stellar subdivision of a pulling triangulation in every other dimension.
    The output refines the input, keeps the support and every input ray,
    and passes is_regular."""
    out = _regularize_2d(fan) if fan.nvars == 2 else _regularize_stellar(fan)
    if not is_regular(out):
        raise VerificationError("regularization produced a singular cone")
    _check_refines(out, fan)
    if not set(fan.rays) <= set(out.rays):
        raise VerificationError("regularization dropped a ray")
    return out


def _check_refines(fine, coarse):
    for c in fine.maximal_cones():
        if not any(all(big.contains(r) for r in c.rays)
                   for big in coarse.maximal_cones()):
            raise VerificationError("output cone not contained in any input cone")


# ---------------------------------------------------------------------------
# Ray data for a fixed polynomial
# ---------------------------------------------------------------------------

@record
class RayData:
    """A non-coordinate ray with its multiplicity for a reference polynomial
    and the multiplicity-normalized covector (None when the multiplicity is
    zero)."""

    generator: tuple
    multiplicity: object
    normalized: object

    def to_json(self):
        return {"generator": list(self.generator),
                "multiplicity": str(self.multiplicity),
                "normalized": [str(x) for x in self.normalized]
                if self.normalized else None}


def multiplicity(ray, h):
    """min of the ray covector over the support of h."""
    if h.is_zero():
        raise InputError("multiplicity of the zero polynomial is undefined")
    return min(dot(ray, m) for m in h.support())


def interior_rays(fan, f):
    """All fan rays except the coordinate rays, with multiplicity data for f.

    Requires the fan to leave the orthant boundary unsubdivided (the
    coordinate rays present and no other ray in a coordinate hyperplane).
    """
    n = fan.nvars
    units = set(_std_basis(n))
    rays = set(fan.rays)
    if not units <= rays:
        raise InputError("missing coordinate rays")
    for r in rays - units:
        if any(x == 0 for x in r):
            raise InputError("boundary of the orthant is subdivided at %r" % (r,))
    out = []
    for r in sorted(rays - units):
        v = multiplicity(r, f)
        normalized = tuple(Fraction(x, v) for x in r) if v > 0 else None
        out.append(RayData(r, v, normalized))
    return out
