"""Exact polyhedral layer: sparse polynomials, Newton polyhedra, faces,
support function, Newton order and normalized volume.

All geometry is done in exact rational arithmetic.  The one nontrivial
primitive is the double description computation in :func:`polar_generators`,
which converts between the generator and inequality views of a rational cone;
hulls of Newton polyhedra are obtained from it by homogenization.  Its
rays are primitive integer vectors, and two rays are adjacent by a
comparison of the bitmasks of the rows tight on them, with no rank
computed.  Face membership is read the same way: :func:`face_parts` takes
each term's tight facets once, as a bitmask, and a term lies on a face when
the face's facets are among them.
"""

from fractions import Fraction
from itertools import product
import json
import math
import re

from ._record import record
from .errors import InputError
from .linalg import (det, dot, hermite_basis, kernel_basis, primitive, rank,
                     rref, signed_minors, vec_sub)


class _Infinity:
    """Newton order of the zero series; compares above every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()


# ---------------------------------------------------------------------------
# Sparse polynomials
# ---------------------------------------------------------------------------

# The term and variable patterns of :meth:`SparsePoly.parse`, compiled on the
# first parse (``re`` caches them), so that a launch reading only JSON
# polynomials compiles neither.
_TERM_PATTERN = r"^\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?((?:x\d+(?:\^\d+)?(?:\s*\*\s*)?)*)\s*$"
_VAR_PATTERN = r"x(\d+)(?:\^(\d+))?"


def exact_int(x):
    """x as an int; ValueError when int() would change it (1.5, "1")."""
    if int(x) != x:
        raise ValueError("non-integral value %r" % (x,))
    return int(x)


class SparsePoly:
    """Finitely supported exponent -> rational coefficient map.

    Immutable; zero coefficients are never stored, every exponent tuple has
    length ``nvars``, and the terms are in increasing exponent order.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        clean = {}
        for e, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            e = tuple(int(x) for x in e)
            if len(e) != nvars:
                raise InputError("exponent length %d != nvars %d" % (len(e), nvars))
            if any(x < 0 for x in e):
                raise InputError("negative exponent in %r" % (e,))
            clean[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of_clean_terms(cls, nvars, terms):
        """The polynomial with exactly these ``terms``, taken as they are:
        ``Fraction`` coefficients, none zero, and exponent tuples of ``int``
        >= 0 of length ``nvars``, in increasing order.  Only for terms
        derived from an existing polynomial, whose exponents and
        coefficients ``__init__`` has already checked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        return poly

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def monomial(cls, exponent, coeff=1):
        return cls(len(exponent), {tuple(exponent): Fraction(coeff)})

    @classmethod
    def parse(cls, text, nvars=None):
        """Parse ``c*x1^a1*...*xn^an`` terms joined by ``+``/``-``.

        Coefficients are integers or ``p/q``; ``nvars`` is inferred from the
        largest variable index when not given.  The signs in a run between
        two terms multiply, so ``x1 + -1*x2`` (as ``str`` writes it) and
        ``--x1`` parse; a second ``+`` in one run marks a missing term and is
        rejected, as is text that ends on a sign.
        """
        text = text.strip()
        if not text:
            raise InputError("empty polynomial text")
        chunks = []
        sign, plus, buf = 1, False, ""
        for ch in text:
            if ch in "+-":
                if buf.strip():
                    chunks.append((sign, buf))
                    sign, plus = 1, False
                if ch == "-":
                    sign = -sign
                elif plus:
                    raise InputError("dangling sign in %r" % text)
                else:
                    plus = True
                buf = ""
            else:
                buf += ch
        if not buf.strip():
            raise InputError("trailing operator in %r" % text)
        chunks.append((sign, buf))

        term_re, var_re = re.compile(_TERM_PATTERN), re.compile(_VAR_PATTERN)
        raw = []
        maxvar = 0
        for sign, chunk in chunks:
            m = term_re.match(chunk)
            if not m:
                raise InputError("cannot parse term %r" % chunk.strip())
            try:
                coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            except ZeroDivisionError:
                raise InputError("zero denominator in %r" % chunk.strip()) from None
            exps = {}
            for vm in var_re.finditer(m.group(2) or ""):
                idx = int(vm.group(1))
                if idx < 1:
                    raise InputError("variable indices start at x1")
                power = int(vm.group(2)) if vm.group(2) else 1
                exps[idx] = exps.get(idx, 0) + power
                maxvar = max(maxvar, idx)
            if m.group(1) is None and not exps:
                raise InputError("cannot parse term %r" % chunk.strip())
            raw.append((sign * coeff, exps))
        if nvars is None:
            nvars = max(maxvar, 1)
        elif maxvar > nvars:
            raise InputError("variable x%d exceeds nvars=%d" % (maxvar, nvars))
        terms = {}
        for coeff, exps in raw:
            e = tuple(exps.get(i + 1, 0) for i in range(nvars))
            terms[e] = terms.get(e, Fraction(0)) + coeff
        return cls(nvars, terms)

    @classmethod
    def from_json(cls, obj):
        try:
            if isinstance(obj, str):
                obj = json.loads(obj)
            terms = {}
            for t in obj["terms"]:
                e = tuple(map(exact_int, t["e"]))
                terms[e] = Fraction(str(t["c"]))
            nvars = int(obj["nvars"])
            return cls(nvars, terms)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError("malformed JSON polynomial (%s: %s)"
                             % (type(exc).__name__, exc)) from None

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def support(self):
        return list(self.terms.keys())

    def coeff(self, exponent):
        return self.terms.get(tuple(exponent), Fraction(0))

    def order(self):
        """Minimal total degree of a term (INFINITY for the zero polynomial)."""
        if not self.terms:
            return INFINITY
        return min(sum(e) for e in self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return SparsePoly(self.nvars, terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) - c
        return SparsePoly(self.nvars, terms)

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return SparsePoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        return self.mul_truncated(other, None)

    def mul_truncated(self, other, max_total_degree):
        """Product, dropping terms of total degree beyond the cap."""
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if max_total_degree is not None and sum(e) > max_total_degree:
                    continue
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return SparsePoly(self.nvars, terms)

    def power(self, k):
        result = SparsePoly.monomial((0,) * self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def x_ddx(self, i):
        """The operator x_i * d/dx_i (keeps the support inside the original)."""
        return SparsePoly._of_clean_terms(
            self.nvars, {e: c * e[i] for e, c in self.terms.items() if e[i]})

    def restrict_to_axis(self, i):
        """Terms supported on the i-th coordinate axis only."""
        return SparsePoly(self.nvars,
                          {e: c for e, c in self.terms.items()
                           if all(x == 0 for j, x in enumerate(e) if j != i)})

    # -- output ------------------------------------------------------------

    def to_json(self):
        return {"nvars": self.nvars,
                "terms": [{"e": list(e), "c": str(c)}
                          for e, c in sorted(self.terms.items())]}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for i, a in enumerate(e):
                if a == 1:
                    factors.append("x%d" % (i + 1))
                elif a > 1:
                    factors.append("x%d^%d" % (i + 1, a))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "SparsePoly(%s)" % self

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))


# ---------------------------------------------------------------------------
# Double description: generators of a cone cut out by inequalities
# ---------------------------------------------------------------------------

def _simplicial_normals(rays):
    """Facet normals of the cone over n vectors in n-space, the one opposite
    each ray in turn, or None when the vectors are dependent.  Each is the
    primitive vector C with C.x = +-det[x; other rays], which vanishes on
    the other rays, signed by its value on its own ray: that value is
    +-det of all the rays, so it is zero for one ray exactly when it is
    zero for all.  The vectors must be integers, as ``signed_minors``
    divides exactly: :func:`_dd_extreme_rays` and
    :func:`parallelepiped_points` pass integer rows, ``fan.cone_from_rays``
    primitive ones."""
    normals = []
    for i, ray in enumerate(rays):
        c = signed_minors(rays[:i] + rays[i + 1:])
        side = dot(c, ray)
        if not side:
            return None
        normals.append(primitive(c if side > 0 else [-x for x in c]))
    return normals


def _dd_extreme_rays(rows, dim):
    """Extreme rays of the pointed cone {x : r.x >= 0 for all r in rows}.

    Requires integer rows of rank dim (pointedness).  Incremental double
    description: start from the simplicial cone of ``dim`` independent rows,
    whose rays are their :func:`_simplicial_normals`, insert the remaining
    inequalities one at a time, combining adjacent positive and negative
    rays.  Each ray carries its zero set, the bitmask of the rows inserted
    so far that are tight on it.  Adjacency is the combinatorial
    test (Fukuda and Prodon, "Double description method revisited", 1996,
    Prop. 7): the common zero set of two rays has at least dim - 2 rows and
    lies in the zero set of no third ray.  The current cone stays pointed
    and its rays are exactly its extreme rays, so this is the algebraic
    test (the rows tight on both rays have rank dim - 2) without a rank.
    """
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
    # ray i is tight on every base row but row i; base rows are bits 0..dim-1
    everything = (1 << dim) - 1
    zeros = {ray: everything ^ (1 << i)
             for i, ray in enumerate(_simplicial_normals(base))}

    for bit, a in enumerate(rest, dim):
        bit = 1 << bit
        vals = {r: dot(a, r) for r in zeros}
        masks = list(zeros.values())
        pos = [r for r, v in vals.items() if v > 0]
        neg = [r for r, v in vals.items() if v < 0]
        new = {}
        for rp in pos:
            zp = zeros[rp]
            for rn in neg:
                common = zp & zeros[rn]
                if common.bit_count() < dim - 2 or \
                        sum(z & common == common for z in masks) > 2:
                    continue
                w = tuple(vals[rp] * x - vals[rn] * y
                          for x, y in zip(rn, rp))
                new[primitive(w)] = common | bit
        for r, v in vals.items():
            if v < 0:
                del zeros[r]
            elif v == 0:
                zeros[r] |= bit
        zeros.update(new)
    return sorted(zeros)


def polar_generators(ineqs, equations=(), *, dim):
    """Generators of C = {x : r.x >= 0 for r in ineqs, e.x = 0 for e in equations}
    in the ambient space of dimension ``dim``.

    Returns ``(lineality_basis, extreme_rays)``: a basis of the largest linear
    subspace of C plus the extreme rays of a pointed complement.  Both lists
    hold primitive integer vectors in the ambient space.
    """
    # an integer basis of the subspace; coordinates are taken against it
    sub = [primitive(w) for w in kernel_basis(list(equations), ncols=dim)] \
        if equations else [tuple(int(i == j) for j in range(dim))
                           for i in range(dim)]
    if not sub:
        return [], []

    def ambient(coords, basis):
        # a positive multiple of the point with these coordinates, so its
        # primitive vector is the same
        y = primitive(coords)
        return primitive(tuple(sum(a * w[k] for a, w in zip(y, basis))
                               for k in range(dim)))

    # inequality matrix in subspace coordinates
    restricted = [tuple(dot(r, w) for w in sub) for r in ineqs]
    lin_coords = kernel_basis(restricted, ncols=len(sub))
    lineality = [ambient(lc, sub) for lc in lin_coords]
    # complement of the lineality inside the subspace
    red, pivots = rref(lin_coords) if lin_coords else ([], [])
    comp_idx = [i for i in range(len(sub)) if i not in pivots]
    comp = [sub[i] for i in comp_idx]
    if not comp:
        return lineality, []
    pointed_rows = []
    for r in ineqs:
        pointed_rows.append(tuple(dot(r, w) for w in comp))
    rays_coords = _dd_extreme_rays(pointed_rows, len(comp))
    rays = [ambient(rc, comp) for rc in rays_coords]
    return lineality, sorted(rays)


def polyhedron_hull(points, recession=()):
    """Facet description of conv(points) + cone(recession).

    Returns ``(equations, facets)``: affine-hull equations as ``(normal, c)``
    with normal.x = c on the polyhedron, and facets as ``(normal, c)`` with
    normal.x >= c.  Normals are primitive integer vectors; offsets exact.
    Obtained from the polar of the homogenization cone.
    """
    if not points:
        raise ValueError("no points")
    n = len(points[0])
    gens = [tuple(p) + (1,) for p in points]
    gens += [tuple(r) + (0,) for r in recession]
    lin, rays = polar_generators([primitive(g) for g in gens], dim=n + 1)
    equations = []
    for l in lin:
        normal, c = l[:n], l[n]
        if any(x != 0 for x in normal):
            equations.append((normal, -c))
        elif c != 0:
            raise ValueError("inconsistent hull (empty polyhedron?)")
    facets = []
    for l in rays:
        normal, c = l[:n], l[n]
        if all(x == 0 for x in normal):
            continue  # homogenization artifact, no facet of P
        facets.append((normal, -c))
    return equations, facets


def _vertices(points, equations, facets):
    """The points at which the equation normals and the normals of the
    tight facets have full rank: the vertices of the polyhedron with these
    ``(normal, offset)`` equations and facets, among ``points``."""
    normals = [e for e, _ in equations]
    return [p for p in points if rank(
        normals + [l for l, c in facets if dot(l, p) == c]) == len(p)]


def hull_vertices(points):
    """Vertices of conv(points), as a sublist of ``points``."""
    distinct = dict.fromkeys(tuple(map(Fraction, p)) for p in points)
    return _vertices(list(distinct), *polyhedron_hull(points))


# ---------------------------------------------------------------------------
# Newton polyhedra
# ---------------------------------------------------------------------------

@record
class Facet:
    normal: tuple          # primitive integer covector l, l(m) >= offset on the polyhedron
    offset: int
    compact: bool          # the facet is a bounded set (normal strictly positive)


@record
class NewtonPolyhedron:
    """conv(supp f) + R_+^n by vertices and facet inequalities."""

    nvars: int
    vertices: tuple
    facets: tuple

    def contains(self, m, dilation=1):
        """Membership of m in dilation * polyhedron."""
        return all(dot(f.normal, m) >= dilation * f.offset for f in self.facets)

    def interior_contains(self, m, dilation=1):
        return all(dot(f.normal, m) > dilation * f.offset for f in self.facets)

    def positive_facets(self):
        return [f for f in self.facets if f.offset > 0]

    def to_json(self):
        return {"vertices": [list(v) for v in self.vertices],
                "facets": [{"l": list(f.normal), "s": f.offset}
                           for f in self.facets]}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        verts = tuple(tuple(int(x) for x in v) for v in obj["vertices"])
        n = len(verts[0])
        facets = []
        for f in obj["facets"]:
            normal = tuple(int(x) for x in f["l"])
            facets.append(Facet(normal, int(f["s"]), all(x > 0 for x in normal)))
        return cls(n, verts, tuple(facets))


def newton_polyhedron(f):
    """Vertices and facet inequalities of conv(supp f) + R_+^n."""
    if f.is_zero():
        raise InputError("empty support")
    n = f.nvars
    supp = f.support()
    minimal = [p for p in supp
               if not any(q != p and all(a <= b for a, b in zip(q, p))
                          for q in supp)]
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    equations, raw_facets = polyhedron_hull(minimal, unit)
    if equations:
        raise ValueError("Newton polyhedron must be full-dimensional")
    facets = []
    for normal, _ in raw_facets:
        normal = primitive(normal)
        offset = min(dot(normal, p) for p in minimal)
        facets.append(Facet(tuple(int(x) for x in normal), int(offset),
                            all(x > 0 for x in normal)))
    facets.sort(key=lambda fc: (fc.normal, fc.offset))
    verts = sorted(tuple(int(x) for x in p)
                   for p in _vertices(minimal, (), raw_facets))
    return NewtonPolyhedron(n, tuple(verts), tuple(facets))


def support_function(poly, a):
    """min a(Delta) over the polyhedron; requires a >= 0 componentwise."""
    if any(x < 0 for x in a):
        raise InputError("unbounded below")
    return min(dot(a, v) for v in poly.vertices)


@record
class FaceDescriptor:
    """A face of a Newton polyhedron.

    The face equals conv(listed vertices) + cone(e_i : i in recession_axes);
    ``tight_facets`` indexes every facet of the polyhedron containing it, and
    ``normal_certificate`` is a nonnegative covector whose minimum on the
    polyhedron is attained exactly on this face.
    """

    polyhedron: NewtonPolyhedron
    vertex_indices: tuple
    tight_facets: tuple
    recession_axes: tuple
    dim: int
    compact: bool
    in_coordinate_hyperplane: bool
    normal_certificate: tuple

    def vertices(self):
        return [self.polyhedron.vertices[i] for i in self.vertex_indices]

    def contains(self, m, dilation=1):
        """Membership of m in dilation * face."""
        poly = self.polyhedron
        if not poly.contains(m, dilation):
            return False
        tight = set(self.tight_facets)
        return all(dot(poly.facets[j].normal, m) == dilation * poly.facets[j].offset
                   for j in tight)

    def relative_interior_contains(self, m, dilation=1):
        poly = self.polyhedron
        tight = set(self.tight_facets)
        for j, fc in enumerate(poly.facets):
            v = dot(fc.normal, m)
            bound = dilation * fc.offset
            if j in tight:
                if v != bound:
                    return False
            elif v <= bound:
                return False
        return True


def incidence_closures(incidences, nfacets):
    """Every distinct intersection of facets of an object, as the sorted
    tuple of the atoms it contains.

    ``incidences[a]`` lists the facets (indices below ``nfacets``) that atom
    ``a`` lies on.  The intersections are generated top down, after Kaibel
    and Pfetsch (Comput. Geom. 23, 2002): each one found is cut with each
    facet, and a result is kept once per atom set.  The work is
    O(intersections * facets) bitmask intersections.

    The list is in the order in which a scan of facet subsets, by size and
    then lexicographically, first reaches each intersection; the whole
    object (no facet) comes first, and the empty intersection is included
    when there is one.  The first subset of an intersection is found level
    by level: dropping any facet from the first subset of size d leaves the
    first subset of a parent one level up, so it is the least
    ``sorted(parent subset + (facet,))`` over those parents.
    """
    on_facet = [0] * nfacets
    for a, tight in enumerate(incidences):
        for j in tight:
            on_facet[j] |= 1 << a
    level = {(1 << len(incidences)) - 1: ()}
    seen = set(level)
    order = list(level)
    while level:
        below = {}
        for mask, subset in level.items():
            for j, facet in enumerate(on_facet):
                cut = mask & facet
                if cut in seen:
                    continue
                candidate = tuple(sorted(subset + (j,)))
                if cut not in below or candidate < below[cut]:
                    below[cut] = candidate
        seen.update(below)
        order += sorted(below, key=below.get)
        level = below
    return [tuple(a for a in range(len(incidences)) if mask >> a & 1)
            for mask in order]


def faces(poly):
    """All faces of the polyhedron, the polyhedron itself included.

    The faces are the facet intersections from :func:`incidence_closures`
    that contain a vertex.  The atoms are the vertices, each on the facets
    tight at it, and the coordinate axes, each on the facets whose normal
    is zero there; a face is conv(its vertices) + cone(its axes).  Sorted by
    dimension and vertex indices; ties keep the order of the first facet
    subset that cuts each face out.
    """
    n = poly.nvars
    nv = len(poly.vertices)
    incidences = [[j for j, fc in enumerate(poly.facets)
                   if dot(fc.normal, v) == fc.offset] for v in poly.vertices]
    incidences += [[j for j, fc in enumerate(poly.facets) if fc.normal[i] == 0]
                   for i in range(n)]
    out = []
    for atoms in incidence_closures(incidences, len(poly.facets)):
        vidx = [a for a in atoms if a < nv]
        if not vidx:
            continue
        axes = [a - nv for a in atoms if a >= nv]
        # every facet tight on the whole face
        tight = sorted(set(incidences[vidx[0]]).intersection(
            *(incidences[a] for a in atoms)))
        v0 = poly.vertices[vidx[0]]
        spanning = [vec_sub(poly.vertices[i], v0) for i in vidx[1:]]
        spanning += [tuple(int(i == k) for k in range(n)) for i in axes]
        dim = rank(spanning)
        compact = not axes
        in_hyp = any(all(poly.vertices[i][k] == 0 for i in vidx) and k not in axes
                     for k in range(n))
        cert = tuple(sum(poly.facets[j].normal[k] for j in tight)
                     for k in range(n))
        out.append(FaceDescriptor(poly, tuple(vidx), tuple(tight), tuple(axes),
                                  dim, compact, in_hyp, cert))
    return sorted(out, key=lambda f: (f.dim, f.vertex_indices))


def compact_faces(poly):
    return [f for f in faces(poly) if f.compact]


def face_parts(g, faces):
    """The restriction of g to each face: the terms whose exponents lie on
    it, as :meth:`FaceDescriptor.contains` decides.

    Each term's facet values are taken once per polyhedron: a term lies on
    a face when it is inside the polyhedron and every facet tight on the
    face is tight on the term (the face's facet bitmask is a subset of the
    term's)."""
    tight = {}  # id(polyhedron) -> [(exponent, coefficient, facet bitmask)]
    out = []
    for face in faces:
        poly = face.polyhedron
        if id(poly) not in tight:
            tight[id(poly)] = terms = []
            for e, c in g.terms.items():
                mask = 0
                for j, fc in enumerate(poly.facets):
                    v = dot(fc.normal, e)
                    if v < fc.offset:
                        break
                    if v == fc.offset:
                        mask |= 1 << j
                else:
                    terms.append((e, c, mask))
        need = sum(1 << j for j in face.tight_facets)
        out.append(SparsePoly._of_clean_terms(
            g.nvars, {e: c for e, c, mask in tight[id(poly)]
                      if mask & need == need}))
    return out


def face_part(g, face):
    """Restriction of g to the terms whose exponents lie on the face."""
    return face_parts(g, [face])[0]


def newton_order(g, poly):
    """nu(g): the largest a with supp(g) inside a*Delta (INFINITY for g = 0).

    Facets with offset 0 never constrain (exponents and normals are both
    nonnegative), so the order is the minimum of l(m)/s over support points
    and positive-offset facets.
    """
    if g.is_zero():
        return INFINITY
    pos = poly.positive_facets()
    if not pos:
        return INFINITY
    return min(Fraction(dot(f.normal, m), f.offset)
               for m in g.support() for f in pos)


# ---------------------------------------------------------------------------
# Volume and lattice points
# ---------------------------------------------------------------------------

def _triangulate(points):
    """Triangulation of conv(points) into simplices on its vertex set.

    Recursive pyramid decomposition: star every facet not containing a chosen
    base vertex.  Works in any affine dimension; returns lists of points.
    """
    pts = sorted(set(tuple(map(Fraction, p)) for p in points))
    if len(pts) == 1:
        return [pts]
    p0 = pts[0]
    d = rank([vec_sub(p, p0) for p in pts[1:]])
    if len(pts) == d + 1:
        return [pts]
    equations, facets = polyhedron_hull(pts)
    verts = _vertices(pts, equations, facets)
    if len(verts) == d + 1:
        return [verts]
    v0 = verts[0]
    simplices = []
    for normal, c in facets:
        if dot(normal, v0) == c:
            continue
        fpts = [p for p in verts if dot(normal, p) == c]
        for sub in _triangulate(fpts):
            simplices.append([v0] + sub)
    return simplices


def normalized_volume(points):
    """n! times the Euclidean volume of conv(points), as an exact integer."""
    pts = [tuple(map(Fraction, p)) for p in points]
    n = len(pts[0])
    if rank([vec_sub(p, pts[0]) for p in pts[1:]]) < n:
        raise ValueError("not full-dimensional")
    total = Fraction(0)
    for simplex in _triangulate(pts):
        mat = [vec_sub(p, simplex[0]) for p in simplex[1:]]
        total += abs(det(mat))
    if total.denominator != 1:
        raise ValueError("normalized volume came out non-integer")
    return int(total)


def lattice_points(lo, hi, ineqs=(), eqs=()):
    """Lattice points m of the box lo <= m <= hi with a.m >= b for every
    inequality ``(a, b, strict)`` (a.m > b when ``strict``) and a.m = b for
    every equation ``(a, b)``, in lexicographic order.

    Rows may be rational.  Each is scaled once to a primitive integer row,
    which turns a strict inequality into a.m >= b + 1.  Coordinates are fixed
    one at a time, and the range of each is cut to the values for which every
    row can still be met by some completion inside the box, so a prefix that
    cannot be completed is never extended and every point reached at the
    last coordinate satisfies all rows.
    """
    lo = [math.ceil(x) for x in lo]
    hi = [math.floor(x) for x in hi]
    if any(l > h for l, h in zip(lo, hi)):
        return []
    n = len(lo)
    rows = []  # (coefficients, low, high): low <= coefficients.m <= high
    for a, b, strict in ineqs:
        *coeffs, rhs = primitive(tuple(a) + (b,))
        rows.append((coeffs, rhs + 1 if strict else rhs, None))
    for a, b in eqs:
        *coeffs, rhs = primitive(tuple(a) + (b,))
        rows.append((coeffs, rhs, rhs))
    # range of sum(coeffs[j] * m_j for j >= k) over the box, for each row
    rest_min, rest_max = [], []
    for coeffs, _, _ in rows:
        mins, maxs = [0] * (n + 1), [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            ends = (coeffs[j] * lo[j], coeffs[j] * hi[j])
            mins[j] = mins[j + 1] + min(ends)
            maxs[j] = maxs[j + 1] + max(ends)
        rest_min.append(mins)
        rest_max.append(maxs)
    out = []
    point = [0] * n

    def scan(k, sums):
        first, last = lo[k], hi[k]
        for (coeffs, low, high), mins, maxs, s in zip(rows, rest_min,
                                                       rest_max, sums):
            a = coeffs[k]
            # a * m_k must lie in [need_lo, need_hi]
            need_lo = low - s - maxs[k + 1]
            need_hi = None if high is None else high - s - mins[k + 1]
            if a > 0:
                first = max(first, -(-need_lo // a))
                if need_hi is not None:
                    last = min(last, need_hi // a)
            elif a < 0:
                last = min(last, need_lo // a)
                if need_hi is not None:
                    first = max(first, -(-need_hi // a))
            elif need_lo > 0 or (need_hi is not None and need_hi < 0):
                return
        for x in range(first, last + 1):
            point[k] = x
            if k + 1 == n:
                out.append(tuple(point))
            else:
                scan(k + 1, [s + coeffs[k] * x
                             for (coeffs, _, _), s in zip(rows, sums)])

    scan(0, [0] * len(rows))
    return out


def parallelepiped_points(rays, low_closed, high_closed):
    """Nonzero lattice points sum(t_i * r_i) over linearly independent
    integer rays with every t_i between 0 and 1, sorted; each end of that
    interval is included when its flag is set.

    The points with t in [0, 1)^k are one per coset of the rays' lattice.
    On k pivot columns (:func:`linalg.rref`) the rays form a square S, and
    the box 0 <= y_i < H_ii of S's Hermite basis holds one y per coset of
    the lattice of S.  The facet normals of S give t = y S^-1 mod 1 in
    integers over a common denominator, a t_i of 0 stands for each closed
    end, and a point is kept when sum(t_i * r_i) is integral."""
    _, pivots = rref(rays)
    if len(pivots) < len(rays):
        raise ValueError("parallelepiped rays are not independent")
    square = [[r[c] for c in pivots] for r in rays]
    normals = _simplicial_normals(square)
    sides = [dot(l, s) for l, s in zip(normals, square)]
    den = math.lcm(*sides)
    ends = [e for e, closed in ((0, low_closed), (den, high_closed)) if closed]
    out = []
    for y in product(*(range(row[i])
                       for i, row in enumerate(hermite_basis(square)))):
        t = [dot(l, y) % side * (den // side)
             for l, side in zip(normals, sides)]
        for c in product(*((ti,) if ti else ends for ti in t)):
            scaled = [dot(c, col) for col in zip(*rays)]
            if any(scaled) and not any(x % den for x in scaled):
                out.append(tuple(x // den for x in scaled))
    return sorted(out)


def polytope_lattice_points(points, interior=False, dilation=1):
    """Lattice points of dilation*conv(points); relative interior on request."""
    pts = [tuple(Fraction(x) * dilation for x in p) for p in points]
    equations, facets = polyhedron_hull(pts)
    n = len(pts[0])
    lo = [min(p[i] for p in pts) for i in range(n)]
    hi = [max(p[i] for p in pts) for i in range(n)]
    return lattice_points(lo, hi, [(a, c, interior) for a, c in facets],
                          equations)
