"""Grothendieck residues at the origin: coefficient extraction for monomial
denominators, the general case as the trace functional of the certified
quotient read off the Bezoutian, and the lattice-point Koszul and trace
models on compact polytopes.

The normalization absorbs all transcendental factors, so a residue against
monomial denominators x^(a_1), ..., x^(a_n) is the bare coefficient of
x^(a-1) and every value produced here is rational."""

from fractions import Fraction
from itertools import combinations
from operator import add
import math
import random

from ._record import record
from .errors import CapError, InputError, VerificationError
from .facering import canonical_quotient, class_nonzero, face_cone, \
    face_derivatives, select_parameters
from .linalg import Echelon, _integral, rank, solve
from .localalg import certified_ideal, ideal_generators
from .polylattice import (SparsePoly, hull_vertices, lattice_points,
                          normalized_volume, polytope_lattice_points)

# Random section tuples :func:`koszul_check` draws before it reports failure.
KOSZUL_ATTEMPTS = 5

# The most lattice points of the (n+1)-dilate interior that
# :func:`koszul_top_dimension` takes.  Its echelon work grows steeply with
# that count: one trial on the triangle of side S takes 2.1 s at S = 7
# (190 points) and 8.7 s at S = 8 (253), and one on the 3-simplex of side 3
# (165 points) takes 0.8 s (one run each, a shared two-core x86-64 host,
# Python 3.11).
MAX_KOSZUL_MONOMIALS = 200


@record
class ResidueResult:
    value: Fraction
    truncation_used: int
    stable: bool

    def to_json(self):
        return {"value": str(self.value),
                "truncation_used": self.truncation_used,
                "stable": self.stable}


def monomial_residue(g, a):
    """Residue of g dx against the denominators x_i^(a_i): the coefficient of
    x^(a-1) in g."""
    if any(x < 1 for x in a):
        raise InputError("monomial exponents must be at least 1")
    return g.coeff(tuple(x - 1 for x in a))


def _truncated_det(matrix, N):
    """Determinant of a matrix of {(x exponent, y exponent): coefficient}
    dicts, products cut below x- and y-degree N."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = {}
    for j, entry in enumerate(matrix[0]):
        minor = _truncated_det([row[:j] + row[j + 1:] for row in matrix[1:]],
                               N)
        sign = -1 if j % 2 else 1
        for (a1, b1), c1 in entry.items():
            for (a2, b2), c2 in minor.items():
                a = tuple(map(add, a1, a2))
                b = tuple(map(add, b1, b2))
                if sum(a) < N and sum(b) < N:
                    total[a, b] = total.get((a, b), 0) + sign * c1 * c2
    return {k: v for k, v in total.items() if v}


def _bezoutian(system, N):
    """The Bezoutian det[theta_ij] of the system with each generator cleared
    of denominators, below x- and y-degree N, and the product of the
    denominators cleared.  Here theta_ij = (f_i(y_<j, x_>=j) -
    f_i(y_<=j, x_>j)) / (x_j - y_j), which for a term c*z^e is
    c * y^(e_<j) * x^(e_>j) * sum_k x_j^k * y_j^(e_j-1-k)."""
    n = len(system)
    matrix, scale = [], 1
    for f in system:
        terms, l = _integral(f.terms)
        scale *= l
        row = []
        for j in range(n):
            theta = {}
            for e, c in terms.items():
                for k in range(e[j]):
                    a = (0,) * j + (k,) + e[j + 1:]
                    b = e[:j] + (e[j] - 1 - k,) + (0,) * (n - 1 - j)
                    if sum(a) < N and sum(b) < N:
                        theta[a, b] = theta.get((a, b), 0) + c
            row.append(theta)
        matrix.append(row)
    return _truncated_det(matrix, N), scale


def grothendieck_residue(g, system, D=None):
    """Residue of g dx against a system of finite colength, as the trace
    functional of its certified quotient (see :func:`trace_functional`).
    ``D`` is a lower bound on the truncation of the span."""
    system = list(system)
    if not system:
        raise InputError("empty denominator system")
    n = system[0].nvars
    if g.nvars != n or any(s.nvars != n for s in system):
        raise InputError("variable count mismatch")
    if len(system) != n:
        raise InputError("need exactly n denominators")
    span = certified_ideal(system, min_D=D or 0)
    return trace_functional(system, span).residue(g)


class TraceFunctional:
    """The trace functional tau of a certified quotient, by its values on the
    quotient basis; ``scale`` is the product of the denominators the
    Bezoutian cleared."""

    __slots__ = ("span", "values", "scale")

    def __init__(self, span, values, scale):
        self.span = span
        self.values = values
        self.scale = scale

    def residue(self, g):
        """Residue of g dx: tau of the normal form of g."""
        value = sum((self.values[m] * c
                     for m, c in self.span.reduce(g).items()), Fraction(0))
        return ResidueResult(self.scale * value, self.span.algebra.D, True)


def trace_functional(system, span):
    """The trace functional tau of the quotient A by ``system``, whose
    certified span is ``span`` (Scheja & Storch, J. reine angew. Math.
    278/279, 1975).

    In A (x) A the Bezoutian is sum_k e_k(x) B_k(y) over the quotient basis
    e_k, and the e_k and B_k are dual bases for the residue pairing, so
    sum_k tau(e_k) B_k = 1 in A.  That linear system gives every tau(e_k),
    and tau(g) = sum_k NF(g)_k tau(e_k).  Monomials of degree m_power_bound
    lie in the ideal, so the Bezoutian is needed only below that degree in
    x and in y."""
    basis = span.quotient_basis()
    index = {m: i for i, m in enumerate(basis)}
    delta, scale = _bezoutian(system, span.m_power_bound)
    y_parts = {}
    for (a, b), c in delta.items():
        y_parts.setdefault(a, {})[b] = c
    dual = [{} for _ in basis]
    for a, part in y_parts.items():
        for m, v in span.reduce({a: 1}).items():
            B = dual[index[m]]
            for b, c in part.items():
                B[b] = B.get(b, 0) + v * c
    normal_forms = [span.reduce(B) for B in dual]
    tau = solve([[nf.get(m, 0) for nf in normal_forms] for m in basis],
                [int(not any(m)) for m in basis])
    if tau is None:
        raise VerificationError("the Bezoutian gives no trace functional")
    return TraceFunctional(span, dict(zip(basis, tau)), scale)


def verify_residue_nonvanishing(f, face, h, r, D=None):
    """The residue of f^r h dx against (x_i f_xi) for h with x1...xn*h
    supported in the relative interior of the (n-r)-dilated face and with a
    nonzero class in the quotient module; the value is checked nonzero."""
    fcone = face_cone(face)
    if fcone.r != r:
        raise InputError("face has r = %d, got %d" % (fcone.r, r))
    g = interior_class(f, face, h, r)
    params = select_parameters(face_derivatives(f, face), fcone)
    quotient = canonical_quotient(fcone, params)
    log_gens, _ = ideal_generators(f)
    return nonvanishing_residue(
        f, h, r, g, quotient,
        lambda p: grothendieck_residue(p, list(log_gens), D=D))


def interior_class(f, face, h, r):
    """x1...xn*h, checked nonzero and supported in the relative interior of
    the (n-r)-dilated face."""
    n = f.nvars
    x_all = SparsePoly.monomial((1,) * n)
    g = x_all * h
    if g.is_zero():
        raise InputError("h must be nonzero")
    for m in g.support():
        if not face.relative_interior_contains(m, n - r):
            raise InputError(
                "support of x1...xn*h not in the relative interior of the "
                "(n-r)-dilated face at %r" % (m,))
    return g


def nonvanishing_residue(f, h, r, g, quotient, log_residue):
    """The residue of f^r h dx by ``log_residue`` (the residue map of
    (x_i f_xi)), once g = x1...xn*h is checked to have a nonzero class in
    the face ``quotient``; a zero value raises."""
    if not class_nonzero(g, quotient):
        raise InputError("class of x1...xn*h vanishes in the quotient module")
    result = log_residue(f.power(r) * h)
    if result.value == 0:
        raise VerificationError(
            "residue vanished for a nonzero class: f=%s, h=%s, r=%d"
            % (f, h, r))
    return result


# ---------------------------------------------------------------------------
# Lattice-point models on compact polytopes
# ---------------------------------------------------------------------------

@record
class LatticeSpace:
    polytope: tuple
    dilation: int
    interior: bool
    points: tuple

    def to_json(self):
        return {"dilation": self.dilation, "interior": self.interior,
                "points": [list(p) for p in self.points]}


def lattice_space(polytope_points, dilation, interior=False):
    """Lattice points of the dilated polytope, or of its interior."""
    if dilation < 0:
        raise InputError("dilation must be nonnegative")
    pts = [tuple(p) for p in polytope_points]
    if dilation == 0:
        n = len(pts[0])
        origin = (0,) * n
        return LatticeSpace(tuple(pts), 0, interior, (origin,))
    points = polytope_lattice_points(pts, interior=interior, dilation=dilation)
    return LatticeSpace(tuple(pts), dilation, interior, tuple(sorted(points)))


def koszul_top_dimension(polytope_points, gs):
    """Dimension of L((n+1)*interior) modulo the images of the g_i from
    L(n*interior); equals 1 for generic tuples with full Newton polytope.
    An (n+1)-dilate interior of more than ``MAX_KOSZUL_MONOMIALS`` points is
    refused (CapError) before any elimination."""
    pts = [tuple(p) for p in polytope_points]
    n = len(pts[0])
    if len(gs) != n + 1:
        raise InputError("need n+1 section polynomials")
    verts = {tuple(int(x) for x in v) for v in hull_vertices(pts)}
    poly_points = set(polytope_lattice_points(pts))
    for g in gs:
        supp = set(g.support())
        if not supp <= poly_points:
            raise InputError("section support leaves the polytope")
        if not verts <= supp:
            raise InputError("section does not have the full Newton polytope")
    big = lattice_space(pts, n + 1, interior=True).points
    if len(big) > MAX_KOSZUL_MONOMIALS:
        raise CapError("the %d-dilate interior has %d lattice points, above "
                       "the cap of %d" % (n + 1, len(big),
                                          MAX_KOSZUL_MONOMIALS))
    small = lattice_space(pts, n, interior=True).points
    image = Echelon()
    image_dim = 0
    for g in gs:
        terms = _integral(g.terms)[0].items()
        image_dim += sum(image.insert({tuple(map(add, e, m)): c
                                       for e, c in terms}) for m in small)
    return len(big) - image_dim


def random_section(polytope_points, rng, nvars):
    """A random polynomial with support in the polytope, nonzero on every
    vertex (so its Newton polytope is the whole polytope)."""
    verts = {tuple(int(x) for x in v) for v in hull_vertices(polytope_points)}
    terms = {}
    for m in polytope_lattice_points(polytope_points):
        if m in verts:
            c = rng.randint(1, 9) * rng.choice((1, -1))
        else:
            c = rng.randint(-4, 4)
        if c:
            terms[m] = Fraction(c)
    return SparsePoly(nvars, terms)


def koszul_check(polytope_points, seed=0):
    """Sample generic tuples, at most ``KOSZUL_ATTEMPTS`` times, until the
    Koszul quotient has dimension one; reports the attempts used (resampling
    is the documented genericity fallback)."""
    pts = [tuple(p) for p in polytope_points]
    n = len(pts[0])
    rng = random.Random(seed)
    history = []
    for attempt in range(1, KOSZUL_ATTEMPTS + 1):
        gs = [random_section(pts, rng, n) for _ in range(n + 1)]
        try:
            dim = koszul_top_dimension(pts, gs)
        except InputError:
            continue
        history.append(dim)
        if dim == 1:
            return {"ok": True, "dimension": 1, "attempts": attempt,
                    "history": history}
    return {"ok": False, "dimension": history[-1] if history else None,
            "attempts": KOSZUL_ATTEMPTS, "history": history,
            "note": "sections not generic enough"}


def volume_by_lattice_count(polytope_points):
    """Normalized volume from lattice-point counts of the first n+1 dilates
    (exact polynomial interpolation); membership goes through barycentric
    coordinates over point subsets, independent of the hull code."""
    pts = [tuple(map(Fraction, p)) for p in polytope_points]
    n = len(pts[0])
    if rank([p + (1,) for p in pts]) < n + 1:
        return 0  # a flat polytope has no full-dimensional simplex
    counts = [1]  # the 0-dilate is the origin
    for k in range(1, n + 1):
        counts.append(_count_by_caratheodory(pts, k))
    rows = [tuple(Fraction(k) ** j for j in range(n + 1)) for k in range(n + 1)]
    coeffs = solve(rows, counts)
    lead = coeffs[n]
    value = lead * math.factorial(n)
    if value.denominator != 1:
        raise VerificationError("Ehrhart leading term is not integral")
    return int(value)


def _count_by_caratheodory(pts, dilation):
    """Lattice points of the dilated hull, as the union of the lattice points
    of every full-dimensional simplex on the dilated points (Carathéodory).
    Each simplex is cut out by its barycentric coordinates, so the count
    never touches the hull code."""
    n = len(pts[0])
    scaled = [tuple(x * dilation for x in p) for p in pts]
    found = set()
    for subset in combinations(scaled, n + 1):
        lifted = [p + (1,) for p in subset]
        if rank(lifted) < n + 1:
            continue
        # barycentric coordinate i is the affine form y.(m, 1) with
        # y.(p_j, 1) = 1 if i = j, else 0
        ineqs = []
        for i in range(n + 1):
            y = solve(lifted, [int(i == j) for j in range(n + 1)])
            ineqs.append((y[:n], -y[n], False))
        lo = [min(p[k] for p in subset) for k in range(n)]
        hi = [max(p[k] for p in subset) for k in range(n)]
        found.update(lattice_points(lo, hi, ineqs))
    return len(found)


def trace_volume_check(polytope_points):
    """The value the toric trace pairing must produce: the normalized volume,
    cross-checked between the triangulation route and the lattice-count
    route."""
    nvol = normalized_volume(polytope_points)
    counted = volume_by_lattice_count(polytope_points)
    return {"normalized_volume": nvol,
            "lattice_count_volume": counted,
            "equal": nvol == counted,
            "trace_expected": nvol}
