"""Grothendieck residues at the origin: coefficient extraction for monomial
denominators, the general case through the transformation law with a
truncated matrix solve, and the lattice-point Koszul and trace models on
compact polytopes.

The normalization absorbs all transcendental factors, so a residue against
monomial denominators x^(a_1), ..., x^(a_n) is the bare coefficient of
x^(a-1) and every value produced here is rational."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
import math
import random

from .errors import InputError, TruncationError, VerificationError
from .facering import canonical_quotient, class_nonzero, face_cone, \
    face_derivatives, select_parameters
from .linalg import rank, solve
from .localalg import _shifted_span, certified_ideal, ideal_generators
from .polylattice import (SparsePoly, hull_vertices, lattice_points,
                          normalized_volume, polytope_lattice_points)


@dataclass(frozen=True)
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


def _poly_det(matrix, cap):
    """Determinant of a small polynomial matrix, products truncated."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    result = SparsePoly.zero(matrix[0][0].nvars)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j].mul_truncated(_poly_det(minor, cap), cap)
        result = result + term if j % 2 == 0 else result - term
    return result


def _residue_at(g, system, power, cap):
    """Transformation-law residue with x_i^power expressed through the system
    inside the degree-cap truncation."""
    n = system[0].nvars
    span = _shifted_span(system, cap, track=True)
    matrix = []
    for i in range(n):
        target = tuple(power if k == i else 0 for k in range(n))
        comb = {}
        if span.reduce({target: Fraction(1)}, comb):
            raise TruncationError(
                "x_%d^%d is not in the truncated span; raise truncation" % (i + 1, power))
        # the normal form is zero, so the target equals -comb
        row = [dict() for _ in system]
        for (j, shift), v in comb.items():
            row[j][shift] = -v
        matrix.append([SparsePoly(n, d) for d in row])
    transformed = g.mul_truncated(_poly_det(matrix, cap), cap)
    return monomial_residue(transformed, (power,) * n)


def grothendieck_residue(g, system, D=None, max_escalations=3):
    """Residue of g dx against a system of finite colength.

    The power x_i^N with N the colength certificate is solved for inside the
    truncation, the residue drops to the monomial case against x^N, and the
    value must agree between the working truncation and two degrees higher
    before it is reported."""
    system = list(system)
    if not system:
        raise InputError("empty denominator system")
    n = system[0].nvars
    if g.nvars != n or any(s.nvars != n for s in system):
        raise InputError("variable count mismatch")
    if len(system) != n:
        raise InputError("need exactly n denominators")
    span = certified_ideal(system)
    if span.m_power_bound is None:
        raise TruncationError("colength not certified finite")
    power = span.m_power_bound
    # truncated solves commute with the exact one only with headroom of a
    # full extra factor: matrix entries are accurate modulo m^(cap+1-N)
    cap = max((n + 1) * power, D or 0, g.total_degree())
    value = _residue_at(g, system, power, cap)
    for _ in range(max_escalations):
        check = _residue_at(g, system, power, cap + 2)
        if check == value:
            return ResidueResult(value, cap, True)
        cap += 2
        value = check
    raise TruncationError("residue unstable under truncation escalation")


def verify_residue_nonvanishing(f, face, h, r, D=None):
    """The residue of f^r h dx against (x_i f_xi) for h with x1...xn*h
    supported in the relative interior of the (n-r)-dilated face and with a
    nonzero class in the quotient module; the value is checked nonzero."""
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
    fcone = face_cone(face)
    if fcone.r != r:
        raise InputError("face has r = %d, got %d" % (fcone.r, r))
    params = select_parameters(face_derivatives(f, face), fcone, verify=False)
    quotient = canonical_quotient(fcone, params)
    if not class_nonzero(g, quotient):
        raise InputError("class of x1...xn*h vanishes in the quotient module")
    log_gens, _ = ideal_generators(f)
    fr_h = f.power(r) * h
    result = grothendieck_residue(fr_h, list(log_gens), D=D)
    if result.value == 0:
        raise VerificationError(
            "residue vanished for a nonzero class: f=%s, h=%s, r=%d"
            % (f, h, r))
    return result


# ---------------------------------------------------------------------------
# Lattice-point models on compact polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    L(n*interior); equals 1 for generic tuples with full Newton polytope."""
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
    small = lattice_space(pts, n, interior=True).points
    index = {m: i for i, m in enumerate(big)}
    rows = []
    for g in gs:
        for m in small:
            row = [Fraction(0)] * len(big)
            for e, c in g.terms.items():
                key = tuple(a + b for a, b in zip(e, m))
                row[index[key]] += c
            rows.append(tuple(row))
    return len(big) - rank(rows)


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


def koszul_check(polytope_points, seed=0, attempts=5):
    """Sample generic tuples until the Koszul quotient has dimension one;
    reports the attempts used (resampling is the documented genericity
    fallback)."""
    pts = [tuple(p) for p in polytope_points]
    n = len(pts[0])
    rng = random.Random(seed)
    history = []
    for attempt in range(1, attempts + 1):
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
            "attempts": attempts, "history": history,
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
