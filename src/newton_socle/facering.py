"""Graded semigroup algebras on face cones, their interior-monomial canonical
modules, quotients by face-derivative parameters, socle degrees and Poincare
series.

The grading is the unique linear form equal to 1 on the face; its denominator
is cleared so graded pieces are indexed by integers.  Pieces are enumerated by
exact lattice-point scans of bounded cone sections, all built by one section
builder: a single degree is one scan with the grading as an equation, and
every degree 0..top, as a quotient, a Poincare series or a class test needs
them, is one scan of the cone truncated at top, bucketed by degree.
"""

from fractions import Fraction
import math
from operator import add

from ._record import DERIVED, record
from .errors import InputError, VerificationError
from .fan import Cone, cone_from_rays
from .linalg import Echelon, _integral, dot, solve
from .polylattice import (FaceDescriptor, SparsePoly, face_part,
                          lattice_points, parallelepiped_points)


@record
class FaceCone:
    """A compact face not inside a coordinate hyperplane, together with the
    cone it spans; ``r`` is the codimension bookkeeping n - 1 - dim(face)."""

    delta: FaceDescriptor
    sigma: Cone
    r: int


def face_cone(face):
    if not face.compact:
        raise InputError("face cone needs a compact face")
    if face.in_coordinate_hyperplane:
        raise InputError("face lies in a coordinate hyperplane")
    n = face.polyhedron.nvars
    sigma = cone_from_rays(face.vertices())
    fc = FaceCone(face, sigma, n - 1 - face.dim)
    if sigma.dim != n - fc.r:
        raise VerificationError("span of the face has unexpected dimension")
    return fc


@record
class GradingForm:
    """Rational covector equal to 1 on the face, positive on the cone minus
    the origin; ``denominator`` clears it to an integer form on the lattice."""

    covector: tuple
    denominator: int

    def value(self, m):
        return dot(self.covector, m)

    def scaled(self, m):
        v = self.value(m) * self.denominator
        if v.denominator != 1:
            raise VerificationError("grading denominator does not clear %r" % (m,))
        return int(v)


def grading_form(fc):
    """The unique linear form on span(sigma) taking the value 1 on the face,
    represented by the covector in the row space of the vertex matrix."""
    verts = [tuple(map(Fraction, v)) for v in fc.delta.vertices()]
    gram = [tuple(dot(u, v) for v in verts) for u in verts]
    y = solve(gram, [Fraction(1)] * len(verts))
    if y is None:
        raise InputError("no grading form")
    n = len(verts[0])
    covector = tuple(sum(y[i] * verts[i][k] for i in range(len(verts)))
                     for k in range(n))
    denominator = 1
    for x in covector:
        denominator = denominator * x.denominator // math.gcd(denominator, x.denominator)
    form = GradingForm(covector, denominator)
    for ray in fc.sigma.rays:
        if form.value(ray) <= 0:
            raise VerificationError("grading not positive on the cone")
    return form


def grading_from_covector(covector, sigma):
    covector = tuple(map(Fraction, covector))
    denominator = 1
    for x in covector:
        denominator = denominator * x.denominator // math.gcd(denominator, x.denominator)
    form = GradingForm(covector, denominator)
    for ray in sigma.rays:
        if form.value(ray) <= 0:
            raise InputError("non-positive grading")
    return form


def face_derivatives(f, face):
    """The face parts of x_i df/dx_i; each is homogeneous of degree 1 for the
    grading of the face."""
    fp = face_part(f, face)
    return [fp.x_ddx(i) for i in range(f.nvars)]


def _section(sigma, grading, low, high, interior):
    """Lattice points of the cone (or its relative interior) on which the
    cleared grading lies between the integers ``low`` and ``high``, in
    lexicographic order.

    The grading is positive on the rays, so the cone between the two degrees
    is the convex hull of the rays' corners at both, and the box of those
    corners holds every point.  One degree is an equation of the scan, a
    range two inequalities."""
    n = len((sigma.rays or sigma.equations)[0])
    scaled_cov = tuple(x * grading.denominator for x in grading.covector)
    corners = [(0,) * n] if not sigma.rays else []
    for ray in sigma.rays:
        h = dot(scaled_cov, ray)
        corners += [tuple(Fraction(k * x, h) for x in ray) for k in {low, high}]
    lo = [min(c[i] for c in corners) for i in range(n)]
    hi = [max(c[i] for c in corners) for i in range(n)]
    ineqs = [(l, 0, interior) for l in sigma.facet_normals]
    eqs = [(e, 0) for e in sigma.equations]
    if low == high:
        eqs.append((scaled_cov, low))
    else:
        ineqs += [(scaled_cov, low, False),
                  (tuple(-x for x in scaled_cov), -high, False)]
    return lattice_points(lo, hi, ineqs, eqs)


def graded_monomials(sigma, grading, scaled_degree, interior):
    """Lattice points of the cone (or its relative interior) on which the
    cleared grading takes the given integer value."""
    if scaled_degree < 0:
        return []
    return _section(sigma, grading, scaled_degree, scaled_degree, interior)


def graded_pieces(sigma, grading, top, interior):
    """The lists :func:`graded_monomials` gives at the scaled degrees
    0..``top``, indexed by degree, from one scan of the cone truncated at
    ``top``.  The scan is in lexicographic order, so each list keeps the
    order of its one-degree scan."""
    pieces = [[] for _ in range(top + 1)]
    if top < 0:
        return pieces
    cov = [int(x * grading.denominator) for x in grading.covector]
    for m in _section(sigma, grading, 0, top, interior):
        pieces[dot(cov, m)].append(m)
    return pieces


@record
class CanonicalQuotient:
    """The canonical module of the face ring modulo the chosen parameters:
    graded dimensions, socle degree and a monomial socle basis."""

    sigma: Cone
    grading: GradingForm
    parameters: tuple
    graded_dims: dict
    socle_degree: Fraction
    socle_basis: tuple
    # (echelon, column) of the image span at the socle degree, which
    # canonical_quotient eliminates and class_nonzero reads
    socle_span: tuple = DERIVED

    def to_json(self):
        return {
            "parameters": [str(p) for p in self.parameters],
            "graded_dims": {str(k): v for k, v in sorted(self.graded_dims.items())},
            "socle_degree": str(self.socle_degree),
            "socle_basis": [str(b) for b in self.socle_basis],
        }


def _parameter_degree(p, grading):
    degs = {grading.scaled(e) for e in p.support()}
    if len(degs) != 1:
        raise InputError("parameter is not homogeneous")
    return degs.pop()


def _image_span(sigma, grading, params, scaled_degree, param_degrees,
                pieces=None):
    """Echelon span of the image of multiplication by the parameters inside
    the interior-monomial piece of the given scaled degree; returns
    (echelon, column), where ``column`` maps the piece's monomials, in piece
    order, to their columns.  The columns number the piece right to left,
    so the pivots are the leftmost monomials, as in ``rref``.  ``pieces``
    holds the interior pieces of the scaled degrees 0..``scaled_degree`` at
    least, as :func:`graded_pieces` gives them; when omitted they are
    scanned here."""
    if pieces is None:
        pieces = graded_pieces(sigma, grading, scaled_degree, interior=True)
    piece = pieces[scaled_degree]
    last = len(piece) - 1
    column = {m: last - i for i, m in enumerate(piece)}
    ech = Echelon()
    for p, pd in zip(params, param_degrees):
        if pd > scaled_degree:
            continue
        terms = _integral(p.terms)[0].items()
        for m in pieces[scaled_degree - pd]:
            ech.insert({column[tuple(map(add, e, m))]: c for e, c in terms})
    return ech, column


def _quotient_monomials(ech, column):
    """The monomials of a piece at the non-pivot columns of its image span,
    in piece order, from :func:`_image_span`'s (echelon, column)."""
    return [m for m, c in column.items() if c not in ech.rows]


def canonical_quotient(fc, params, grading=None):
    """Graded dimensions of the quotient of the interior-monomial module by
    the parameter ideal, computed degree by degree as corank of the
    multiplication map, on the interior pieces of one truncated scan.

    The dimensions are checked against the Poincare-series prediction
    P(K) * prod(1 - t^deg) through one degree unit past the expected socle
    degree; any mismatch, or a nonzero dimension past the expected socle,
    raises.
    Accepts a FaceCone (grading derived) or a bare Cone with a grading."""
    if isinstance(fc, FaceCone):
        sigma = fc.sigma
        if grading is None:
            grading = grading_form(fc)
    else:
        sigma = fc
        if grading is None:
            raise InputError("a bare cone needs an explicit grading")
    params = tuple(params)
    if not params:
        raise InputError("no parameters")
    d = grading.denominator
    param_degrees = [_parameter_degree(p, grading) for p in params]
    expected_scaled = sum(param_degrees)
    top_scaled = expected_scaled + d

    pieces = graded_pieces(sigma, grading, top_scaled, interior=True)
    q_dims = {}
    for k in range(0, top_scaled + 1):
        ech, column = _image_span(sigma, grading, params, k, param_degrees,
                                  pieces)
        q_dims[k] = len(column) - len(ech.rows)
        if k == expected_scaled:
            socle_span = ech, column

    # Poincare prediction: coefficients of P(K) * prod(1 - t^pd)
    predicted = dict(enumerate(map(len, pieces)))
    for pd in param_degrees:
        nxt = {}
        for k in range(0, top_scaled + 1):
            nxt[k] = predicted.get(k, 0) - predicted.get(k - pd, 0)
        predicted = nxt
    for k in range(0, top_scaled + 1):
        if q_dims[k] != predicted[k]:
            raise InputError(
                "not a system of parameters: dimension %d at scaled degree %d, "
                "Poincare prediction %d" % (q_dims[k], k, predicted[k]))
    for k in range(expected_scaled + 1, top_scaled + 1):
        if q_dims[k] != 0:
            raise InputError("not a system of parameters: "
                             "nonzero dimension beyond the expected socle")
    nonzero = [k for k, v in q_dims.items() if v > 0]
    if not nonzero or max(nonzero) != expected_scaled:
        raise InputError("not a system of parameters: socle degree mismatch")

    basis = [SparsePoly.monomial(m)
             for m in _quotient_monomials(*socle_span)]
    graded_dims = {Fraction(k, d): v for k, v in q_dims.items() if v > 0}
    quotient = CanonicalQuotient(sigma, grading, params, graded_dims,
                                 Fraction(expected_scaled, d), tuple(basis))
    object.__setattr__(quotient, "socle_span", socle_span)
    return quotient


def select_parameters(derivs, fc):
    """Lexicographically first subset of the face derivatives spanning their
    linear span, which must have the full dimension n - r.  That they form a
    system of parameters is checked by :func:`canonical_quotient`, which
    every caller builds from them next."""
    target = fc.sigma.dim
    ech = Echelon()
    chosen = []
    for p in derivs:
        if ech.insert(_integral(p.terms)[0]):
            chosen.append(p)
        if len(chosen) == target:
            break
    if len(chosen) < target:
        raise InputError("degenerate face data")
    return chosen


@record
class PoincareSeries:
    """Truncated graded dimension counts for the face ring and its canonical
    module, plus (simplicial cones) the closed rational form and its value at
    infinity."""

    grading_denominator: int
    ring_dims: dict
    module_dims: dict
    numerator: dict        # simplicial case: scaled degree -> coefficient
    denominator_degrees: tuple
    infinity_value: object

    def to_json(self):
        out = {
            "ring_dims": {str(k): v for k, v in sorted(self.ring_dims.items())},
            "module_dims": {str(k): v for k, v in sorted(self.module_dims.items())},
        }
        if self.numerator is not None:
            out["numerator"] = {str(k): v for k, v in sorted(self.numerator.items())}
            out["denominator_degrees"] = [str(a) for a in self.denominator_degrees]
            out["infinity_value"] = str(self.infinity_value)
        return out


def poincare_series(sigma, grading, truncation):
    """Graded dimensions of the cone monomials and the interior monomials up
    to the given degree.

    For simplicial cones the closed form of the interior series is computed
    from the half-open parallelepiped decomposition; its truncated expansion
    is checked against the enumerated dimensions, and the value at infinity is
    attached."""
    if isinstance(sigma, FaceCone):
        if grading is None:
            grading = grading_form(sigma)
        sigma = sigma.sigma
    if isinstance(grading, (tuple, list)):
        grading = grading_from_covector(grading, sigma)
    for ray in sigma.rays:
        if grading.value(ray) <= 0:
            raise InputError("non-positive grading")
    d = grading.denominator
    top = int(Fraction(truncation) * d)
    ring_dims, module_dims = [
        {Fraction(k, d): len(piece)
         for k, piece in enumerate(graded_pieces(sigma, grading, top,
                                                 interior)) if piece}
        for interior in (False, True)]

    numerator = None
    den_degrees = None
    infinity = None
    if sigma.rays and len(sigma.rays) == sigma.dim:
        numerator = {}
        for w in parallelepiped_points(sigma.rays, False, True):
            k = grading.scaled(w)
            numerator[k] = numerator.get(k, 0) + 1
        den_degrees = tuple(sorted(grading.scaled(r) for r in sigma.rays))
        # expand numerator / prod(1 - t^a) and compare with the enumeration
        series = [0] * (top + 1)
        for k, c in numerator.items():
            if k <= top:
                series[k] += c
        for a in den_degrees:
            for k in range(a, top + 1):
                series[k] += series[k - a]
        for k in range(0, top + 1):
            enum = module_dims.get(Fraction(k, d), 0)
            if series[k] != enum:
                raise VerificationError(
                    "closed form disagrees with enumeration at scaled degree %d"
                    % k)
        num_top = max(numerator)
        if num_top != sum(den_degrees):
            raise VerificationError("numerator degree differs from the "
                                    "denominator degree")
        infinity = Fraction(numerator[num_top], (-1) ** len(den_degrees))
    return PoincareSeries(d, ring_dims, module_dims, numerator,
                          den_degrees, infinity)


def class_nonzero(g, quotient):
    """Whether g represents a nonzero class in the quotient module at its own
    degree: its normal form against the parameter image is nonzero.  At the
    socle degree the image span is the one :func:`canonical_quotient`
    eliminated; at any other degree it is built here."""
    if g.is_zero():
        return False
    sigma = quotient.sigma
    grading = quotient.grading
    degs = {grading.scaled(e) for e in g.support()}
    if len(degs) != 1:
        raise InputError("g is not homogeneous for the grading")
    k = degs.pop()
    for e in g.support():
        if not sigma.relative_interior_contains(e):
            raise InputError("g is not supported in the interior of the cone")
    if k == quotient.socle_degree * grading.denominator:
        ech, column = quotient.socle_span
    else:
        param_degrees = [_parameter_degree(p, grading)
                         for p in quotient.parameters]
        ech, column = _image_span(sigma, grading, quotient.parameters, k,
                                  param_degrees)
    return bool(ech.reduce({column[e]: c for e, c in g.terms.items()}))
