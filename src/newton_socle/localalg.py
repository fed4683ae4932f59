"""Finite-dimensional truncations of the local ring: ideal spans, membership,
socles, and the Newton order of socle cosets.

An ideal is represented by an echelon basis of the span of all shifted
generators inside C[x]/m^(D+1).  Once every monomial of some degree D0 lies in
the span, Nakayama promotes truncated answers to honest local-ring answers,
and D0 is recorded as the certificate.
"""

from fractions import Fraction
from operator import add

from ._record import record
from .errors import InputError, TruncationError, VerificationError
from .grobner import degrevlex_key
from .linalg import (Echelon, _integer_kernel, _integral,
                     _primitive_sparse_row)
from .polylattice import (INFINITY, SparsePoly, newton_order,
                          newton_polyhedron)


def monomials_of_degree(nvars, degree):
    """All exponent tuples with the given total degree."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


class TruncatedLocalAlgebra:
    """The space of polynomials of total degree <= D, indexed by monomials in
    descending degrevlex order."""

    def __init__(self, nvars, D):
        if D < 1:
            raise InputError("truncation degree must be at least 1")
        self.nvars = nvars
        self.D = D
        monos = []
        for d in range(D + 1):
            monos.extend(monomials_of_degree(nvars, d))
        monos.sort(key=degrevlex_key, reverse=True)
        self.monomials = monos

    def truncate_terms(self, poly):
        return {e: c for e, c in poly.terms.items() if sum(e) <= self.D}


def _shifted_span(gens, D):
    """Echelon span of the shifts x^a * g_j truncated beyond degree D, each
    generator's shifts inserted in ascending degrevlex order of a and each
    generator cleared of denominators once."""
    nvars = gens[0].nvars
    ech = Echelon(degrevlex_key)
    for g in gens:
        terms, _ = _integral(g.terms)
        graded = [(sum(e), e, c) for e, c in terms.items()]
        shifts = []
        for d in range(D - g.order() + 1):
            shifts.extend(monomials_of_degree(nvars, d))
        shifts.sort(key=degrevlex_key)
        for a in shifts:
            room = D - sum(a)
            ech.insert({tuple(map(add, a, e)): c
                        for deg, e, c in graded if deg <= room})
    return ech


@record(frozen=False)
class IdealSpan:
    """Span of {x^a * g_j} inside the degree-D truncation, with the smallest
    degree whose monomials all lie in the span as colength certificate."""

    algebra: TruncatedLocalAlgebra
    generators: tuple
    echelon: Echelon
    m_power_bound: object   # int, or None when no certificate was found

    def reduce(self, poly):
        if isinstance(poly, SparsePoly):
            poly = self.algebra.truncate_terms(poly)
        return self.echelon.reduce(poly)

    def quotient_basis(self):
        """Monomials spanning the quotient (all of degree < m_power_bound)."""
        pivots = set(self.echelon.rows)
        return [m for m in reversed(self.algebra.monomials)
                if m not in pivots and sum(m) < self.m_power_bound]


def build_ideal(gens, D):
    """Echelon span of the shifted generators in the degree-D truncation."""
    gens = tuple(gens)
    if not gens:
        raise InputError("no generators")
    nvars = gens[0].nvars
    for g in gens:
        if g.is_zero() or g.order() < 1:
            raise InputError("generators must lie in the maximal ideal")
    alg = TruncatedLocalAlgebra(nvars, D)
    ech = _shifted_span(gens, D)
    bound = None
    for k in range(1, D + 1):
        if all(not ech.reduce({m: Fraction(1)})
               for m in monomials_of_degree(nvars, k)):
            bound = k
            break
    return IdealSpan(alg, gens, ech, bound)


def check_truncation_floor(D, min_D):
    """Refuse a given truncation D below the floor ``min_D``."""
    if D < min_D:
        raise TruncationError(
            "truncation D=%d below the required minimum %d" % (D, min_D))


def certified_ideal(gens, D=None, min_D=0):
    """Build an ideal span whose finite colength is certified.

    With D given, that truncation must already certify.  Otherwise escalate
    from twice the largest generator degree until a certificate appears, then
    settle at m_power_bound + 4 (never below ``min_D``).  The escalation cap
    (40 in up to two variables, else 20) shrinks with the variable count to
    keep hopeless inputs from grinding; a ``min_D`` beyond the cap is still
    tried, once.  So is a start from the generator degrees one step (2)
    beyond the cap in two variables, where that build costs about what one
    at the cap does; any other start beyond the cap is refused before
    building, naming the truncation it needs."""
    gens = tuple(gens)
    if not gens:
        raise InputError("no generators")
    nvars = gens[0].nvars
    cap = 40 if nvars <= 2 else 20
    if D is not None:
        check_truncation_floor(D, min_D)
        span = build_ideal(gens, D)
        if span.m_power_bound is None:
            raise TruncationError("increase truncation: no certificate at D=%d" % D)
        return span
    start = max(4, 2 * max(g.total_degree() for g in gens))
    if start > max(cap, min_D) and (nvars > 2 or start > cap + 2):
        raise TruncationError(
            "the escalation would start at D=%d, beyond the cap %d: give a "
            "truncation of at least %d (--trunc) to try it" % (start, cap, start))
    start = max(start, min_D)
    d = start
    while d <= max(cap, start):
        span = build_ideal(gens, d)
        if span.m_power_bound is not None:
            target = max(span.m_power_bound + 4, min_D)
            if target > d:
                span = build_ideal(gens, target)
            return span
        d += 2
    if start > cap:
        raise TruncationError(
            "no finite-colength certificate at D=%d: the required truncation "
            "exceeds the cap %d" % (start, cap))
    raise TruncationError("no finite-colength certificate up to D=%d" % (d - 2))


def member(h, span):
    """Exact local-ring ideal membership of h (valid once the colength
    certificate exists; the degree-(D+1) tail of h is then irrelevant)."""
    if span.m_power_bound is None:
        raise TruncationError("increase truncation")
    return not span.reduce(h)


def socle(span):
    """Coset representatives of the annihilator of the maximal ideal in the
    quotient by the ideal."""
    if span.m_power_bound is None:
        raise TruncationError("increase truncation")
    basis = span.quotient_basis()
    if not basis:
        return []
    n = len(basis)
    index = {m: i for i, m in enumerate(basis)}
    nvars = span.algebra.nvars
    mat = []
    for v in range(nvars):
        # rows[i][j]: the coefficient of basis[i] in x_v * basis[j]
        rows = [{} for _ in basis]
        for j, b in enumerate(basis):
            shifted = b[:v] + (b[v] + 1,) + b[v + 1:]
            for m, c in span.reduce({shifted: Fraction(1)}).items():
                rows[index[m]][j] = c
        mat.extend(_primitive_sparse_row(r, n) for r in rows)
    reps = []
    for vec in _integer_kernel(mat, n):
        reps.append(SparsePoly(nvars, {basis[j]: c for j, c in enumerate(vec)
                                       if c != 0}))
    return reps


def ideal_generators(f):
    """The systems (x_i f_xi) and (f_xi) attached to f."""
    n = f.nvars
    log_gens = tuple(f.x_ddx(i) for i in range(n))
    jac_gens = []
    for i in range(n):
        terms = {}
        for e, c in f.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = terms.get(tuple(e2), Fraction(0)) + c * e[i]
        jac_gens.append(SparsePoly(n, terms))
    return log_gens, tuple(jac_gens)


def _nu_level_key(poly):
    """Sort key putting the smallest Newton-order monomial first."""
    pos = poly.positive_facets()

    def level(m):
        return min(Fraction(sum(l * x for l, x in zip(f.normal, m)), f.offset)
                   for f in pos)

    def key(m):
        return (-level(m), degrevlex_key(m))

    return level, key


def _nu_echelon(span, poly):
    """Re-echelonized ideal span pivoting on the lowest Newton-order part.

    A normal form against this basis has, in every reachable Newton level, no
    component that the ideal could cancel, so its order is the supremum of the
    orders over the whole coset.
    """
    level, key = _nu_level_key(poly)
    ech = Echelon(key)
    for pivot_row in sorted(span.echelon.rows.values(),
                            key=lambda r: degrevlex_key(max(r, key=degrevlex_key)),
                            reverse=True):
        ech.insert(pivot_row)
    return ech, level


def coset_newton_order(h, span, poly):
    """Newton order of the coset h + ideal: sup over representatives.

    INFINITY when h lies in the ideal.  Exact within the truncation; callers
    arrange the truncation so that every discarded monomial has order above
    the range of interest."""
    ech, level = _nu_echelon(span, poly)
    red = ech.reduce(span.algebra.truncate_terms(h) if isinstance(h, SparsePoly) else h)
    if not red:
        return INFINITY
    return min(level(m) for m in red)


def socle_newton_order(f, D=None):
    """Newton order of the socle of the quotient by (x_i f_xi), with the
    predicted value n - nu(x1...xn) checked exactly.

    Returns a report dict; the order itself is under ``nu_socle``."""
    poly = newton_polyhedron(f)
    min_D = socle_truncation_floor(poly)
    log_gens, _ = ideal_generators(f)
    return socle_order_report(poly, certified_ideal(log_gens, D=D, min_D=min_D))


def socle_truncation_floor(poly):
    """The least truncation beyond which every monomial has Newton order
    above n, so that :func:`socle_order_report` may read orders off it."""
    pos = poly.positive_facets()
    if not pos:
        raise InputError("polynomial has order zero")
    slack = min(Fraction(min(fc.normal), fc.offset) for fc in pos)
    if slack == 0:
        raise InputError("coordinate-axis condition violated")
    return int(poly.nvars / slack) + 1


def socle_order_report(poly, span):
    """The report of :func:`socle_newton_order` from the Newton polyhedron
    and a certified span of (x_i f_xi) at least as deep as
    :func:`socle_truncation_floor`."""
    n = poly.nvars
    reps = socle(span)
    if not reps:
        raise VerificationError("socle of the quotient is zero")
    orders = [coset_newton_order(h, span, poly) for h in reps]
    nu_socle = max(orders)
    x_all = SparsePoly.monomial((1,) * n)
    expected = n - newton_order(x_all, poly)
    report = {
        "truncation": span.algebra.D,
        "m_power_bound": span.m_power_bound,
        "socle_basis": [str(h) for h in reps],
        "coset_orders": [str(o) for o in orders],
        "nu_socle": nu_socle,
        "n_minus_nu_x": expected,
        "match": nu_socle == expected,
    }
    if nu_socle != expected:
        raise VerificationError(
            "socle Newton order %s differs from n - nu(x1...xn) = %s: %r"
            % (nu_socle, expected, report))
    return report


def jacobian_multiplication_check(f, D=None):
    """Multiplication by x1...xn from the Jacobian quotient to the quotient by
    (x_i f_xi): well-definedness and injectivity on a truncated basis."""
    log_gens, jac_gens = ideal_generators(f)
    span_i = certified_ideal(log_gens, D=D)
    span_j = certified_ideal(jac_gens, D=span_i.algebra.D)
    return jacobian_multiplication_report(span_i, span_j)


def jacobian_multiplication_report(span_i, span_j):
    """The report of :func:`jacobian_multiplication_check` from the certified
    spans of (x_i f_xi) and of (f_xi), the second at the first's
    truncation."""
    n = span_i.algebra.nvars
    x_all = SparsePoly.monomial((1,) * n)
    well_defined = all(member(x_all * g, span_i) for g in span_j.generators)

    basis_j = span_j.quotient_basis()
    images = Echelon(degrevlex_key)
    injective = sum(images.insert(span_i.reduce(x_all * SparsePoly.monomial(b)))
                    for b in basis_j) == len(basis_j)
    return {
        "truncation": span_i.algebra.D,
        "well_defined": well_defined,
        "quotient_basis_j": [str(SparsePoly.monomial(b)) for b in basis_j],
        "injective": injective,
        # I is an ideal, so x1...xn*u lies in it for every u in the Jacobian
        # span once it does for each generator.
        "random_image_samples_ok": well_defined,
        "ok": well_defined and injective,
    }


def verify_interior_membership(f, h, D=None):
    """Membership of h in (x_i f_xi) under the strict-interior support
    hypothesis on x1...xn*h (asserted by the supporting theory to hold)."""
    n = f.nvars
    poly = newton_polyhedron(f)
    x_all = SparsePoly.monomial((1,) * n)
    g = x_all * h
    for m in g.support():
        if not poly.interior_contains(m, n):
            raise InputError("support of x1...xn*h is not strictly interior "
                             "to the n-dilate at %r" % (m,))
    log_gens, _ = ideal_generators(f)
    span = certified_ideal(log_gens, D=D)
    return member(h, span)
