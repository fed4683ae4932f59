"""Finite-dimensional truncations of the local ring: ideal spans, membership,
socles, and the Newton order of socle cosets.

An ideal is represented by an echelon basis of the span of all shifted
generators inside C[x]/m^(D+1).  Once every monomial of some degree D0 lies in
the span, Nakayama promotes truncated answers to honest local-ring answers,
and D0 is recorded as the certificate.  A :class:`CertifiedSpans` store owns
the truncation policy of one ideal and builds each of its certified spans
once.
"""

from fractions import Fraction
from math import comb, lcm
from operator import add, mul

from ._record import record
from .errors import (CapError, InputError, TruncationError,
                     VerificationError)
from .linalg import Echelon, _integral
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


# Most monomials a truncated algebra may hold: a truncation D in n variables
# with C(D+n, n) above this is refused before any of them is enumerated.
# Just under it, socle-order on x1^2+x2^3+x3^4 at D=142 (497 640 monomials)
# takes 13 s and 433 MB (a shared two-core x86-64 host, Python 3.11).
MAX_ALGEBRA_MONOMIALS = 500_000


def _degrevlex_ascending(nvars, D):
    """The monomials of degree <= D in ascending degrevlex order, listed
    without a sort.  Degrevlex is degree-first, and within one degree a
    larger last exponent comes first, then a larger next-to-last one, and
    so on; so the monomials of degree d in k variables, in order, are
    those of degree d - e in k - 1 variables followed by the last exponent
    e, for e from d down to 0."""
    levels = [[(d,)] for d in range(D + 1)]
    for _ in range(nvars - 1):
        levels = [[rest + (e,) for e in range(d, -1, -1)
                   for rest in levels[d - e]] for d in range(D + 1)]
    return [m for level in levels for m in level]


class TruncatedLocalAlgebra:
    """The space of polynomials of total degree <= D.  Its monomials are
    listed once in degrevlex order: ``ascending`` lists them in ascending
    order and ``column`` numbers them by position there, so a larger column
    is a larger monomial.  Spans of the algebra are :class:`Echelon` spans
    on these columns."""

    def __init__(self, nvars, D):
        if D < 1:
            raise InputError("truncation degree must be at least 1")
        self.nvars = nvars
        self.D = D
        self.ascending = _degrevlex_ascending(nvars, D)
        self.column = {m: i for i, m in enumerate(self.ascending)}

    def prefix(self, D):
        """The algebra at a truncation D <= self.D.  Degrevlex is
        degree-first, so its monomials are the first C(D+n, n) of
        ``ascending`` and keep their columns."""
        alg = object.__new__(TruncatedLocalAlgebra)
        alg.nvars = self.nvars
        alg.D = D
        alg.ascending = self.ascending[:comb(D + self.nvars, self.nvars)]
        alg.column = {m: i for i, m in enumerate(alg.ascending)}
        return alg

    def columns(self, poly):
        """{column: coefficient} of the terms of degree <= D of ``poly``, a
        SparsePoly or a dict {monomial: coefficient}."""
        if isinstance(poly, SparsePoly):
            poly = poly.terms
        column = self.column
        D = self.D
        return {column[e]: c for e, c in poly.items() if sum(e) <= D}


def _shifted_span(alg, gens):
    """Echelon span of the shifts x^a * g_j truncated beyond the algebra's
    degree D, each generator cleared of denominators once and its shifts
    inserted in ascending degrevlex order of a.  Degrevlex is degree-first,
    so the shifts of degree <= D - ord g are a prefix of ``ascending``."""
    D = alg.D
    column = alg.column
    ech = Echelon()
    for g in gens:
        terms, _ = _integral(g.terms)
        graded = [(sum(e), e, c) for e, c in terms.items()]
        top = D - g.order()
        for a in alg.ascending:
            degree = sum(a)
            if degree > top:
                break
            room = D - degree
            ech.insert({column[tuple(map(add, a, e))]: c
                        for deg, e, c in graded if deg <= room})
    return ech


@record(frozen=False)
class IdealSpan:
    """Span of {x^a * g_j} inside the degree-D truncation, with the smallest
    degree whose monomials all lie in the span as colength certificate.
    The echelon's columns are the algebra's; ``reduce`` and
    ``quotient_basis`` translate them back to monomials."""

    algebra: TruncatedLocalAlgebra
    generators: tuple
    echelon: Echelon
    m_power_bound: object   # int, or None when no certificate was found

    def reduce(self, poly):
        """Normal form of ``poly`` (its terms of degree <= D) as a dict
        {monomial: Fraction}; empty exactly when it lies in the span."""
        ascending = self.algebra.ascending
        return {ascending[i]: c for i, c in
                self.echelon.reduce(self.algebra.columns(poly)).items()}

    def quotient_basis(self):
        """Monomials spanning the quotient (all of degree < m_power_bound),
        in ascending degrevlex order."""
        pivots = self.echelon.rows
        basis = []
        for i, m in enumerate(self.algebra.ascending):
            if sum(m) >= self.m_power_bound:
                break
            if i not in pivots:
                basis.append(m)
        return basis


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
    ech = _shifted_span(alg, gens)
    column = alg.column
    bound = None
    for k in range(1, D + 1):
        if all(not ech.reduce({column[m]: 1})
               for m in monomials_of_degree(nvars, k)):
            bound = k
            break
    return IdealSpan(alg, gens, ech, bound)


def truncated_span(span, D):
    """The span at a truncation k0 <= D <= span.algebra.D, read off
    ``span``, which certifies at k0.

    Degrevlex is degree-first, so the algebra at D numbers a prefix of the
    columns, and the span at D is the projection of ``span`` onto it: a
    shift x^a * g with deg a + ord g > D has no term of degree <= D, and
    the others are cut at D either way.  Rows that pivot inside the prefix
    lie in it and are kept; the cut tails of the others are inserted
    again.  Pivots, normal forms and the certificate are then
    those of ``build_ideal(span.generators, D)``; only row tails differ."""
    alg = span.algebra.prefix(D)
    cut = len(alg.ascending)
    ech = Echelon()
    tails = []
    for pivot, row in span.echelon.rows.items():
        if pivot < cut:
            ech.rows[pivot] = row
        else:
            tail = {c: v for c, v in row.items() if c < cut}
            if tail:
                tails.append(tail)
    for tail in tails:
        ech.insert(tail)
    return IdealSpan(alg, span.generators, ech, span.m_power_bound)


def interior_truncation(poly):
    """A truncation at which the span of (x_i f_xi) should certify, read
    off the Newton polyhedron before any elimination: b + 4, and at least
    :func:`socle_truncation_floor`, or None when a facet of positive offset
    has a zero normal entry.

    b is the least k with k * min(l) + sum(l) > n * c on every facet (l, c)
    of positive offset.  For nondegenerate f, x^m lies in (x_i f_xi) once
    m + 1 is strictly inside n * Gamma_+, which every monomial of degree b
    is, so k0 <= b (acceptance criterion 5).  The residues settle at
    k0 + 4 <= b + 4 and the socle order at its floor, so a span at this
    truncation holds every one a verification run reads."""
    pos = poly.positive_facets()
    if not pos or any(min(fc.normal) == 0 for fc in pos):
        return None
    n = poly.nvars
    b = max((n * fc.offset - sum(fc.normal)) // min(fc.normal) + 1
            for fc in pos)
    return max(b + 4, socle_truncation_floor(poly))


class CertifiedSpans:
    """The certified spans of one ideal, each kept under its truncation D.

    The span at D certifies exactly when D >= k0, the least k with m^k in
    the ideal, and then reads k0 (Nakayama: m^k in I + m^(D+1) with k <= D
    gives m^k in I).  So once the store has read k0 it builds a truncation
    only when its span is asked for, and each one once.

    A store given ``first_D`` (a truncation read off the Newton polyhedron,
    :func:`interior_truncation`) builds the span there, or at the
    escalation start if that is larger, before its first escalation.  When
    that span certifies, it gives k0 and every smaller truncation is read
    off it (:func:`truncated_span`); when it does not, the store escalates
    as one without ``first_D``."""

    def __init__(self, gens, first_D=None):
        self.gens = tuple(gens)
        if not self.gens:
            raise InputError("no generators")
        self.nvars = self.gens[0].nvars
        self.spans = {}
        self.k0 = None
        self.first_D = first_D
        self.source = None

    def _check_cap(self, D):
        count = comb(D + self.nvars, self.nvars)
        if count > MAX_ALGEBRA_MONOMIALS:
            raise CapError(
                "truncation D=%d in n=%d variables has %d monomials, above "
                "the cap of %d" % (D, self.nvars, count, MAX_ALGEBRA_MONOMIALS))

    def _certifies(self, D):
        """Whether the span at D certifies; built only while k0 is unknown
        (or for D < 1, which :func:`build_ideal` refuses)."""
        self._check_cap(D)
        if D < 1 or self.k0 is None:
            span = build_ideal(self.gens, D)
            if span.m_power_bound is not None:
                self.k0 = span.m_power_bound
                self.spans[D] = span
        return self.k0 is not None and D >= self.k0

    def _span(self, D):
        """The span at a truncation D >= k0."""
        self._check_cap(D)
        if D not in self.spans:
            source = self.source
            self.spans[D] = (truncated_span(source, D)
                             if source is not None
                             and D < source.algebra.D
                             else build_ideal(self.gens, D))
        return self.spans[D]

    def _build_first(self, start):
        """The build at max(first_D, start), unless its algebra is above
        the monomial cap; made once."""
        D = max(self.first_D, start)
        self.first_D = None
        if comb(D + self.nvars, self.nvars) > MAX_ALGEBRA_MONOMIALS:
            return
        span = build_ideal(self.gens, D)
        if span.m_power_bound is not None:
            self.k0 = span.m_power_bound
            self.spans[D] = self.source = span

    def certified(self, D=None, min_D=0):
        """A span whose finite colength is certified.

        With D given, that truncation must already certify.  Otherwise
        escalate from twice the largest generator degree until a certificate
        appears, then settle at m_power_bound + 4 (never below ``min_D``).
        The escalation cap (40 in up to two variables, else 20) shrinks with
        the variable count to keep hopeless inputs from grinding; a
        ``min_D`` beyond the cap is still tried, once.  So is a start from
        the generator degrees one step (2) beyond the cap in two variables,
        where that build costs about what one at the cap does; any other
        start beyond the cap is refused before building, naming the
        truncation it needs.  A truncation whose algebra is above
        ``MAX_ALGEBRA_MONOMIALS`` is refused (CapError) before it is
        built.

        A store whose first build certified has k0 in hand, and no degree
        cap applies to it: it answers at the truncation the escalation
        would reach without a cap, the first d from the start with
        d >= k0, then max(d, k0 + 4)."""
        if D is not None:
            if D < min_D:
                raise TruncationError("truncation D=%d below the required "
                                      "minimum %d" % (D, min_D))
            if not self._certifies(D):
                raise TruncationError(
                    "increase truncation: no certificate at D=%d" % D)
            return self._span(D)
        cap = 40 if self.nvars <= 2 else 20
        start = max(4, 2 * max(g.total_degree() for g in self.gens))
        if self.first_D is not None and self.k0 is None:
            self._build_first(start)
        if self.source is not None:
            d = max(start, min_D)
            while d < self.k0:
                d += 2
            return self._span(max(d, self.k0 + 4))
        if start > max(cap, min_D) and (self.nvars > 2 or start > cap + 2):
            raise TruncationError(
                "the escalation would start at D=%d, beyond the cap %d: give "
                "a truncation of at least %d (--trunc) to try it"
                % (start, cap, start))
        start = max(start, min_D)
        d = start
        while d <= max(cap, start):
            if self._certifies(d):
                return self._span(max(d, self.k0 + 4))
            d += 2
        if start > cap:
            raise TruncationError(
                "no finite-colength certificate at D=%d: the required "
                "truncation exceeds the cap %d" % (start, cap))
        raise TruncationError(
            "no finite-colength certificate up to D=%d" % (d - 2))


def certified_ideal(gens, D=None, min_D=0):
    """A certified span of the ideal generated by ``gens``:
    :meth:`CertifiedSpans.certified` on a new store."""
    return CertifiedSpans(gens).certified(D, min_D)


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
    last = n - 1
    index = {m: i for i, m in enumerate(basis)}
    nvars = span.algebra.nvars
    # basis[j] is column last - j, so that the pivots are the first basis
    # monomials and each socle element has coefficient 1 on the last basis
    # monomial it involves, the normalization of kernel_basis
    ech = Echelon()
    for v in range(nvars):
        # rows[i][last - j]: the coefficient of basis[i] in x_v * basis[j]
        rows = [{} for _ in basis]
        for j, b in enumerate(basis):
            shifted = b[:v] + (b[v] + 1,) + b[v + 1:]
            for m, c in span.reduce({shifted: Fraction(1)}).items():
                rows[index[m]][last - j] = c
        for r in rows:
            ech.insert(_integral(r)[0])
    return [SparsePoly(nvars, {basis[last - j]: c for j, c in vec.items()})
            for vec in ech.kernel(n)]


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


def _nu_echelon(span, poly):
    """Re-echelonized ideal span pivoting on the lowest Newton-order part.

    A column's level is the Newton order of its monomial times ``scale``,
    the lcm of the facet offsets, which makes it an integer.  The algebra's
    columns are renumbered once by (-level, column), so the largest new
    column is the lowest level, the largest monomial within it.  Returns
    the echelon on the new columns, the new column of each algebra column,
    the level of each new column, and ``scale``.  A normal form against this
    basis has, in every reachable Newton level, no component that the ideal
    could cancel, so its order is the supremum of the orders over the whole
    coset.
    """
    pos = poly.positive_facets()
    scale = lcm(*(fc.offset for fc in pos))
    weights = [(fc.normal, scale // fc.offset) for fc in pos]
    levels = [min(w * sum(map(mul, normal, m)) for normal, w in weights)
              for m in span.algebra.ascending]
    order = sorted(range(len(levels)), key=lambda i: (-levels[i], i))
    renumber = [0] * len(order)
    for new, i in enumerate(order):
        renumber[i] = new
    ech = Echelon()
    rows = span.echelon.rows
    for pivot in sorted(rows, reverse=True):
        ech.insert({renumber[i]: c for i, c in rows[pivot].items()})
    return ech, renumber, [levels[i] for i in order], scale


def coset_newton_order(h, span, poly):
    """Newton order of the coset h + ideal: sup over representatives.

    INFINITY when h lies in the ideal.  Exact within the truncation (terms
    of h above it are dropped); callers arrange the truncation so that every
    discarded monomial has order above the range of interest."""
    ech, renumber, levels, scale = _nu_echelon(span, poly)
    red = ech.reduce({renumber[i]: c
                      for i, c in span.algebra.columns(h).items()})
    if not red:
        return INFINITY
    return Fraction(min(levels[i] for i in red), scale)


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
    span_j = certified_ideal(jac_gens, D=jacobian_truncation(span_i, D))
    return jacobian_multiplication_report(span_i, span_j)


def jacobian_truncation(span_i, D):
    """The truncation at which the Jacobian check reads (f_xi): a requested
    D, else the certificate k0 of the certified log span ``span_i``.
    (x_i f_xi) lies in (f_xi), so m^k0 does too and the Jacobian span
    certifies there; its quotient basis, all the check reads of it, is the
    same at every truncation that certifies."""
    return span_i.m_power_bound if D is None else D


def jacobian_multiplication_report(span_i, span_j):
    """The report of :func:`jacobian_multiplication_check` from the certified
    spans of (x_i f_xi) and of (f_xi), the second at
    :func:`jacobian_truncation`."""
    n = span_i.algebra.nvars
    x_all = SparsePoly.monomial((1,) * n)
    well_defined = all(member(x_all * g, span_i) for g in span_j.generators)

    # the image span's rank is all that is read, so its columns are the
    # monomials themselves in their native tuple order
    basis_j = span_j.quotient_basis()
    images = Echelon()
    injective = sum(
        images.insert(_integral(span_i.reduce(x_all * SparsePoly.monomial(b)))[0])
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
