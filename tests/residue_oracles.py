"""The transformation-law residue, kept as a test oracle.

Each x_i^N (N the colength certificate) is written as a combination of
shifted generators by an echelon that tracks, for every row, the
combination of originals it equals.  The cofactor matrix of these
combinations, with its determinant taken under a degree cap, carries g to
the monomial case against x^N; the value must agree at the cap and two
degrees higher.  ``residue.grothendieck_residue`` reads the residue off the
certified quotient by the Bezoutian instead and must give the same values.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add

from newton_socle.errors import InputError, TruncationError
from newton_socle.grobner import degrevlex_key
from newton_socle.linalg import _sub_multiple
from newton_socle.localalg import certified_ideal, monomials_of_degree
from newton_socle.polylattice import SparsePoly
from newton_socle.residue import ResidueResult, monomial_residue


def _integral(terms, comb=None):
    """``terms`` and ``comb`` (a dict or None) over their common denominator
    d: integer dicts without zero entries, and d."""
    d = lcm(*(v.denominator for v in terms.values()),
            *(v.denominator for v in (comb or {}).values()))

    def scaled(dct):
        return {k: v.numerator * (d // v.denominator)
                for k, v in dct.items() if v}

    return scaled(terms), None if comb is None else scaled(comb), d


class _Echelon:
    """Sparse row-echelon span of polynomials, pivoting on the maximal
    monomial under ``key``.

    Rows are primitive integer dicts with a positive pivot coefficient, and
    elimination is fraction-free: ``Fraction`` appears only where ``reduce``
    hands its results back.  An input may come with its combination, a dict
    {label: coefficient} naming what it stands for as a sum of labelled
    originals.  Its row then keeps in ``combs`` the integer combination it
    equals, made primitive together with the row, and ``reduce`` carries a
    combination along with the terms it reduces."""

    def __init__(self, key):
        self.key = key
        self.rows = {}
        self.combs = {}

    def _eliminate(self, work, comb, lead_only):
        """Cancel pivot monomials, largest first, from the integer dict
        ``work`` in place.  Before each cancellation ``work`` and the integer
        combination ``comb`` (or None) are multiplied by the least factor
        that keeps them integral; the product of these factors is the scale.
        Returns the terms split off as {monomial: (coefficient, scale then)}
        and the final scale.  ``lead_only`` stops at the first monomial that
        is not a pivot."""
        out = {}
        scale = 1
        while work:
            m = max(work, key=self.key)
            c = work[m]
            row = self.rows.get(m)
            if row is None:
                out[m] = (c, scale)
                del work[m]
                if lead_only:
                    break
                continue
            p = row[m]
            g = gcd(c, p)
            a, b = p // g, c // g
            if a != 1:
                scale *= a
                for k in work:
                    work[k] *= a
                if comb is not None:
                    for k in comb:
                        comb[k] *= a
            _sub_multiple(work, b, row)
            if comb is not None:
                _sub_multiple(comb, b, self.combs[m])
        return out, scale

    def reduce(self, terms, comb=None):
        """Normal form of ``terms``: what is left once every pivot monomial
        is cancelled.  A given ``comb`` is updated in place to the
        combination of what is left."""
        work, icomb, d = _integral(terms, comb)
        out, scale = self._eliminate(work, icomb, lead_only=False)
        if comb is not None:
            comb.clear()
            comb.update((k, Fraction(v, scale * d)) for k, v in icomb.items())
        return {m: Fraction(c, s * d) for m, (c, s) in out.items()}

    def insert(self, terms, comb=None):
        """Add ``terms`` to the span; False when it is already in it.  Only
        the leading term is reduced and the new row's tail stays as it is:
        pivots and normal forms depend only on the span, and reducing tails
        would make tracked combinations several times denser."""
        work, icomb, _ = _integral(terms, comb)
        out, _ = self._eliminate(work, icomb, lead_only=True)
        if not out:
            return False
        (pivot, (c, _)), = out.items()
        row = {pivot: c}
        row.update(work)
        g = gcd(*row.values(), *(icomb or {}).values())
        if c < 0:
            g = -g
        self.rows[pivot] = {m: v // g for m, v in row.items()}
        if icomb is not None:
            self.combs[pivot] = {k: v // g for k, v in icomb.items()}
        return True


def _shifted_span(gens, D, track=False):
    """Echelon span of the shifts x^a * g_j truncated beyond degree D, each
    generator's shifts inserted in ascending degrevlex order of a.  Each
    generator is cleared of denominators once, by their lcm l_j, so with
    ``track`` a shift enters with the combination {(j, a): l_j}."""
    nvars = gens[0].nvars
    ech = _Echelon(degrevlex_key)
    for j, g in enumerate(gens):
        terms, _, l = _integral(g.terms)
        graded = [(sum(e), e, c) for e, c in terms.items()]
        shifts = []
        for d in range(D - g.order() + 1):
            shifts.extend(monomials_of_degree(nvars, d))
        shifts.sort(key=degrevlex_key)
        for a in shifts:
            room = D - sum(a)
            ech.insert({tuple(map(add, a, e)): c
                        for deg, e, c in graded if deg <= room},
                       {(j, a): l} if track else None)
    return ech


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


def transformation_law_residue(g, system, D=None, max_escalations=3):
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
