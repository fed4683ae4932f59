"""Minimal Buchberger engine over Q, used to decide whether face-derivative
systems have a common zero in the torus.

Only the degree-reverse-lexicographic order is implemented; torus conditions
go through a Rabinowitsch variable, and every answer is exact.  The ideal
is over Q, but the arithmetic is over Z: generators are cleared of
denominators and content once, S-polynomials and reductions cross-multiply
by lead coefficients over their gcd (:func:`_reduce`), and every new basis
element is divided by its content.  A scalar multiple has the same leading
monomial, so the pairs, their order and the unit-ideal exit are those of
the same loop over Q; ``Fraction`` appears only where the final basis is
made monic and where :func:`normal_form` hands back its rational result.
:func:`buchberger` applies the product and chain criteria, takes pairs by
Buchberger's normal selection strategy, computes each leading monomial
once, and stops as soon as an S-polynomial reduces to a nonzero constant:
the reduced basis is then {1}, the basis of the unit ideal, which is what
every nondegenerate face's torus system reaches.
Nondegeneracy decides each compact face on its own torus in dim(face) + 1
variables (see :func:`nondegeneracy_report`)."""

import heapq
from fractions import Fraction
from math import gcd

from ._record import record
from .errors import InputError
from .linalg import _integral, hermite_basis, solve, vec_sub
from .polylattice import (SparsePoly, compact_faces, face_parts,
                          newton_polyhedron)


def degrevlex_key(m):
    return (sum(m), tuple(-x for x in reversed(m)))


def leading_monomial(poly_dict):
    return max(poly_dict, key=degrevlex_key)


def _primitive(f):
    """The integer polynomial f divided by the gcd of its coefficients."""
    g = gcd(*f.values())
    return {e: v // g for e, v in f.items()} if g > 1 else f


def _sub_scaled(f, g, c, mono):
    """f -= c * x^mono * g, in place."""
    for e, v in g.items():
        key = tuple(x + y for x, y in zip(e, mono))
        w = f.get(key, 0) - c * v
        if w:
            f[key] = w
        else:
            del f[key]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def normal_form(f, basis):
    """Full reduction of f modulo the basis (leading-term division), with
    rational coefficients, exactly.  A basis element's scale does not change
    the normal form, so each is taken as a primitive integer polynomial."""
    ints = [_primitive(_integral(g)[0]) for g in basis]
    work, d = _integral(f)
    rem, mult = _reduce(work, ints, [leading_monomial(g) for g in ints])
    return {e: Fraction(v, mult * d) for e, v in rem.items()}


def _reduce(f, basis, leads):
    """Fraction-free full reduction of the integer polynomial f by the
    integer polynomials ``basis``, with ``leads[i]`` the leading monomial of
    ``basis[i]``.

    Before the term c x^m is cancelled by g (lead coefficient a), the
    work and the remainder are multiplied by a / gcd(a, c), and
    (c / gcd(a, c)) x^(m - lead) g is subtracted.  Returns ``(rem, mult)``:
    the integer remainder and the positive product of those factors, with
    rem = mult * (the normal form of f over Q)."""
    rem = {}
    work = dict(f)
    mult = 1
    while work:
        m = leading_monomial(work)
        c = work[m]
        for g, lg in zip(basis, leads):
            if _divides(lg, m):
                a = g[lg]
                h = gcd(a, c)
                a, c = a // h, c // h
                if a < 0:
                    a, c = -a, -c
                if a != 1:
                    mult *= a
                    for e in work:
                        work[e] *= a
                    for e in rem:
                        rem[e] *= a
                _sub_scaled(work, g, c, tuple(x - y for x, y in zip(m, lg)))
                break
        else:
            rem[m] = c
            del work[m]
    return rem, mult


@record
class GB:
    """A reduced Groebner basis in degrevlex order over Q."""

    generators: tuple
    basis: tuple          # tuples of (exponent, coefficient) pairs, sorted
    nvars: int

    def _polys(self):
        return [dict(g) for g in self.basis]

    def reduce(self, h):
        if isinstance(h, SparsePoly):
            h = h.terms
        return normal_form(h, self._polys())

    def contains(self, h):
        return not self.reduce(h)

    def is_unit_ideal(self):
        return any(len(g) == 1 and not any(g[0][0]) for g in self.basis)


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Buchberger's loop with the normal selection strategy: the pending pair
    whose lcm of leading monomials is least in degrevlex goes first, ties by
    index (Buchberger, "Groebner bases: an algorithmic method in polynomial
    ideal theory", 1985).  Pairs are skipped by the product (coprime lead)
    and chain criteria; the chain test reads only the set of treated pairs,
    so it holds in any selection order.  Each element's leading monomial is
    computed once, when it enters the basis.  An S-polynomial that reduces
    to a nonzero constant puts 1 in the ideal, whose reduced basis is {1}
    (Becker & Weispfenning, Groebner Bases, GTM 141, 1993), and that basis
    is returned at once.  Otherwise the loop ends with minimalization and
    inter-reduction."""
    if not gens:
        raise InputError("empty generator list")
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise InputError("coefficient ring mismatch: differing nvars")
    basis = [_primitive(_integral(g.terms)[0]) for g in gens if g.terms]
    if not basis:
        raise InputError("all generators are zero")
    leads = [leading_monomial(g) for g in basis]

    pairs = []

    def add_pairs(i):
        for j in range(i):
            l = tuple(max(x, y) for x, y in zip(leads[i], leads[j]))
            heapq.heappush(pairs, (degrevlex_key(l), i, j, l))

    def spoly(i, j, l):
        # (b/h) x^(l - lf) f - (a/h) x^(l - lg) g, with a, b the lead
        # coefficients of f, g and h = gcd(a, b)
        f, g, lf, lg = basis[i], basis[j], leads[i], leads[j]
        h = gcd(f[lf], g[lg])
        s = {}
        _sub_scaled(s, f, -(g[lg] // h), tuple(a - b for a, b in zip(l, lf)))
        _sub_scaled(s, g, f[lf] // h, tuple(a - b for a, b in zip(l, lg)))
        return s

    for i in range(len(basis)):
        add_pairs(i)
    done = set()
    while pairs:
        _, i, j, l = heapq.heappop(pairs)
        done.add((i, j))
        if all(a + b == m for a, b, m in zip(leads[i], leads[j], l)):
            continue  # coprime leading terms
        if any(k != i and k != j and _divides(leads[k], l)
               and (max(i, k), min(i, k)) in done
               and (max(j, k), min(j, k)) in done
               for k in range(len(basis))):
            continue  # chain criterion
        r = _reduce(spoly(i, j, l), basis, leads)[0]
        if r:
            lead = leading_monomial(r)
            if not any(lead):
                return GB(tuple(gens), (((lead, Fraction(1)),),), nvars)
            basis.append(_primitive(r))
            leads.append(lead)
            add_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another lead
    keep = [i for i in range(len(basis))
            if not any(j != i and _divides(leads[j], leads[i])
                       and (leads[j] != leads[i] or j < i)
                       for j in range(len(basis)))]
    keep.sort(key=lambda i: degrevlex_key(leads[i]))
    # inter-reduce and normalize to monic; no other lead divides an element's
    # lead, so its lead and lead coefficient survive the reduction
    reduced = []
    for i in keep:
        others = [k for k in keep if k != i]
        r = _reduce(basis[i], [basis[k] for k in others],
                    [leads[k] for k in others])[0]
        c = r[leads[i]]
        reduced.append(tuple(sorted((e, Fraction(v, c))
                                    for e, v in r.items())))
    return GB(tuple(gens), tuple(reduced), nvars)


# -- torus zeros and nondegeneracy -------------------------------------------

def torus_has_zero(polys):
    """Whether the system has a common zero with all coordinates nonzero
    over the algebraic closure of Q.

    Adjoins t*x1*...*xn - 1 and tests for the unit ideal; False is a proof of
    emptiness over the closure."""
    polys = [g for g in polys if not g.is_zero()]
    if not polys:
        return True
    n = polys[0].nvars
    extended = [SparsePoly(n + 1, {e + (0,): c for e, c in g.terms.items()})
                for g in polys]
    rabinowitsch = SparsePoly(n + 1, {(1,) * (n + 1): 1, (0,) * (n + 1): -1})
    gb = buchberger(extended + [rabinowitsch])
    return not gb.is_unit_ideal()


def face_torus_polynomial(face_poly):
    """The F of f_sigma = x^m0 * y^a0 * F(y), y = x^B, for a face part
    f_sigma with at least two terms.

    m0 is the first support exponent, the rows of B are the Hermite basis of
    the lattice spanned by the differences of the support exponents, and
    F has d = rank B variables and exponents shifted to be >= 0 (a0 is the
    shift), so F(0) != 0."""
    m0 = next(iter(face_poly.terms))
    diffs = {m: vec_sub(m, m0) for m in face_poly.terms}
    columns = list(zip(*hermite_basis(list(diffs.values()))))
    coords = {m: tuple(int(a) for a in solve(columns, v))
              for m, v in diffs.items()}
    low = [min(a) for a in zip(*coords.values())]
    return SparsePoly(len(low), {vec_sub(coords[m], low): c
                                 for m, c in face_poly.terms.items()})


def nondegeneracy_report(f):
    """Per-face nondegeneracy data for f.

    For every compact face sigma of the Newton polyhedron, the face parts
    x_i d/dx_i f_sigma must have no common torus zero.  Monomial face
    systems are decided by the short-circuit (a nonzero monomial never
    vanishes on the torus).  Any other face is decided on its own torus
    (Kouchnirenko, Invent. Math. 32, 1976): with f_sigma = x^m0 * y^a0 * F(y)
    and y = x^B as in :func:`face_torus_polynomial`, the face system has a
    torus zero exactly when {F, y_k dF/dy_k : k <= d} has one.  Two facts
    make this hold:

    * sigma is compact, so a positive covector is constant and nonzero on
      it; it vanishes on the rows of B but not on m0, so the n x (d+1)
      matrix (m0 | B^T) has full rank and, by the Euler relation
      x_i d/dx_i f_sigma = m0_i f_sigma + sum_k B_ki x^m0 y_k dF~/dy_k
      (F~ = y^a0 F), the face system vanishes iff f_sigma and every
      y_k dF~/dy_k do;
    * B has rank d, so x -> x^B maps the n-torus onto the d-torus, even when
      its lattice is not saturated; a torus zero of the F-system lifts.

    The F-system goes to Buchberger over Q in d+1 variables (``method``
    "groebner-Q"), so the verdict is exact."""
    return nondegeneracy_report_of_faces(
        f, lambda: compact_faces(newton_polyhedron(f)))


def nondegeneracy_report_of_faces(f, compact):
    """The report of :func:`nondegeneracy_report`; ``compact()`` gives the
    compact faces of the Newton polyhedron of f and is called only once the
    order and axis checks have passed."""
    if f.is_zero():
        raise InputError("empty support")
    if f.order() < 2:
        raise InputError("order too small: f must lie in the square of the maximal ideal")
    n = f.nvars
    report = {"nvars": n, "axis_condition": True, "faces": [], "nondegenerate": True}
    for i in range(n):
        if f.restrict_to_axis(i).is_zero():
            report["axis_condition"] = False
            report["nondegenerate"] = False
            report["faces"] = []
            return report
    faces = compact()
    for face, fs in zip(faces, face_parts(f, faces)):
        entry = {"vertices": [list(v) for v in face.vertices()], "dim": face.dim}
        # x_i d/dx_i f_sigma keeps the terms of f_sigma with e_i != 0
        if all(sum(1 for e in fs.terms if e[i]) <= 1 for i in range(n)):
            entry["method"] = "monomial"
            entry["torus_zero"] = False
        else:
            F = face_torus_polynomial(fs)
            entry["method"] = "groebner-Q"
            entry["torus_zero"] = torus_has_zero(
                [F] + [F.x_ddx(k) for k in range(F.nvars)])
        if entry["torus_zero"]:
            report["nondegenerate"] = False
        report["faces"].append(entry)
    return report


def nondegenerate(f):
    """Kouchnirenko nondegeneracy plus the coordinate-axis condition."""
    return nondegeneracy_report(f)["nondegenerate"]
