"""Minimal Buchberger engine over Q, used to decide whether face-derivative
systems have a common zero in the torus.

Only the degree-reverse-lexicographic order is implemented; torus conditions
go through a Rabinowitsch variable, and every answer is exact.
Nondegeneracy decides each compact face on its own torus in dim(face) + 1
variables (see :func:`nondegeneracy_report`); the stratum systems of
:func:`combid.check_resolution_assumptions` go through
:func:`torus_has_zero` in all n variables."""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .linalg import hermite_basis, solve, vec_sub
from .polylattice import SparsePoly, compact_faces, face_part, newton_polyhedron


def degrevlex_key(m):
    return (sum(m), tuple(-x for x in reversed(m)))


def leading_monomial(poly_dict):
    return max(poly_dict, key=degrevlex_key)


def _to_dict(poly):
    return {e: Fraction(c) for e, c in poly.terms.items() if c != 0}


def _sub_scaled(f, g, c, mono):
    """f - c * x^mono * g."""
    out = dict(f)
    for e, v in g.items():
        key = tuple(a + b for a, b in zip(e, mono))
        w = out.get(key, 0) - c * v
        if w == 0:
            out.pop(key, None)
        else:
            out[key] = w
    return out


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def normal_form(f, basis):
    """Full reduction of f modulo the basis (leading-term division)."""
    rem = {}
    work = dict(f)
    while work:
        m = leading_monomial(work)
        c = work[m]
        for g in basis:
            lg = leading_monomial(g)
            if _divides(lg, m):
                quot = tuple(a - b for a, b in zip(m, lg))
                work = _sub_scaled(work, g, c / g[lg], quot)
                break
        else:
            rem[m] = c
            del work[m]
    return rem


@dataclass(frozen=True)
class GB:
    """A reduced Groebner basis in degrevlex order over Q."""

    generators: tuple
    basis: tuple          # tuples of (exponent, coefficient) pairs, sorted
    nvars: int

    def _polys(self):
        return [dict(g) for g in self.basis]

    def reduce(self, h):
        if isinstance(h, SparsePoly):
            h = _to_dict(h)
        return normal_form(h, self._polys())

    def contains(self, h):
        return not self.reduce(h)

    def is_unit_ideal(self):
        return any(len(g) == 1 and not any(g[0][0]) for g in self.basis)


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Standard Buchberger loop with the product (coprime lead) criterion and
    the chain criterion, followed by minimalization and inter-reduction."""
    if not gens:
        raise InputError("empty generator list")
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise InputError("coefficient ring mismatch: differing nvars")
    basis = [d for d in (_to_dict(g) for g in gens) if d]
    if not basis:
        raise InputError("all generators are zero")

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def spoly(f, g):
        lf, lg = leading_monomial(f), leading_monomial(g)
        l = lcm(lf, lg)
        sf = _sub_scaled({}, f, -1 / f[lf],
                         tuple(a - b for a, b in zip(l, lf)))
        return _sub_scaled(sf, g, 1 / g[lg],
                           tuple(a - b for a, b in zip(l, lg)))

    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    done = set()
    while pairs:
        i, j = min(pairs)
        pairs.discard((i, j))
        done.add((i, j))
        li, lj = leading_monomial(basis[i]), leading_monomial(basis[j])
        l = lcm(li, lj)
        if all(a + b == m for a, b, m in zip(li, lj, l)):
            continue  # coprime leading terms
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leading_monomial(basis[k]), l):
                pik = (max(i, k), min(i, k))
                pjk = (max(j, k), min(j, k))
                if pik in done and pjk in done:
                    chain = True
                    break
        if chain:
            continue
        r = normal_form(spoly(basis[i], basis[j]), basis)
        if r:
            new_idx = len(basis)
            basis.append(r)
            pairs.update((new_idx, k) for k in range(new_idx))

    # minimalize: drop elements whose lead is divisible by another lead
    leads = [leading_monomial(g) for g in basis]
    keep = []
    for i, g in enumerate(basis):
        if any(j != i and _divides(leads[j], leads[i])
               and (leads[j] != leads[i] or j < i) for j in range(len(basis))):
            continue
        keep.append(g)
    # inter-reduce and normalize to monic
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = normal_form(g, others)
        if not r:
            continue
        lead = r[leading_monomial(r)]
        reduced.append({e: v / lead for e, v in r.items()})
    reduced.sort(key=lambda g: degrevlex_key(leading_monomial(g)))
    frozen = tuple(tuple(sorted(g.items())) for g in reduced)
    return GB(tuple(gens), frozen, nvars)


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


def _monomial_system(polys):
    return all(len(g.terms) <= 1 for g in polys)


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
    if not isinstance(f.order(), int) or f.order() < 2:
        raise InputError("order too small: f must lie in the square of the maximal ideal")
    n = f.nvars
    report = {"nvars": n, "axis_condition": True, "faces": [], "nondegenerate": True}
    for i in range(n):
        if f.restrict_to_axis(i).is_zero():
            report["axis_condition"] = False
            report["nondegenerate"] = False
            report["faces"] = []
            return report
    for face in compact():
        fs = face_part(f, face)
        entry = {"vertices": [list(v) for v in face.vertices()], "dim": face.dim}
        if _monomial_system([fs.x_ddx(i) for i in range(n)]):
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
