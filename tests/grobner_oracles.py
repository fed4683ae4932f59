"""The Buchberger loop that ``newton_socle.grobner`` used before it cached
leading monomials, kept as a test oracle.

``normal_form`` recomputes the leading monomial of every basis element at
every reduction step, and ``buchberger`` takes the smallest index pair
first and runs every S-pair to the end, also once the ideal is the unit
ideal.  A reduced Groebner basis is unique, so the package's
``buchberger`` must return the same basis, and ``torus_has_zero`` built on
this loop must give the same verdicts.  ``face_torus_polynomial`` is the
per-term ``Fraction`` solve that the package's lattice substitution
replaced, and ``rabinowitsch_system`` builds the torus system through the
validating ``SparsePoly`` constructor.
"""

from fractions import Fraction

from newton_socle.errors import InputError
from newton_socle.grobner import GB, degrevlex_key, leading_monomial
from newton_socle.linalg import hermite_basis, solve, vec_sub
from newton_socle.polylattice import SparsePoly


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


def torus_has_zero(polys):
    """Whether the system has a common zero with all coordinates nonzero
    over the algebraic closure of Q.

    Adjoins t*x1*...*xn - 1 and tests for the unit ideal; False is a proof of
    emptiness over the closure."""
    system = rabinowitsch_system(polys)
    return not system or not buchberger(system).is_unit_ideal()


def rabinowitsch_system(polys):
    """The nonzero polys in one more variable t, and t*x1*...*xn - 1, each
    through the validating ``SparsePoly`` constructor."""
    polys = [g for g in polys if not g.is_zero()]
    if not polys:
        return []
    n = polys[0].nvars
    extended = [SparsePoly(n + 1, {e + (0,): c for e, c in g.terms.items()})
                for g in polys]
    return extended + [SparsePoly(n + 1, {(1,) * (n + 1): 1,
                                          (0,) * (n + 1): -1})]


def face_torus_polynomial(face_poly):
    """The F of ``newton_socle.grobner.face_torus_polynomial`` by the route
    it took before its lattice substitution: one ``Fraction`` solve per term
    against the columns of the Hermite basis, each coordinate then cut to
    an ``int``, and F built through the validating constructor."""
    m0 = next(iter(face_poly.terms))
    diffs = {m: vec_sub(m, m0) for m in face_poly.terms}
    columns = list(zip(*hermite_basis(list(diffs.values()))))
    coords = {m: tuple(int(a) for a in solve(columns, v))
              for m, v in diffs.items()}
    low = [min(a) for a in zip(*coords.values())]
    return SparsePoly(len(low), {vec_sub(coords[m], low): c
                                 for m, c in face_poly.terms.items()})
