"""Weight-system selection and the determinant identities behind the residue
computation: the signed-permutation sum of chain coefficients equals a minor,
and for full index sets it collapses to the determinant with a ones column.

The identities run on one integer matrix M = s·A, where s is the lcm of the
denominators of A; ``Fraction`` is built only in what the public functions
return.  The coefficients c_l^I making a unit combination on the affine
slice E_I = {x : A_I x = 1} come two ways, cross-checked on every subset by
integer cross-products:

* by Cramer's rule on integer determinants,
  c_l^I = det[m_l; M_I cols 0..k-2] / (s·det[1...1; M_I cols 0..k-2]),
  both expanded along their first row, so one set of cofactors serves every
  l (none when the denominator vanishes);
* by a parametrization of the slice: one fraction-free elimination of
  [M_I | s] gives a point of E_I and a kernel basis together, and a second
  solves for c the square system saying that the combination is 1 at the
  point and 0 on every direction (none when it is singular).

The signed sum over orderings of the chain products is one pass over
subsets by size, T(∅) = 1 and
T(P) = c^P_{|P|-1} · Σ_{i∈P} (-1)^{#{p∈P : p>i}} · T(P∖{i}),
grouping the orderings of P by their last element: 2^r·r products instead
of Σ_k C(r,k)·k!·k.  Minors are integer Bareiss determinants of M."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
import random

from ._record import DERIVED, record
from .errors import CapError, InputError, VerificationError
from .fan import dual_fan, face_normal_cone, interior_rays, multiplicity, \
    regularize
from .grobner import torus_has_zero
from .linalg import _bareiss, _row_reduce, det, dot, kernel_basis, rank, \
    solve
from .polylattice import face_part, faces, support_function

# The largest row count random trials accept.  A trial visits all 2^rows row
# subsets: one trial takes about 2 s at 12 rows and 4-6 s at 13 (two x86-64
# cores, Python 3.11).
MAX_TRIAL_ROWS = 12

# Weight draws :func:`choose_weights` makes before it gives up.
WEIGHT_ATTEMPTS = 100


# ---------------------------------------------------------------------------
# Abstract determinant identities
# ---------------------------------------------------------------------------

@record
class MinorTable:
    """An (r+1) x n rational matrix with independent rows and its minors.

    ``scaled`` is the integer matrix ``scale`` times ``matrix``, with
    ``scale`` the lcm of all denominators."""

    matrix: tuple
    scale: int = DERIVED
    scaled: tuple = DERIVED

    def __post_init__(self):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x)
                           for x in r) for r in self.matrix)
        if not rows or len({len(r) for r in rows}) != 1:
            raise InputError("a minor table needs rows of one length")
        s = lcm(*(x.denominator for r in rows for x in r))
        scaled = tuple(tuple(x.numerator * (s // x.denominator) for x in r)
                       for r in rows)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "scaled", scaled)
        if len(_row_reduce([list(r) for r in scaled], len(rows[0]))) \
                != len(rows):
            raise InputError("rows are linearly dependent")

    @property
    def nrows(self):
        return len(self.matrix)

    @property
    def ncols(self):
        return len(self.matrix[0])

    def _int_minor(self, rows, cols):
        """The minor of ``scaled`` on sorted ``rows`` and ``cols``."""
        return _bareiss([[self.scaled[i][j] for j in cols] for i in rows])

    def minor(self, row_set, col_set):
        rows = sorted(row_set)
        cols = sorted(col_set)
        if len(rows) != len(cols):
            raise InputError("minor needs equal index counts")
        return Fraction(self._int_minor(rows, cols), self.scale ** len(rows))


def _cramer_coefficients(table, rows):
    """``(nums, den)`` with c_l^I = nums[l - k + 1] / den for l = k-1..n-1,
    or None when the Cramer system is singular.  ``rows`` is sorted."""
    k = len(rows)
    M = table.scaled
    # det[u; R] = sum_t u_t C_t, with C the signed maximal minors of R
    R = [[M[j][l] for j in rows] for l in range(k - 1)]
    cof = [(-1) ** t * _bareiss([r[:t] + r[t + 1:] for r in R])
           for t in range(k)]
    den = sum(cof)
    if not den:
        return None
    nums = [sum(M[j][l] * c for j, c in zip(rows, cof))
            for l in range(k - 1, table.ncols)]
    return nums, table.scale * den


def _slice_coefficients(table, rows):
    """``(nums, dens)`` with c_l^I = nums[l - k + 1] / dens[l - k + 1] from a
    parametrization of the slice E_I, or None when I is empty or the
    combination is not unique.  ``rows`` is sorted."""
    k = len(rows)
    if not k:
        return None
    n = table.ncols
    s = table.scale
    mat = [list(table.scaled[j]) + [s] for j in rows]
    pivots = _row_reduce(mat, n + 1)
    # rows i of the reduced [M_I | s] read d_i x_{p_i} + sum_f e_if x_f = r_i;
    # scaled by L = lcm(d_i), the point (free x = 0) and the kernel vector of
    # each free column f are integer
    L = lcm(*(row[p] for row, p in zip(mat, pivots)))
    point = [0] * n
    for row, p in zip(mat, pivots):
        point[p] = row[n] * (L // row[p])
    system = [point[k - 1:] + [L]]
    for f in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[f] = L
        for row, p in zip(mat, pivots):
            v[p] = -row[f] * (L // row[p])
        system.append(v[k - 1:] + [0])
    m = n - k + 1
    if _row_reduce(system, m + 1) != list(range(m)):
        return None
    nums = [row[m] for row in system]
    dens = [row[i] for i, row in enumerate(system)]
    return nums, dens


def chain_coefficients_cramer(table, index_set):
    """The coefficients c_k^I, ..., c_n^I of the unit combination on the slice
    cut out by the rows in I, via the Cramer system sum(b_j) = 1,
    sum(b_j a_jl) = 0 for l < k.  None when that system is singular."""
    rows = sorted(index_set)
    got = _cramer_coefficients(table, rows)
    if got is None:
        return None
    nums, den = got
    return {l: Fraction(x, den) for l, x in enumerate(nums, len(rows) - 1)}


def chain_coefficients_direct(table, index_set):
    """Same coefficients from the defining property: the combination of the
    coordinate covectors k..n restricted to the slice E_I equals 1.  None when
    the restricted system is singular."""
    rows = sorted(index_set)
    got = _slice_coefficients(table, rows)
    if got is None:
        return None
    return {l: Fraction(x, d)
            for l, (x, d) in enumerate(zip(*got), len(rows) - 1)}


def _mask(subset):
    return sum(1 << i for i in subset)


def _signed_chain_sums(coeff, subsets):
    """T(P) for every P in ``subsets`` (sorted tuples, listed by size), from
    ``coeff[mask(P)]`` = c^P_{|P|-1} as a pair ``(num, den)`` or None.  Each
    T(P) is a reduced pair ``(num, den)`` with ``den > 0``, or None when any
    coefficient below P is None."""
    sums = {0: (1, 1)}
    for subset in subsets:
        mask = _mask(subset)
        c = coeff[mask]
        num, den = 0, 1
        last = len(subset) - 1
        for pos, i in enumerate(subset):
            below = sums[mask ^ (1 << i)]
            if c is None or below is None:
                c = None
                break
            u, w = below
            m = lcm(den, w)
            # #{p in P : p > i} = last - pos, as P is sorted
            num = num * (m // den) + (-u if (last - pos) % 2 else u) * (m // w)
            den = m
        if c is None:
            sums[mask] = None
            continue
        num *= c[0]
        den *= c[1]
        g = gcd(num, den)
        if den < 0:
            g = -g
        sums[mask] = (num // g, den // g)
    return sums


def check_minor_identity(table, k_max=None):
    """For each row subset I the signed sum over orderings of the chain
    products c_1 ... c_k equals the minor on the first k columns.

    Subsets whose Cramer systems are singular are skipped with a note; both
    coefficient routes are cross-checked wherever both exist."""
    r1 = table.nrows
    if k_max is None:
        k_max = r1
    subsets = [subset for size in range(1, min(k_max, r1) + 1)
               for subset in combinations(range(r1), size)]
    coeff = {}
    skipped = []
    for subset in subsets:
        cc = _cramer_coefficients(table, subset)
        cd = _slice_coefficients(table, subset)
        if cc is not None and cd is not None and any(
                x * q != cc[1] * p for x, p, q in zip(cc[0], *cd)):
            raise VerificationError(
                "coefficient routes disagree on %r" % (subset,))
        if cc is not None:
            c = cc[0][0], cc[1]
        elif cd is not None:
            c = cd[0][0], cd[1][0]
        else:
            c = None
            skipped.append(subset)
        coeff[_mask(subset)] = c
    sums = _signed_chain_sums(coeff, subsets)
    checked = 0
    failures = []
    for subset in subsets:
        total = sums[_mask(subset)]
        if total is None:
            continue
        k = len(subset)
        checked += 1
        if total[0] * table.scale ** k != \
                table._int_minor(subset, range(k)) * total[1]:
            failures.append({"rows": list(subset),
                             "sum": str(Fraction(*total)),
                             "minor": str(table.minor(subset, range(k)))})
    return {"ok": not failures, "checked": checked,
            "skipped": [list(s) for s in skipped], "failures": failures}


def check_ones_column_identity(table):
    """For the full row set, the signed sum of chain products of length r
    equals the alternating sum of row-deleted minors; for a square matrix
    with unit row sums both equal the plain determinant (the ones-column
    form)."""
    r1 = table.nrows
    full = tuple(range(r1))
    subsets = [subset for size in range(1, r1)
               for subset in combinations(full, size)]
    coeff = {}
    for subset in subsets:
        cc = _cramer_coefficients(table, subset)
        if cc is None:
            return {"ok": False, "note": "singular chain system",
                    "skipped": True}
        coeff[_mask(subset)] = cc[0][0], cc[1]
    sums = _signed_chain_sums(coeff, subsets)
    top = _mask(full)
    total = sum(Fraction(*sums[top ^ (1 << i)]) * (-1) ** (r1 - 1 - i)
                for i in full)
    minor_sum = Fraction(
        sum((-1) ** (r1 + 1 + i)
            * table._int_minor(full[:i] + full[i + 1:], range(r1 - 1))
            for i in full),
        table.scale ** (r1 - 1))
    out = {"ok": total == minor_sum, "sum": str(total),
           "minor_sum": str(minor_sum), "skipped": False}
    s = table.scale
    if table.ncols == r1 and all(sum(row) == s for row in table.scaled):
        ones_det = Fraction(_bareiss([list(row[:r1 - 1]) + [s]
                                      for row in table.scaled]), s ** r1)
        plain_det = Fraction(table._int_minor(full, full), s ** r1)
        out["ones_column_det"] = str(ones_det)
        out["det"] = str(plain_det)
        out["ok"] = out["ok"] and total == ones_det == plain_det
    return out


def validate_trials(rows, cols, trials):
    """Reject a shape no trial can use (InputError) and a row count above
    ``MAX_TRIAL_ROWS`` (CapError), before any work."""
    if not 1 <= rows <= cols:
        raise InputError("trials need 1 <= rows <= cols, got rows=%d, "
                         "cols=%d" % (rows, cols))
    if trials < 0:
        raise InputError("the trial count must be >= 0, got %d" % trials)
    if rows > MAX_TRIAL_ROWS:
        raise CapError("rows=%d is above the cap of %d rows: each trial "
                       "visits all 2^rows row subsets"
                       % (rows, MAX_TRIAL_ROWS))


def random_minor_identity_trials(rows, cols, trials, seed):
    """Seeded random matrices fed through the minor identity; returns the
    first counterexample if any (expected none)."""
    validate_trials(rows, cols, trials)
    rng = random.Random(seed)
    ran = 0
    skipped = 0
    for t in range(trials):
        matrix = []
        for _ in range(rows):
            matrix.append(tuple(Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 3))
                                for _ in range(cols)))
        try:
            table = MinorTable(tuple(matrix))
        except InputError:
            skipped += 1
            continue
        report = check_minor_identity(table)
        ran += 1
        if not report["ok"]:
            return {"ok": False, "trial": t, "matrix":
                    [[str(x) for x in row] for row in matrix],
                    "failures": report["failures"]}
        if table.ncols == table.nrows:
            sums = [sum(row) for row in matrix]
            if any(s == 0 for s in sums):
                continue
            stochastic = tuple(tuple(x / s for x in row)
                               for row, s in zip(matrix, sums))
            try:
                st = MinorTable(stochastic)
            except InputError:
                continue
            rep2 = check_ones_column_identity(st)
            if not rep2.get("skipped") and not rep2["ok"]:
                return {"ok": False, "trial": t, "stochastic": True,
                        "report": rep2}
    return {"ok": True, "trials": ran, "degenerate_skipped": skipped}


# ---------------------------------------------------------------------------
# Weight systems on a face
# ---------------------------------------------------------------------------

@record
class WeightSystem:
    """Covectors w_1..w_n adapted to a face: the first r+1 span the normal
    cone's span and restrict to 1 on the face, the whole family is a basis,
    and every slice system from the fan's subcones is solvable."""

    weights: tuple
    face: object
    normal_cone: object
    r: int
    fan: object
    admissible_sets: tuple    # tuples of RayData, one per (r+1)-dim subcone

    def derived_polynomials(self, f):
        return [f.weighted_derivative(w) for w in self.weights]


@record
class CSystem:
    ray_subset: tuple
    base_point: tuple
    directions: tuple
    coefficients: dict        # 0-based weight index -> Fraction

    def to_json(self):
        return {"rays": [list(r.generator) for r in self.ray_subset],
                "coefficients": {str(k + 1): str(v)
                                 for k, v in sorted(self.coefficients.items())}}


def _slice_of_rays(ray_subset):
    """Base point and direction basis of the affine slice where every
    normalized ray covector equals 1."""
    covs = [r.normalized for r in ray_subset]
    n = len(covs[0])
    x0 = solve(covs, [Fraction(1)] * len(covs))
    if x0 is None:
        return None, None
    dirs = kernel_basis(covs, ncols=n)
    return x0, tuple(dirs)


def _restriction_matrix(weights, start, x0, dirs):
    """Values of the weights w_start..w_n on (base point, directions)."""
    rows = []
    for w in weights[start:]:
        rows.append(tuple([dot(w, x0)] + [dot(w, v) for v in dirs]))
    return rows


def admissible_ray_subsets(fan, face, poly, f=None):
    """Nonempty subsets of the interior-ray sets of the fan cones of dimension
    r+1 inside the normal cone of the face."""
    return _ray_subsets_in(fan, face_normal_cone(poly, face), poly, f)


def _ray_subsets_in(fan, normal, poly, f):
    """:func:`admissible_ray_subsets` for the face with normal cone
    ``normal``."""
    target_dim = normal.dim
    if f is not None:
        rays = {rd.generator: rd for rd in interior_rays(fan, f)}
    else:
        # multiplicities straight from the support function of the polyhedron
        rays = {}
        for r in fan.rays:
            if not _is_unit(r):
                v = support_function(poly, r)
                norm = tuple(Fraction(x, v) for x in r) if v > 0 else None
                rays[r] = _PlainRay(r, v, norm)
    groups = []
    for cone in fan.cones:
        if cone.dim != target_dim:
            continue
        if not all(normal.contains(r) for r in cone.rays):
            continue
        group = tuple(rays[r] for r in cone.rays)
        groups.append(group)
    subsets = set()
    for group in groups:
        for size in range(1, len(group) + 1):
            for sub in combinations(group, size):
                subsets.add(tuple(sorted(sub, key=lambda rd: rd.generator)))
    return sorted(subsets, key=lambda s: (len(s), [r.generator for r in s]))


@record
class _PlainRay:
    generator: tuple
    multiplicity: object
    normalized: object


def _is_unit(r):
    return sum(1 for x in r if x != 0) == 1 and max(r) == 1


def choose_weights(poly, face, seed=0, fan=None, f=None):
    """Random rational weights adapted to the face, resampled until the
    spanning, normalization, vertex-nonvanishing and slice-basis conditions
    all hold, for at most ``WEIGHT_ATTEMPTS`` draws."""
    n = poly.nvars
    normal = face_normal_cone(poly, face)
    r = normal.dim - 1
    if fan is None:
        fan = regularize(dual_fan(poly))
    admissible = _ray_subsets_in(fan, normal, poly, f)
    rng = random.Random(seed)
    basis_v = [tuple(map(Fraction, ray)) for ray in normal.rays]
    last_failure = "no attempt run"
    for _ in range(WEIGHT_ATTEMPTS):
        weights = []
        ok = True
        for _ in range(r + 1):
            w = tuple(sum(rng.randint(-4, 4) * b[k] for b in basis_v)
                      for k in range(n))
            c = dot(w, face.vertices()[0])
            if c == 0:
                ok = False
                last_failure = "weight vanished on the face"
                break
            weights.append(tuple(x / c for x in w))
        if not ok:
            continue
        for _ in range(n - r - 1):
            weights.append(tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)))
        # full Newton polyhedron of every derived polynomial: nonvanishing on
        # all vertices of the polyhedron
        if any(dot(w, v) == 0 for w in weights for v in poly.vertices):
            last_failure = "a weight vanishes on a vertex"
            continue
        if det(weights) == 0:
            last_failure = "weights are not a basis"
            continue
        # normalization on the face (spanning weights are constant there)
        bad = False
        for w in weights[:r + 1]:
            if any(dot(w, v) != 1 for v in face.vertices()):
                bad = True
                last_failure = "weight not constant 1 on the face"
                break
        if bad:
            continue
        # slice-basis condition for every admissible ray subset
        for sub in admissible:
            x0, dirs = _slice_of_rays(sub)
            if x0 is None:
                bad = True
                last_failure = "slice is empty for %r" % ([r_.generator for r_ in sub],)
                break
            k = len(sub)
            rows = _restriction_matrix(weights, k - 1, x0, dirs)
            if rank(rows) != n - k + 1 or len(rows) != n - k + 1:
                bad = True
                last_failure = "restricted weights not a slice basis"
                break
        if bad:
            continue
        return WeightSystem(tuple(weights), face, normal, r, fan,
                            tuple(admissible))
    raise InputError("weight sampling failed after %d attempts: %s"
                     % (WEIGHT_ATTEMPTS, last_failure))


def solve_c_system(ws, ray_subset):
    """Exact coefficients making the tail weights sum to 1 on the slice of
    the given rays; singularity means the slice-basis condition failed."""
    x0, dirs = _slice_of_rays(ray_subset)
    if x0 is None:
        raise InputError("slice is empty")
    k = len(ray_subset)
    n = len(ws.weights)
    rows = _restriction_matrix(ws.weights, k - 1, x0, dirs)
    cols = list(zip(*rows))
    rhs = [Fraction(1)] + [Fraction(0)] * len(dirs)
    c = solve(cols, rhs)
    if c is None:
        raise InputError("slice-basis condition violated")
    coefficients = {k - 1 + i: c[i] for i in range(len(c))}
    # defining identity on a spanning set of the slice
    for idx, val in ((None, x0),) + tuple(enumerate(dirs)):
        got = sum(coefficients[j] * dot(ws.weights[j], val)
                  for j in coefficients)
        want = Fraction(1) if idx is None else Fraction(0)
        if got != want:
            raise VerificationError("unit combination fails on the slice")
    return CSystem(tuple(ray_subset), tuple(x0), tuple(dirs), coefficients)


def check_resolution_assumptions(fan, f, ws):
    """The computable parts of the resolution hypotheses for the derived
    system g_j: equal ray multiplicities, no common torus zero of the tail
    face systems on each stratum (decided exactly over Q by
    :func:`grobner.torus_has_zero`), and solvable slice systems."""
    n = f.nvars
    poly = ws.face.polyhedron
    gs = ws.derived_polynomials(f)
    report = {"multiplicities_ok": True, "strata": [], "slices": [],
              "ok": True}
    rays = interior_rays(fan, f)
    for rd in rays:
        for j, g in enumerate(gs):
            if g.is_zero() or multiplicity(rd, g) != rd.multiplicity:
                report["multiplicities_ok"] = False
                report.setdefault("multiplicity_failures", []).append(
                    {"ray": list(rd.generator), "weight": j + 1})
    all_faces = faces(poly)
    for cone in fan.cones:
        if not any(all(x > 0 for x in r) for r in cone.rays):
            continue
        k = cone.dim
        carrier = None
        for face in all_faces:
            verts = [poly.vertices[i] for i in face.vertex_indices]
            if all(dot(r, v) == support_function(poly, r)
                   for r in cone.rays for v in verts) \
                    and set(face.recession_axes) == {
                        i for i in range(n)
                        if all(r[i] == 0 for r in cone.rays)}:
                if carrier is None or face.dim > carrier.dim:
                    carrier = face
        if carrier is None:
            report["ok"] = False
            report["strata"].append({"cone": [list(r) for r in cone.rays],
                                     "error": "no carrier face"})
            continue
        systems = [face_part(g, carrier) for g in gs[k - 1:]]
        has_zero = torus_has_zero(systems)
        entry = {"cone": [list(r) for r in cone.rays], "dim": k,
                 "torus_zero": has_zero}
        if has_zero:
            report["ok"] = False
        report["strata"].append(entry)
    for sub in ws.admissible_sets:
        entry = {"rays": [list(r.generator) for r in sub]}
        try:
            solve_c_system(ws, sub)
            entry["solvable"] = True
        except InputError:
            entry["solvable"] = False
            report["ok"] = False
        report["slices"].append(entry)
    if not report["multiplicities_ok"]:
        report["ok"] = False
    return report
