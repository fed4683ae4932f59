"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).

All arithmetic is exact rational, so every comparison below is exact
equality; the only tolerances are the stated wall-clock budgets.
"""

import io
import random
import sys
import time
from fractions import Fraction

from newton_socle import (MinorTable, SparsePoly, canonical_quotient,
                          check_minor_identity, check_ones_column_identity,
                          class_nonzero, compact_faces, cone_from_rays,
                          certified_ideal, dual_fan, face_cone,
                          face_derivatives, grothendieck_residue,
                          ideal_generators, is_regular,
                          jacobian_multiplication_check, koszul_check, member,
                          newton_order, newton_polyhedron, nondegenerate,
                          nondegeneracy_report, poincare_series, regularize,
                          select_parameters, socle_newton_order,
                          trace_volume_check, verify_residue_nonvanishing)
from newton_socle.errors import InputError
from newton_socle.facering import grading_from_covector
from newton_socle.linalg import det

from conftest import FAMILY, poly


def report(num, ok, desc, elapsed=None):
    suffix = "" if elapsed is None else "  (%.2fs)" % elapsed
    print("ACCEPTANCE %02d [%s] %s%s" % (num, "PASS" if ok else "FAIL",
                                         desc, suffix))
    assert ok, "criterion %d failed: %s" % (num, desc)


def test_criterion_01_dual_fan_rays():
    t0 = time.time()
    fan1 = dual_fan(newton_polyhedron(poly("x1^2 + x2^3")))
    t1 = time.time() - t0
    t0 = time.time()
    fan2 = dual_fan(newton_polyhedron(poly("x1^2 + x1*x2 + x2^3")))
    t2 = time.time() - t0
    ok = (set(fan1.rays) == {(1, 0), (0, 1), (3, 2)}
          and set(fan2.rays) == {(1, 0), (0, 1), (1, 1), (2, 1)}
          and t1 < 1.0 and t2 < 1.0)
    report(1, ok, "dual fan rays for the two reference polynomials",
           t1 + t2)


def test_criterion_02_socle_newton_orders():
    t0 = time.time()
    D = newton_polyhedron(poly("x1^2 + x2^3"))
    ok = newton_order(poly("x1*x2"), D) == Fraction(5, 6)
    cases = [("x1^2 + x2^3", Fraction(7, 6)),
             ("x1^2 + x2^2", Fraction(1)),
             ("x1^2 + x2^2 + x3^2", Fraction(3, 2))]
    for text, expected in cases:
        t_case = time.time()
        rep = socle_newton_order(poly(text))
        ok = ok and rep["nu_socle"] == expected and rep["match"]
        ok = ok and (time.time() - t_case) < 5.0
    report(2, ok, "nu(x1 x2) = 5/6 and socle Newton orders 7/6, 1, 3/2",
           time.time() - t0)


def test_criterion_03_canonical_quotients():
    t0 = time.time()
    f = poly("x1^2 + x2^3")
    Df = newton_polyhedron(f)
    edge = [fc for fc in compact_faces(Df) if fc.dim == 1][0]
    fc = face_cone(edge)
    q = canonical_quotient(fc, select_parameters(face_derivatives(f, edge), fc))
    ok = (sum(q.graded_dims.values()) == 6
          and [str(b) for b in q.socle_basis] == ["x1^2*x2^3"]
          and q.socle_degree == 2 == Df.nvars - fc.r)

    g = poly("x1^2 + x1*x2 + x2^3")
    Dg = newton_polyhedron(g)
    vert = [fc2 for fc2 in compact_faces(Dg)
            if fc2.dim == 0 and not fc2.in_coordinate_hyperplane][0]
    fcv = face_cone(vert)
    qv = canonical_quotient(fcv,
                            select_parameters(face_derivatives(g, vert), fcv))
    ok = ok and sum(qv.graded_dims.values()) == 1 and qv.socle_degree == 1
    report(3, ok, "quotient dimensions 6 and 1 with socle degrees n - r",
           time.time() - t0)


def test_criterion_04_residues():
    t0 = time.time()
    f1 = poly("x1^2 + x2^3")
    D1 = newton_polyhedron(f1)
    edge1 = [fc for fc in compact_faces(D1) if fc.dim == 1][0]
    r1 = verify_residue_nonvanishing(f1, edge1, poly("x1*x2^2"), 0)

    f2 = poly("x1^2 + x2^2")
    D2 = newton_polyhedron(f2)
    edge2 = [fc for fc in compact_faces(D2) if fc.dim == 1][0]
    r2 = verify_residue_nonvanishing(f2, edge2, poly("x1*x2"), 0)

    f3 = poly("x1^2 + x1*x2 + x2^3")
    D3 = newton_polyhedron(f3)
    vert3 = [fc for fc in compact_faces(D3)
             if fc.dim == 0 and not fc.in_coordinate_hyperplane][0]
    r3 = verify_residue_nonvanishing(f3, vert3, poly("1", nvars=2), 1)

    ok = (r1.value == Fraction(1, 6) and r1.stable
          and r2.value == Fraction(1, 4) and r2.stable
          and r3.value != 0 and r3.stable)
    report(4, ok, "residues 1/6, 1/4 and a stable nonzero r=1 residue",
           time.time() - t0)


def test_criterion_05_interior_membership_property():
    t0 = time.time()
    rng = random.Random(20260810)
    failures = 0
    for text in FAMILY:
        f = poly(text)
        n = f.nvars
        D = newton_polyhedron(f)
        span = certified_ideal(ideal_generators(f)[0])
        cap = span.algebra.D
        found = 0
        while found < 200:
            m = tuple(rng.randint(0, cap + 2) for _ in range(n))
            if not D.interior_contains(tuple(x + 1 for x in m), n):
                continue
            found += 1
            if not member(SparsePoly.monomial(m), span):
                failures += 1
    report(5, failures == 0,
           "200 interior monomials are members, for each of 6 polynomials "
           "(failures: %d)" % failures, time.time() - t0)


def test_criterion_06_minor_identities():
    t0 = time.time()
    rng = random.Random(4711)
    checked = 0
    stochastic_checked = 0
    ok = True
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 6)
        matrix = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(cols)) for _ in range(rows))
        try:
            table = MinorTable(matrix)
        except InputError:
            continue
        rep = check_minor_identity(table)
        checked += rep["checked"]
        ok = ok and rep["ok"]
        if rows == cols:
            sums = [sum(row) for row in matrix]
            if all(s != 0 for s in sums):
                st = tuple(tuple(x / s for x in row)
                           for row, s in zip(matrix, sums))
                try:
                    st_table = MinorTable(st)
                except InputError:
                    continue
                rep2 = check_ones_column_identity(st_table)
                if not rep2.get("skipped"):
                    stochastic_checked += 1
                    ok = ok and rep2["ok"]
                    if "det" in rep2:
                        ok = ok and rep2["ones_column_det"] == rep2["det"]
    ok = ok and checked > 1000 and stochastic_checked > 20
    report(6, ok,
           "minor identity on 1000 random matrices (%d subsets, %d "
           "row-stochastic determinants)" % (checked, stochastic_checked),
           time.time() - t0)


def test_criterion_07_poincare_series():
    t0 = time.time()
    rng = random.Random(31337)
    done = 0
    ok = True
    while done < 20:
        n = rng.choice((2, 3))
        in_orthant = done % 2 == 0
        lo = 0 if in_orthant else -2
        rays = [tuple(rng.randint(lo, 2) for _ in range(n)) for _ in range(n)]
        if any(all(x == 0 for x in r) for r in rays):
            continue
        sigma = cone_from_rays(rays)
        if sigma.dim != n or len(sigma.rays) != n:
            continue
        cov = tuple(rng.randint(1, 3) for _ in range(n))
        try:
            grading = grading_from_covector(cov, sigma)
        except InputError:
            continue  # grading not positive on this cone
        # poincare_series itself asserts that the closed-form expansion of
        # P(K) agrees with the enumerated dimensions through the truncation
        ps = poincare_series(sigma, grading, 3)
        ok = ok and ps.infinity_value == (-1) ** n
        if in_orthant:
            # quotient route for the same identity, P(Kbar) against
            # P(K) * prod(1 - t^deg) through the socle degree
            params = [SparsePoly.monomial(r) for r in sigma.rays]
            try:
                canonical_quotient(sigma, params, grading=grading)
            except InputError:
                ok = False
        done += 1
    report(7, ok, "P(K)(inf) = (-1)^k and the truncated product identity on "
           "20 random simplicial cones", time.time() - t0)


def test_criterion_08_koszul_and_trace():
    t0 = time.time()
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    triangle = [(0, 0), (2, 0), (0, 3)]
    cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    simplex = [(0, 0), (1, 0), (0, 1)]
    ok = True
    for pts in (square, triangle, cube):
        for trial in range(10):
            rep = koszul_check(pts, seed=1000 + trial)
            ok = ok and rep["ok"] and rep["dimension"] == 1
    expected = {id(square): 2, id(triangle): 6, id(cube): 6, id(simplex): 1}
    for pts in (square, triangle, cube, simplex):
        tv = trace_volume_check(pts)
        ok = ok and tv["equal"] and tv["trace_expected"] == expected[id(pts)]
    report(8, ok, "Koszul quotient dimension 1 (10 tuples each) and trace "
           "values 2, 6, 6, 1", time.time() - t0)


def test_criterion_09_nondegeneracy():
    t0 = time.time()
    ok = nondegenerate(poly("x1^2 + x2^3"))
    ok = ok and not nondegenerate(poly("x1^2 + 2*x1*x2 + x2^2"))
    exact_faces = 0
    for text in FAMILY:
        f = poly(text)
        rep = nondegeneracy_report(f)
        ok = ok and rep["nondegenerate"]
        for entry in rep["faces"]:
            if entry["method"] != "monomial":
                exact_faces += 1
                ok = ok and entry["method"] == "groebner-Q"
                ok = ok and entry["torus_zero"] is False
    ok = ok and exact_faces > 0
    report(9, ok, "nondegeneracy verdicts over Q on the family, every "
           "non-monomial face on its own torus", time.time() - t0)


def test_criterion_10_multiplication_map():
    t0 = time.time()
    ok = True
    for text in FAMILY:
        rep = jacobian_multiplication_check(poly(text))
        ok = ok and rep["well_defined"] and rep["injective"] and rep["ok"]
    report(10, ok, "multiplication into the log-Jacobian quotient is well "
           "defined and injective on the family", time.time() - t0)


def test_criterion_11_regularization_random():
    t0 = time.time()
    rng = random.Random(271828)
    done = 0
    ok = True
    while done < 20:
        supp = {(rng.randint(1, 9), 0), (0, rng.randint(1, 9))} | {
            (rng.randint(0, 9), rng.randint(0, 9))
            for _ in range(rng.randint(1, 5))}
        f = SparsePoly(2, {e: 1 for e in supp if e != (0, 0)})
        if f.is_zero():
            continue
        fan = dual_fan(newton_polyhedron(f))
        reg = regularize(fan)
        ok = ok and is_regular(reg)
        ok = ok and set(fan.rays) <= set(reg.rays)
        ok = ok and (1, 0) in reg.rays and (0, 1) in reg.rays
        for c in reg.maximal_cones():
            ok = ok and any(all(big.contains(r) for r in c.rays)
                            for big in fan.maximal_cones())
        done += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(11, ok, "20 random 2D fans regularized (refining, support and "
           "coordinate rays kept)", elapsed)


def test_criterion_12_verify_all_deterministic():
    from newton_socle.cli import main as cli_main
    t0 = time.time()
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            code = cli_main(["verify-all", "--poly", "x1^2 + x2^3",
                             "--seed", "42"])
        finally:
            sys.stdout = old
        outputs.append((code, buf.getvalue()))
    ok = (outputs[0][0] == 0 and outputs[0] == outputs[1]
          and outputs[0][1].encode() == outputs[1][1].encode())
    report(12, ok, "verify-all output is byte-identical across runs",
           time.time() - t0)
