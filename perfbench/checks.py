"""Correctness checks on CLI reports.

Only exact, seed-independent fields are compared, and whole reports are never
hashed, so that new report fields do not count as failures.  Monte Carlo prime
lists and other seed-dependent fields are left out.
"""

import json
from fractions import Fraction
from math import gcd, lcm


def exact_fields(argv, report):
    """The checked fields of one report, keyed by name."""
    command = argv[0]
    if command == "verify-all":
        faces = report.get("faces", [])
        return {
            "ok": report.get("ok"),
            "checks": report.get("checks"),
            "vertices": report.get("polyhedron", {}).get("vertices"),
            "fan_rays": report.get("fan", {}).get("rays"),
            "nu_socle": report.get("socle_order", {}).get("nu_socle"),
            "residues": [[r["value"] for r in face["residues"]]
                         for face in faces],
        }
    if command == "nondeg":
        return {"nondegenerate": report["nondegenerate"]}
    if command == "polyhedron":
        return {"vertices": report["vertices"], "faces": len(report["faces"])}
    if command == "fan":
        fan = report["dual_fan"]
        return {"rays": fan["rays"], "cones": len(fan["cones"])}
    raise KeyError(command)


def brieskorn_pham_errors(bp, fields, report):
    """Mismatches against closed forms for x1^a1 + ... + xn^an:
    nu_socle = n - sum 1/a_i, and the one compact facet has inner normal
    proportional to (L/a_1, ..., L/a_n) with L = lcm(a_i)."""
    errors = []
    nu = len(bp) - sum(Fraction(1, a) for a in bp)
    if fields["nu_socle"] != str(nu):
        errors.append("nu_socle %s, closed form %s" % (fields["nu_socle"], nu))
    L = lcm(*bp)
    normal = [L // a for a in bp]
    g = gcd(*normal)
    normal = [x // g for x in normal]
    compact = [f["l"] for f in report.get("polyhedron", {}).get("facets", [])
               if all(x > 0 for x in f["l"])]
    if compact != [normal]:
        errors.append("compact facet normals %s, closed form %s"
                      % (compact, normal))
    return errors


def check(inv, code, stdout, expected):
    """Reasons why one invocation failed; empty when it passed."""
    want = expected["invocations"][inv["id"]]
    if code != want["exit"]:
        return ["exit %s, expected %s" % (code, want["exit"])]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["report is not JSON"]
    fields = exact_fields(inv["argv"], report)
    errors = ["%s: %s, expected %s" % (k, fields.get(k), v)
              for k, v in sorted(want["fields"].items()) if fields.get(k) != v]
    if inv.get("bp"):
        errors += brieskorn_pham_errors(inv["bp"], fields, report)
    return errors
