"""The benchmark's workloads: which CLI invocations each one runs, and why.

Inputs reach the CLI as polynomial literals written with ``-`` for negative
coefficients, or as the JSON polynomial form.  They are never produced with
``str(SparsePoly)``: that rendering writes ``+ -1*x2^2*x3``, which
``SparsePoly.parse`` rejects as a dangling sign (see NOTES.md).
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# Literal inputs of the two verify-all workloads.  ``bp`` gives the exponents
# of a Brieskorn-Pham polynomial x1^a1 + ... + xn^an, whose socle order and
# compact facet normal are also checked against closed forms.
CURVES = [
    # the two-variable entries of tests/conftest.py::FAMILY
    {"poly": "x1^2 + x2^3", "bp": [2, 3]},
    {"poly": "x1^2 + x2^2", "bp": [2, 2]},
    {"poly": "x1^2 + x1*x2 + x2^3"},
    {"poly": "x1^3 + x2^3", "bp": [3, 3]},
    {"poly": "x1^2 + x2^5", "bp": [2, 5]},
    # two facets each, one with a negative coefficient to measure the '-' path
    {"poly": "x1^4 + x1^2*x2^2 + x2^5"},
    {"poly": "x1^4 - x1^2*x2^2 + x2^5"},
    # larger quotients and residue systems in two variables
    {"poly": "x1^5 + x2^7", "bp": [5, 7]},
    {"poly": "x1^6 + x1^2*x2^3 + x2^7"},
    {"poly": "x1^8 + x1^3*x2^2 + x2^9"},
]

SURFACES = [
    {"poly": "x1^2+x2^2+x3^2", "bp": [2, 2, 2]},
    {"poly": "x1^2+x2^2+x3^2 - x1*x2*x3"},
    {"poly": "x1^3+x2^3+x3^3", "bp": [3, 3, 3]},
    {"poly": "x1^2+x2^3+x3^4", "bp": [2, 3, 4]},
    {"poly": "x1^3+x2^3+x3^3+x1*x2*x3"},
]

WHY = {
    "verify-curves": "many short verify-all calls in 2 variables, where "
                     "start-up, det-lemma trials and recomputed polyhedra "
                     "and quotients are a large share",
    "verify-surfaces": "verify-all in 3 variables, dominated by face-ring "
                       "quotient lattice scans, the residue echelon and 3D "
                       "stellar subdivision",
    "geometry": "one large face lattice (K=14 polyhedron, K=10 dual fan) and "
                "real Buchberger runs (nondeg on K=10 and dense cubics); "
                "facering, localalg and residue are never called",
}


def k_support(K):
    """Monomials x1^a x2^b x3^c with (a+1)(b+1) <= K and
    c = ceil(K/((a+1)(b+1))) - 1, all with coefficient 1, in JSON form.

    The facet count of the Newton polyhedron grows with K: 13 facets at
    K=10 and 17 at K=14."""
    terms = []
    for a in range(K):
        for b in range(K // (a + 1)):
            c = -(-K // ((a + 1) * (b + 1))) - 1
            terms.append({"e": [a, b, c], "c": "1"})
    return json.dumps({"nvars": 3, "terms": terms})


def dense_cubic(rng):
    """A homogeneous cubic in 3 variables with every coefficient in 1..9."""
    terms = [{"e": [a, b, 3 - a - b], "c": str(rng.randint(1, 9))}
             for a in range(4) for b in range(4 - a)]
    return json.dumps({"nvars": 3, "terms": terms})


def load_expected(name):
    with open(os.path.join(HERE, "expected", name + ".json")) as handle:
        return json.load(handle)


def invocations(workload, seed, expected, pass_index=0):
    """The workload's invocations in pass ``pass_index`` of a run with
    ``seed``, each a dict with ``id`` (the key of its expected values),
    ``argv`` (CLI arguments) and optional ``bp`` exponents."""
    s = str(seed)
    if workload in ("verify-curves", "verify-surfaces"):
        inputs = CURVES if workload == "verify-curves" else SURFACES
        return [{"id": item["poly"], "bp": item.get("bp"),
                 "argv": ["verify-all", "--poly", item["poly"], "--seed", s]}
                for item in inputs]
    if workload == "geometry":
        k10, k14 = k_support(10), k_support(14)
        # Dense cubics come from a pool that record.py drew once and kept
        # only where they are nondegenerate; a cubic drawn afresh is now and
        # then degenerate (an edge polynomial with a repeated root), which
        # would make the expected verdict depend on the seed.  The seed
        # shuffles the pool and each pass takes the next two, so that a run
        # averages over more cubics (their Buchberger times differ by 1.5x).
        pool = expected["cubic_pool"]
        order = random.Random(seed).sample(pool, len(pool))
        first = 2 * pass_index % len(pool)
        return [
            {"id": "polyhedron K=14", "argv": ["polyhedron", "--poly", k14]},
            {"id": "fan K=10", "argv": ["fan", "--poly", k10]},
            {"id": "nondeg K=10",
             "argv": ["nondeg", "--poly", k10, "--seed", s]},
        ] + [{"id": "nondeg cubic",
              "argv": ["nondeg", "--poly", c, "--seed", s]}
             for c in order[first:first + 2]]
    raise KeyError(workload)
