"""Compare the CLI reports of two source trees byte for byte.

    python3 tools/report_identity.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository.  Every invocation of a fixed
list runs as ``python -m newton_socle.cli ...`` with ``PYTHONPATH`` set to
``<tree>/src``, once per tree (the two side by side), from a temporary
directory that holds the fan files some invocations read, with stdout
block-buffered as it is by default.  One line is printed per invocation:
``same`` when stdout, stderr and the exit code agree byte for byte, else
``DIFF`` with both exit codes and the first line where stdout, and where
stderr, differ.  The exit status is 0 when every
invocation agrees and 1 otherwise.  Standard library only, besides this
checkout's ``perfbench`` inputs and ``src``, which gives the admissible
faces ``kbar`` is run on.
"""

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from newton_socle.cli import read_polynomial  # noqa: E402
from newton_socle.context import RunContext  # noqa: E402
from newton_socle.localalg import socle_truncation_floor  # noqa: E402
from perfbench.workloads import (CURVES, SURFACES, k_support,  # noqa: E402
                                 load_expected)

# tests/conftest.py::FAMILY
FAMILY = [
    "x1^2 + x2^3",
    "x1^2 + x2^2",
    "x1^2 + x1*x2 + x2^3",
    "x1^3 + x2^3",
    "x1^2 + x2^5",
    "x1^2 + x2^2 + x3^2",
]

KOSZUL_PRESETS = ["unit-square", "triangle", "unit-cube", "unit-simplex-2",
                  "unit-simplex-3"]

# File name -> contents, written to the working directory of every run.
FILES = {
    "fan-2d.json": {"rays": [[1, 0], [1, 1], [0, 1]],
                    "cones": [[0, 1], [1, 2]]},
    # cone [0, 4] lies inside [0, 1, 3, 4] but is not one of its faces
    "fan-non-face.json": {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                   [1, 0, 1], [0, 1, 1]],
                          "cones": [[0, 1, 3, 4], [2, 3, 4], [0, 4]]},
    "fan-3d.json": {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                    "cones": [[0, 1, 3], [1, 2, 3], [0, 2, 3]]},
    # a quadrilateral cone and a triangle: a fan of the orthant
    "fan-quad.json": {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                               [1, 0, 1], [0, 1, 1]],
                      "cones": [[0, 1, 3, 4], [2, 3, 4]]},
    # fan-3d.json without its last cone: the support misses part of the orthant
    "fan-3d-dropped.json": {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                     [1, 1, 1]],
                            "cones": [[0, 1, 3], [1, 2, 3]]},
}


def invocations():
    """``(id, argv)`` pairs, in the order they are reported."""
    out = []
    # the launch that perfbench times as setup_s
    out.append(("--help", ["--help"]))
    # usage errors and sub-command help, which argparse writes
    out.append(("no arguments", []))
    out.append(("unknown command", ["bogus"]))
    out.append(("unknown option", ["fan", "--bogus", "1"]))
    out.append(("missing --poly", ["polyhedron"]))
    out.append(("bad --vars type", ["nu", "--poly", "x1^2", "--g", "x1",
                                    "--vars", "two"]))
    for command in ("fan", "verify-all", "residue", "detlemma", "koszul"):
        out.append((command + " --help", [command, "--help"]))
    # one line per form that the CLI's plain reading declines and leaves to
    # argparse, and two that it reads itself (a choice, a dash-free value)
    base = ["verify-all", "--poly", "x1^2 + x2^3"]
    for ident, extra in (("--seed=1", ["--seed=1"]),
                         ("abbreviated --det 3", ["--det", "3"]),
                         ("--seed -1", ["--seed", "-1"]),
                         ("repeated --seed", ["--seed", "1", "--seed", "2"]),
                         ("-h", ["-h"]),
                         ("trailing --", ["--"]),
                         ("--format yaml", ["--format", "yaml"]),
                         ("--format text", ["--format", "text"]),
                         ("--seed two", ["--seed", "two"]),
                         ("--seed without a value", ["--seed"])):
        out.append(("verify-all " + ident, base + extra))
    out.append(("verify-all dash-led --poly",
                ["verify-all", "--poly", "-x1^2 + x2^3"]))
    out.append(("fan --regular without --poly", ["fan", "--regular"]))
    out.append(("fan --regular with a value",
                ["fan", "--poly", "x1^2 + x2^3", "--regular", "yes"]))
    out.append(("verify-all positional", ["verify-all", "x1^2 + x2^3"]))
    for item in CURVES + SURFACES:
        out.append(("verify-all " + item["poly"],
                    ["verify-all", "--poly", item["poly"], "--seed", "1"]))
    for f in FAMILY:
        out.append(("polyhedron " + f, ["polyhedron", "--poly", f]))
        out.append(("fan --regular " + f, ["fan", "--poly", f, "--regular"]))
        out.append(("nondeg " + f, ["nondeg", "--poly", f, "--seed", "1"]))
    for item in SURFACES:
        out.append(("fan --regular " + item["poly"],
                    ["fan", "--poly", item["poly"], "--regular"]))
    # long Hirzebruch-Jung chains in 2D
    for f in ("x1^2 + x2^13", "x1^13 + x1^5*x2^2 + x2^17",
              "x1^11 + x1^3*x2^4 + x2^19"):
        out.append(("fan --regular " + f, ["fan", "--poly", f, "--regular"]))
    # long stellar subdivisions in 3D and 4D
    for f in ("x1^5+x2^6+x3^7", "x1^3+x2^4+x3^5+x1*x2*x3", "x1^2+x2^3+x3^5",
              "x1^2+x2^2+x3^3+x4^3", "x1^3+x2^4+x3^5+x4^6",
              "x1^2+x2^3+x3^4+x4^5"):
        out.append(("fan --regular " + f, ["fan", "--poly", f, "--regular"]))
    # the graded quotient of every admissible face
    for item in CURVES + SURFACES:
        count = len(RunContext(read_polynomial(item["poly"], None))
                    .admissible_faces)
        for i in range(count):
            out.append(("kbar --face %d %s" % (i, item["poly"]),
                        ["kbar", "--poly", item["poly"], "--face", str(i)]))
    for name in KOSZUL_PRESETS:
        out.append(("koszul " + name, ["koszul", "--polytope", name]))
    # larger polytopes, under the lattice-point cap of koszul_top_dimension
    for name, pts in (("triangle S=5", "[[0,0],[5,0],[0,5]]"),
                      ("3-simplex side 2",
                       "[[0,0,0],[2,0,0],[0,2,0],[0,0,2]]")):
        out.append(("koszul " + name,
                    ["koszul", "--polytope", pts, "--trials", "1"]))
    # the residue runs of tests/test_cli.py
    out.append(("residue value", ["residue", "--g", "x1*x2^2", "--system",
                                  "2*x1^2; 3*x2^3", "--vars", "2"]))
    out.append(("residue cap", ["residue", "--g", "x1", "--system",
                                "x1^2; x1*x2", "--vars", "2"]))
    out.append(("residue bad system", ["residue", "--g", "x1", "--system",
                                       "[1,"]))
    out.append(("detlemma", ["detlemma", "--rows", "3", "--cols", "5",
                             "--trials", "50", "--seed", "1"]))
    # square tables also run the ones-column identity
    out.append(("detlemma 4x4", ["detlemma", "--rows", "4", "--cols", "4",
                                 "--trials", "40", "--seed", "10"]))
    out.append(("detlemma 1x1", ["detlemma", "--rows", "1", "--cols", "1"]))
    out.append(("detlemma 5x7", ["detlemma", "--rows", "5", "--cols", "7",
                                 "--trials", "20"]))
    for ident, rows, cols, trials in (("zero rows", 0, 3, 1),
                                      ("negative rows", -1, 3, 1),
                                      ("rows above cols", 3, 2, 1),
                                      ("zero cols", 1, 0, 1),
                                      ("negative trials", 2, 3, -1)):
        out.append(("detlemma " + ident,
                    ["detlemma", "--rows", str(rows), "--cols", str(cols),
                     "--trials", str(trials)]))
    out.append(("verify-all negative detlemma trials",
                ["verify-all", "--poly", "x1^2 + x2^3",
                 "--detlemma-trials", "-3"]))
    out.append(("socle-order", ["socle-order", "--poly", "x1^2 + x2^3"]))
    out.append(("kbar --face 0", ["kbar", "--poly", "x1^2 + x2^3",
                                  "--face", "0"]))
    out.append(("verify-thm1", ["verify-thm1", "--poly", "x1^2 + x2^3",
                                "--h", "x1^2*x2^2"]))
    out.append(("verify-thm2", ["verify-thm2", "--poly", "x1^2 + x2^3",
                                "--h", "x1*x2^2", "--face", "0", "--r", "0"]))
    # face 0 has r = 0: a wrong --r is an input error
    out.append(("verify-thm2 --r 1", ["verify-thm2", "--poly", "x1^2 + x2^3",
                                      "--h", "x1*x2^2", "--face", "0",
                                      "--r", "1"]))
    out.append(("verify-all --trunc 12", ["verify-all", "--poly",
                                          "x1^2 + x2^3", "--trunc", "12"]))
    # with --trunc the residues escalate from it while the Jacobian check
    # builds at exactly it; at 3 the socle stage is below its floor (exit 3)
    out.append(("verify-all --trunc 7", ["verify-all", "--poly",
                                         "x1^2 + x2^3", "--trunc", "7"]))
    out.append(("verify-all --trunc 3", ["verify-all", "--poly",
                                         "x1^2 + x2^3", "--trunc", "3"]))
    # several residues per face, and a regular fan in four variables
    for f in ("x1^2+x2^3+x3^5", "x1^3+x2^4+x3^5+x1*x2*x3",
              "x1^3+x2^3+x3^3+x4^3"):
        out.append(("verify-all " + f,
                    ["verify-all", "--poly", f, "--seed", "1"]))
    # every path that reads a local-algebra span: the socle stage alone,
    # plain and at a fixed truncation (below the floor it exits 3), the
    # largest span, and a rational 3-variable residue at a given truncation
    for item in SURFACES:
        out.append(("socle-order " + item["poly"],
                    ["socle-order", "--poly", item["poly"]]))
        out.append(("socle-order --trunc 12 " + item["poly"],
                    ["socle-order", "--poly", item["poly"], "--trunc", "12"]))
    out.append(("verify-all x1^4+x2^4+x3^4+x4^4",
                ["verify-all", "--poly", "x1^4+x2^4+x3^4+x4^4", "--seed", "1"]))
    out.append(("residue p/q --trunc 8",
                ["residue", "--g", "x1*x2*x3 + 2*x2^2", "--system",
                 "1/2*x1^2 + 2/3*x2*x3; 3/5*x2^3 + x1*x3; x3^2 - 1/3*x1*x2",
                 "--trunc", "8"]))
    out.append(("koszul negative trials", ["koszul", "--polytope", "triangle",
                                           "--trials", "-1"]))
    out.append(("fan --fan 2d", ["fan", "--poly", "x1*x2", "--fan",
                                 "fan-2d.json", "--regular"]))
    out.append(("fan --fan non-face", ["fan", "--poly", "x1^2+x2^3+x3^4",
                                       "--fan", "fan-non-face.json"]))
    out.append(("fan --fan quad", ["fan", "--poly", "x1^2+x2^3+x3^4",
                                   "--fan", "fan-quad.json"]))
    out.append(("fan --fan dropped cone", ["fan", "--poly", "x1^2+x2^3+x3^4",
                                           "--fan", "fan-3d-dropped.json"]))
    # a 3-coordinate fan for a 2-variable polynomial
    out.append(("fan --fan dimension mismatch",
                ["fan", "--poly", "x1^2+x2^3", "--fan", "fan-3d.json",
                 "--regular"]))
    # the geometry workload's face lattice and dual fan runs
    k10, k14 = k_support(10), k_support(14)
    out.append(("polyhedron K=14", ["polyhedron", "--poly", k14]))
    out.append(("fan K=10", ["fan", "--poly", k10]))
    out.append(("fan --regular K=10", ["fan", "--poly", k10, "--regular"]))
    # and its Buchberger runs: the degenerate K=10 faces and every pool cubic
    out.append(("nondeg K=10", ["nondeg", "--poly", k10, "--seed", "1"]))
    out.append(("nondeg K=14", ["nondeg", "--poly", k14, "--seed", "1"]))
    for i, cubic in enumerate(load_expected("geometry")["cubic_pool"]):
        out.append(("nondeg cubic %d" % i,
                    ["nondeg", "--poly", cubic, "--seed", "1"]))
    # face lattices, dual fans and face systems of other sizes
    for K in (6, 8, 12, 16, 20):
        kK = k_support(K)
        out.append(("polyhedron K=%d" % K, ["polyhedron", "--poly", kK]))
        out.append(("fan K=%d" % K, ["fan", "--poly", kK]))
        out.append(("nondeg K=%d" % K, ["nondeg", "--poly", kK, "--seed", "1"]))
    # a report larger than a 64 KiB pipe buffer, written out before the
    # process ends without the interpreter's teardown
    out.append(("polyhedron K=100", ["polyhedron", "--poly", k_support(100)]))
    # x1^2*x2 + x2^3 fails the axis condition before any face system is
    # built; the other two have a degenerate face, whose system Buchberger
    # runs to a full basis
    for f in ("x1^2*x2+x2^3", "x1^4+2*x1^2*x2^2+x2^4",
              "2*x1^3+7*x1^2*x3+8*x1*x3^2+3*x3^3+x2^3"):
        out.append(("nondeg " + f, ["nondeg", "--poly", f, "--seed", "1"]))
        out.append(("verify-all " + f,
                    ["verify-all", "--poly", f, "--seed", "1"]))
    # with --trunc every stage reads the log span at it: the residues
    # escalate from it, the socle and Jacobian stages build at exactly it
    # (below the socle floor the run exits 3)
    for items, D in ((SURFACES, 14), (CURVES, 12)):
        for item in items:
            out.append(("verify-all --trunc %d %s" % (D, item["poly"]),
                        ["verify-all", "--poly", item["poly"], "--trunc",
                         str(D), "--seed", "1"]))
    for item in CURVES + SURFACES:
        run = RunContext(read_polynomial(item["poly"], None))
        floor = str(socle_truncation_floor(run.polyhedron))
        out.append(("socle-order --trunc %s %s" % (floor, item["poly"]),
                    ["socle-order", "--poly", item["poly"], "--trunc", floor]))
    out.append(("verify-thm1 --trunc 9",
                ["verify-thm1", "--poly", "x1^2 + x2^3", "--h", "x1^2*x2^2",
                 "--trunc", "9"]))
    out.append(("verify-thm2 --trunc 9",
                ["verify-thm2", "--poly", "x1^2 + x2^3", "--h", "x1*x2^2",
                 "--face", "0", "--r", "0", "--trunc", "9"]))
    # the escalation on 2*x1^2; 3*x2^3 starts at D=6
    for D in ("3", "10"):
        out.append(("residue value --trunc " + D,
                    ["residue", "--g", "x1*x2^2", "--system",
                     "2*x1^2; 3*x2^3", "--vars", "2", "--trunc", D]))
    # the log span is built once at the truncation the polyhedron gives
    # (13 here, with k0 = 7) and the residues' D = 11 is read off it; with
    # --trunc every stage builds as it did, below k0 and below the floor too
    for D in ("6", "7", "11", "13"):
        out.append(("verify-all --trunc %s x1^2+x2^3+x3^4" % D,
                    ["verify-all", "--poly", "x1^2+x2^3+x3^4", "--trunc", D,
                     "--seed", "1"]))
    # an infinite-colength system in three variables escalates to its cap
    out.append(("residue cap 3 variables",
                ["residue", "--g", "x1", "--system", "x1^2; x1*x2; x1*x3"]))
    # lead-only elimination on the largest triangle under the point cap
    out.append(("koszul triangle S=7",
                ["koszul", "--polytope", "[[0,0],[7,0],[0,7]]",
                 "--trials", "1"]))
    # the log span's first build certifies beyond the escalation caps
    for f in ("x1^7+x2^8+x3^9", "x1^20+x2^23"):
        out.append(("verify-all " + f,
                    ["verify-all", "--poly", f, "--seed", "1"]))
    # the eliminations at a size where they do real work: trace functionals
    # solved on 360 and 243 unknowns, the socle of a 256-monomial quotient,
    # and det-lemma tables of 10 x 12 and 8 x 8 (square, so the ones-column
    # identity runs too)
    for f in ("x1^3+x2^4+x3^5+x4^6", "x1^3+x2^3+x3^3+x4^3+x5^3"):
        out.append(("verify-all " + f,
                    ["verify-all", "--poly", f, "--seed", "1"]))
    out.append(("socle-order x1^4+x2^4+x3^4+x4^4",
                ["socle-order", "--poly", "x1^4+x2^4+x3^4+x4^4"]))
    out.append(("detlemma 10x12", ["detlemma", "--rows", "10", "--cols",
                                   "12", "--trials", "3"]))
    out.append(("detlemma 8x8", ["detlemma", "--rows", "8", "--cols", "8",
                                 "--trials", "5"]))
    out.append(("fractional exponent",
                ["polyhedron", "--poly",
                 '{"nvars": 1, "terms": [{"e": [1.5], "c": "1"}]}']))
    # each input that is parsed as JSON, which imports json when it is read
    out.append(("malformed JSON --poly",
                ["polyhedron", "--poly", '{"nvars": 2']))
    out.append(("residue JSON-array system",
                ["residue", "--g", "x1*x2^2", "--system",
                 '[{"nvars": 2, "terms": [{"e": [2, 0], "c": "2"}]}, '
                 '{"nvars": 2, "terms": [{"e": [0, 3], "c": "3"}]}]']))
    out.append(("verify-all JSON x1^2 + x2^3",
                ["verify-all", "--poly",
                 '{"nvars": 2, "terms": [{"e": [2, 0], "c": "1"}, '
                 '{"e": [0, 3], "c": "1"}]}', "--seed", "1"]))
    return out


def run(tree, argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env.pop("NEWTON_SOCLE_SEED", None)
    # stdout block-buffered, as a user's pipe is, so reports are flushed
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "newton_socle.cli"] + argv,
                          capture_output=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def first_difference(a, b):
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return "line %d: %r != %r" % (i + 1, x[:80], y[:80])
    return "line %d: one output ends" % (min(len(la), len(lb)) + 1)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    old, new = argv
    differ = 0
    with tempfile.TemporaryDirectory() as cwd, ThreadPoolExecutor(2) as pool:
        for name, content in FILES.items():
            with open(os.path.join(cwd, name), "w") as handle:
                json.dump(content, handle)
        for ident, args in invocations():
            a, b = pool.map(lambda tree: run(tree, args, cwd), (old, new))
            if a == b:
                print("same  %s (exit %d)" % (ident, a[0]))
                continue
            differ += 1
            note = "".join("; %s %s" % (name, first_difference(x, y))
                           for name, x, y in (("stdout", a[1], b[1]),
                                              ("stderr", a[2], b[2]))
                           if x != y)
            print("DIFF  %s (exit %d -> %d%s)" % (ident, a[0], b[0], note))
    print("%d differ" % differ)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
