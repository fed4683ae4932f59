"""Reduced smoke run of the benchmark, about half a minute.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs one invocation per workload (two for geometry), untraced and traced,
and checks that every metric of BENCHMARK.json is emitted with its unit.  It
checks that a corrupted expected value is reported as a failure, that the
dense-cubic and K=10 verdicts hold at a second seed, and that the benchmark
refuses to run, without printing a result, where the package is missing.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

# the cheapest invocation of each workload, plus a cubic for the seed check
SMOKE = {"verify-curves": ("x1^2 + x2^2",),
         "verify-surfaces": ("x1^2+x2^2+x3^2",),
         "geometry": ("nondeg K=10", "nondeg cubic")}


def smoke(name, seed, trace, bench, expected=None):
    expected = expected or workloads.load_expected(name)
    invs = workloads.invocations(name, seed, expected)
    invs = [next(i for i in invs if i["id"] == want) for want in SMOKE[name]]
    result = run.measure(name, seed, 0, trace, os.getcwd(), invs, expected)
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    require(got == {m["name"]: m["unit"] for m in wanted},
            "%s: metrics or units differ from BENCHMARK.json" % name)
    return result


def require(condition, what):
    if not condition:
        raise AssertionError(what)


def bare_directory_refuses(root):
    bare = os.path.join(root, ".perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(root, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "geometry",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    return proc.returncode != 0 and '"metrics"' not in proc.stdout


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    for name in SMOKE:
        for trace in (0, 1):
            result = smoke(name, 1, trace, bench)
            require(result["correct"] and result["failed"] == 0, result)

    # The correctness gate bites: a wrong expected value is a failure.
    expected = workloads.load_expected("verify-curves")
    fields = expected["invocations"][SMOKE["verify-curves"][0]]["fields"]
    fields["nu_socle"] = "2"
    result = smoke("verify-curves", 1, 0, bench, expected)
    require(result["failed"] > 0 and not result["correct"]
            and result["metrics"]["ok_frac"]["value"] < 1, result)

    # A second seed draws other cubics; the verdicts stay the same.
    result = smoke("geometry", 2, 0, bench)
    require(result["correct"] and result["attempted"] == 2, result)

    require(bare_directory_refuses(os.getcwd()), "ran without the package")
    print("selftest passed")


if __name__ == "__main__":
    main()
