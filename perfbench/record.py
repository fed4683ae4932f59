"""Record the expected values of every workload from the current code.

Run once from the root of a checkout whose reports are trusted:

    python3 perfbench/record.py

Each invocation runs at two seeds and its checked fields must agree, so only
seed-independent values are recorded.  For ``geometry`` it also draws the
pool of dense cubics: candidates with coefficients 1..9 come from a fixed
random stream, and the first POOL_SIZE that are nondegenerate at both seeds
are kept.
"""

import json
import os
import random
import sys

import checks
import run
import workloads

SEEDS = (1, 2)
POOL_SIZE = 12
POOL_STREAM = 2303


def record(invs_by_seed, env):
    """``{id: {"exit", "fields"}}`` from invocation lists that differ only in
    their seed; raises when a checked field depends on the seed."""
    out = {}
    cli = [sys.executable, "-m", "newton_socle.cli"]
    for group in zip(*invs_by_seed):
        seen = []
        for inv in group:
            res = run.launch(cli + inv["argv"], env, run.INVOCATION_LIMIT_S)
            seen.append({"exit": res["code"], "fields": checks.exact_fields(
                inv["argv"], json.loads(res["stdout"]))})
        if any(s != seen[0] for s in seen):
            raise RuntimeError("seed-dependent fields for %s: %s"
                               % (group[0]["id"], seen))
        out[group[0]["id"]] = seen[0]
        print(group[0]["id"], seen[0]["exit"], flush=True)
    return out


def main():
    env = run.child_env(os.getcwd())
    rng = random.Random(POOL_STREAM)
    pool = []
    while len(pool) < POOL_SIZE:
        cubic = workloads.dense_cubic(rng)
        by_seed = [[{"id": "nondeg cubic",
                     "argv": ["nondeg", "--poly", cubic, "--seed", str(s)]}]
                   for s in SEEDS]
        verdicts = record(by_seed, env)["nondeg cubic"]
        if verdicts == {"exit": 0, "fields": {"nondegenerate": True}}:
            pool.append(cubic)
    for name in workloads.WHY:
        expected = {"cubic_pool": pool} if name == "geometry" else {}
        invs = [workloads.invocations(name, s, expected) for s in SEEDS]
        expected["invocations"] = record(invs, env)
        path = os.path.join(workloads.HERE, "expected", name + ".json")
        with open(path, "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
