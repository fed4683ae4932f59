"""Benchmark of the newton-socle CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-curves --seed 1 \
        --seconds 40 --trace 0

Load model: a closed loop with one client.  Each invocation is its own
``python -m newton_socle.cli`` process, run one at a time, as scripts and CI
call the tool.  A pass runs every invocation of the workload once.  The
first pass always completes; after it, invocations go on in pass order while
the next one still fits in ``--seconds``.  Times are scaled to a reference
host speed with a calibration program run between launches (see Clock).

``--trace 0`` reports the end-to-end metrics, built from each invocation's
median time over the run.  ``--trace 1`` runs one untraced pass and one pass
under the outside-in tracer (perfbench/tracer.py) and reports the per-layer
metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
import workloads

SETUP_LAUNCHES = 5
INVOCATION_LIMIT_S = 60
RUN_LIMIT_S = 170
# A fixed pure-interpreter program that touches no file of the repository,
# and the seconds it takes at the reference host speed.
CALIBRATION = [sys.executable, "-I", "-c",
               "s = 0\nfor i in range(400000):\n    s += i * i % 7"]
CAL_REF_S = 0.13


def child_env(root):
    env = dict(os.environ)
    # A fixed seed and hash seed; bytecode is cached as for an installed tool.
    for var in ("NEWTON_SOCLE_SEED", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(cmd, env, timeout):
    """Run ``cmd`` to completion; returns exit code, wall seconds, peak RSS
    in KiB (from wait4), stdout, stderr and whether the time limit hit."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    out = {}

    def drain(key, stream):
        out[key] = stream.read().decode()

    readers = [threading.Thread(target=drain, args=(k, s))
               for k, s in (("stdout", proc.stdout), ("stderr", proc.stderr))]
    for t in readers:
        t.start()
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 0), kill)
    timer.start()
    # Wait without reaping first, so that the timer can never signal a
    # reused pid.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return {"code": proc.returncode, "wall": wall, "rss_kb": usage.ru_maxrss,
            "stdout": out["stdout"], "stderr": out["stderr"],
            "timed_out": state["killed"]}


class Clock:
    """Times launches at the host's current speed.

    On a shared host the same deterministic work can take twice as long
    from one launch to the next, and the host stays slow or fast for seconds
    to minutes.  The clock runs a fixed calibration program before the first
    timed launch and after each group of launches.  Each launch's wall time
    is then also given as ``scaled``: the wall time times CAL_REF_S over the
    mean of the two calibration times that bracket it.  That is the time the
    launch would have taken at the reference speed, at which the calibration
    program takes CAL_REF_S."""

    def __init__(self, env):
        self.env = env
        self.last = self.calibrate()

    def calibrate(self):
        return launch(CALIBRATION, self.env, INVOCATION_LIMIT_S)["wall"]

    def run(self, cmds, timeout):
        results = [launch(cmd, self.env, timeout) for cmd in cmds]
        after = self.calibrate()
        scale = 2 * CAL_REF_S / (self.last + after)
        self.last = after
        for res in results:
            res["scaled"] = res["wall"] * scale
        return results


def run_invocations(invs, prefix, clock, deadline, expected,
                    fits=lambda i: True):
    """Runs ``invs`` in order, one process at a time, while ``fits(i)``
    holds for the next one; each result is checked for correctness."""
    results = []
    for i, inv in enumerate(invs):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not fits(i):
            break
        res = clock.run([prefix + inv["argv"]],
                        min(INVOCATION_LIMIT_S, remaining))[0]
        reasons = (["hit the %d s time limit" % INVOCATION_LIMIT_S]
                   if res["timed_out"] else
                   checks.check(inv, res["code"], res["stdout"], expected))
        if reasons:
            print("FAILED %s: %s" % (inv["id"], "; ".join(reasons)))
        res["failed"] = bool(reasons)
        results.append(res)
    return results


def spans_of(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith(tracer.SPANS_MARKER):
            return json.loads(line[len(tracer.SPANS_MARKER):])
    raise RuntimeError("traced invocation wrote no spans:\n" + stderr[-2000:])


def measure(workload, seed, seconds, trace, root, invs=None, expected=None):
    """Run the benchmark; returns the result object printed on the last line.

    ``invs`` and ``expected`` default to the workload's own, drawn afresh
    for each pass; the self-test passes a fixed reduced or corrupted set."""
    deadline = time.monotonic() + RUN_LIMIT_S
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if expected is None:
        expected = workloads.load_expected(workload)

    def invs_of_pass(k):
        if invs is not None:
            return invs
        return workloads.invocations(workload, seed, expected, k)

    env = child_env(root)
    cli = [sys.executable, "-m", "newton_socle.cli"]
    here = os.path.dirname(os.path.abspath(__file__))
    traced = [sys.executable, os.path.join(here, "tracer.py")]
    size = len(invs_of_pass(0))

    # The first launch writes the bytecode cache, which users pay only once.
    if launch(cli + ["--help"], env, INVOCATION_LIMIT_S)["code"] != 0:
        raise RuntimeError("newton-socle --help failed")
    clock = Clock(env)
    if trace:
        base = run_invocations(invs_of_pass(0), cli, clock, deadline,
                               expected)
        tpass = run_invocations(invs_of_pass(0), traced, clock, deadline,
                                expected)
        done = base + tpass
        complete = len(base) == len(tpass) == size
        values = tracer.layer_values([spans_of(r["stderr"]) for r in tpass
                                      if not r["timed_out"]])
        values["trace.overhead_s"] = (sum(r["scaled"] for r in tpass)
                                      - sum(r["scaled"] for r in base))
        wanted = bench["per_layer"]
        ranking = sorted((k for k in values if k.endswith(".self_s")),
                         key=lambda k: -values[k])
        for k in ranking[:6]:
            print("self time %-50s %.3f s" % (k, values[k]))
    else:
        # slots[i] holds every result of the i-th invocation of a pass.
        slots = [[] for _ in range(size)]
        setup = []
        t0 = time.perf_counter()

        def fits(i):
            # After the first pass, an invocation is launched only if its
            # last wall time still fits in the run.
            return (not slots[i] or time.perf_counter() - t0
                    + slots[i][-1]["wall"] <= seconds)

        k = 0
        while fits(0):
            # Set-up launches are spread over the run, before each pass.
            setup += clock.run([cli + ["--help"]] * SETUP_LAUNCHES,
                               INVOCATION_LIMIT_S)
            got = run_invocations(invs_of_pass(k), cli, clock, deadline,
                                  expected, fits)
            for slot, res in zip(slots, got):
                slot.append(res)
            k += 1
            print("pass %d: %d of %d invocations, %.3f s, scaled %.3f s, "
                  "%d failed" % (k, len(got), size,
                                 sum(r["wall"] for r in got),
                                 sum(r["scaled"] for r in got),
                                 sum(r["failed"] for r in got)))
            if len(got) < size:
                break
        done = [r for slot in slots for r in slot]
        complete = all(slots)
        # Each invocation's typical time is its median over the run.
        typical = [statistics.median(r["scaled"] for r in slot)
                   for slot in slots if slot]
        wall = sum(typical)
        values = {
            "wall_s": wall,
            "slowest_s": max(typical),
            "peak_rss_mb": max(statistics.median(r["rss_kb"] for r in slot)
                               for slot in slots if slot) / 1024,
            "setup_s": statistics.median(r["scaled"] for r in setup),
            "ok_frac": sum(not r["failed"] for r in done) / len(done),
            "inputs_per_min": 60 * len(typical) / wall,
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print("%-50s %.6g %s" % (name, m["value"], m["unit"]))
    failed = sum(r["failed"] for r in done)
    return {"correct": failed == 0 and complete,
            "attempted": len(done), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "newton_socle", "cli.py")):
        sys.stderr.write("run from the root of a newton-socle checkout: "
                         "src/newton_socle/cli.py not found\n")
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
