#!/usr/bin/env python3
"""Build and run the ExpFinder benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness ROUNDS [--seconds S]

The first form builds perfbench/perfbench.exe with dune, runs one
workload, forwards its report and prints, as the last line, one JSON
object whose metric names and units are checked against BENCHMARK.json
(end_to_end with --trace 0, per_layer with --trace 1).

The second form runs every workload round-robin ROUNDS times, seed i in
round i, so drift on the host is shared between workloads, and prints
per workload and end-to-end metric the median, the interquartile range
as a share of the median, and max/min.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# Where the benchmark puts its server sockets (relative to the checkout).
TMP = ".perfbench_tmp"
RUN_TIMEOUT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    # The shared dune cache lives outside the checkout; the build stays in
    # _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=880,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % proc.returncode)


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait until
    it is gone (a server child outlives its parent only if the parent
    was killed)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(spec, workload, seed, seconds, trace, echo=True):
    """Run one workload; return (exit code, result dict or None)."""
    proc = subprocess.Popen(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        stop_group(proc.pid)
        shutil.rmtree(TMP, ignore_errors=True)
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    stop_group(proc.pid)
    shutil.rmtree(TMP, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return proc.returncode, None
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        die("report does not match the %s metrics of BENCHMARK.json" % key)
    return proc.returncode, result


def steadiness(spec, rounds, seconds):
    names = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in names}
    for r in range(1, rounds + 1):
        for w in names:
            code, result = run_once(spec, w, r, seconds, 0, echo=False)
            if code != 0 or result is None or not result["correct"]:
                die("%s seed %d failed" % (w, r))
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
            print("round %d %-13s %s" % (r, w, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-13s %-16s %12s %8s %8s %6s" % ("workload", "metric", "median", "iqr/med", "max/min", "bound"))
    for w in names:
        for k, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            print("%-13s %-16s %12.4f %8.3f %8.3f %6.2f"
                  % (w, k, med, (q3 - q1) / med, max(vs) / min(vs), bounds[k]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="ROUNDS")
    args = ap.parse_args()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build()
    if args.steadiness:
        steadiness(spec, args.steadiness, seconds)
        return
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("--workload must be one of the workloads in BENCHMARK.json")
    code, result = run_once(spec, args.workload, args.seed, seconds, args.trace)
    if result is None:
        die("the run printed no result (exit %d)" % code)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
