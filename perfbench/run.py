#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload synth|dataplane \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--seed N] [--seconds S]

The first form builds perfbench/main.exe with dune and runs one
workload; the last line of its output is the JSON result. The second
checks that BENCHMARK.json and perfbench/catalog.json match the
program's metric catalogue, and that two traced runs on one seed
repeat every machine-independent counter while a run on a second seed
is also correct.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "_out")
CHILDREN = []  # running child processes, killed on SIGTERM/SIGINT


def stop_children(signum, _frame):
    """On SIGTERM/SIGINT, kill the running child's process group, wait
    for it and exit without a result."""
    for proc in CHILDREN:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(128 + signum)


def run_group(cmd, timeout, capture, env=None):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it. Returns (returncode, stdout) or None on timeout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
        env=env,
    )
    CHILDREN.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    finally:
        CHILDREN.remove(proc)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a source checkout (no dune-project or lib/ here)\n")
        return False
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    res = run_group(["dune", "build", "--root", ".", "./perfbench/main.exe"], BUILD_TIMEOUT_S, False,
                    env=env)
    if res is None or res[0] != 0:
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def bench(workload, seed, seconds, trace):
    """One run; returns (stdout lines, parsed result) or None."""
    res = run_group(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", OUT_DIR],
        RUN_TIMEOUT_S,
        True,
    )
    if res is None:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return None
    code, out = res
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write("perfbench: benchmark exited with code %d\n" % code)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: no result line\n")
        return None
    return lines, result


def describe():
    res = run_group([EXE, "--describe"], RUN_TIMEOUT_S, True)
    return json.loads(res[1])


def selfcheck(seed, seconds):
    problems = []
    cat = describe()
    with open("BENCHMARK.json") as f:
        bj = json.load(f)
    with open(os.path.join("perfbench", "catalog.json")) as f:
        if json.load(f) != cat:
            problems.append("perfbench/catalog.json differs from main.exe --describe")
    if bj["workloads"] != cat["workloads"]:
        problems.append("BENCHMARK.json workloads differ from the catalogue")
    if bj["end_to_end"] != cat["end_to_end"]:
        problems.append("BENCHMARK.json end_to_end differs from the catalogue")
    keys = ("name", "unit", "better")
    if bj["per_layer"] != [{k: m[k] for k in keys} for m in cat["per_layer"]]:
        problems.append("BENCHMARK.json per_layer differs from the catalogue")
    counters = [m["name"] for m in cat["per_layer"] if m["counter"]]
    for w in [x["name"] for x in cat["workloads"]]:
        runs = [bench(w, s, seconds, 1) for s in (seed, seed, seed + 1)]
        if any(r is None for r in runs):
            problems.append("%s: a run failed" % w)
            continue
        results = [r[1] for r in runs]
        for s, r in zip((seed, seed, seed + 1), results):
            if not r["correct"] or r["failed"] != 0:
                problems.append("%s seed %d: %d of %d checks failed" % (w, s, r["failed"], r["attempted"]))
        a, b = results[0]["metrics"], results[1]["metrics"]
        differ = [k for k in counters if a[k]["value"] != b[k]["value"]]
        if differ:
            problems.append("%s: counters differ between two runs on seed %d: %s" % (w, seed, ", ".join(differ)))
        print("%s: counters %s on seed %d, seed %d %s" % (
            w, "repeat" if not differ else "DIFFER", seed, seed + 1,
            "clean" if results[2]["correct"] else "FAILED"))
    for p in problems:
        print("selfcheck: " + p)
    print("selfcheck: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not build():
        return 2
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    r = bench(args.workload, args.seed, args.seconds, args.trace)
    if r is None:
        return 1
    sys.stdout.write("\n".join(r[0]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
