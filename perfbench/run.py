#!/usr/bin/env python3
"""Repository benchmark: JNI traffic against the MTE4JNI simulator.

Builds the traffic generator (perfbench/src) together with the library
sources of this checkout, runs one workload and relays the generator's
output. The last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1
prints the per-layer metrics of a traced run and writes its spans to
.bench_out/spans-<workload>.jsonl. The build goes to .bench_build/perfbench
and is incremental, so only the first run in a checkout compiles.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("serve_mixed", "pin_scan_shared", "alloc_pin_write")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the binary's path."""
    for required in ("src/CMakeLists.txt", "include/mte4jni"):
        if not os.path.exists(os.path.join(ROOT, required)):
            log(f"{required} not found: run from a checkout of the repository")
            return None
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_traffic", "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return None
    return os.path.join(BUILD_DIR, "perfbench_traffic")


def is_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")]
    try:
        # run() kills and reaps the generator if it overruns.
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"generator did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not is_result(lines[-1]):
        sys.stderr.write(done.stdout)
        log(f"generator failed (exit {done.returncode}) or printed no result")
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
