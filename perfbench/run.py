#!/usr/bin/env python3
"""Builds and runs the real-time GenBase benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The binary (perfbench/*.cc) is built from
source with CMake into .bench_build/perfbench on first use; later runs only
check that the build is current. The last line of standard output is the
binary's JSON result: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1 (see BENCHMARK.json). Reports and traced spans are written to
.bench_build/perfbench/results/.

--self-test runs the binary's unit checks, then a short smoke pass of every
workload the binary knows (traced and untraced; BENCHMARK.json lists the ones
the regression gate runs) and checks that each emits exactly the metrics,
with the units, that BENCHMARK.json names.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(BUILD, "results")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no GenBase sources next to perfbench/ (need ../CMakeLists.txt "
            "and ../src)")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # One build at a time per checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                log("build timed out: " + " ".join(cmd))
                return False
            if done.returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return os.path.isfile(BINARY)


def git_sha():
    if shutil.which("git") is None or not os.path.exists(
            os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except subprocess.TimeoutExpired:
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_binary(args):
    """Runs the binary; returns (exit code, stdout text)."""
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY] + args + ["--out-dir", RESULTS, "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 124, ""
    return done.returncode, done.stdout


def self_test():
    code, out = run_binary(["--self-test"])
    sys.stdout.write(out)
    failures = 0 if code == 0 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, out = run_binary(["--list"])
    for name in out.split():
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_binary(["--workload", name, "--seed", "1",
                                    "--seconds", "2", "--trace", trace])
            lines = out.strip().splitlines()
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no JSON result line")
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append("result keys %s" % sorted(result))
                if code != 0 or result.get("correct") is not True:
                    problems.append("not correct (exit %d)" % code)
                if result.get("failed") != 0 or result.get("attempted", 0) < 1:
                    problems.append("attempted %s failed %s" % (
                        result.get("attempted"), result.get("failed")))
                want = {m["name"]: m["unit"] for m in spec[kind]}
                got = result.get("metrics", {})
                if sorted(got) != sorted(want):
                    problems.append("metric names differ: missing %s, extra %s"
                                    % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
                for metric, body in got.items():
                    if metric in want and body.get("unit") != want[metric]:
                        problems.append("%s unit %s" % (metric,
                                                        body.get("unit")))
                    if not isinstance(body.get("value"), (int, float)):
                        problems.append("%s value %r" % (metric,
                                                         body.get("value")))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("smoke %s --trace %s: %s" % (name, trace, status))
            failures += bool(problems)
    print("self-test: %s" % ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    code, out = run_binary(["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", repr(args.seconds),
                            "--trace", args.trace])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
