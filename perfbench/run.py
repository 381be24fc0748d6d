#!/usr/bin/env python3
"""The gqc benchmark: builds the harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot_repeat --seed 1 --seconds 30 --trace 0

--trace 0 runs the untraced measurement and prints the end-to-end metrics;
--trace 1 runs the traced per-layer replay and prints the per-layer metrics.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the run
context (nproc, build type, compiler, seeds, step budget, connections,
source fingerprint, git commit). Build output goes to standard error.

The harness is configured as a Release build under .bench_build/ and
refuses to run unoptimized. A missing source tree fails the build, so the
script exits non-zero without printing a result.

Extra options: --pool-seed N draws a different pool of pairs (a fresh
input set for checking a claim); --pool-size N shrinks the pool (the
self-test's smoke size).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "gqc_perfbench")
WORKLOADS = ("hot_repeat", "cold_batch", "schema_churn")
# Every harness invocation must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns stdout."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              text=True, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def build():
    """Configures (once) and builds the Release harness; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gqc sources (src/CMakeLists.txt) next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=600)
        if proc.returncode != 0:
            fail("cmake configure failed")
    with open(cache, encoding="utf-8") as f:
        if "CMAKE_BUILD_TYPE:STRING=Release" not in f.read():
            fail("the benchmark build is not a Release build; "
                 "delete .bench_build/ and rerun")
    jobs = str(os.cpu_count() or 1)
    proc = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, timeout=900)
    if proc.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed")


def source_fingerprint():
    """sha256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if shutil.which("git") is None:
        return "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def run_workload(args):
    common = ["--workload", args.workload, "--pool-seed", str(args.pool_seed)]
    if args.pool_size:
        common += ["--pool-size", str(args.pool_size)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        spans = os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")
        out = run_checked([BINARY, "trace", *common, "--seed", str(args.seed),
                           "--spans", spans], HARNESS_TIMEOUT_S)
    else:
        # Reference verdicts come from a separate process, so neither its
        # time nor its memory lands in the measured run.
        reference = run_checked([BINARY, "reference", *common], HARNESS_TIMEOUT_S)
        out = run_checked([BINARY, "measure", *common, "--seed", str(args.seed),
                           "--seconds", str(args.seconds)],
                          HARNESS_TIMEOUT_S, input=reference)
    lines = [line for line in out.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("harness printed no result")
    context = json.loads(lines[-2])
    result = json.loads(lines[-1])
    context["context"]["source_sha256"] = source_fingerprint()
    context["context"]["git_commit"] = git_commit()
    context["context"]["trace"] = args.trace
    print(json.dumps(context, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=1000)
    parser.add_argument("--pool-size", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()
    run_workload(args)


if __name__ == "__main__":
    main()
