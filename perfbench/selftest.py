#!/usr/bin/env python3
"""Self-test of the gqc benchmark, at a smoke size that runs in seconds.

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * a seed yields a byte-identical request schedule (and another seed a
    different one);
  * an untraced smoke run (a 6-pair pool, 1 s) emits every end-to-end metric
    with its unit, with every verdict equal to the 1-thread reference;
  * a traced smoke run emits every per-layer metric with its unit, every
    replayed verdict and method equals DecidePair's, and every countermodel
    passes the independent re-check.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark directory
import run  # noqa: E402  (perfbench/run.py: build() and paths)

SMOKE_POOL = 6
SMOKE_SECONDS = 1


def check(condition, message, failures):
    if not condition:
        failures.append(message)
        print(f"selftest: FAIL {message}", file=sys.stderr)


def schedule_bytes(workload, seed):
    return subprocess.run(
        [run.BINARY, "schedule", "--workload", workload, "--seed", str(seed),
         "--count", "64"],
        stdout=subprocess.PIPE, check=True, timeout=60).stdout


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
         "--pool-size", str(SMOKE_POOL)],
        stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, specs, label, failures):
    metrics = result["metrics"]
    names = {spec["name"] for spec in specs}
    check(set(metrics) == names,
          f"{label}: metric names differ: missing {sorted(names - set(metrics))}, "
          f"extra {sorted(set(metrics) - names)}", failures)
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is not None:
            check(got.get("unit") == spec["unit"],
                  f"{label}: {spec['name']} has unit {got.get('unit')!r}, "
                  f"not {spec['unit']!r}", failures)
            check(isinstance(got.get("value"), (int, float)),
                  f"{label}: {spec['name']} has no numeric value", failures)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    run.build()
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        first = schedule_bytes(workload, 11)
        check(first == schedule_bytes(workload, 11),
              f"{workload}: seed 11 gave two different schedules", failures)
        check(first != schedule_bytes(workload, 12),
              f"{workload}: seeds 11 and 12 gave the same schedule", failures)

        result = smoke(workload, 0)
        check(result is not None, f"{workload}: untraced smoke run failed", failures)
        if result is not None:
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: verdicts differ from the reference", failures)
            expect_metrics(result, bench["end_to_end"], f"{workload} untraced",
                           failures)

        result = smoke(workload, 1)
        check(result is not None, f"{workload}: traced smoke run failed", failures)
        if result is not None:
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: replay or countermodel check failed", failures)
            check(result["metrics"].get("check.replay_mismatches", {}).get("value") == 0,
                  f"{workload}: replay diverged from DecidePair", failures)
            expect_metrics(result, bench["per_layer"], f"{workload} traced", failures)
        print(f"selftest: {workload} done", file=sys.stderr)
    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        sys.exit(1)
    print("selftest: ok")


if __name__ == "__main__":
    main()
