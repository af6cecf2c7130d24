#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. Builds the benchmark (as run.py does), then:
  * runs every workload in layer_map.json at a tiny size, untraced and
    traced, and checks that the result line has exactly the contract's keys,
    that every op was verified, and that the printed metric names and units
    are exactly BENCHMARK.json's end_to_end (untraced) or per_layer (traced)
    lists, each with a finite value (end-to-end values also non-zero);
  * checks, for a few seeds, that the generated request mix of each serve
    workload matches the shares declared in layer_map.json, and that within
    each request class the cheaper type keeps a clear majority.
Exits 0 when every check passes.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)
        print("FAIL:", message)


def last_json_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def check_run(binary, work_dir, workload, trace, expected):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", "--work-dir", work_dir],
        capture_output=True, text=True, timeout=180)
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}: "
          f"{proc.stderr.strip()[-300:]}")
    if proc.returncode != 0:
        return
    result = last_json_line(proc.stdout)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: correct is false")
    check(result["failed"] == 0, f"{label}: {result['failed']} ops failed")
    check(result["attempted"] >= 1, f"{label}: no op attempted")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in expected],
          f"{label}: metric names differ from BENCHMARK.json")
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            continue
        check(got["unit"] == spec["unit"],
              f"{label}: {spec['name']} unit {got['unit']} != {spec['unit']}")
        value = got["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {spec['name']} = {value!r} is not finite")
        if trace == 0:
            check(value != 0, f"{label}: {spec['name']} is 0")
    print(f"ok: {label} ({len(metrics)} metrics, "
          f"{result['attempted']} ops verified)")


def check_mix(binary, layer_map):
    for workload, info in layer_map["workloads"].items():
        declared = info.get("mix")
        if declared is None:
            continue
        point = declared["core_of"] + declared["top_k"]
        heavy = declared["single_k"] + declared["full"]
        # Keep each class's median inside one mode: the cheaper type of a
        # class holds a clear majority of it.
        check(declared["core_of"] >= 0.7 * point,
              f"{workload}: core_of is not a clear majority of point queries")
        if heavy > 0:
            check(declared["single_k"] >= 0.7 * heavy,
                  f"{workload}: single-k is not a clear majority of heavy")
        for seed in (1, 2, 3):
            proc = subprocess.run(
                [binary, "--describe-mix", workload, "--seed", str(seed),
                 "--count", "200000"],
                capture_output=True, text=True, timeout=60)
            check(proc.returncode == 0, f"{workload}: --describe-mix failed")
            if proc.returncode != 0:
                continue
            counts = last_json_line(proc.stdout)
            total = sum(counts.values())
            for kind, share in declared.items():
                got = counts.get(kind, 0) / total
                check(abs(got - share) <= 0.005,
                      f"{workload} seed {seed}: {kind} share {got:.4f} "
                      f"!= declared {share}")
        print(f"ok: {workload} request mix matches the declared shares")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    binary = run.build()
    work_dir = os.path.join(run.build_root(), "smoke")
    # Every workload kcore_perfbench knows, including any left out of
    # BENCHMARK.json, prints BENCHMARK.json's metric lists.
    check(set(w["name"] for w in bench["workloads"]) <=
          set(layer_map["workloads"]),
          "BENCHMARK.json has a workload layer_map.json does not describe")
    for workload in layer_map["workloads"]:
        check_run(binary, work_dir, workload, 0, bench["end_to_end"])
        check_run(binary, work_dir, workload, 1, bench["per_layer"])
    check_mix(binary, layer_map)
    check(set(layer_map["layers"]) == {m["name"] for m in bench["per_layer"]},
          "layer_map.json layers differ from BENCHMARK.json per_layer")
    print("smoke test:", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
