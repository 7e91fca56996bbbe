#!/usr/bin/env python3
"""memgoal benchmark: simulator host speed and goal attainment per workload.

    python3 perfbench/run.py --workload paper-base --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call builds perfbench_runner
(CMake, Release) from perfbench/ and src/ into .bench_build/.

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics named in BENCHMARK.json. --trace 1 runs it untraced and then traced,
each in its own process over half the length, and reports the per-layer
metrics; the traced run's
spans (spans.jsonl) and metrics (per_layer.json) are written to
.bench_out/<workload>-seed<seed>/.

Workloads are declared in perfbench/workloads.json. --seconds sizes the
timed phase: seconds x the workload's nominal intervals per second
(measured on a 4-core x86-64 host), so a given seed always simulates the
same thing and the simulation digest repeats exactly.

Every run checks the program's outputs (see runner.cc); the untraced and
traced runs of one seed must also produce the same simulation digest, and
the traced run must read 0 for every metric that workloads.json predicts
to be zero on the workload ("zero_on"). A failed check is named on stderr, the result reads "correct": false and the
exit status is 1. The last line of stdout is the JSON result:
"attempted" counts the timed observation intervals simulated, "failed"
those of runs that failed a check.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUNNER_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "perfbench_runner"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, "perfbench_runner")


def run_runner(binary, args, timeout_s):
    """Runs one workload process; returns its parsed result or None."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"runner timed out after {timeout_s} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"runner exited with status {proc.returncode}")
        return None
    return json.loads(lines[-1])


def sizes_line(scenario, bench):
    """Workload sizes, derived from its declared scenario."""
    frames = scenario["nodes"] * scenario["cache_bytes"] // scenario.get(
        "page_bytes", 4096)
    classes = []
    for c in range(scenario["classes"]):
        kind = "goal" if f"class{c}_goal_ms" in scenario else "no-goal"
        classes.append(f"class{c}({kind}): pages {scenario[f'class{c}_pages']},"
                       f" inter-arrival {scenario[f'class{c}_interarrival_ms']}"
                       f" ms, {scenario[f'class{c}_accesses']} accesses/op,"
                       f" skew {scenario.get(f'class{c}_skew', 0)}")
    faults = [f"{k}={v}" for k, v in scenario.items()
              if k.startswith(("fault_", "scrub", "corrupt"))]
    txn = ("; read-write update transactions (txn::UpdateSource defaults)"
           if bench.get("updates") else "")
    return (f"nodes {scenario['nodes']}; db {scenario['db_pages']} pages vs"
            f" {frames} cache frames ({scenario['db_pages'] / frames:.2f}x);"
            f" interval {scenario['interval_ms']} ms; "
            + "; ".join(classes) + txn
            + ("; faults " + " ".join(faults) if faults else "; no faults"))


def scenario_arg(key, value):
    """One key=value argument of the runner (JSON booleans as true/false)."""
    if isinstance(value, bool):
        value = "true" if value else "false"
    return f"{key}={value}"


def zero_on_failures(workloads, name, metrics):
    """Checks named after the metrics predicted 0 on `name` that are not."""
    failures = []
    for group in workloads["predictions"]:
        if name not in group.get("zero_on", []):
            continue
        for metric in group["metrics"]:
            if metrics.get(metric) != 0:
                failures.append(f"zero_on.{metric}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    if args.workload not in workloads["workloads"]:
        log(f"unknown workload {args.workload}; have "
            + ", ".join(workloads["workloads"]))
        return 2
    workload = workloads["workloads"][args.workload]
    binary = build()
    if binary is None:
        return 2

    # A traced run makes two processes; each simulates half the length so
    # that a traced run costs about as much host time as an untraced one.
    intervals = max(workloads["min_intervals"],
                    round(args.seconds * workload["intervals_per_second"]
                          / (1 + args.trace)))
    out_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    common = ([f"seed={args.seed}", f"intervals={intervals}", f"out={out_dir}"]
              + [scenario_arg(k, v) for k, v in workload["bench"].items()]
              + [scenario_arg(k, v) for k, v in workload["scenario"].items()])

    print(f"workload {args.workload}, seed {args.seed}: "
          + sizes_line(workload["scenario"], workload["bench"]))
    print("load: " + "; ".join(workloads["load"].values()))
    print(f"timed phase: {intervals} observation intervals")

    runs = [("plain", run_runner(binary, ["mode=plain", f"run_id={args.workload}"
                                          f"-seed{args.seed}-plain"] + common,
                                 RUNNER_TIMEOUT_S // (1 + args.trace)))]
    if args.trace:
        runs.append(("traced", run_runner(
            binary, ["mode=traced", f"run_id={args.workload}-seed{args.seed}"
                     "-traced"] + common, RUNNER_TIMEOUT_S // 2)))

    failed_checks = []
    for mode, result in runs:
        if result is None:
            failed_checks.append(f"{mode}.runner_completed")
        else:
            failed_checks += [f"{mode}.{c}" for c in result["failed_checks"]]
    results = {mode: result for mode, result in runs if result is not None}
    if "plain" in results:
        print(f"simulation digest {results['plain']['digest']}; set-up"
              f" repeated {results['plain']['setup_reps']} times")
    if len(results) == 2 and (results["plain"]["digest"]
                              != results["traced"]["digest"]):
        failed_checks.append("digest_plain_equals_traced")

    metrics = {}
    if args.trace == 0 and "plain" in results:
        m = results["plain"]["metrics"]
        for spec in benchmark["end_to_end"]:
            metrics[spec["name"]] = m.get(spec["name"])
        print(f"end-to-end ({int(m['interval_ms.samples'])} timed intervals,"
              f" {int(m['convergence.samples'])} goal changes,"
              f" {int(m['convergence.censored'])} censored):")
        for spec in benchmark["end_to_end"]:
            print(f"  {spec['name']} = {m.get(spec['name'])} {spec['unit']}")
        # Not gated: where host speed switches between states every few
        # seconds (a shared 4-vCPU x86-64 VM), the median and the run mean
        # of ~7 ms interval times move with the share of the run spent in
        # the fast state, while p90 stays in the common state. Over ten
        # seeds the rate spread up to 0.19 of its median, p90 at most 0.07.
        print(f"  accesses_per_s = {m['accesses_per_s']} 1/s (not gated)")
        print(f"  interval_ms.p50 = {m['interval_ms.p50']} ms (not gated)")
        print(f"  failed_share = {m['failed_share']} fraction"
              f" (= 1 - completed_share)")
        print(f"  txn_commit_ms = {m['txn_commit_ms']} sim ms"
              f" (0 without updates)")
    elif args.trace == 1 and len(results) == 2:
        m = dict(results["traced"]["metrics"])
        plain = results["plain"]
        m["obs.trace_overhead"] = (results["traced"]["timed_wall_s"]
                                   / plain["timed_wall_s"] - 1.0)
        m["sim.ns_per_event"] = plain["timed_wall_s"] * 1e9 / max(
            1, plain["events"])
        for spec in benchmark["per_layer"]:
            metrics[spec["name"]] = m.get(spec["name"])
        failed_checks += zero_on_failures(workloads, args.workload, m)
        print("per layer (traced run):")
        for spec in benchmark["per_layer"]:
            print(f"  {spec['name']} = {m.get(spec['name'])} {spec['unit']}")
        print("spans (count, total ms, self ms):")
        for name, t in results["traced"]["spans"].items():
            print(f"  {name}: {t['count']}, {t['total_ms']:.3f},"
                  f" {t['self_ms']:.3f}")
        with open(os.path.join(out_dir, "per_layer.json"), "w") as f:
            json.dump(metrics, f, indent=1, sort_keys=True)

    for name, value in metrics.items():
        if value is None or not math.isfinite(value):
            failed_checks.append(f"metric_reported.{name}")
    if args.trace == 0:
        for name, value in metrics.items():
            if value is not None and value <= 0:
                failed_checks.append(f"metric_nonzero.{name}")

    units = {s["name"]: s["unit"] for s in
             benchmark["per_layer" if args.trace else "end_to_end"]}
    attempted = intervals * len(runs)
    correct = not failed_checks
    for check in failed_checks:
        log(f"FAILED CHECK: {check}")
    print("checks: " + ("all passed" if correct else
                        "FAILED " + ", ".join(failed_checks)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": value if value is not None else 0.0,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
