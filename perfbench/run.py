#!/usr/bin/env python3
"""Live wire-to-wire benchmark of the INDISS gateway.

Builds the benchmark (perfbench/CMakeLists.txt: the gateway's layers from
src/ plus the generator, checker and tracing decorator) in Release into
.bench_build, runs one workload and prints, as the last line of standard
output, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      (every workload in turn)
    python3 perfbench/run.py --selftest

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The full report of every run (context stamp,
sample counts, datagram accounting, every metric) is kept
in .bench_results/. Exits non-zero when the build fails, an output check
fails, or the run was invalid.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_indiss")
RESULTS = os.path.join(ROOT, ".bench_results")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (Release) and builds the benchmark; False on failure."""
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", BUILD, "--target", "perfbench_indiss", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        build_type = next((line.split("=", 1)[1].strip() for line in cache
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        log("perfbench: refusing to record from a %r build (Release only)" % build_type)
        return False
    return True


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, extra=(), deadline=None):
    """Runs the binary once. Returns (exit code, result dict or None, report
    dict or None); relays the human-readable report to standard output."""
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%s-trace%s" % (workload, seed, trace))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--spans", stem + "-spans.tsv"]
    timeout = RUN_TIMEOUT_S if deadline is None else max(1, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 124, None, None
    lines = done.stdout.splitlines()
    report = None
    result = None
    for line in lines:
        if line.startswith("# report "):
            report = json.loads(line[len("# report "):])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line, flush=True)
    if report is not None:
        with open(stem + ".json", "w") as f:
            json.dump({"report": report, "result": result, "exit": done.returncode}, f, indent=1)
    return done.returncode, result, report


def contract_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def restrict(result, spec, trace):
    """The result object with exactly the metrics BENCHMARK.json lists;
    None when one is missing or has the wrong unit."""
    metrics = {}
    for m in contract_metrics(spec, trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("perfbench: metric %s missing or not in %s" % (m["name"], m["unit"]))
            return None
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def selftest(spec):
    """Runs every workload briefly, traced and untraced, and checks that
    every named metric is emitted with its unit and a sample count; then
    injects a wrong frame and checks that it is counted as a failure."""
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, report = run_once(workload, 1, 2, trace, extra=["--warmup", "1"])
            if code != 0 or result is None or report is None:
                problems.append("%s trace=%d: exit %d" % (workload, trace, code))
                continue
            if restrict(result, spec, trace) is None:
                problems.append("%s trace=%d: metric missing" % (workload, trace))
            if not result["correct"] or result["attempted"] < 1:
                problems.append("%s trace=%d: outputs not correct" % (workload, trace))
            samples = report.get("samples", {})
            if samples.get("latency", 0) < 1 or samples.get("setup", 0) < 1:
                problems.append("%s trace=%d: no sample count" % (workload, trace))
        code, result, _ = run_once(workload, 1, 2, 0, extra=["--warmup", "1", "--inject-wrong"])
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append("%s: injected wrong frame not counted as a failure" % workload)
    for p in problems:
        log("selftest: FAIL:", p)
    log("selftest:", "PASS" if not problems else "FAIL")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not os.path.exists(SPEC):
        log("perfbench: BENCHMARK.json not found")
        return 2
    if not build():
        return 2
    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    worst = 0
    for workload in workloads:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        code, result, _ = run_once(workload, args.seed, seconds, args.trace, deadline=deadline)
        restricted = None if result is None else restrict(result, spec, args.trace)
        if restricted is None:
            worst = max(worst, code or 3)
            continue
        print(json.dumps(restricted), flush=True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
