#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload serve_mix --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library sources and the harness with CMake (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the metrics are the end-to-end set of BENCHMARK.json
with --trace 0 and its per-layer set with --trace 1. A per-layer metric a
workload does not exercise is reported as 0. --seconds defaults to the
run_seconds of BENCHMARK.json.

Exit status: 0 when every check passed; 1 when a result was wrong or a
solve did not converge (the JSON line is still printed); 2 when the build
or the run failed (no JSON line).
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
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (once) and build; returns False on failure."""
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(bdir)  # a build tree of another checkout
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4",
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1.0, left))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if r.returncode != 0:
            log(f"build step failed ({r.returncode}): {' '.join(cmd)}")
            return False
    return True


def child_env():
    # The library reads SPMVM_* variables (tracing, ledger, serve
    # defaults); the benchmark fixes its own configuration.
    return {k: v for k, v in os.environ.items() if not k.startswith("SPMVM_")}


def normalize(result, spec, trace):
    """Check the metric set against BENCHMARK.json; fill idle per-layer
    metrics with 0. Returns an error string or None."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    for name, m in got.items():
        if name not in units:
            return f"metric {name} is not declared in BENCHMARK.json"
        if m.get("unit") != units[name]:
            return f"metric {name} has unit {m.get('unit')}, declared {units[name]}"
    idle = []
    out = {}
    for name, unit in units.items():
        if name in got:
            out[name] = {"value": got[name]["value"], "unit": unit}
        elif trace:
            idle.append(name)
            out[name] = {"value": 0, "unit": unit}
        else:
            return f"end-to-end metric {name} missing"
    if idle:
        print(f"not exercised on this workload (reported as 0): {', '.join(idle)}")
    result["metrics"] = out
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read {spec_path}: {e}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bdir = build_dir()
    if not build(bdir):
        return 2

    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              env=child_env()).returncode

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {names}")
        return 2
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if r.returncode not in (0, 1):
        log(f"benchmark exited with {r.returncode}")
        return 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("benchmark printed no result line")
        return 2
    err = normalize(result, spec, bool(args.trace))
    if err:
        log(err)
        return 2
    print(json.dumps(result), flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
