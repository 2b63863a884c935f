#!/usr/bin/env python3
"""Builds the mutk benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload service --seed 1 --confirm ...
    python3 perfbench/run.py --workload service --capacity
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The first run configures and builds
`perfbench/` (which compiles the sibling `src/` tree) under
`$CARGO_TARGET_DIR/perfbench`, default `.bench_build/perfbench`; later runs
only rebuild what changed. The last line of standard output is the result
object of the benchmark binary. `--confirm` moves the seed into the range
reserved for confirming a claim (seeds from CONFIRM_BASE up); tune on
seeds below it.
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
WORKLOADS = ["exact", "compact", "service"]
CONFIRM_BASE = 1_000_000
RUN_TIMEOUT_S = 175


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the binary from the checkout root; returns (code, stdout)."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1, ""
    return proc.returncode, proc.stdout


def workload_args(workload, seed, seconds, trace):
    out = build_dir()
    sock = os.path.relpath(os.path.join(out, "svc-%d.sock" % os.getpid()), ROOT)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--socket", sock]
    if trace:
        args += ["--trace-out",
                 os.path.join(out, "trace-%s-%d.jsonl" % (workload, seed))]
    return args


def selftest(binary):
    """The benchmark's own tests: span arithmetic, metric names and units
    against BENCHMARK.json, and output checks on a short run of every
    workload in both modes (the traced mode also checks that it replays
    the untraced operations with identical costs)."""
    failures = 0
    code, _ = run_binary(binary, ["--selftest"])
    if code != 0:
        log("FAIL: span arithmetic self-test")
        failures += 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_binary(binary,
                                      workload_args(workload, 7, 2, trace))
            lines = stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                log("FAIL: %s trace=%d printed no result" % (workload, trace))
                failures += 1
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if code != 0 or not result["correct"]:
                problems.append("output checks failed")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("result keys %s" % sorted(result))
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got
                               if k in want[trace] and got[k] != want[trace][k])
                problems.append("missing %s extra %s unit mismatch %s"
                                % (missing, extra, units))
            if result["attempted"] < 1:
                problems.append("no operation attempted")
            status = "FAIL: " + "; ".join(problems) if problems else "ok"
            log("%s trace=%d: %s" % (workload, trace, status))
            failures += bool(problems)
    log("self-test %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--confirm", action="store_true",
                        help="use the seed range reserved for confirmation")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--capacity", action="store_true",
                        help="service: print the closed-loop capacity the "
                             "open-loop rate is derived from")
    opts = parser.parse_args()
    if not opts.selftest and not opts.workload:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no mutk source tree next to the benchmark; run from a checkout")
        return 1
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if opts.selftest:
        return selftest(binary)
    seed = opts.seed + CONFIRM_BASE if opts.confirm else opts.seed
    args = workload_args(opts.workload, seed, opts.seconds, opts.trace)
    code, stdout = run_binary(binary, args + ["--capacity"] * opts.capacity)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
