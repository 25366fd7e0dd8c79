#!/usr/bin/env python3
"""Build and run the evfl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
benchmark (library sources under src/ plus perfbench/src/) into
.bench_build/; later calls rebuild only what changed.  The benchmark's
standard output is passed through: its last line is the JSON result.
Traced runs leave their span files in .bench_build/traces/.

--self-test runs every workload at tiny size, untraced and traced, and
checks each result against the metric catalogue in BENCHMARK.json.
"""
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
TRACES = os.path.join(BUILD_ROOT, "traces")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # One build at a time per checkout.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                sys.stderr.write("build failed: %s\n" % " ".join(cmd))
                sys.exit(1)


def run_binary(args, capture):
    os.makedirs(TRACES, exist_ok=True)
    cmd = [BINARY] + args + ["--trace-dir", TRACES]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                               text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(3)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    listing = subprocess.run([BINARY, "--list-metrics"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout.split("\n")
    catalogue = {}
    for line in filter(None, listing):
        kind, name, unit, better = line.split()
        catalogue[(kind, name)] = (unit, better)
    for kind in ("end_to_end", "per_layer"):
        declared = {(kind, m["name"]): (m["unit"], m["better"])
                    for m in spec[kind]}
        built = {k: v for k, v in catalogue.items() if k[0] == kind}
        if declared != built:
            failures.append("%s catalogue differs from BENCHMARK.json: %s"
                            % (kind, sorted(set(declared.items())
                                            ^ set(built.items()))))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            label = "%s trace=%s" % (workload, trace)
            proc = run_binary(["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", trace,
                               "--scale", "tiny"], capture=True)
            lines = proc.stdout.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except ValueError:
                failures.append("%s: last line is not JSON" % label)
                continue
            kind = "per_layer" if trace == "1" else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if proc.returncode != 0 or result.get("correct") is not True:
                failures.append("%s: exit %d, correct=%s" % (
                    label, proc.returncode, result.get("correct")))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if got != want:
                failures.append("%s: metrics differ: %s" % (
                    label, sorted(set(got.items()) ^ set(want.items()))))
            print("%-28s exit %d, %d metrics" % (label, proc.returncode,
                                                 len(got)))
    for f in failures:
        print("FAIL: " + f)
    print("self-test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        sys.exit(self_test())
    sys.stdout.flush()
    sys.exit(run_binary(args, capture=False).returncode)


if __name__ == "__main__":
    main()
