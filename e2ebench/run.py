#!/usr/bin/env python3
"""End-to-end benchmark of SkinnerDB: builds the driver, runs one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload job --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 1
    python3 e2ebench/run.py --self-test

The driver binary is built from source under .bench_build/ (CMake, Release)
before every run; an up-to-date build costs a second. The last line of
stdout is the run's JSON result. The exit code is 0 only when the build
succeeded and every correctness check passed. See e2ebench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "skinner_e2e")
# tpch is runnable by name but not listed in BENCHMARK.json (see README.md).
WORKLOADS = ["job", "tpch", "serve-mixed"]
# One run must end well inside the 180 s every run is allowed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; False on any failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("e2ebench: no src/ next to e2ebench/; run it inside a checkout")
        return False
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "skinner_e2e", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_driver(workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout lines)."""
    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(trace_dir, "%s-seed%s.jsonl" % (workload, seed))]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("e2ebench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def last_json(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def self_test():
    """Tiny-scale runs of every workload in both modes, plus planted faults."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_driver(workload, 1, 1, trace, ["--quick"])
            result = last_json(lines)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                failures.append("%s: exit %d, result %s" % (tag, code, result))
                continue
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                got = metrics.get(name)
                if got is None or got.get("unit") != unit:
                    failures.append("%s: metric %s missing or not in %s" % (tag, name, unit))
            extra = set(metrics) - set(expected[trace])
            if extra:
                failures.append("%s: unexpected metrics %s" % (tag, sorted(extra)))
            log("self-test: %s ok (%d metrics)" % (tag, len(metrics)))
        # A planted wrong durability fingerprint must fail the run.
        code, lines = run_driver(workload, 1, 1, 0, ["--quick", "--plant-bad-fingerprint"])
        result = last_json(lines)
        if code == 0 or result is None or result.get("correct"):
            failures.append("%s: planted fingerprint mismatch went unnoticed" % workload)
        else:
            log("self-test: %s planted fingerprint mismatch caught" % workload)
    for f in failures:
        log("self-test FAILED: " + f)
    print(json.dumps({"self_test": "pass" if not failures else "fail",
                      "failures": len(failures)}))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("e2ebench: build failed")
        return 1
    if args.self_test:
        return self_test()
    code, lines = run_driver(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
