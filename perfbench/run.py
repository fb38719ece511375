#!/usr/bin/env python3
"""Builds and runs the NAPEL flow benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload collect --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench (CMake, Release, into .bench_build/) if
needed, runs one workload and relays its output; the last stdout line is the
JSON summary. --smoke is the benchmark's own test: it runs every workload at
tiny scale, traced and untraced, and checks that every metric BENCHMARK.json
names is reported with its unit, and that the program declares the same
units and directions.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = [cmake, "--build", BUILD_DIR, "--target", "perfbench",
           "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def bench_env():
    env = dict(os.environ)
    # The library's thread pool defaults to the hardware thread count; cap
    # it at the CPUs this process may run on.
    env.setdefault("NAPEL_THREADS", str(nproc()))
    return env


def run_binary(args):
    """Runs perfbench; returns (exit code, stdout lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        proc = subprocess.run([BINARY, *args, "--out-dir", OUT_DIR],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=bench_env(), text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_summary(lines):
    if not lines:
        return None
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(summary, dict) or set(summary) != SUMMARY_KEYS:
        return None
    return summary


def smoke():
    """The benchmark's own test: every metric present, unit and direction."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {"0": spec["end_to_end"], "1": spec["per_layer"]}

    code, lines = run_binary(["--list-metrics"])
    problems = [] if code == 0 else [f"--list-metrics: exit {code}"]
    declared = {}
    for line in lines:
        kind, name, unit, better = line.split()
        declared[(kind, name)] = (unit, better)
    for kind, metrics in (("end_to_end", spec["end_to_end"]),
                          ("per_layer", spec["per_layer"])):
        names = {m["name"] for m in metrics}
        extra = {n for (k, n) in declared if k == kind} - names
        if extra:
            problems.append(f"{kind}: program declares {sorted(extra)} "
                            "that BENCHMARK.json lacks")
        for m in metrics:
            got = declared.get((kind, m["name"]))
            if got != (m["unit"], m["better"]):
                problems.append(f"{kind} {m['name']}: program declares {got}, "
                                f"BENCHMARK.json says "
                                f"({m['unit']}, {m['better']})")

    for w in spec["workloads"]:
        for trace in ("0", "1"):
            t0 = time.monotonic()
            code, lines = run_binary(["--workload", w["name"], "--seed", "1",
                                      "--seconds", "1", "--trace", trace,
                                      "--smoke"])
            summary = parse_summary(lines)
            where = f"{w['name']} --trace {trace}"
            if code != 0 or summary is None:
                problems.append(f"{where}: exit {code}, no summary")
                continue
            if not summary["correct"] or summary["failed"] != 0:
                problems.append(f"{where}: output checks failed")
            got = summary["metrics"]
            for m in want[trace]:
                v = got.get(m["name"])
                if v is None or v.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or "
                                    f"not in {m['unit']}")
            extra = set(got) - {m["name"] for m in want[trace]}
            if extra:
                problems.append(f"{where}: undeclared {sorted(extra)}")
            log(f"smoke {where}: {time.monotonic() - t0:.1f} s")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="run the benchmark's own test instead")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 1
    if args.smoke:
        return smoke()

    code, lines = run_binary(["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", args.trace])
    if parse_summary(lines) is None:
        for line in lines:
            print(line, file=sys.stderr)
        log("perfbench printed no summary")
        return 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
