#!/usr/bin/env python3
"""Build the FORTRESS benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, one table
    python3 perfbench/run.py --self-test                      # tiny runs + a failing pin

Run it from anywhere; it works in the directory above its own. The build
uses dune on the library sources next to this directory and fails (exit 2,
no result line) when they are missing. Each workload runs in a fresh
process; the last line of standard output is the result JSON.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/fortress_perf.exe"
EXE = os.path.join("_build", "default", "perfbench", "fortress_perf.exe")
DEFAULT_SEED = 1


def run_timeout(seconds):
    """A traced run makes up to three passes over its steps, and an
    untraced one may run past --seconds to reach its fixed step counts."""
    return max(170, 8 * seconds + 120)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no library sources (dune-project, lib/) next to perfbench/; nothing to build")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # dune's own output goes to stderr: stdout carries only the benchmark
    r = subprocess.run([dune, "build", "--root", ".", TARGET],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", 1)


def commit():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def bench_args(workload, seed, seconds, trace, extra=()):
    return [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--nproc", str(os.cpu_count() or 0),
            "--commit", commit(), *extra]


def run_captured(args, seconds):
    """Run one workload process; return (exit code, stdout, parsed result or None)."""
    try:
        r = subprocess.run(args, capture_output=True, text=True, timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        return "timeout", "", None
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, r.stdout, result


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_all(seed, seconds):
    """Every workload in its own process; one table of end-to-end metrics."""
    ok = True
    for w in spec()["workloads"]:
        code, out, result = run_captured(bench_args(w["name"], seed, seconds, 0), seconds)
        for line in out.splitlines()[:-1]:
            if line.startswith("  error_rate") or line.startswith("CHECK FAILED"):
                print(f"{w['name']}: {' '.join(line.split())}")
        if code != 0 or result is None:
            ok = False
            print(f"{w['name']}: FAILED (exit {code})")
            continue
        for name, m in result["metrics"].items():
            print(f"{w['name']}: {name} {m['value']:.6g} {m['unit']}")
        print(f"{w['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def self_test():
    """Every workload end to end at the smallest size, each metric named with
    its unit, and a wrong pinned digest must fail the check."""
    s = spec()
    expected = {0: {m["name"]: m["unit"] for m in s["end_to_end"]},
                1: {m["name"]: m["unit"] for m in s["per_layer"]}}
    problems = []
    for w in s["workloads"]:
        for trace in (0, 1):
            code, _, result = run_captured(bench_args(w["name"], DEFAULT_SEED, 0, trace), 0)
            tag = f"{w['name']} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{tag}: exit {code}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {sorted(got.items())} "
                                f"!= {sorted(expected[trace].items())}")
            print(f"{tag}: ok ({len(got)} metrics)")
    code, _, result = run_captured(
        bench_args(s["workloads"][0]["name"], DEFAULT_SEED, 0, 0, ["--corrupt-pin"]), 0)
    if code == 0 or result is None or result["correct"]:
        problems.append(f"corrupted pin was not detected: exit {code}, result {result}")
    else:
        print("corrupted pin: detected")
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    return 1 if problems else 0


def main():
    os.chdir(ROOT)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        sys.exit(self_test())
    if a.all:
        sys.exit(run_all(a.seed, a.seconds))
    if not a.workload:
        fail("--workload is required (or --all / --self-test)")
    timeout = run_timeout(a.seconds)
    try:
        r = subprocess.run(bench_args(a.workload, a.seed, a.seconds, a.trace), timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"workload {a.workload} did not finish in {timeout:g} s", 1)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
