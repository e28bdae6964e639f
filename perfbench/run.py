#!/usr/bin/env python3
"""RisGraph benchmark runner.

Builds the benchmark (perfbench/CMakeLists.txt, Release) from the sources in
this checkout, runs one workload and relays its output; the last line of
standard output is the JSON result.

  python3 perfbench/run.py --workload stream_ingest --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --repeat 10 --workload rpc_open_loop [--trace 1]
  python3 perfbench/run.py --self-test

Build outputs and per-run scratch files (WAL, checkpoint, socket) live under
$CARGO_TARGET_DIR, default .bench_build; each run removes its scratch dir.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc_open_loop", "rpc_large_graph", "stream_ingest", "road_unsafe")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "risgraph.h")):
        sys.exit("perfbench: RisGraph sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(os.cpu_count() or 1)
        for cmd in (["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", jobs]):
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None, the
    run's '#' report lines)."""
    run_dir = os.path.join(build_dir(), "run-%d-%d" % (os.getpid(),
                                                      time.monotonic_ns()))
    os.makedirs(run_dir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", run_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None, []
    shutil.rmtree(run_dir, ignore_errors=True)
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    notes = [l for l in lines if l.startswith("#")]
    if proc.returncode == 0 and result is None:
        return 1, None, notes
    return proc.returncode, result, notes


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def repeat(binary, args):
    """Runs a workload N times on seeds seed..seed+N-1 and prints, per
    metric, the median, the quartiles and the spread (Q3-Q1)/median next to
    the metric's bound in BENCHMARK.json."""
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, shares = {}, []
    for i in range(args.repeat):
        seed = args.seed + i
        code, res, notes = run_once(binary, args.workload, seed, seconds,
                                    args.trace, echo=False)
        if code != 0 or res is None:
            sys.exit("perfbench: run with seed %d failed (exit %d)" %
                     (seed, code))
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, res["correct"], res["attempted"], res["failed"]))
        for note in notes:
            print("  " + note)
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    print("\n%-30s %-10s %14s %14s %14s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else \
            (vals[0], 0, vals[0])
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        print("%-30s %-10s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, unit, med, q1, q3, spread,
               "-" if bound is None else "%.2f" % bound))
    print("failed share: %s" % sorted(set(shares)))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    binary = build()
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"]).returncode)
    if args.repeat:
        repeat(binary, args)
        return
    seconds = args.seconds or load_spec()["run_seconds"]
    code, _, _ = run_once(binary, args.workload, args.seed, seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
