#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the program and the harness
from source (dune, release profile, into .bench_build/), runs the named
workload in its own process, and prints that process's result: the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Any failed check, build error or
timeout exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("static-udg", "dynamic-churn")
BUILD_DIR = os.path.join(".bench_build", "dune")
RUNS_DIR = os.path.join(".bench_build", "runs")
TRACES_DIR = os.path.join(".bench_build", "traces")
TARGETS = ("perfbench/perfbench.exe", "bin/main.exe")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(BUILD_DIR)] + list(TARGETS)
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not installed")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        die("build failed")
    return [os.path.join(BUILD_DIR, "default", t) for t in TARGETS]


def run(args, exe, mspar, workdir):
    cmd = [exe, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mspar", mspar, "--dir", workdir]
    # its own process group, so the serve daemon it forks goes down with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        die("%s (seed %d) timed out" % (args.workload, args.seed))
    finally:
        # the harness reaps its daemon on every exit path; this covers a
        # harness that was killed or timed out
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        die("%s (seed %d) failed with exit code %d"
            % (args.workload, args.seed, proc.returncode))
    return out.decode(errors="replace").splitlines()


def validate(line, trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line: " + line)
    if result["correct"] is not True or result["attempted"] < 1:
        die("result reports a failure: " + line)
    expected = set(m["name"] for m in bench["per_layer" if trace else "end_to_end"])
    if set(result["metrics"]) != expected:
        die("result metrics %s differ from BENCHMARK.json %s"
            % (sorted(result["metrics"]), sorted(expected)))
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be positive", 2)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of an mspar checkout (no dune-project or lib/ here)", 2)

    exe, mspar = build()
    workdir = os.path.join(RUNS_DIR, str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        lines = run(args, exe, mspar, workdir)
        spans = os.path.join(workdir, "spans.tsv")
        if os.path.isfile(spans):
            os.makedirs(TRACES_DIR, exist_ok=True)
            shutil.copy(spans, os.path.join(
                TRACES_DIR, "%s-%d.tsv" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not lines:
        die("%s (seed %d) printed nothing" % (args.workload, args.seed))
    for line in lines[:-1]:
        print(line)
    print(validate(lines[-1], args.trace), flush=True)


if __name__ == "__main__":
    main()
