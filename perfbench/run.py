#!/usr/bin/env python3
"""Builds and runs the roicl end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
roicl libraries plus the `perfbench` executable into .bench_build/perfbench
(RelWithDebInfo, the repository's default build type); later runs only
rebuild what changed. Build output goes to stderr. The executable's stdout
is passed through once its last line has been checked against
BENCHMARK.json: every metric of the requested kind, with its unit.
Records and chrome traces land in .bench_build/perfbench-out; scratch
inputs live in a per-run directory that is removed afterwards.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("batch_rdrp", "batch_drp", "serve_rdrp", "alloc_10m")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    command = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def git_stamp():
    """(sha, dirty) of the checkout, or ("unknown", "unknown") outside git."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if status.stdout.strip() else "0"


def check_result(line, trace):
    """The last line carries exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError as error:
        fail("result line is not JSON (%s): %s" % (error, line))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "mis-united %s" % (sorted(set(wanted) - set(got)),
                                sorted(set(got.items()) - set(wanted.items()))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    sha, dirty = git_stamp()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(ROOT, ".bench_build", "work-%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work, "--out-dir", OUT, "--git-sha", sha,
             "--git-dirty", dirty],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail("no result line (exit code %d)" % run.returncode)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
