#!/usr/bin/env python3
"""Builds and runs the LSBench benchmark of this repository.

    python3 perfbench/run.py --workload ls-continuous --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the engine sources under src/) into the
directory named by CARGO_TARGET_DIR, or .bench_build at the repository root,
then runs one workload and prints its report. The last line of standard
output is the JSON result. With --sensitivity it instead runs ls-continuous
with and without the delta cache and ls-templates with and without MQO, and
prints how far each end-to-end metric moved.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ls-continuous", "ls-templates", "ls-evolving")
# Sensitivity pairs: the workload and the ClusterConfig mechanism it was
# chosen to exercise.
SENSITIVITY = (("ls-continuous", "delta_cache"), ("ls-templates", "mqo"))
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.h")):
        sys.exit("run.py: engine sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", "lsbench_perf"],
    )
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "lsbench_perf")


def revision():
    """The git revision when run from a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, disable=None, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--revision", revision()]
    if trace:
        cmd += ["--trace-file", os.path.join(
            os.path.dirname(binary), "trace-%s-seed%s.json" % (workload, seed))]
    if disable:
        cmd += ["--disable", disable]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc


def sensitivity(binary, seed, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    for workload, knob in SENSITIVITY:
        results = []
        for disable in (None, knob):
            proc = run(binary, workload, seed, seconds, False, disable, capture=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s with %s disabled: run failed" % (workload, knob))
                return 1
            results.append(json.loads(lines[-1])["metrics"])
        print("%s, %s on -> off (seed %s, %s s each):" % (workload, knob, seed, seconds))
        for name, base in results[0].items():
            off = results[1][name]["value"]
            moved = (off / base["value"] - 1.0) * 100.0 if base["value"] else 0.0
            spec = bounds.get(name, {})
            better = (moved < 0) == (spec.get("better") == "lower")
            flag = ""
            if abs(moved) > spec.get("bound", 1.0) * 100.0:
                flag = "past bound, " + ("better" if better else "worse")
            print("  %-22s %14.6g -> %14.6g %-9s %+8.1f%% %s" % (
                name, base["value"], off, base["unit"], moved, flag))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sensitivity", action="store_true",
                        help="rerun with the delta cache / MQO disabled")
    args = parser.parse_args()
    if not args.sensitivity and args.workload is None:
        parser.error("--workload is required")
    binary = build(build_dir())
    if args.sensitivity:
        return sensitivity(binary, args.seed, args.seconds)
    sys.stdout.flush()
    return run(binary, args.workload, args.seed, args.seconds, args.trace == 1).returncode


if __name__ == "__main__":
    sys.exit(main())
