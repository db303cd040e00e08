#!/usr/bin/env python3
"""Builds and runs the corbaft benchmark.

    python3 perfbench/run.py --workload rpc_fanout --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and compiles the
runtime libraries and the benchmark binary (CMake, Release) into the
directory named by $CARGO_TARGET_DIR, or .bench_build; later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result.  Each run also leaves its full
record (all metrics, environment controls, and in a traced run its spans)
under <build dir>/results.  Exits nonzero without a result when the build
fails, and nonzero after the result when a correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rpc_fanout", "ft_checkpoint", "solver_sim")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "corbaft_perfbench", "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, "corbaft_perfbench")


def check_catalog(binary):
    """The binary's metric catalog must be what BENCHMARK.json lists."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {(kind, m["name"], m["unit"])
              for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    out = subprocess.run([binary, "metrics"], capture_output=True, text=True,
                         check=True).stdout
    printed = {tuple(line.split()) for line in out.splitlines()}
    ok = listed == printed
    print("  %s  metric catalog matches BENCHMARK.json" % ("ok  " if ok else "FAIL"))
    for kind, name, unit in sorted(listed ^ printed):
        print("        differs: %s %s %s" % (kind, name, unit))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own helper tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        sys.stdout.flush()
        passed = subprocess.run([binary, "selftest"]).returncode == 0
        sys.exit(0 if check_catalog(binary) and passed else 1)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir(), "results")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
