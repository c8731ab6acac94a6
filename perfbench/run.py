#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench driver and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <season|big_fleet|fork_campaign|server_mix>
                             [--seed N] [--seconds S] [--trace 0|1]

The driver (perfbench/driver, built by perfbench/CMakeLists.txt against the
libraries under src/) is configured and built on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to standard error. The driver's standard output is passed through: a
build/host stamp, one "# ..." line per workload, and as the last line one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 1 the spans are also written as Chrome trace-event JSON under the
build directory (traces/<workload>-<seed>.json). perfbench/METRICS.md
documents the workloads and every metric.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("season", "big_fleet", "fork_campaign", "server_mix")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus set-up, checks and (traced) probes;
# anything past this is a hang, not a slow run.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    """The build directory: $CARGO_TARGET_DIR/perfbench, kept inside the checkout."""
    base = os.path.realpath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    if os.path.commonpath([base, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        base = os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def build(targets=("perfbench",)):
    """Configures (once) and builds the driver; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}: run from a full checkout")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail(f"{tool} is not installed")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("configuring the driver failed", 1)
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", bdir, "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("building the driver failed", 1)
    return bdir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload '{args.workload}' (one of {', '.join(WORKLOADS)})")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bdir = build()
    command = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
