#!/usr/bin/env python3
"""Tests of the benchmark's own contract and helpers.

    python3 perfbench/tests/test_run.py

Builds the driver and its helper test (as perfbench/run.py does), then
checks: the C++ helper tests pass; the driver's metric catalogue is exactly
the one BENCHMARK.json declares; an unknown workload or a bad flag exits
non-zero without printing a result; a checkout without the library sources
exits non-zero; and one short run prints a well-formed, correct result
line. Scratch files go under the build directory only.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.dont_write_bytecode = True  # leave no __pycache__ beside run.py
import run  # noqa: E402  (perfbench/run.py)


def result_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("{")]


class DriverContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build(("perfbench", "perfbench_helpers_test"))
        cls.driver = os.path.join(cls.build_dir, "perfbench")

    def test_helpers(self):
        test = os.path.join(self.build_dir, "perfbench_helpers_test")
        completed = subprocess.run([test], capture_output=True, text=True)
        self.assertEqual(completed.returncode, 0, completed.stderr)

    def test_catalogue_matches_benchmark_json(self):
        listing = json.loads(subprocess.check_output([self.driver, "--list-metrics"]))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        self.assertEqual([w["name"] for w in bench["workloads"]], listing["workloads"])
        self.assertEqual(list(run.WORKLOADS), listing["workloads"])
        for key in ("end_to_end", "per_layer"):
            declared = [{k: m[k] for k in ("name", "unit", "better")} for m in bench[key]]
            self.assertEqual(declared, listing[key], key)

    def test_unknown_workload_exits_nonzero(self):
        for command in ([sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", "nope"],
                        [self.driver, "--workload", "nope"]):
            completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            self.assertNotEqual(completed.returncode, 0, command)
            self.assertEqual(result_lines(completed.stdout), [], command)

    def test_bad_flags_exit_nonzero(self):
        for flags in (["--trace", "2"], ["--seconds", "0"], ["--seed", "-1"], ["--seed"]):
            completed = subprocess.run([self.driver, "--workload", "season", *flags],
                                       capture_output=True, text=True)
            self.assertEqual(completed.returncode, 2, flags)
            self.assertEqual(result_lines(completed.stdout), [], flags)

    def test_checkout_without_sources_exits_nonzero(self):
        scratch = tempfile.mkdtemp(dir=self.build_dir)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(PERFBENCH, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "season", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=scratch, timeout=60,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(completed.returncode, 0)
            self.assertEqual(completed.stdout, "")
        finally:
            shutil.rmtree(scratch)

    def test_short_run_prints_a_correct_result(self):
        completed = subprocess.run(
            [self.driver, "--workload", "server_mix", "--seed", "7", "--seconds", "1",
             "--trace", "0"], capture_output=True, text=True, timeout=120)
        self.assertEqual(completed.returncode, 0, completed.stderr)
        last = json.loads(completed.stdout.splitlines()[-1])
        self.assertEqual(sorted(last), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)
        self.assertGreater(last["attempted"], 1_000_000)
        for name, metric in last["metrics"].items():
            self.assertEqual(sorted(metric), ["unit", "value"], name)
            self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
