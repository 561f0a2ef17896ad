#!/usr/bin/env python3
"""Tests of the fleet benchmark itself.

  python3 fleetbench/test_run.py

Runs each workload at a tiny fleet size, in both modes, and checks that
every metric named in BENCHMARK.json appears with its unit and that the
output checks pass. A deliberately wrong reference must come back as
failures. The first test run builds the worker, like run.py does.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY_N = {"churn_serial": 16, "crossed_4t": 16, "adversary_mixed": 8}


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


def run_tiny(workload, *args):
    """Runs run.main in-process on a tiny fleet of `workload`; returns its
    exit code and the result of its last stdout line."""
    shape = run.WORKLOADS[workload]
    full_n = shape["n"]
    stdout = io.StringIO()
    try:
        shape["n"] = TINY_N[workload]
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1"] +
                            list(args))
    finally:
        shape["n"] = full_n
    return code, json.loads(stdout.getvalue().strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


class CliTest(unittest.TestCase):
    def test_help_exits_zero(self):
        proc = bench("--help")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("--workload", proc.stdout)

    def test_bad_input_exits_two(self):
        for args in (["--workload", "churn_serial", "--bogus"],
                     ["--workload", "nope"],
                     ["--workload", "churn_serial", "--seed", "abc"],
                     ["--workload", "churn_serial", "--seed", "-1"],
                     ["--workload", "churn_serial", "--seconds", "0"],
                     ["--workload", "churn_serial", "--trace", "2"],
                     ["--workload", "churn_serial", "--work", "x"],
                     []):
            proc = bench(*args)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "", args)


class ScoreTest(unittest.TestCase):
    REFERENCE = {"events": 10, "visits": 64, "churns": 16, "fleet_pages_sharing": 5}

    def test_shortfall_and_counters_are_failures(self):
        record = dict(self.REFERENCE, visit_failures=2, create_failures=1, slots_abandoned=0)
        attempted, failed, problems = run.score("churn_serial", 16, record, self.REFERENCE)
        self.assertEqual((attempted, failed, problems), (32 + 64, 3, []))
        short = dict(record, visits=60)
        reference = dict(self.REFERENCE, visits=60)
        self.assertEqual(run.score("churn_serial", 16, short, reference)[1], 3 + 4)

    def test_crash_or_mismatch_fails_everything(self):
        self.assertEqual(run.score("churn_serial", 16, None, self.REFERENCE)[:2], (96, 96))
        wrong = dict(self.REFERENCE, events=11)
        attempted, failed, problems = run.score("churn_serial", 16, wrong, self.REFERENCE)
        self.assertEqual(failed, attempted)
        self.assertTrue(problems)


class WorkloadTest(unittest.TestCase):
    def check_run(self, workload, trace):
        code, result = run_tiny(workload, "--trace", str(trace))
        self.assertEqual(code, 0)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = declared("per_layer" if trace else "end_to_end")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_each_workload_untraced(self):
        for workload in sorted(run.WORKLOADS):
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0)["metrics"]
                for name in ("setup_s", "run_s", "wall_s", "peak_rss_mb"):
                    self.assertGreater(metrics[name]["value"], 0, name)

    def test_each_workload_traced(self):
        results = {w: self.check_run(w, 1)["metrics"] for w in sorted(run.WORKLOADS)}

        def value(workload, name):
            return results[workload][name]["value"]

        self.assertEqual(value("adversary_mixed", "hv.ksm_passes"), 0)
        self.assertGreater(value("churn_serial", "hv.ksm_passes"), 0)
        self.assertGreater(value("crossed_4t", "parallel.cross_deliveries"), 0)
        for workload in ("churn_serial", "adversary_mixed"):
            self.assertEqual(value(workload, "parallel.cross_deliveries"), 0)
            self.assertEqual(value(workload, "obs.trace_encode_ms.n"), 0)
            self.assertEqual(value(workload, "crypto.digest_ms.n"), 0)
        self.assertGreater(value("crossed_4t", "crypto.digest_mb"), 0)

    def test_wrong_reference_is_reported_as_failures(self):
        self.assertTrue(run.build())
        compute_reference = run.compute_reference
        for workload, field in (("churn_serial", "fleet_pages_sharing"),
                                ("crossed_4t", "digest"),
                                ("adversary_mixed", "tap_bytes")):
            with self.subTest(workload=workload):
                self.assertTrue(run.prepare(workload))
                reference = compute_reference(workload, 7, TINY_N[workload])
                self.assertIsNotNone(reference)
                reference[field] = "wrong" if field == "digest" else reference[field] + 1
                try:
                    run.compute_reference = lambda *args: reference
                    code, result = run_tiny(workload)
                finally:
                    run.compute_reference = compute_reference
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

if __name__ == "__main__":
    unittest.main()
