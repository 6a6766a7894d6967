#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 -m unittest e2ebench/test_e2ebench.py

Builds the benchmark (e2ebench/run.py) and runs every workload for one
pass, untraced and traced. Checks that the printed workload and metric
names and units are the ones BENCHMARK.json declares, that a correct
build reports no failed operation, and that a wrong pinned grid digest is
reported as failed operations in a normal result, not as a crash.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra, seed="1"):
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(res["metrics"][m["name"]]["value"], (int, float))

    def test_every_workload_prints_the_declared_metrics(self):
        for w in self.spec["workloads"]:
            for trace, declared in ((0, self.spec["end_to_end"]),
                                    (1, self.spec["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    res = result(proc)
                    self.check_metrics(res, declared)
                    self.assertTrue(res["correct"], proc.stdout[-3000:])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)

    def test_unknown_workload_is_refused(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_wrong_pinned_digest_is_a_failed_operation(self):
        proc = run("grid_mixed", 0, "--expect-digest", "0000000000000000")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("digest", proc.stdout)


if __name__ == "__main__":
    unittest.main()
