#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark like run.py does, then checks that inputs are a
pure function of the seed, that the benchmark binary declares exactly the
workloads and metrics BENCHMARK.json names, and runs the C++
percentile self-test.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (the benchmark's launcher: build())

BUILD_DIR = run.build()
BINARY = str(BUILD_DIR / "perfbench")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def perfbench(*args):
    proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                          check=True, timeout=120)
    return proc.stdout.strip()


class InputsTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in ("pnpp-w1", "dgcnn-w6", "serve-4x2k"):
            with self.subTest(workload=name):
                self.assertEqual(perfbench("--inputs-digest", name, "7"),
                                 perfbench("--inputs-digest", name, "7"))

    def test_different_seeds_differ(self):
        for name in ("pnpp-w1", "dgcnn-w6", "serve-4x2k"):
            with self.subTest(workload=name):
                digests = {perfbench("--inputs-digest", name, str(seed))
                           for seed in (1, 2, 3)}
                self.assertEqual(len(digests), 3)


class DeclaredNamesTest(unittest.TestCase):
    def setUp(self):
        self.described = json.loads(perfbench("--describe"))

    def test_workloads(self):
        self.assertEqual(self.described["workloads"],
                         [w["name"] for w in SPEC["workloads"]])

    def test_metrics(self):
        for key in ("end_to_end", "per_layer"):
            with self.subTest(kind=key):
                self.assertEqual(
                    [(m["name"], m["unit"]) for m in self.described[key]],
                    [(m["name"], m["unit"]) for m in SPEC[key]])

    def test_command(self):
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])


class PercentileTest(unittest.TestCase):
    def test_tail_omitted_without_ten_beyond(self):
        proc = subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
