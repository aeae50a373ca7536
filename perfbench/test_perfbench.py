#!/usr/bin/env python3
"""Determinism and output-format test of the benchmark.

Runs ingest and select_wide at small size (--small 1) twice with one seed
and asserts that both runs did the same work: equal work digests, equal
exact counts, and equal ring-quality metrics. Also checks that the metric
names each mode prints are exactly the ones BENCHMARK.json declares, and
that a run outside a full checkout fails without printing a result.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Metrics that depend only on the work done, never on timing.
EXACT = ("ring_size_mean", "strict_frac", "ok_frac")


def run(workload, seed, trace=0, small=1, seconds=1):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--small",
         str(small)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, lines, result


def work_lines(lines):
    return [l for l in lines
            if l.startswith("# work digest") or l.startswith("# counts")]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


class SameSeedSameWork(unittest.TestCase):

    def check_repeats(self, workload):
        code_a, lines_a, a = run(workload, seed=7)
        code_b, lines_b, b = run(workload, seed=7)
        self.assertEqual(code_a, 0, "\n".join(lines_a))
        self.assertEqual(code_b, 0, "\n".join(lines_b))
        self.assertTrue(a["correct"] and b["correct"])
        self.assertEqual(len(work_lines(lines_a)), 2)
        self.assertEqual(work_lines(lines_a), work_lines(lines_b))
        self.assertEqual((a["attempted"], a["failed"]),
                         (b["attempted"], b["failed"]))
        for name in EXACT:
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)

        code_c, lines_c, _ = run(workload, seed=8)
        self.assertEqual(code_c, 0)
        self.assertNotEqual(work_lines(lines_a)[0], work_lines(lines_c)[0],
                            "another seed must give other work")

    def test_ingest(self):
        self.check_repeats("ingest")

    def test_select_wide(self):
        self.check_repeats("select_wide")


class OutputFormat(unittest.TestCase):

    def test_metric_names_match_benchmark_json(self):
        end_to_end, per_layer = declared()
        for trace, names in ((0, end_to_end), (1, per_layer)):
            code, lines, result = run("select_wide", seed=3, trace=trace)
            self.assertEqual(code, 0, "\n".join(lines))
            self.assertEqual(sorted(result["metrics"]), sorted(names))
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})

    def test_fails_outside_a_checkout(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=build_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ingest",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180,
                check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("\"metrics\"", done.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
