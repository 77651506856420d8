#!/usr/bin/env python3
"""Tests of the gpx benchmark itself, at tiny scale.

    python3 perfbench/test_perfbench.py

Run from the root of a gpx checkout; the first test builds the
benchmark (into $CARGO_TARGET_DIR or .bench_build, like run.py).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("giab_batch", "err4_batch", "serve_clean")


def bench(workload, trace, seed=7, extra=(), cwd=ROOT, env=None):
    """Run run.py at tiny scale; return (exit code, report, result)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2]) if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, report, result


class MetricsTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, report, result = bench(workload, trace)
                    self.assertEqual(code, 0, report and report["problems"])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    for ctx in ("nproc", "simd_backend", "simd_reason",
                                "gpx_version", "seed", "threads", "pairs",
                                "why"):
                        self.assertIn(ctx, report["context"])


class DigestTest(unittest.TestCase):
    def test_traced_output_equals_untraced(self):
        # The traced run itself compares a traced replay against the
        # untraced path; its digest must also equal a plain run's.
        for workload in ("giab_batch", "serve_clean"):
            with self.subTest(workload=workload):
                code0, report0, _ = bench(workload, 0, seed=11)
                code1, report1, _ = bench(workload, 1, seed=11)
                self.assertEqual((code0, code1), (0, 0))
                self.assertEqual(report0["digest"], report1["digest"])


class CorruptionTest(unittest.TestCase):
    def assertCaught(self, workload, trace, what):
        code, report, result = bench(workload, trace, seed=13,
                                     extra=("--corrupt", what))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(report["problems"])

    def test_corrupted_sam_is_caught(self):
        self.assertCaught("giab_batch", 0, "sam")

    def test_corrupted_traced_sam_is_caught(self):
        self.assertCaught("err4_batch", 1, "sam")

    def test_corrupted_reply_is_caught(self):
        self.assertCaught("serve_clean", 0, "reply")


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        env = dict(os.environ)
        target = env.get("CARGO_TARGET_DIR") or ".bench_build"
        if not os.path.isabs(target):
            target = os.path.join(ROOT, target)
        bare = os.path.join(target, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env["CARGO_TARGET_DIR"] = ".bench_build"
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "giab_batch", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
