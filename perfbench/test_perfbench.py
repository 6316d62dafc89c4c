#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Smoke runs of every workload at the tiny size, the negative cases that must
count as failed operations, the output contract against BENCHMARK.json, and
mmog_lint over the driver sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

BUILD_DIR = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))


def benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(*args, cwd=REPO, script=os.path.join(HERE, "run.py")):
    """Runs the benchmark; returns (exit code, last stdout line as JSON or
    None, stderr)."""
    proc = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


def tiny(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny", *extra)


class SmokeTest(unittest.TestCase):
    def check_result(self, result, names):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)

    def test_end_to_end_metrics_of_every_workload(self):
        spec = benchmark_json()
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                rc, result, err = tiny(workload, 0)
                self.assertEqual(rc, 0, err)
                self.check_result(result, units)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                    self.assertEqual(metric["unit"], units[name])

    def test_traced_run_records_every_layer_call(self):
        spec = benchmark_json()
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        expected_spans = {
            "paper-neural": ["trace.read", "nn.train", "core.simulate",
                             "obs.report"],
            "fleet-faulted": ["input.generate", "core.simulate",
                              "obs.report"],
            "paper-checkpointed": ["trace.read", "core.simulate",
                                   "ckpt.serialize", "obs.report",
                                   "ckpt.parse", "core.resume"],
        }
        for workload, spans in expected_spans.items():
            with self.subTest(workload=workload):
                rc, result, err = tiny(workload, 1)
                self.assertEqual(rc, 0, err)
                self.check_result(result, units)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                for span in spans:
                    self.assertGreater(metrics["span.%s.self_s" % span], 0,
                                       span)
                self.assertGreater(metrics["tracing.overhead_ratio"], 0)
                self.assertGreater(metrics["core.step_us"], 0)
                self.assertGreater(metrics["dc.offers_matched"], 0)

    def test_same_seed_gives_same_inputs(self):
        driver = os.path.join(BUILD_DIR, "perfbench_driver")
        with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
            texts = []
            for i, seed in enumerate(("5", "5", "6")):
                out = os.path.join(tmp, "t%d.csv" % i)
                subprocess.run([driver, "gen", "--workload", "paper-neural",
                                "--size", "tiny", "--seed", seed, "--out",
                                out], check=True)
                with open(out, "rb") as f:
                    texts.append(f.read())
        self.assertEqual(texts[0], texts[1])
        self.assertNotEqual(texts[0], texts[2])


class NegativeTest(unittest.TestCase):
    def assert_all_failed(self, workload, trace, inject):
        rc, result, err = tiny(workload, trace, "--inject", inject)
        self.assertEqual(rc, 0, err)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        return err

    def test_corrupted_snapshot_counts_as_failed(self):
        err = self.assert_all_failed("paper-checkpointed", 0,
                                     "corrupt-snapshot")
        self.assertIn("checksum mismatch", err)

    def test_perturbed_snapshot_fails_the_resume_comparison(self):
        err = self.assert_all_failed("paper-checkpointed", 0,
                                     "perturb-snapshot")
        self.assertIn("resumed and uninterrupted outcomes differ", err)

    def test_perturbed_outcome_counts_as_failed(self):
        err = self.assert_all_failed("fleet-faulted", 0, "perturb-outcome")
        self.assertIn("plain and observed outcomes differ", err)

    def test_perturbed_outcome_fails_the_traced_comparison(self):
        err = self.assert_all_failed("paper-neural", 1, "perturb-outcome")
        self.assertIn("observed and traced outcomes differ", err)


class ContractTest(unittest.TestCase):
    def test_layer_map_covers_every_per_layer_metric(self):
        spec = benchmark_json()
        with open(os.path.join(HERE, "layer_map.json")) as f:
            layers = json.load(f)["metrics"]
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [m["name"] for m in layers])
        e2e = {m["name"] for m in spec["end_to_end"]}
        for m in layers:
            self.assertLessEqual(set(m["moves"]), e2e, m["name"])
            self.assertLessEqual(set(m["workloads"]), set(run.WORKLOADS),
                                 m["name"])

    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env_free = dict(os.environ)
            env_free.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fleet-faulted", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env_free, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class LintTest(unittest.TestCase):
    """The driver is held to the repository's own static-analysis rules
    (wall-clock, raw-ofstream, layering, ...). mmog_lint --repo walks a
    fixed set of roots, so the sources are staged under tools/ of a copy."""

    @classmethod
    def setUpClass(cls):
        run.build(BUILD_DIR)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "perfbench_lint"], check=True,
                       stdout=subprocess.DEVNULL)
        cls.lint = os.path.join(BUILD_DIR, "perfbench_lint")

    def lint_staged(self, extra=None):
        with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
            shutil.copytree(os.path.join(REPO, "src"),
                            os.path.join(tmp, "src"))
            staged = os.path.join(tmp, "tools", "perfbench")
            os.makedirs(staged)
            for name in os.listdir(HERE):
                if name.endswith((".cpp", ".hpp")):
                    shutil.copy(os.path.join(HERE, name), staged)
            if extra:
                with open(os.path.join(staged, "planted.cpp"), "w") as f:
                    f.write(extra)
            return subprocess.run([self.lint, "--repo", tmp],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)

    def test_driver_lints_clean(self):
        proc = self.lint_staged()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("0 finding(s)", proc.stdout + proc.stderr)

    def test_lint_sees_the_staged_sources(self):
        proc = self.lint_staged(
            "#include <chrono>\n#include <fstream>\n"
            "void f() { std::ofstream out(\"x\");\n"
            "  auto t = std::chrono::system_clock::now(); (void)t; }\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("raw-ofstream", proc.stdout + proc.stderr)
        self.assertIn("wall-clock", proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
