"""Self-test of the benchmark itself, at toy size (about 20 s on 2 cores).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` lists exactly the metrics the code reports,
that every workload shape runs at toy size with every end-to-end and
per-layer metric present with its unit, that the traced run's self times add
up to its wall time, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Self times are wall time minus child spans, so over one command they add up
# to its wall time; only the clock reads between the two differ.
SELF_TIME_TOLERANCE = 0.02

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
OUT = os.path.join(ROOT, ".bench_work", "selftest")


def _toy_run(workload: str, trace: bool) -> tuple[dict, dict]:
    return run.run(workload, seed=7, seconds=0, trace=trace, toy=True, out_dir=OUT)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.spec = json.load(f)

    def test_lists_what_the_code_reports(self):
        spec = self.spec
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertLessEqual(len(spec["per_layer"]), 128)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_names_and_units_are_well_formed(self):
        entries = self.spec["workloads"] + self.spec["end_to_end"] + self.spec["per_layer"]
        names = [e["name"] for e in entries]
        self.assertEqual(len(names), len(set(names)))
        for e in entries:
            self.assertRegex(e["name"], NAME)
            if "unit" in e:
                self.assertRegex(e["unit"], UNIT)
        for e in self.spec["end_to_end"]:
            self.assertLessEqual(e["bound"], 0.25)


class ToyWorkloads(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(OUT, ignore_errors=True)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                final, record = _toy_run(workload, trace=False)
                self.assertEqual(record["errors"], [])
                self.assertTrue(final["correct"])
                self.assertEqual(final["failed"], 0)
                self.assertGreaterEqual(final["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in final["metrics"].items()},
                                 dict(run.END_TO_END))
                for value in final["metrics"].values():
                    self.assertGreater(value["value"], 0.0)

    def test_traced_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                final, record = _toy_run(workload, trace=True)
                self.assertEqual(record["errors"], [])
                self.assertTrue(final["correct"])
                self.assertEqual({k: v["unit"] for k, v in final["metrics"].items()},
                                 dict(run.PER_LAYER))
                spans_path = os.path.join(OUT, f"{workload}-seed7-trace1-toy.spans.jsonl")
                with open(spans_path, encoding="utf-8") as f:
                    spans = [json.loads(line) for line in f]
                own = {s["id"]: s["end"] - s["start"] for s in spans}
                for s in spans:
                    if s["parent"] >= 0:
                        own[s["parent"]] -= s["end"] - s["start"]
                self.assertGreater(min(own.values()), -1e-6)
                total = sum(own.values())
                wall = record["traced_wall_s"]
                self.assertLess(abs(total - wall), SELF_TIME_TOLERANCE * wall)
                layers_ms = sum(v["value"] for k, v in final["metrics"].items()
                                if k.endswith(".ms") and not k.startswith("trace."))
                self.assertLess(abs(layers_ms / 1000.0 - wall), SELF_TIME_TOLERANCE * wall)


class RefusesWithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dense_eval",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
