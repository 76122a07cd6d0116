#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale.

Runs run.py --tiny on each workload, untraced and traced, and asserts
that each run is correct, that every metric BENCHMARK.json names is in
the result line with its unit, that the report prints each end-to-end
metric of the workload with its unit, and that the attribution rows sum
to the traced wall clock.  Builds the benchmark first if needed.

    python3 perfbench/smoke_test.py
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The end-to-end metrics each workload reports (README.md, "Metrics").
APPLIES = {
    "train": {"setup_s", "peak_rss_mb", "wall_s", "r2_state", "r2_be"},
    "orchestrate": {"setup_s", "peak_rss_mb", "wall_s", "failed_pct",
                    "sim_s_per_host_s", "decision_p50_us",
                    "decision_p99_us", "be_exec_p50_s", "be_exec_p95_s",
                    "offload_pct"},
    "serve": {"setup_s", "peak_rss_mb", "wall_s", "failed_pct",
              "decisions_per_s", "decision_p50_us", "decision_p99_us",
              "offload_pct"},
    "rack": {"setup_s", "peak_rss_mb", "wall_s", "failed_pct",
             "sim_s_per_host_s", "be_exec_p50_s", "be_exec_p95_s",
             "offload_pct"},
}

# Workloads that also run their inputs at the default thread count.
POOLED = {"train", "serve"}

NUMBER = r"-?[0-9.]+(?:e[-+]?[0-9]+)?"


def run(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         "--tiny"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def section(lines, title):
    """Rows of one report table: the indented lines after its title."""
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    rows = []
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        rows.append(line.split())
    return rows


class Smoke(unittest.TestCase):
    def check_workload(self, workload):
        # At tiny scale serve's open loop offers 2048 requests, enough
        # for a p99; the traced run halves the time of each phase.
        for trace, seconds in ((0, 2), (1, 4)):
            with self.subTest(trace=trace):
                code, report, result = run(workload, trace, seconds)
                self.assertEqual(code, 0, "\n".join(report))
                self.assertTrue(result["correct"], "\n".join(report))
                self.assertGreaterEqual(result["attempted"], 1)

                wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in wanted})
                for metric in wanted:
                    self.assertEqual(
                        result["metrics"][metric["name"]]["unit"],
                        metric["unit"], metric["name"])

                printed = {row[0]: row[1:]
                           for row in section(report, "end-to-end")}
                for name in APPLIES[workload]:
                    self.assertIn(name, printed)
                    value_unit = printed[name][:2]
                    self.assertEqual(len(value_unit), 2, name)
                    self.assertRegex(value_unit[0], NUMBER, name)
                for name in set(printed) - APPLIES[workload]:
                    self.assertEqual(printed[name], ["-"], name)
                if workload in POOLED:
                    threaded = {row[0] for row in section(
                        report, "end-to-end at default threads")}
                    self.assertIn("wall_s", threaded)

                if trace:
                    rows = section(report, "attribution")
                    names = [row[0] for row in rows]
                    self.assertIn("unattributed", names)
                    cut = names.index("sum")
                    total = sum(float(row[1]) for row in rows[:cut])
                    wall = float(rows[-1][3])
                    self.assertAlmostEqual(total, wall,
                                           delta=1e-3 * max(wall, 1.0))

    def test_train(self):
        self.check_workload("train")

    def test_orchestrate(self):
        self.check_workload("orchestrate")

    def test_serve(self):
        self.check_workload("serve")

    def test_rack(self):
        self.check_workload("rack")


if __name__ == "__main__":
    unittest.main()
