#!/usr/bin/env python3
"""Unit tests for bench_history.py's (bench, config) keying and gating.

Run directly (CI does): python3 tools/bench_history_test.py
Stdlib only, no test framework assumptions beyond unittest.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_history


def record(bench, config, sha="cafe", **metrics):
    row = {"bench": bench, "config": config, "git_sha": sha}
    row.update(metrics)
    return row


class HistoryKeyTest(unittest.TestCase):
    def test_key_is_bench_plus_canonical_config(self):
        a = record("throughput", {"machine": "default", "jobs": 8})
        b = record("throughput", {"jobs": 8, "machine": "default"})
        self.assertEqual(
            bench_history.history_key(a), bench_history.history_key(b)
        )

    def test_distinct_configs_are_distinct_lanes(self):
        a = record("throughput", {"machine": "default"})
        b = record("throughput", {"machine": "dense45"})
        self.assertNotEqual(
            bench_history.history_key(a), bench_history.history_key(b)
        )

    def test_missing_config_is_its_own_lane(self):
        a = record("throughput", None)
        del a["config"]
        b = record("throughput", {"machine": "default"})
        self.assertNotEqual(
            bench_history.history_key(a), bench_history.history_key(b)
        )

    def test_nested_config_order_does_not_matter(self):
        a = record("x", {"rig": {"banks": 4, "regs": 64}})
        b = record("x", {"rig": {"regs": 64, "banks": 4}})
        self.assertEqual(
            bench_history.history_key(a), bench_history.history_key(b)
        )


class MainFlowTest(unittest.TestCase):
    """End-to-end through main(): history on disk, artifacts as files."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.history = os.path.join(self.dir.name, "history.jsonl")

    def tearDown(self):
        self.dir.cleanup()

    def write_artifact(self, name, row):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(row, handle)
        return path

    def run_main(self, artifacts, *extra):
        return bench_history.main(
            list(artifacts) + ["--history", self.history] + list(extra)
        )

    def history_rows(self):
        with open(self.history, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def test_same_config_regression_trips_the_gate(self):
        base = self.write_artifact(
            "a.json",
            record("throughput", {"machine": "default"}, functions_per_sec=100.0),
        )
        self.assertEqual(self.run_main([base]), 0)
        slow = self.write_artifact(
            "b.json",
            record("throughput", {"machine": "default"}, functions_per_sec=10.0),
        )
        self.assertEqual(self.run_main([slow], "--fail-on-drop", "0.5"), 1)
        # The failing run is still appended — next time it is the baseline.
        self.assertEqual(len(self.history_rows()), 2)

    def test_other_machines_history_is_not_a_baseline(self):
        base = self.write_artifact(
            "a.json",
            record("throughput", {"machine": "default"}, functions_per_sec=100.0),
        )
        self.assertEqual(self.run_main([base]), 0)
        # Far slower, but on another machine config: a fresh lane, no gate.
        dense = self.write_artifact(
            "b.json",
            record("throughput", {"machine": "dense45"}, functions_per_sec=5.0),
        )
        self.assertEqual(self.run_main([dense], "--fail-on-drop", "0.5"), 0)
        # Back on default with matching numbers: compared, and clean.
        again = self.write_artifact(
            "c.json",
            record("throughput", {"machine": "default"}, functions_per_sec=99.0),
        )
        self.assertEqual(self.run_main([again], "--fail-on-drop", "0.5"), 0)
        self.assertEqual(len(self.history_rows()), 3)

    def test_artifacts_in_one_run_chain_within_their_lane(self):
        first = self.write_artifact(
            "a.json", record("x", {"machine": "small"}, rate=100.0)
        )
        second = self.write_artifact(
            "b.json", record("x", {"machine": "small"}, rate=10.0)
        )
        self.assertEqual(
            self.run_main([first, second], "--fail-on-drop", "0.5"), 1
        )

    def test_measured_values_share_the_config_lane(self):
        # Secondary measurements vary run to run; they sit outside the
        # config, so two runs of one bench land in one lane and a drop
        # in a gated metric is actually compared.
        base = record("service", {"jobs": 2}, functions_per_sec=100.0)
        base["measured"] = {"functions_per_sec_cold": 94.2}
        slow = record("service", {"jobs": 2}, functions_per_sec=50.0)
        slow["measured"] = {"functions_per_sec_cold": 51.7}
        self.assertEqual(
            bench_history.history_key(base), bench_history.history_key(slow)
        )
        first = self.write_artifact("a.json", base)
        self.assertEqual(self.run_main([first]), 0)
        second = self.write_artifact("b.json", slow)
        self.assertEqual(
            self.run_main(
                [second],
                "--fail-on-drop",
                "0.2",
                "--fail-metrics",
                "functions_per_sec",
            ),
            1,
        )

    def test_fail_metrics_restricts_the_gate(self):
        base = self.write_artifact(
            "a.json",
            record("x", {"machine": "default"}, rate=100.0, noise=100.0),
        )
        self.assertEqual(self.run_main([base]), 0)
        drop = self.write_artifact(
            "b.json",
            record("x", {"machine": "default"}, rate=100.0, noise=1.0),
        )
        self.assertEqual(
            self.run_main(
                [drop], "--fail-on-drop", "0.5", "--fail-metrics", "rate"
            ),
            0,
        )


if __name__ == "__main__":
    unittest.main()
