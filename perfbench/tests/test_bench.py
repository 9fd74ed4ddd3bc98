"""Tests of the benchmark's own code (no program runs needed).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import unittest
from collections import Counter
from unittest import mock

from perfbench import common, metrics, ops, tracer, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = workloads.load_json(workloads.TABLE_PATH)
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")
SECONDS = workloads.load_json(BENCHMARK)["run_seconds"]


class OpGeneratorTest(unittest.TestCase):

    def test_same_seed_same_ops(self):
        for name in ops.ROUNDS:
            first = ops.timed_ops(name, 7, SECONDS, TABLE)
            again = ops.timed_ops(name, 7, SECONDS, TABLE)
            self.assertEqual(first, again, name)
            self.assertEqual(ops.warmup_ops(name, 7, TABLE),
                             ops.warmup_ops(name, 7, TABLE))

    def test_other_seed_other_ops(self):
        for name in ops.ROUNDS:
            self.assertNotEqual(
                [op.spec for op in ops.timed_ops(name, 1, SECONDS, TABLE)],
                [op.spec for op in ops.timed_ops(name, 2, SECONDS, TABLE)],
                name)

    def test_class_counts_fixed(self):
        for name, per_round in ops.ROUNDS.items():
            rounds = ops.rounds_for(name, SECONDS)
            expected = {cls: n * rounds for cls, n in per_round.items()}
            for seed in range(1, 6):
                mix = Counter(op.cls
                              for op in ops.timed_ops(name, seed, SECONDS, TABLE))
                self.assertEqual(dict(mix), expected, (name, seed))

    def test_warmup_disjoint_from_timed(self):
        for name in ops.ROUNDS:
            warm = {op.key for op in ops.warmup_ops(name, 3, TABLE)}
            timed = {op.key for op in ops.timed_ops(name, 3, SECONDS, TABLE)
                     if op.cls != "repeat"}
            self.assertFalse(warm & timed, name)

    def test_repeats_follow_their_original_on_the_same_client(self):
        timed = ops.timed_ops("serve_mixed", 4, SECONDS, TABLE)
        position = {op.id: i for i, op in enumerate(timed)}
        for op in timed:
            if op.ref is None:
                continue
            original = timed[position[op.ref]]
            self.assertEqual(original.spec, op.spec)
            self.assertEqual(original.client, op.client)
            # the client is a closed loop: the original has completed
            # (and been cached) before the repeat is sent
            self.assertLess(position[op.ref], position[op.id])

    def test_every_op_has_a_table_entry(self):
        for name in ops.ROUNDS:
            for op in ops.timed_ops(name, 5, SECONDS, TABLE):
                specs = op.spec.get("cells", [op.spec])
                for spec in specs:
                    self.assertIn(ops.spec_key(spec), TABLE["entries"])


class PercentileTest(unittest.TestCase):

    def test_interpolation(self):
        self.assertEqual(common.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(common.percentile([5], 0.9), 5)
        self.assertAlmostEqual(
            common.percentile(list(range(101)), 0.9), 90.0)

    def test_sample_count_rule(self):
        self.assertEqual(common.allowed_tails(99), [])
        self.assertEqual(common.allowed_tails(100), ["p90"])
        self.assertEqual(common.allowed_tails(199), ["p90"])
        self.assertEqual(common.allowed_tails(200), ["p90", "p95"])
        self.assertEqual(common.allowed_tails(1000), ["p90", "p95", "p99"])

    def test_summary_reports_only_supported_tails(self):
        summary = common.latency_summary([0.1] * 150)
        self.assertEqual(set(summary), {"n", "p50", "p90"})
        self.assertEqual(summary["n"], 150)

    def test_spread(self):
        s = common.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(s["median"], 3.0)
        self.assertAlmostEqual(s["iqr_rel"], (4.5 - 1.5) / 3.0)


class CalibrationTest(unittest.TestCase):

    def test_scale_factor(self):
        self.assertEqual(common.scale_factor(0.1, 0.2), 0.5)
        self.assertEqual(common.scale_factor(0.2, 0.1), 2.0)
        with self.assertRaises(ValueError):
            common.scale_factor(0.1, 0.0)

    def test_calibrator_median_of_samples(self):
        fake = iter([0.3, 0.2, 0.1, 0.5])
        with mock.patch.object(common, "calibration_kernel",
                               lambda: next(fake)):
            calibrator = common.Calibrator()      # discards 0.3
            calibrator.sample(3)
        self.assertEqual(calibrator.samples, [0.2, 0.1, 0.5])
        self.assertEqual(calibrator.seconds, 0.2)

    def test_scaling_undoes_a_slow_host(self):
        # a host 25% slow: kernel and workload both take 1.25x as long
        factor = common.scale_factor(0.08, 0.08 * 1.25)
        self.assertAlmostEqual(2.0 * 1.25 * factor, 2.0)


class ExpectedTableTest(unittest.TestCase):

    def _entry(self, verdict_class):
        for entry in ops.table_entries(TABLE):
            if ops.classify(entry) == verdict_class:
                return ops.Op(0, verdict_class[1], entry["spec"])
        raise AssertionError(verdict_class)

    def test_match_and_mismatch(self):
        op = self._entry(("smt5", "s1-sat"))
        self.assertTrue(workloads.check(op, TABLE, "sat").ok)
        wrong = workloads.check(op, TABLE, "unsat")
        self.assertFalse(wrong.ok)
        self.assertIn("expected sat", wrong.error)
        self.assertFalse(workloads.check(op, TABLE,
                                         "certificate_error").ok)

    def test_undecided_entry_decided_run_needs_reverification(self):
        op = self._entry(("smt14", "ieee14-budget"))
        undecided = workloads.check(op, TABLE, "undecided")
        self.assertTrue(undecided.ok)
        self.assertFalse(undecided.resolved)
        decided = workloads.check(op, TABLE, "sat")
        self.assertTrue(decided.ok and decided.resolved and decided.reverify)

    def test_missing_entry_fails(self):
        op = ops.Op(0, "x", ops.analyze_spec("ieee57", "fast", None))
        result = workloads.check(op, TABLE, "sat")
        self.assertFalse(result.ok)
        self.assertIn("no expected entry", result.error)

    def test_bracket(self):
        op = ops.Op(0, "max", ops.maximize_spec("5bus-study1", False,
                                                ops.MAX_TOLERANCES[0]))
        good = {"status": "complete", "lo": "35/8", "hi": "9/2"}
        self.assertTrue(workloads.check(op, TABLE, "sat", good).ok)
        bad = dict(good, lo="17/4")
        self.assertFalse(workloads.check(op, TABLE, "sat", bad).ok)

    def test_paper_case_study_entries(self):
        op = ops.Op(0, "s", ops.analyze_spec(
            "5bus-study1", "smt", 3, max_pivots=ops.PIVOT_BUDGET))
        entry = TABLE["entries"][op.key]
        self.assertEqual(entry["verdict"], "sat")
        self.assertEqual(round(entry["achieved_percent"], 2), 4.36)


class SelfTimeTest(unittest.TestCase):

    def test_self_times_on_a_synthetic_tree(self):
        clock = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 10.0])
        t = tracer.Tracer(clock=lambda: next(clock))
        t.op = 4
        root = t.enter("op")            # 0
        a = t.enter("a")                # 1
        b = t.enter("b")                # 2
        t.exit(b)                       # 3: b = 1
        t.exit(a)                       # 5: a = 4, self 3
        c = t.enter("c")                # 6
        t.exit(c)                       # 9: c = 3
        t.exit(root)                    # 10: op = 10, self 10-4-3=3
        totals = t.totals()
        self.assertEqual(totals["a"].seconds, 4.0)
        self.assertEqual(totals["a"].self_seconds, 3.0)
        self.assertEqual(totals["b"].self_seconds, 1.0)
        self.assertEqual(totals["op"].self_seconds, 3.0)
        self.assertEqual(t.self_sum(), 10.0)
        self.assertTrue(all(span.op == 4 for span in t.spans))
        self.assertEqual(t.spans[b].parent, a)

    def test_out_of_order_exit_rejected(self):
        t = tracer.Tracer()
        outer = t.enter("outer")
        t.enter("inner")
        with self.assertRaises(RuntimeError):
            t.exit(outer)


class DeclarationTest(unittest.TestCase):

    def test_benchmark_json_matches_metric_lists(self):
        with open(BENCHMARK) as handle:
            declared = json.load(handle)
        self.assertEqual([(m["name"], m["unit"])
                          for m in declared["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in declared["per_layer"]],
                         metrics.PER_LAYER)
        self.assertEqual({w["name"] for w in declared["workloads"]},
                         set(ops.ROUNDS))
