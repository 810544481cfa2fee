"""Self-tests of the benchmark's own metric code.

``run.py`` runs them before every measurement and refuses to measure if
one fails.  By hand, from the repository root::

    PYTHONPATH=src python3 -m unittest soibench.selftest
"""

from __future__ import annotations

import io
import statistics
import unittest

from .metrics import (
    due_latencies,
    percentile,
    quartile_spread,
    ratio_of_medians,
    self_time,
    tail,
)
from .tracer import Tracer


class TailRule(unittest.TestCase):
    def test_leaves_ten_beyond(self):
        values = list(range(1, 101))          # 1..100
        value, q, n = tail(values)
        self.assertEqual((value, q, n), (90, 0.9, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_highest_such_percentile(self):
        values = [float(v) for v in range(37)]
        value, q, n = tail(values)
        # One rank higher would leave only nine samples beyond.
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(percentile(values, q), value)
        self.assertEqual(n, 37)

    def test_order_free(self):
        self.assertEqual(tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12]), (2, 2 / 12, 12))

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 1.0, 3))
        self.assertEqual(tail(list(range(10))), (9, 1.0, 10))

    def test_percentile_nearest_rank(self):
        values = list(range(1, 201))
        self.assertEqual(percentile(values, 0.99), 198)
        self.assertEqual(percentile(values, 0.5), 100)
        self.assertEqual(percentile([7.0], 0.99), 7.0)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(self_time(0, 10, []), 10)

    def test_disjoint_children(self):
        self.assertEqual(self_time(0, 10, [(1, 3), (5, 6)]), 7)

    def test_overlapping_children_counted_once(self):
        # Two ranks' spans overlap: only their union is subtracted.
        self.assertEqual(self_time(0, 10, [(1, 5), (3, 7), (6, 8)]), 3)

    def test_children_clipped_to_parent(self):
        self.assertEqual(self_time(2, 10, [(0, 4), (9, 12)]), 5)
        self.assertEqual(self_time(2, 10, [(11, 12)]), 8)

    def test_tracer_nesting_and_self_time(self):
        tr = Tracer()
        with tr.span("outer", op=1):
            with tr.span("inner", op=1):
                sum(range(20000))
        outer = next(s for s in tr.spans if s.name == "outer")
        inner = next(s for s in tr.spans if s.name == "inner")
        self.assertEqual(inner.parent, outer.sid)
        self.assertIsNone(outer.parent)
        selfs = tr.self_times_ns()
        self.assertEqual(selfs[outer.sid], outer.wall_ns - inner.wall_ns)
        self.assertEqual(selfs[inner.sid], inner.wall_ns)
        self.assertGreaterEqual(outer.busy_ns, 0)


class DueTimeLatency(unittest.TestCase):
    def test_stall_is_charged_to_the_requests_it_delayed(self):
        # Requests due every 10 ms; a stall holds all three until t=0.5.
        due = [0.00, 0.01, 0.02]
        done = [0.50, 0.50, 0.50]
        self.assertEqual(
            [round(v, 9) for v in due_latencies(due, done)], [0.5, 0.49, 0.48]
        )

    def test_pairs_must_match(self):
        with self.assertRaises(ValueError):
            due_latencies([0.0], [])


class RatioMetrics(unittest.TestCase):
    def test_ratio_of_medians(self):
        self.assertEqual(ratio_of_medians([4, 8, 6], [1, 2, 3]), 3.0)

    def test_drift_cancels_when_interleaved(self):
        # The host slows down 2x halfway through; interleaved samples of
        # both sides see the same slowdown, so the ratio is unchanged.
        speed = [1.0] * 5 + [2.0] * 5
        soi = [5.0 * s for s in speed]
        ref = [1.0 * s for s in speed]
        self.assertEqual(ratio_of_medians(soi, ref), 5.0)

    def test_workload_ratios(self):
        from .workloads import Workload

        class Canned(Workload):
            name = "canned"
            rounds = iter([(0.06, 0.01, 0.001)] + [(6.0, 2.0, 0.5), (8.0, 4.0, 1.0), (7.0, 3.0, 2.0)])
            seen = []

            def ratio_round(self, bursts):
                self.seen.append(bursts)
                return next(self.rounds)

        wl = Canned(0)
        got = wl.ratios(0.0)
        # The first round warms up, sizes the bursts, and is discarded.
        self.assertEqual(wl.seen, [(1, 1, 1)] + [(1, 3, 30)] * 3)
        self.assertEqual(got["rounds"], 3)
        self.assertEqual(got["dist_over_seq"], 7.0 / 3.0)
        self.assertEqual(got["soi_over_numpy"], 3.0 / 1.0)

    def test_rejects_zero_denominator(self):
        with self.assertRaises(ValueError):
            ratio_of_medians([1.0], [0.0])


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(quartile_spread(values), (q3 - q1) / q2)


def passes() -> tuple[bool, str]:
    """Run every self-test; returns (all passed, the runner's report)."""
    suite = unittest.defaultTestLoader.loadTestsFromName(__name__)
    out = io.StringIO()
    result = unittest.TextTestRunner(stream=out, verbosity=0).run(suite)
    return result.wasSuccessful(), out.getvalue()
