"""Serving gates: a 64-client closed loop in coalesced and one-at-a-time
modes, a burst far past capacity, a warmed plan cache, and the serve
conformance rows.

No throughput is asserted — a loaded CI box cannot promise one.  The
structural guarantees must hold at any speed: every ticket resolves as
exactly one typed outcome (no hangs), the admission counters match the
ticket outcomes, a warmed server builds no plan in band, and coalesced
results are bitwise the one-at-a-time results.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.check.conformance import run_conformance
from repro.dft.cache import plan_cache_info
from repro.serve import PRIORITY_CLASSES, ServeConfig, TransformServer
from repro.serve.errors import AdmissionRejected, DeadlineExceeded

PRIORITIES = ("interactive", "batch", "best_effort")
CLIENTS = 64
RESULT_TIMEOUT = 60.0

#: name -> (n, submit kwargs, ServeConfig kwargs)
CASES = {
    "serve-transpose-4096": (
        4096, {"backend": "transpose", "library": "numpy", "nranks": 4},
        {"workers": 1, "max_queue": 256, "max_batch": 32, "batch_linger_s": 0.001},
    ),
    "serve-dft-numpy-4096": (
        4096, {"backend": "dft", "library": "numpy"},
        {"workers": 2, "max_queue": 256, "max_batch": 64,
         "batch_linger_s": 0.0005, "warm_shapes": (4096,)},
    ),
    "serve-dft-repro-256": (
        256, {"backend": "dft", "library": "repro"},
        {"workers": 2, "max_queue": 256, "max_batch": 64,
         "batch_linger_s": 0.0005, "warm_shapes": (256,)},
    ),
}


def _payloads(n, count=4):
    gen = np.random.default_rng(n % 99991)
    return [gen.standard_normal(n) + 1j * gen.standard_normal(n) for _ in range(count)]


def _closed_loop(cfg, n, submit_kwargs):
    """Each of CLIENTS threads submits one request and waits for it."""
    xs = _payloads(n)
    errors = []
    with TransformServer(cfg) as srv:
        def client(ci):
            try:
                srv.submit(
                    xs[ci % len(xs)], priority=PRIORITIES[ci % len(PRIORITIES)],
                    **submit_kwargs,
                ).result(timeout=RESULT_TIMEOUT)
            except Exception as exc:  # counted by the tests
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=2 * RESULT_TIMEOUT)
        assert not any(t.is_alive() for t in threads)
        return srv.metrics_report(), errors


@pytest.fixture(scope="module")
def cases():
    out = {}
    for name, (n, submit_kwargs, cfg_kwargs) in CASES.items():
        out[name] = {
            "batched": _closed_loop(ServeConfig(coalesce=True, **cfg_kwargs),
                                    n, submit_kwargs),
            "serial": _closed_loop(
                ServeConfig(coalesce=False, **{**cfg_kwargs, "batch_linger_s": 0.0}),
                n, submit_kwargs),
        }
    return out


@pytest.fixture(scope="module")
def overload():
    """120 submissions at one worker and a 16-deep queue."""
    submitted = 120
    cfg = ServeConfig(workers=1, max_queue=16, max_batch=8, coalesce=True,
                      batch_linger_s=0.002, default_library="numpy")
    xs = _payloads(4096, count=2)
    tickets, rejected_sync = [], 0
    with TransformServer(cfg) as srv:
        for i in range(submitted):
            # A deadline tighter than one batch window on half the
            # interactive class exercises the deadline-shed path.
            kwargs = {"deadline_s": 0.001} if i % 6 == 0 else {}
            try:
                tickets.append(srv.submit(
                    xs[i % 2], priority=PRIORITIES[i % len(PRIORITIES)], **kwargs
                ))
            except AdmissionRejected:
                rejected_sync += 1
            if i % 64 == 63:
                time.sleep(0.002)  # let the worker drain between sub-bursts
        outcomes = {"ok": 0, "shed": 0, "deadline": 0, "hang": 0, "other_error": 0}
        for ticket in tickets:
            try:
                ticket.result(timeout=RESULT_TIMEOUT)
                outcomes["ok"] += 1
            except AdmissionRejected:
                outcomes["shed"] += 1
            except DeadlineExceeded:
                outcomes["deadline"] += 1
            except TimeoutError:
                outcomes["hang"] += 1
            except Exception:
                outcomes["other_error"] += 1
        counters = srv.admission_counters()
    return {"submitted": submitted, "rejected_sync": rejected_sync,
            "outcomes": outcomes, "counters": counters}


@pytest.fixture(scope="module")
def cache():
    """Serve the warm shapes of a warmed server; count plan-cache traffic."""
    shapes = (512, 8192)
    cfg = ServeConfig(workers=1, warm_shapes=shapes, default_library="repro")
    with TransformServer(cfg) as srv:
        after_warm = plan_cache_info()
        xs = {n: _payloads(n, count=1)[0] for n in shapes}
        for ticket in [srv.submit(xs[n], backend="dft", library="repro")
                       for n in shapes for _ in range(8)]:
            ticket.result(timeout=RESULT_TIMEOUT)
        after_serve = plan_cache_info()
    return {"hits": after_serve["hits"] - after_warm["hits"],
            "misses": after_serve["misses"] - after_warm["misses"]}


@pytest.fixture(scope="module")
def consistency():
    return run_conformance("small", groups=("serve",))


class TestPayloadSchema:
    def test_schema_tag(self, cases):
        """Reports are keyed by the server's priority classes."""
        for case in cases.values():
            for report, _ in case.values():
                assert set(report["classes"]) <= set(PRIORITY_CLASSES)

    def test_json_serialisable(self, cases):
        for case in cases.values():
            for report, _ in case.values():
                assert json.loads(json.dumps(report)) == report

    def test_gates_all_pass(self, overload, cache, consistency):
        TestOverload().test_every_submission_resolved_and_typed(overload)
        TestOverload().test_admission_counters_match_ticket_outcomes(overload)
        TestCacheAndConsistency().test_warmed_server_serves_without_in_band_builds(cache)
        assert consistency.ok

    def test_top_level_sections(self, cases):
        for case in cases.values():
            for report, _ in case.values():
                assert set(report) >= {
                    "requests", "completed", "batches", "mean_batch_size",
                    "max_batch_size", "classes", "admission", "plan_cache",
                }

    def test_config_records_the_closed_loop(self, cases):
        for case in cases.values():
            for report, _ in case.values():
                assert report["requests"] == CLIENTS
                assert sum(c["submitted"] for c in report["classes"].values()) == CLIENTS


class TestCases:
    def test_every_case_ran_both_modes(self, cases):
        assert set(cases) == set(CASES)
        for case in cases.values():
            for report, errors in case.values():
                assert errors == []
                assert report["completed"] == CLIENTS
                assert report["throughput_rps"] > 0

    def test_serial_mode_never_batches(self, cases):
        for case in cases.values():
            assert case["serial"][0]["max_batch_size"] == 1

    def test_headline_is_the_distributed_transpose(self, cases):
        """Coalesced transposes share a world, up to max_batch per batch."""
        report, errors = cases["serve-transpose-4096"]["batched"]
        assert errors == [] and report["completed"] == CLIENTS
        assert 1 <= report["max_batch_size"] <= 32
        assert report["batches"] <= report["requests"]

    def test_per_class_slo_percentiles_present(self, cases):
        for case in cases.values():
            classes = case["batched"][0]["classes"]
            assert {"interactive", "batch", "best_effort"} <= set(classes)
            for cls in classes.values():
                assert cls["p50_ms"] <= cls["p95_ms"] <= cls["p99_ms"]


class TestOverload:
    def test_every_submission_resolved_and_typed(self, overload):
        outcomes = overload["outcomes"]
        assert outcomes["hang"] == 0
        assert overload["rejected_sync"] + sum(outcomes.values()) == overload["submitted"]
        assert outcomes["other_error"] == 0

    def test_admission_counters_match_ticket_outcomes(self, overload):
        counters, outcomes = overload["counters"], overload["outcomes"]
        assert counters["rejected"] == overload["rejected_sync"]
        assert counters["shed_capacity"] == outcomes["shed"]
        assert counters["shed_deadline"] == outcomes["deadline"]

    def test_overload_actually_overloaded(self, overload):
        assert overload["rejected_sync"] + overload["outcomes"]["shed"] > 0


class TestCacheAndConsistency:
    def test_warmed_server_serves_without_in_band_builds(self, cache):
        assert cache["misses"] == 0
        assert cache["hits"] > 0

    def test_conformance_rows_are_bitwise_green(self, consistency):
        names = [row.name for row in consistency.rows]
        assert any("execute_batch" in name for name in names)
        assert any("serve.server" in name for name in names)
        assert all(row.passed for row in consistency.rows)
