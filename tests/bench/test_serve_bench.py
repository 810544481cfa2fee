"""Tests for the serving benchmark harness (quick profile).

``reps=1`` keeps the closed loops at one request per client — enough to
exercise every section (cases, overload, cache, consistency) and pin
the payload schema without asserting on throughput numbers, which a
loaded CI box cannot promise.  The structural guarantees (every ticket
resolved, counters consistent, bitwise consistency rows green) must
hold at any speed.
"""

import json

import pytest

from repro.bench import SERVE_BENCH_SCHEMA, run_serve_bench


@pytest.fixture(scope="module")
def payload():
    return run_serve_bench(quick=True, reps=1)


class TestPayloadSchema:
    def test_schema_tag(self, payload):
        assert payload["schema"] == SERVE_BENCH_SCHEMA

    def test_json_serialisable(self, payload):
        assert json.loads(json.dumps(payload)) == payload

    def test_gates_all_pass(self, payload):
        assert payload["gates"]
        assert payload["ok"] is True, payload["gates"]

    def test_top_level_sections(self, payload):
        assert set(payload) >= {
            "schema", "config", "cases", "headline",
            "overload", "cache", "consistency",
        }

    def test_config_records_the_closed_loop(self, payload):
        cfg = payload["config"]
        assert cfg["quick"] is True
        assert cfg["clients"] >= 64
        assert cfg["per_client"] == 1
        assert "perf_counter" in cfg["timer"]


class TestCases:
    def test_every_case_ran_both_modes(self, payload):
        assert {c["name"] for c in payload["cases"]} == {
            "serve-transpose-4096", "serve-dft-numpy-4096", "serve-dft-repro-256",
        }
        for case in payload["cases"]:
            for mode in ("batched", "serial"):
                run = case[mode]
                assert run["completed"] == case["requests"]
                assert run["client_errors"] == 0
                assert run["throughput_rps"] > 0
            assert case["speedup"] > 0

    def test_serial_mode_never_batches(self, payload):
        for case in payload["cases"]:
            assert case["serial"]["max_batch_size"] == 1

    def test_headline_is_the_distributed_transpose(self, payload):
        headline = payload["headline"]
        assert headline["name"] == "serve-transpose-4096"
        assert isinstance(headline["meets_3x"], bool)
        assert headline["speedup"] == pytest.approx(
            headline["batched_rps"] / headline["serial_rps"]
        )
        (case,) = [c for c in payload["cases"] if c["headline"]]
        assert case["n"] == 4096 and case["backend"] == "transpose"

    def test_per_class_slo_percentiles_present(self, payload):
        for case in payload["cases"]:
            classes = case["batched"]["classes"]
            assert {"interactive", "batch", "best_effort"} <= set(classes)
            for cls in classes.values():
                assert cls["p50_ms"] <= cls["p95_ms"] <= cls["p99_ms"]


class TestOverload:
    def test_every_submission_resolved_and_typed(self, payload):
        over = payload["overload"]
        outcomes = over["outcomes"]
        assert over["hangs"] == 0
        assert over["all_resolved"] is True
        assert over["rejected_sync"] + sum(outcomes.values()) == over["submitted"]
        assert outcomes["other_error"] == 0

    def test_admission_counters_match_ticket_outcomes(self, payload):
        assert payload["overload"]["counters_match"] is True

    def test_overload_actually_overloaded(self, payload):
        over = payload["overload"]
        assert over["rejected_sync"] + over["outcomes"]["shed"] > 0


class TestCacheAndConsistency:
    def test_warmed_server_serves_without_in_band_builds(self, payload):
        cache = payload["cache"]
        assert cache["warmup"]["shapes"]["built"] >= 0
        assert cache["misses_during_serving"] == 0
        assert cache["all_hits"] is True

    def test_conformance_rows_are_bitwise_green(self, payload):
        consistency = payload["consistency"]
        assert consistency["bitwise_ok"] is True
        names = [row["name"] for row in consistency["rows"]]
        assert any("execute_batch" in name for name in names)
        assert any("serve.server" in name for name in names)
        assert all(row["passed"] for row in consistency["rows"])
