"""Tests for the resilience benchmark (the BENCH_PR6.json payload).

Honesty standard: the recovery run really recovered rank 1 bitwise and
paid measured recovery traffic, every soak scenario ended recovered or
as a structured failure (never a hang), the headline repeats the
section numbers, and the payload is JSON-safe.
"""

import json

import pytest

from repro.bench import RESILIENCE_BENCH_SCHEMA, run_resilience_bench


@pytest.fixture(scope="module")
def payload():
    return run_resilience_bench(quick=True, reps=3)


class TestPayloadSchema:
    def test_schema_tag(self, payload):
        assert payload["schema"] == RESILIENCE_BENCH_SCHEMA

    def test_json_serialisable(self, payload):
        assert json.loads(json.dumps(payload)) == payload

    def test_gates_all_pass(self, payload):
        assert payload["gates"]
        assert payload["ok"] is True, payload["gates"]

    def test_top_level_sections(self, payload):
        assert set(payload) >= {
            "schema", "generated_by", "config", "headline",
            "fault_free_overhead", "recovery", "chaos_soak", "gates", "ok",
        }

    def test_config_records_the_setup(self, payload):
        cfg = payload["config"]
        assert cfg["quick"] is True and cfg["iters"] == 3
        assert cfg["n"] == 4096 and cfg["p"] == 8
        assert cfg["soak_scenarios"] == 12
        assert "perf_counter_ns" in cfg["timer"]


class TestMeasurements:
    def test_headline_repeats_the_sections(self, payload):
        head = payload["headline"]
        soak = payload["chaos_soak"]
        assert head["overhead_fraction"] == (
            payload["fault_free_overhead"]["overhead_fraction"]
        )
        assert head["killed_run_us"] == payload["recovery"]["killed_run_us"] > 0
        assert head["soak_scenarios"] == soak["scenarios"]
        assert head["soak_recovered"] == soak["recovered"]
        assert head["soak_structured_failures"] == soak["structured_failures"]
        assert head["soak_hangs"] == soak["hangs"] == 0

    def test_recovery_is_bitwise_and_paid_for(self, payload):
        rec = payload["recovery"]
        assert rec["bitwise_recovered"] is True
        assert rec["recovery_bytes"] > 0 and rec["recovery_flops"] > 0

    def test_soak_accounts_for_every_scenario(self, payload):
        soak = payload["chaos_soak"]
        assert len(soak["runs"]) == soak["scenarios"]
        assert soak["recovered"] + soak["structured_failures"] == soak["scenarios"]
        for run in soak["runs"]:
            if run["outcome"] == "structured-failure":
                assert run["phase"] == "replicate"
            else:
                assert run["outcome"] == "recovered"
