"""Tests for the autotuner gate bench (``python -m repro bench-tune``).

The quick profile races two small shapes but exercises every payload
section: per-shape tuned-vs-default ratios with the never-regress
guarantees, the halved-wire byte ratios, the wisdom round-trip, and the
bitwise-dispatch consistency block.
"""

import json

import pytest

from repro.bench import TUNE_BENCH_SCHEMA, run_tune


@pytest.fixture(scope="module")
def payload():
    return run_tune(quick=True, reps=1)


class TestPayloadSchema:
    def test_schema_tag(self, payload):
        assert payload["schema"] == TUNE_BENCH_SCHEMA

    def test_json_serialisable(self, payload):
        assert json.loads(json.dumps(payload)) == payload

    def test_gates_all_pass(self, payload):
        assert payload["gates"]
        assert payload["ok"] is True, payload["gates"]

    def test_top_level_sections(self, payload):
        assert set(payload) >= {
            "schema", "config", "headline", "shapes", "wire", "wisdom",
            "consistency",
        }


class TestRatios:
    def test_no_shape_regresses(self, payload):
        """The acceptance floor: tuned >= 1.0x the default everywhere."""
        for row in payload["shapes"]:
            assert row["ratio"] >= 1.0
        assert payload["consistency"]["all_ratios_at_least_one"]

    def test_default_winners_report_identity_ratio(self, payload):
        for row in payload["shapes"]:
            if not row["measured"]:
                assert row["ratio"] == 1.0
                assert row["config"]["variant"] == "radix2"

    def test_headline_is_max_ratio(self, payload):
        best = max(r["ratio"] for r in payload["shapes"])
        assert payload["headline"]["ratio"] == best

    def test_dispatch_is_bitwise(self, payload):
        for row in payload["shapes"]:
            assert row["dispatch_bitwise"]
        assert payload["consistency"]["dispatch_bitwise"]


class TestWire:
    def test_both_paths_halve_the_alltoall(self, payload):
        wire = payload["wire"]
        assert wire["complex64_ratio"] <= 0.55
        assert wire["rfft_ratio"] <= 0.55
        # The measured structure is exact halving, not just under cap.
        assert wire["complex64_alltoall_bytes"] * 2 == wire[
            "complex128_alltoall_bytes"
        ]
        assert wire["rfft_alltoall_bytes"] * 2 == wire[
            "complex128_alltoall_bytes"
        ]


class TestWisdom:
    def test_roundtrip_survives(self, payload):
        wis = payload["wisdom"]
        assert wis["load_status"] == "ok"
        assert wis["saved_entries"] == len(payload["shapes"])
        assert wis["loaded_entries"] == wis["saved_entries"]
        assert wis["roundtrip_exact"]
