"""Tests for the overlap benchmark harness (the BENCH_PR5.json payload).

The harness is held to the same honesty standard as bench-micro: every
headline number is a real measurement, the payload is JSON-safe, the
bitwise check really ran, and the zero-link regime is reported rather
than hidden.
"""

import json

import pytest

from repro.bench import (
    LINK_BANDWIDTH,
    LINK_LATENCY,
    OVERLAP_BENCH_SCHEMA,
    run_overlap_bench,
)


@pytest.fixture(scope="module")
def payload():
    return run_overlap_bench(quick=True, reps=2)


class TestPayloadSchema:
    def test_schema_tag(self, payload):
        assert payload["schema"] == OVERLAP_BENCH_SCHEMA

    def test_json_serialisable(self, payload):
        assert json.loads(json.dumps(payload)) == payload

    def test_gates_all_pass(self, payload):
        assert payload["gates"]
        assert payload["ok"] is True, payload["gates"]

    def test_top_level_sections(self, payload):
        assert set(payload) >= {
            "schema",
            "generated_by",
            "config",
            "headline",
            "zero_link",
            "request_depth",
            "virtual_replay",
        }

    def test_config_records_the_interconnect(self, payload):
        cfg = payload["config"]
        assert cfg["n"] == 4096 and cfg["p"] == 4 and cfg["nranks"] == 4
        assert cfg["link_bandwidth_bytes_per_s"] == LINK_BANDWIDTH
        assert cfg["link_latency_s"] == LINK_LATENCY
        assert "perf_counter_ns" in cfg["timer"]

    def test_headline_is_measured_and_bitwise(self, payload):
        h = payload["headline"]
        assert h["blocking_us"] > 0 and h["pipelined_us"] > 0
        assert h["speedup"] == h["blocking_us"] / h["pipelined_us"]
        assert h["bitwise_equal"] is True

    def test_zero_link_regime_reported(self, payload):
        z = payload["zero_link"]
        assert z["blocking_us"] > 0 and z["pipelined_us"] > 0
        assert "overhead" in z["note"]

    def test_request_depth_shows_pipelining(self, payload):
        depth = payload["request_depth"]
        assert depth["alltoall"]["max_outstanding"] > 1
        at = depth["alltoall"]["time_at_depth"]
        assert all(isinstance(k, str) for k in at)
        assert sum(at.values()) > 0

    def test_virtual_replay_compares_both_paths(self, payload):
        vr = payload["virtual_replay"]
        assert vr["blocking"]["makespan_us"] > 0
        assert vr["pipelined"]["makespan_us"] > 0
        # The acceptance criterion: strictly less alltoall stall time
        # attributed to the overlapped run under the same cost model.
        blk = vr["blocking"]["critical_path_stall_us"].get("alltoall", 0.0)
        ovl = vr["pipelined"]["critical_path_stall_us"].get("alltoall", 0.0)
        assert ovl < blk
        assert vr["alltoall_stall_strictly_less"] is True

    def test_pipelined_replay_shows_inflight_depth(self, payload):
        inflight = payload["virtual_replay"]["pipelined"]["inflight"]
        assert inflight["alltoall"]["max_depth"] > 1


class TestCliIntegration:
    def test_bench_overlap_writes_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "bench_overlap.json"
        assert main(["bench-overlap", "--bench-quick", "--bench-reps", "1",
                     "--bench-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "bench-overlap" in text
        assert "pipelined" in text
        written = json.loads(out.read_text())
        assert written["schema"] == OVERLAP_BENCH_SCHEMA
        assert written["headline"]["bitwise_equal"] is True
