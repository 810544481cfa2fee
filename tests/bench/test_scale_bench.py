"""Tests for the DES weak-scaling benchmark (the BENCH_PR9.json payload).

Honesty standard: every wall second is measured on an executed run,
every traffic number is a measured TrafficStats counter pinned exactly
to the Section 7.4 analytic model, outputs and virtual clocks are
stable across reps, and the small-world anchor proves DES == threads
bitwise.  The payload is JSON-safe.
"""

import json

import pytest

from repro.bench import SCALE_BENCH_SCHEMA, run_scale_bench
from repro.bench.scale import scale_plan
from repro.simmpi import predicted_inter_node_messages


@pytest.fixture(scope="module")
def payload():
    return run_scale_bench(quick=True, reps=2)


class TestPayloadSchema:
    def test_schema_tag(self, payload):
        assert payload["schema"] == SCALE_BENCH_SCHEMA

    def test_json_serialisable(self, payload):
        assert json.loads(json.dumps(payload)) == payload

    def test_gates_all_pass(self, payload):
        assert payload["gates"]
        assert payload["ok"] is True, payload["gates"]

    def test_top_level_sections(self, payload):
        assert set(payload) >= {
            "schema", "generated_by", "config", "runs", "engine_anchor",
            "headline",
        }

    def test_config_records_the_setup(self, payload):
        cfg = payload["config"]
        assert cfg["engine"] == "des"
        assert cfg["alltoall_algorithm"] == "hierarchical"
        assert cfg["quick"] is True and cfg["reps"] == 2
        assert cfg["fabric_header_bytes"] == 64
        assert [p["nranks"] for p in cfg["points"]] == [64, 256]


class TestMeasurements:
    def test_every_point_matches_the_traffic_model(self, payload):
        for run in payload["runs"]:
            t = run["traffic"]
            assert t["messages_match_model"], run["nranks"]
            assert t["bytes_match_model"], run["nranks"]
            assert t["inter_node_messages"] == predicted_inter_node_messages(
                run["nranks"], run["ranks_per_node"], "hierarchical"
            )

    def test_messages_follow_the_node_pair_law(self, payload):
        for run in payload["runs"]:
            nodes = run["nodes"]
            assert run["traffic"]["inter_node_messages"] == nodes * (nodes - 1)

    def test_wall_clocks_are_real_and_ordered(self, payload):
        for run in payload["runs"]:
            assert run["cold_wall_s"] > 0
            assert 0 < run["steady_wall_s"] <= run["cold_wall_s"] * 10
            assert len(run["wall_s_per_rep"]) == 2
            assert run["cold_wall_s"] == run["wall_s_per_rep"][0]

    def test_runs_deterministic_across_reps(self, payload):
        for run in payload["runs"]:
            assert run["outputs_stable"], run["nranks"]
            assert run["virtual_time_stable"], run["nranks"]
            assert run["virtual_time_s"] > 0

    def test_engine_anchor_pins_the_differential_invariant(self, payload):
        anchor = payload["engine_anchor"]
        assert anchor["bitwise_equal"]
        assert anchor["stats_equal"]
        assert anchor["thread_wall_s"] > 0 and anchor["des_wall_s"] > 0

    def test_headline_summarises_the_largest_point(self, payload):
        head = payload["headline"]
        largest = payload["runs"][-1]
        assert str(largest["nranks"]) in head["name"]
        assert head["cold_wall_s"] == largest["cold_wall_s"]
        assert head["traffic_matches_model_all_points"]
        assert head["engines_bitwise_equal"]


class TestPlanFamily:
    def test_weak_scaling_geometry(self):
        for P in (64, 256):
            plan = scale_plan(P)
            assert plan.n == P * P
            assert plan.p == P
            assert plan.n % P == 0
