"""Tests for the all-to-all schedule benchmark (the BENCH_PR8.json payload).

Honesty standard: every traffic number is a measured TrafficStats
counter, every cell re-checked bitwise equality against pairwise, the
measured message counts match the analytic model, and the payload is
JSON-safe.
"""

import json

import pytest

from repro.bench import A2A_BENCH_SCHEMA, run_a2a_bench
from repro.simmpi import predicted_inter_node_messages


@pytest.fixture(scope="module")
def payload():
    return run_a2a_bench(quick=True, reps=2)


class TestPayloadSchema:
    def test_schema_tag(self, payload):
        assert payload["schema"] == A2A_BENCH_SCHEMA

    def test_json_serialisable(self, payload):
        assert json.loads(json.dumps(payload)) == payload

    def test_gates_all_pass(self, payload):
        assert payload["gates"]
        assert payload["ok"] is True, payload["gates"]

    def test_top_level_sections(self, payload):
        assert set(payload) >= {
            "schema", "generated_by", "config", "shapes", "soi", "headline",
        }

    def test_config_records_the_setup(self, payload):
        cfg = payload["config"]
        assert cfg["nranks"] == 16
        assert cfg["algorithms"] == ["pairwise", "bruck", "hierarchical"]
        assert {s["ranks_per_node"] for s in cfg["node_shapes"]} == {4, 2}
        assert cfg["fabric_header_bytes"] == 64
        assert cfg["message_overhead_s"] > 0


class TestMeasurements:
    def test_every_cell_bitwise_equal_and_model_exact(self, payload):
        for shape in payload["shapes"]:
            for cell in shape["cells"]:
                for algorithm in payload["config"]["algorithms"]:
                    t = cell[algorithm]
                    assert t["bitwise_equal_to_pairwise"]
                    assert t["messages_match_model"]
                    assert t["inter_node_messages"] == (
                        predicted_inter_node_messages(
                            16, shape["ranks_per_node"], algorithm
                        )
                    )

    def test_traffic_deterministic_across_reps(self, payload):
        assert payload["traffic_stable_across_reps"] is True

    def test_acceptance_hierarchical_wins_both_shapes(self, payload):
        # The PR-8 acceptance criterion: hierarchical beats pairwise on
        # measured inter-node bytes AND modelled fat-tree time at both
        # node shapes.
        assert len(payload["shapes"]) == 2
        for shape in payload["shapes"]:
            h = shape["headline"]
            assert h["hierarchical_wins"]
            assert h["inter_node_bytes_ratio"] > 1.0
            assert h["modelled_time_ratio"] > 1.0
        assert payload["headline"]["hierarchical_wins_all_shapes"]

    def test_message_collapse_ratio(self, payload):
        by_rpn = {s["ranks_per_node"]: s for s in payload["shapes"]}
        # 4 nodes x 4 ranks: 192 pairwise inter-node messages vs 12.
        h = by_rpn[4]["headline"]
        assert h["inter_node_messages_ratio"] == 16.0

    def test_soi_section_end_to_end(self, payload):
        soi = payload["soi"]
        assert soi["hierarchical"]["bitwise_equal_to_pairwise"]
        assert soi["hierarchical_wins"]
        assert (
            soi["hierarchical"]["alltoall_phase_inter_node_messages"]
            < soi["pairwise"]["alltoall_phase_inter_node_messages"]
        )
