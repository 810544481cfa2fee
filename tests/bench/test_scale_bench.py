"""DES weak-scaling gates at P in {64, 256} (the P >= 256 sweep, up to
P=4096 with ``REPRO_SCALE_FULL=1``, lives in
``tests/parallel/test_des_scale.py``).

Every point runs the ``n = P^2`` family on the discrete-event engine
twice: its measured inter-node messages and bytes must equal the
Section 7.4 model exactly, and its outputs and virtual clock must be
identical across the two runs.  At P=64 the same program on the thread
engine must give bitwise-equal outputs and identical traffic counters.
"""

import json

import numpy as np
import pytest

from repro.parallel import soi_fft_distributed
from repro.simmpi import (
    FABRIC_HEADER_BYTES,
    NodeMap,
    TrafficStats,
    predicted_inter_node_messages,
    run_spmd,
)
from tests.parallel.test_des_scale import _cross_node_pairs, _scale_plan

POINTS = ((64, 8), (256, 16))
ANCHOR = (64, 8)


def _run(P, rpn, engine="des"):
    plan = _scale_plan(P)
    rng = np.random.default_rng(P)
    x = rng.standard_normal(P * P) + 1j * rng.standard_normal(P * P)
    block = plan.n // P

    def prog(comm):
        lo = comm.rank * block
        return soi_fft_distributed(
            comm, x[lo : lo + block], plan, alltoall_algorithm="hierarchical"
        )

    return run_spmd(P, prog, ranks_per_node=rpn, engine=engine, timeout=600.0)


def _output(res):
    return np.concatenate([np.asarray(v) for v in res.values])


@pytest.fixture(scope="module")
def runs():
    out = {}
    for P, rpn in POINTS:
        first, second = _run(P, rpn), _run(P, rpn)
        plan = _scale_plan(P)
        a2a = first.stats.phase("alltoall")
        predicted = predicted_inter_node_messages(P, rpn, "hierarchical")
        row_bytes = (plan.p // P) * plan.m_over * 16 // P
        out[P] = {
            "rpn": rpn,
            "nodes": NodeMap(P, rpn).nnodes,
            "first": first,
            "inter_node_messages": int(a2a.inter_node_messages),
            "predicted_messages": predicted,
            "inter_node_bytes": int(a2a.inter_node_bytes),
            "predicted_bytes": (_cross_node_pairs(P, rpn) * row_bytes
                                + predicted * FABRIC_HEADER_BYTES),
            "outputs_stable": bool(np.array_equal(_output(first), _output(second))),
            "virtual_time_stable": first.virtual_time_s == second.virtual_time_s,
        }
    return out


@pytest.fixture(scope="module")
def anchor():
    return {engine: _run(*ANCHOR, engine=engine) for engine in ("thread", "des")}


def _matches_model(run):
    return (run["inter_node_messages"] == run["predicted_messages"]
            and run["inter_node_bytes"] == run["predicted_bytes"])


class TestPayloadSchema:
    def test_schema_tag(self, runs):
        for run in runs.values():
            doc = run["first"].stats.as_dict()
            assert TrafficStats.from_dict(doc).as_dict() == doc

    def test_json_serialisable(self, runs):
        for run in runs.values():
            doc = run["first"].stats.as_dict()
            assert json.loads(json.dumps(doc)) == doc

    def test_gates_all_pass(self, runs, anchor):
        m = TestMeasurements()
        m.test_every_point_matches_the_traffic_model(runs)
        m.test_runs_deterministic_across_reps(runs)
        m.test_engine_anchor_pins_the_differential_invariant(anchor)

    def test_top_level_sections(self, runs):
        for run in runs.values():
            assert {"alltoall", "halo"} <= set(run["first"].stats.phases())

    def test_config_records_the_setup(self, runs):
        """DES runs carry a virtual clock; every point ran hierarchical."""
        assert sorted(runs) == [P for P, _ in POINTS]
        for run in runs.values():
            assert run["first"].virtual_time_s > 0
            assert run["first"].stats.phase("alltoall").alltoall_rounds > 0
        assert FABRIC_HEADER_BYTES == 64


class TestMeasurements:
    def test_every_point_matches_the_traffic_model(self, runs):
        for P, run in runs.items():
            assert run["inter_node_messages"] == run["predicted_messages"], P
            assert run["inter_node_bytes"] == run["predicted_bytes"], P

    def test_messages_follow_the_node_pair_law(self, runs):
        for run in runs.values():
            nodes = run["nodes"]
            assert run["inter_node_messages"] == nodes * (nodes - 1)

    def test_wall_clocks_are_real_and_ordered(self, anchor):
        """Only the DES engine keeps a virtual clock."""
        assert anchor["thread"].virtual_time_s is None
        assert anchor["des"].virtual_time_s > 0

    def test_runs_deterministic_across_reps(self, runs):
        for P, run in runs.items():
            assert run["outputs_stable"], P
            assert run["virtual_time_stable"], P

    def test_engine_anchor_pins_the_differential_invariant(self, anchor):
        assert np.array_equal(_output(anchor["des"]), _output(anchor["thread"]))
        assert anchor["des"].stats.as_dict() == anchor["thread"].stats.as_dict()

    def test_headline_summarises_the_largest_point(self, runs, anchor):
        largest = runs[max(runs)]
        assert largest["nodes"] == 16
        assert all(_matches_model(run) for run in runs.values())
        assert np.array_equal(_output(anchor["des"]), _output(anchor["thread"]))


class TestPlanFamily:
    def test_weak_scaling_geometry(self):
        for P in (64, 256):
            plan = _scale_plan(P)
            assert plan.n == P * P
            assert plan.p == P
            assert plan.n % P == 0
