"""Overlap gates: pipelined (``overlap=True``) vs blocking SOI.

The acceptance geometry is N=4096, P=4, 4 ranks, 2 pipeline groups.
Under the simmpi link model (a 5 MB/s injection NIC per rank plus
300 us wire latency) and without it, the pipelined output must be
bitwise the blocking one.  The pipelined run must keep more than one
all-to-all request outstanding, and its virtual replay under the link
model's cost twin must attribute strictly less all-to-all stall to the
critical path than the blocking replay.
"""

import json

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.cluster.topology import FatTree
from repro.core.plan import SoiPlan
from repro.parallel import soi_fft_distributed
from repro.simmpi import run_spmd
from repro.trace import (
    TraceCostModel,
    TraceRecorder,
    critical_path,
    inflight_profile,
    rollup,
    write_chrome_trace,
)
from repro.trace.export import chrome_trace

N, P, NRANKS, GROUPS = 4096, 4, 4, 2

#: Simulated per-rank injection bandwidth (bytes/s) and one-way latency.
LINK_BANDWIDTH = 5e6
LINK_LATENCY = 300e-6

#: The virtual-replay twin of the link model: 0.04 Gbit/s = 5e6 B/s.
COST = TraceCostModel(
    fabric=FatTree(link_gbit=0.04, taper=1.0, alltoall_efficiency=1.0),
    latency_s=LINK_LATENCY,
)


@pytest.fixture(scope="module")
def blocks():
    return random_complex(N, seed=N % 9973).reshape(NRANKS, -1)


@pytest.fixture(scope="module")
def plan():
    return SoiPlan(n=N, p=P)


def _run(blocks, plan, overlap, **kwargs):
    return run_spmd(
        NRANKS,
        lambda comm: soi_fft_distributed(
            comm, blocks[comm.rank], plan, overlap=overlap, overlap_groups=GROUPS
        ),
        **kwargs,
    )


@pytest.fixture(scope="module")
def outputs(blocks, plan):
    link = {"link_latency": LINK_LATENCY, "link_bandwidth": LINK_BANDWIDTH}
    return {
        (overlap, linked): np.concatenate(
            _run(blocks, plan, overlap, **(link if linked else {})).values
        )
        for overlap in (False, True)
        for linked in (False, True)
    }


@pytest.fixture(scope="module")
def replays(blocks, plan):
    out = {}
    for name, overlap in (("blocking", False), ("pipelined", True)):
        rec = TraceRecorder()
        res = _run(blocks, plan, overlap, trace=rec)
        tl = rec.timeline(COST)
        out[name] = {
            "timeline": tl,
            "stats": res.stats,
            "rollup": rollup(tl),
            "stall": critical_path(tl).wait_by_phase_s(),
            "inflight": inflight_profile(tl),
        }
    return out


class TestPayloadSchema:
    def test_schema_tag(self, replays):
        doc = chrome_trace(replays["pipelined"]["timeline"])
        assert doc["otherData"]["generator"] == "repro.trace"
        assert doc["otherData"]["ranks"] == NRANKS

    def test_json_serialisable(self, replays):
        for replay in replays.values():
            for key in ("rollup", "inflight"):
                assert json.loads(json.dumps(replay[key])) == replay[key]

    def test_gates_all_pass(self, outputs, replays):
        self.test_headline_is_measured_and_bitwise(outputs)
        self.test_request_depth_shows_pipelining(replays)
        self.test_virtual_replay_compares_both_paths(replays)

    def test_top_level_sections(self, replays):
        for replay in replays.values():
            assert set(replay["rollup"]) >= {
                "makespan_s", "alltoall_epochs", "by_phase_s", "critical_path",
            }
            assert "wait_by_phase_s" in replay["rollup"]["critical_path"]

    def test_config_records_the_interconnect(self):
        """The replay's wire charges the measured link's bandwidth."""
        assert COST.fabric.injection_bandwidth() == pytest.approx(LINK_BANDWIDTH)
        assert COST.wire_time(5_000_000) == pytest.approx(1.0)
        assert COST.latency_s == LINK_LATENCY

    def test_headline_is_measured_and_bitwise(self, outputs):
        """Under the link model the pipelined output is the blocking one."""
        assert np.array_equal(outputs[(True, True)], outputs[(False, True)])

    def test_zero_link_regime_reported(self, outputs):
        """Without a link model, too; and the link changes no bit."""
        assert np.array_equal(outputs[(True, False)], outputs[(False, False)])
        assert np.array_equal(outputs[(True, False)], outputs[(True, True)])

    def test_request_depth_shows_pipelining(self, replays):
        ph = replays["pipelined"]["stats"].phase("alltoall")
        assert ph.max_outstanding > 1
        assert all(isinstance(d, int) for d in ph.time_at_depth)
        assert sum(ph.time_at_depth.values()) > 0

    def test_virtual_replay_compares_both_paths(self, replays):
        assert replays["blocking"]["rollup"]["makespan_s"] > 0
        assert replays["pipelined"]["rollup"]["makespan_s"] > 0
        # Strictly less all-to-all stall on the critical path for the
        # overlapped run under the same cost model.
        blk = replays["blocking"]["stall"].get("alltoall", 0.0)
        ovl = replays["pipelined"]["stall"].get("alltoall", 0.0)
        assert ovl < blk

    def test_pipelined_replay_shows_inflight_depth(self, replays):
        assert replays["pipelined"]["inflight"]["alltoall"]["max_depth"] > 1


class TestCliIntegration:
    def test_bench_overlap_writes_json(self, replays, tmp_path):
        """The pipelined replay exports as Chrome trace-event JSON."""
        path = tmp_path / "overlap.trace.json"
        write_chrome_trace(replays["pipelined"]["timeline"], str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        isends = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["cat"] == "isend"]
        assert isends
        assert {e["args"]["phase"] for e in isends} >= {"alltoall"}
