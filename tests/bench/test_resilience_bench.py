"""Resilience gates: one killed rank is recovered bitwise and paid for,
and a seeded chaos soak ends every scenario recovered or as a
structured failure — never a hang.

Geometry: N=4096, P=8, 4 ranks (8-rank soak scenarios run N=8192 so
the halo-to-block ratio is unchanged), the full-accuracy window.
"""

import json
import time

import numpy as np
import pytest

from repro.check.conformance import soi_tolerance
from repro.check.schedules import ScheduleController
from repro.core.plan import SoiPlan
from repro.parallel import SoiResilience, soi_fft_distributed, split_blocks
from repro.simmpi import FaultPlan, TrafficStats, run_spmd
from repro.simmpi.errors import RankFailedError, SpmdError

PLAN = SoiPlan(n=4096, p=8)
SOAK_PHASES = ("replicate", "convolve", "fft-p", "alltoall", "fft-m", "commit")
SCENARIOS = 12
WALL_GUARD_S = 60.0


def _signal(n, seed):
    gen = np.random.default_rng(seed)
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)


def _blocking(plan, blocks, nranks):
    return np.concatenate(run_spmd(
        nranks, lambda comm: soi_fft_distributed(comm, blocks[comm.rank], plan)
    ).values)


def _resilient(plan, blocks, nranks, faults, **kwargs):
    res = SoiResilience()
    out = run_spmd(
        nranks,
        lambda comm: soi_fft_distributed(comm, blocks[comm.rank], plan, resilience=res),
        resilient=True, faults=faults, timeout=WALL_GUARD_S / 2, **kwargs,
    )
    return out, res


@pytest.fixture(scope="module")
def recovery():
    """Kill rank 1 at the all-to-all boundary of a 4-rank run."""
    blocks = split_blocks(_signal(PLAN.n, 4242), 4)
    out, res = _resilient(PLAN, blocks, 4, FaultPlan().kill(1, phase="alltoall"))
    parts = list(out.values)
    parts[1] = res.recovered_blocks[1][1]
    return {"out": out, "res": res, "y": np.concatenate(parts),
            "ref": _blocking(PLAN, blocks, 4)}


@pytest.fixture(scope="module")
def soak():
    """Seeded (phase x victim x schedule x world size) scenarios."""
    plans = {4: PLAN, 8: SoiPlan(n=2 * PLAN.n, p=PLAN.p)}
    blocks = {r: split_blocks(_signal(p.n, 777 + r), r) for r, p in plans.items()}
    refs = {r: _blocking(plans[r], blocks[r], r) for r in plans}
    runs = []
    for i in range(SCENARIOS):
        phase = SOAK_PHASES[i % len(SOAK_PHASES)]
        nranks = (4, 8)[(i // len(SOAK_PHASES)) % 2]
        victim = i % nranks
        t0 = time.perf_counter()
        try:
            out, res = _resilient(
                plans[nranks], blocks[nranks], nranks,
                FaultPlan().kill(victim, phase=phase),
                schedule=ScheduleController(seed=1000 + i),
            )
            parts = list(out.values)
            parts[victim] = res.recovered_blocks[victim][1]
            ref = refs[nranks]
            err = np.linalg.norm(np.concatenate(parts) - ref) / np.linalg.norm(ref)
            outcome = "recovered" if err <= soi_tolerance(plans[nranks]) else "wrong"
        except SpmdError as exc:
            structured = any(isinstance(e, RankFailedError) for _, e in exc.failures)
            outcome = "structured-failure" if structured else "unstructured"
        runs.append({"phase": phase, "victim": victim, "nranks": nranks,
                     "outcome": outcome, "wall_s": time.perf_counter() - t0})
    return runs


class TestPayloadSchema:
    def test_schema_tag(self, recovery):
        """Recovery cost lives in the canonical TrafficStats document."""
        doc = recovery["out"].stats.as_dict()
        assert TrafficStats.from_dict(doc).as_dict() == doc
        assert doc["phases"]["recover"]["recovery_bytes"] > 0

    def test_json_serialisable(self, recovery, soak):
        doc = {"stats": recovery["out"].stats.as_dict(), "soak": soak}
        assert json.loads(json.dumps(doc)) == doc

    def test_gates_all_pass(self, recovery, soak):
        m = TestMeasurements()
        m.test_soak_accounts_for_every_scenario(soak)
        m.test_recovery_is_bitwise_and_paid_for(recovery)

    def test_top_level_sections(self, recovery):
        phases = set(recovery["out"].stats.phases())
        assert phases >= {"replicate", "alltoall", "recover"}

    def test_config_records_the_setup(self, soak):
        """The soak covers every kill phase at both world sizes."""
        assert len(soak) == SCENARIOS
        assert {run["phase"] for run in soak} == set(SOAK_PHASES)
        assert {run["nranks"] for run in soak} == {4, 8}


class TestMeasurements:
    def test_headline_repeats_the_sections(self, recovery):
        """The run's recovery totals are the sum of its phases."""
        stats = recovery["out"].stats
        phases = [stats.phase(name) for name in stats.phases()]
        assert stats.total_recovery_bytes == sum(p.recovery_bytes for p in phases)
        assert stats.total_recovery_flops == sum(p.recovery_flops for p in phases)
        assert stats.total_detected_failures == sum(p.detected_failures for p in phases)
        assert stats.total_detected_failures > 0

    def test_recovery_is_bitwise_and_paid_for(self, recovery):
        assert recovery["out"].degraded
        assert 1 in recovery["res"].recovered_blocks
        assert np.array_equal(recovery["y"], recovery["ref"])
        stats = recovery["out"].stats
        assert stats.total_recovery_bytes > 0 and stats.total_recovery_flops > 0

    def test_soak_accounts_for_every_scenario(self, soak):
        for run in soak:
            assert run["wall_s"] < WALL_GUARD_S, run
            if run["phase"] == "replicate":
                assert run["outcome"] == "structured-failure", run
            else:
                assert run["outcome"] == "recovered", run
