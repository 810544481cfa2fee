"""Thousand-rank weak-scaling benchmark on the discrete-event engine.

The DES engine exists so that SOI runs at scales the thread backend
cannot host: thousands of ranks multiplexed onto a handful of vessel
threads, with wall time decoupled from the virtual communication clock.
This benchmark *executes* the weak-scaling family ``n = P^2`` (one
segment per rank, minimal admissible block) at P up to 4096 and records:

- measured wall seconds per run, cold and steady (the first run pays
  first-touch page faults for the ``P^2`` arrays; the steady number is
  the min of the remaining reps);
- the virtual makespan reported by the DES clock;
- measured inter-node traffic, pinned to the analytic model — the
  hierarchical schedule's ``nodes*(nodes-1)`` message law and the
  one-row-per-cross-node-pair byte law from Section 7.4;
- a differential anchor at small P: the same program on the thread
  engine, bitwise-equal outputs, with the wall-time ratio.

``python -m repro bench-scale`` runs this and writes ``BENCH_PR9.json``.
``--bench-quick`` caps the sweep at P=256 for CI smoke runs.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from ..core.plan import SoiPlan
from ..core.windows import TauSigmaWindow
from ..parallel.soi_dist import soi_fft_distributed
from ..simmpi import NodeMap, predicted_inter_node_messages, run_spmd
from ..simmpi.nodes import FABRIC_HEADER_BYTES
from .runner import with_gates

__all__ = ["run_scale_bench", "SCALE_BENCH_SCHEMA", "scale_plan"]

SCALE_BENCH_SCHEMA = "repro-bench-scale/1"

#: Weak-scaling points: (P, ranks_per_node).  Node shapes follow the
#: square-ish packing used by the scale test suite.
_POINTS = ((256, 16), (1024, 32), (4096, 64))
_POINTS_QUICK = ((64, 8), (256, 16))

#: World size for the DES-vs-thread differential anchor (small enough
#: that 64 OS threads are cheap on one core).
_ANCHOR_P = 64


def scale_plan(P: int) -> SoiPlan:
    """The weak-scaling plan family: ``n = P^2``, one segment per rank,
    minimal admissible block for beta=1 (mu=2, B=2).  This family is
    tuned for communication geometry, not accuracy."""
    return SoiPlan(
        P * P, P, beta=1, window=TauSigmaWindow(tau=0.93, sigma=412.167), b=2
    )


def _program(x: np.ndarray, plan: SoiPlan, block: int):
    def prog(comm):
        lo = comm.rank * block
        return soi_fft_distributed(
            comm, x[lo : lo + block], plan, alltoall_algorithm="hierarchical"
        )

    return prog


def _traffic_vs_model(P: int, rpn: int, plan: SoiPlan, stats) -> dict:
    a2a = stats.phase("alltoall")
    predicted_msgs = predicted_inter_node_messages(P, rpn, "hierarchical")
    nm = NodeMap(P, rpn)
    per_node = [len(nm.ranks_on(node)) for node in range(nm.nnodes)]
    cross_pairs = sum(r * (P - r) for r in per_node)
    row_bytes = (plan.p // P) * plan.m_over * 16 // P
    predicted_bytes = cross_pairs * row_bytes + predicted_msgs * FABRIC_HEADER_BYTES
    return {
        "inter_node_messages": int(a2a.inter_node_messages),
        "predicted_inter_node_messages": int(predicted_msgs),
        "messages_match_model": bool(a2a.inter_node_messages == predicted_msgs),
        "inter_node_bytes": int(a2a.inter_node_bytes),
        "predicted_inter_node_bytes": int(predicted_bytes),
        "bytes_match_model": bool(a2a.inter_node_bytes == predicted_bytes),
    }


def _scale_point(P: int, rpn: int, reps: int) -> dict:
    plan = scale_plan(P)
    rng = np.random.default_rng(P)
    x = rng.standard_normal(P * P) + 1j * rng.standard_normal(P * P)
    block = plan.n // P
    prog = _program(x, plan, block)

    walls, vts, checksums = [], [], []
    traffic = None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run_spmd(P, prog, ranks_per_node=rpn, engine="des", timeout=600.0)
        walls.append(time.perf_counter() - t0)
        vts.append(float(res.virtual_time_s))
        checksums.append(
            np.concatenate([np.asarray(v) for v in res.values]).tobytes()
        )
        if traffic is None:
            traffic = _traffic_vs_model(P, rpn, plan, res.stats)

    nm = NodeMap(P, rpn)
    return {
        "nranks": P,
        "ranks_per_node": rpn,
        "nodes": nm.nnodes,
        "n": plan.n,
        "cold_wall_s": walls[0],
        "steady_wall_s": min(walls[1:]) if len(walls) > 1 else walls[0],
        "wall_s_per_rep": walls,
        "virtual_time_s": vts[0],
        "virtual_time_stable": bool(len(set(vts)) == 1),
        "outputs_stable": bool(len(set(checksums)) == 1),
        "traffic": traffic,
    }


def _engine_anchor(reps: int) -> dict:
    """DES vs thread at a world both engines can host: bitwise-equal
    outputs, identical traffic counters, and the wall-time ratio."""
    P, rpn = _ANCHOR_P, 8
    plan = scale_plan(P)
    rng = np.random.default_rng(P)
    x = rng.standard_normal(P * P) + 1j * rng.standard_normal(P * P)
    prog = _program(x, plan, plan.n // P)

    out: dict = {"nranks": P, "ranks_per_node": rpn}
    results = {}
    for engine in ("thread", "des"):
        walls = []
        for _ in range(reps):
            t0 = time.perf_counter()
            res = run_spmd(
                P, prog, ranks_per_node=rpn, engine=engine, timeout=600.0
            )
            walls.append(time.perf_counter() - t0)
        results[engine] = res
        out[f"{engine}_wall_s"] = min(walls)
    got = {
        e: np.concatenate([np.asarray(v) for v in r.values]).tobytes()
        for e, r in results.items()
    }
    out["bitwise_equal"] = bool(got["des"] == got["thread"])
    out["stats_equal"] = bool(
        results["des"].stats.as_dict() == results["thread"].stats.as_dict()
    )
    out["des_over_thread_wall_ratio"] = out["des_wall_s"] / out["thread_wall_s"]
    return out


def run_scale_bench(quick: bool = False, reps: int | None = None) -> dict:
    """Run the DES weak-scaling benchmark; returns ``BENCH_PR9.json``.

    ``quick=True`` caps the sweep at P=256 (CI smoke mode); the full
    sweep reaches P=4096 — 16.7M points, 64 modelled nodes — in tens of
    wall seconds on one core.  *reps* (default 2) times each point that
    many times so a steady-state number exists next to the cold one;
    outputs and virtual clocks are asserted stable across reps.
    """
    points = _POINTS_QUICK if quick else _POINTS
    nreps = reps or 2

    runs = [_scale_point(P, rpn, nreps) for P, rpn in points]
    anchor = _engine_anchor(nreps)

    largest = runs[-1]
    payload = {
        "schema": SCALE_BENCH_SCHEMA,
        "generated_by": "python -m repro bench-scale",
        "config": {
            "quick": quick,
            "reps": nreps,
            "engine": "des",
            "alltoall_algorithm": "hierarchical",
            "plan_family": "n=P^2, p=P, beta=1, b=2 (minimal admissible block)",
            "points": [{"nranks": P, "ranks_per_node": rpn} for P, rpn in points],
            "fabric_header_bytes": FABRIC_HEADER_BYTES,
            "metric": (
                "measured wall seconds (cold + steady) for executed "
                "DES runs; inter-node traffic pinned to the Section 7.4 "
                "analytic model"
            ),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "runs": runs,
        "engine_anchor": anchor,
        "headline": {
            "name": (
                f"P={largest['nranks']} SOI FFT executed on "
                f"{largest['nodes']} modelled nodes, DES engine"
            ),
            "cold_wall_s": largest["cold_wall_s"],
            "steady_wall_s": largest["steady_wall_s"],
            "virtual_time_s": largest["virtual_time_s"],
            "traffic_matches_model_all_points": bool(
                all(
                    r["traffic"]["messages_match_model"]
                    and r["traffic"]["bytes_match_model"]
                    for r in runs
                )
            ),
            "engines_bitwise_equal": anchor["bitwise_equal"],
        },
    }
    traffic = [r["traffic"] for r in runs]
    return with_gates(payload, {
        "points messages_match_model": all(t["messages_match_model"] for t in traffic),
        "points bytes_match_model": all(t["bytes_match_model"] for t in traffic),
        "points outputs_stable": all(r["outputs_stable"] for r in runs),
        "points virtual_time_stable": all(r["virtual_time_stable"] for r in runs),
        "anchor bitwise_equal": anchor["bitwise_equal"],
        "anchor stats_equal": anchor["stats_equal"],
        "traffic_matches_model_all_points": (
            payload["headline"]["traffic_matches_model_all_points"]
        ),
    })
