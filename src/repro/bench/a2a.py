"""All-to-all schedule benchmark: pairwise vs bruck vs hierarchical.

Unlike :mod:`repro.bench.overlap`, the headline here is not a wall
clock: the quantity the hierarchical schedule exists to shrink is
*what crosses the node boundary* — inter-node message count and wire
bytes — and threads in one address space measure that exactly (every
send is recorded by :class:`~repro.simmpi.stats.TrafficStats` with
topology-aware attribution, headers included).  The measured traffic is
then priced on the paper's Endeavor fabric model
(:class:`~repro.cluster.topology.FatTree`) with the per-message
overhead term, giving a modelled all-to-all time per schedule.

The sweep covers algorithm x per-pair message size x node shape for a
fixed P = 16 world factored two ways (4 nodes x 4 ranks and
8 nodes x 2 ranks — the acceptance shapes).  Every cell re-checks
bitwise equality against the pairwise reference, and the measured
message counts are pinned to the analytic schedule model
(:func:`repro.simmpi.predicted_inter_node_messages`).

Why hierarchical wins: the payload volume of a personalised all-to-all
is algorithm-invariant, so the win is entirely in message COUNT —
``P^2`` pairwise messages collapse to ``(P/R)^2`` node-pair messages,
taking the per-message fabric overhead (header bytes on the wire,
``message_overhead_s`` in the model) down with it.

``python -m repro bench-a2a`` runs this and writes ``BENCH_PR8.json``.
"""

from __future__ import annotations

import sys

import numpy as np

from ..cluster.topology import FatTree
from ..core.plan import SoiPlan
from ..parallel.soi_dist import soi_fft_distributed
from ..simmpi import predicted_inter_node_messages
from ..simmpi.nodes import FABRIC_HEADER_BYTES
from ..simmpi.runtime import run_spmd
from .runner import with_gates
from .workloads import random_complex

__all__ = ["run_a2a_bench", "A2A_BENCH_SCHEMA"]

A2A_BENCH_SCHEMA = "repro-bench-a2a/1"

#: The benchmark world and its two node factorisations.
_NRANKS = 16
_SHAPES = (4, 2)  # ranks per node: 4 nodes x 4, 8 nodes x 2

_ALGORITHMS = ("pairwise", "bruck", "hierarchical")


def _exchange(nranks: int, rpn: int, block_elems: int, algorithm: str):
    """One raw all-to-all; returns (traffic dict, stacked output)."""

    def body(comm):
        gen = np.random.default_rng(10_007 + comm.rank)
        objs = [
            gen.standard_normal(block_elems) + 1j * gen.standard_normal(block_elems)
            for _ in range(nranks)
        ]
        return np.stack(comm.alltoall(objs, algorithm=algorithm))

    res = run_spmd(nranks, body, ranks_per_node=rpn)
    st = res.stats
    traffic = {
        "inter_node_bytes": int(st.total_inter_node_bytes),
        "intra_node_bytes": int(st.total_intra_node_bytes),
        "inter_node_messages": int(st.total_inter_node_messages),
    }
    return traffic, np.stack(res.values)


def _sweep_shape(rpn: int, sizes: tuple[int, ...], fabric: FatTree) -> dict:
    nnodes = _NRANKS // rpn
    cells = []
    for block_elems in sizes:
        ref = None
        row: dict = {"block_elems": block_elems, "block_bytes": block_elems * 16}
        for algorithm in _ALGORITHMS:
            traffic, out = _exchange(_NRANKS, rpn, block_elems, algorithm)
            if ref is None:
                ref = out
            traffic["bitwise_equal_to_pairwise"] = bool(np.array_equal(out, ref))
            traffic["predicted_inter_node_messages"] = predicted_inter_node_messages(
                _NRANKS, rpn, algorithm
            )
            traffic["messages_match_model"] = bool(
                traffic["inter_node_messages"]
                == traffic["predicted_inter_node_messages"]
            )
            traffic["modelled_fat_tree_us"] = fabric.alltoall_time(
                traffic["inter_node_bytes"],
                nnodes,
                messages=traffic["inter_node_messages"],
            ) * 1e6
            row[algorithm] = traffic
        cells.append(row)

    # Headline ratios at the largest message size (the hardest case for
    # hierarchical — per-message overhead matters least there).
    last = cells[-1]
    pw, hier = last["pairwise"], last["hierarchical"]
    return {
        "nranks": _NRANKS,
        "ranks_per_node": rpn,
        "nodes": nnodes,
        "cells": cells,
        "headline": {
            "block_bytes": last["block_bytes"],
            "inter_node_bytes_ratio": pw["inter_node_bytes"] / hier["inter_node_bytes"],
            "inter_node_messages_ratio": (
                pw["inter_node_messages"] / hier["inter_node_messages"]
            ),
            "modelled_time_ratio": pw["modelled_fat_tree_us"] / hier["modelled_fat_tree_us"],
            "hierarchical_wins": bool(
                hier["inter_node_bytes"] < pw["inter_node_bytes"]
                and hier["modelled_fat_tree_us"] < pw["modelled_fat_tree_us"]
            ),
        },
    }


def _soi_section(quick: bool, fabric: FatTree) -> dict:
    """SOI's single all-to-all under each schedule, end to end."""
    nranks, n = (8, 8192) if quick else (16, 65536)
    rpn = 4
    plan = SoiPlan(n=n, p=nranks)
    x = random_complex(n, seed=n % 9973)
    blocks = x.reshape(nranks, -1)

    out: dict = {"n": n, "nranks": nranks, "ranks_per_node": rpn, "p": plan.p}
    ref = None
    for algorithm in ("pairwise", "hierarchical"):
        res = run_spmd(
            nranks,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], plan, alltoall_algorithm=algorithm
            ),
            ranks_per_node=rpn,
        )
        y = np.concatenate(res.values)
        if ref is None:
            ref = y
        st = res.stats
        ph = st.phase("alltoall")
        out[algorithm] = {
            "inter_node_bytes": int(st.total_inter_node_bytes),
            "intra_node_bytes": int(st.total_intra_node_bytes),
            "inter_node_messages": int(st.total_inter_node_messages),
            "alltoall_phase_inter_node_messages": int(ph.inter_node_messages),
            "modelled_fat_tree_us": fabric.alltoall_time(
                ph.inter_node_bytes,
                nranks // rpn,
                messages=ph.inter_node_messages,
            ) * 1e6,
            "bitwise_equal_to_pairwise": bool(np.array_equal(y, ref)),
        }
    pw, hier = out["pairwise"], out["hierarchical"]
    out["hierarchical_wins"] = bool(
        hier["inter_node_bytes"] < pw["inter_node_bytes"]
        and hier["modelled_fat_tree_us"] < pw["modelled_fat_tree_us"]
    )
    return out


def run_a2a_bench(quick: bool = False, reps: int | None = None) -> dict:
    """Run the all-to-all schedule benchmark; returns ``BENCH_PR8.json``.

    ``quick=True`` drops the largest message size and shrinks the SOI
    case for CI smoke runs; the node shapes, the algorithms and the
    schema are identical either way.  *reps* re-runs the full sweep and
    asserts the measured traffic is identical across repetitions (the
    counters are deterministic — any flake is a bug); the recorded
    payload is always the first run's.
    """
    sizes = (64, 1024) if quick else (64, 1024, 8192)
    fabric = FatTree()

    def once() -> list[dict]:
        return [_sweep_shape(rpn, sizes, fabric) for rpn in _SHAPES]

    shapes = once()
    stable = True
    for _ in range((reps or 1) - 1):
        again = [
            {k: v for k, v in s.items() if k != "headline"} for s in once()
        ]
        first = [{k: v for k, v in s.items() if k != "headline"} for s in shapes]
        stable = stable and again == first

    payload = {
        "schema": A2A_BENCH_SCHEMA,
        "generated_by": "python -m repro bench-a2a",
        "config": {
            "quick": quick,
            "reps": reps or 1,
            "nranks": _NRANKS,
            "node_shapes": [
                {"ranks_per_node": rpn, "nodes": _NRANKS // rpn} for rpn in _SHAPES
            ],
            "algorithms": list(_ALGORITHMS),
            "block_elems": list(sizes),
            "fabric": fabric.name,
            "fabric_header_bytes": FABRIC_HEADER_BYTES,
            "message_overhead_s": fabric.message_overhead_s,
            "metric": (
                "measured TrafficStats inter-node bytes/messages (headers "
                "included), priced by FatTree.alltoall_time with the "
                "per-message overhead term"
            ),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "shapes": shapes,
        "soi": _soi_section(quick, fabric),
        "traffic_stable_across_reps": stable,
        "headline": {
            "name": (
                f"P={_NRANKS} all-to-all, hierarchical vs pairwise on the "
                "modelled fat tree, largest message size per shape"
            ),
            "per_shape": {
                f"{s['nodes']}x{s['ranks_per_node']}": s["headline"]
                for s in shapes
            },
            "hierarchical_wins_all_shapes": bool(
                all(s["headline"]["hierarchical_wins"] for s in shapes)
            ),
        },
    }
    heads = [s["headline"] for s in shapes]
    cells = [c[a] for s in shapes for c in s["cells"] for a in _ALGORITHMS]
    return with_gates(payload, {
        "two node shapes": len(shapes) == 2,
        "cells bitwise_equal_to_pairwise": all(
            c["bitwise_equal_to_pairwise"] for c in cells
        ),
        "cells messages_match_model": all(c["messages_match_model"] for c in cells),
        "shapes hierarchical_wins": all(h["hierarchical_wins"] for h in heads),
        "shapes inter_node_bytes_ratio > 1": all(
            h["inter_node_bytes_ratio"] > 1.0 for h in heads
        ),
        "shapes modelled_time_ratio > 1": all(
            h["modelled_time_ratio"] > 1.0 for h in heads
        ),
        "hierarchical_wins_all_shapes": (
            payload["headline"]["hierarchical_wins_all_shapes"]
        ),
        "soi hierarchical_wins": payload["soi"]["hierarchical_wins"],
    })
