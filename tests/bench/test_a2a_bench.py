"""All-to-all schedule gates: pairwise vs bruck vs hierarchical at P=16.

Every traffic number is a measured TrafficStats counter: each raw
exchange must be bitwise equal to pairwise, its inter-node message
count must match the analytic model, and at both node shapes the
hierarchical schedule must beat pairwise on measured inter-node bytes
and on the modelled fat-tree time.  SOI's one all-to-all is checked
the same way end to end.
"""

import json

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.cluster.topology import FatTree
from repro.core.plan import SoiPlan
from repro.parallel import soi_fft_distributed
from repro.simmpi import (
    FABRIC_HEADER_BYTES,
    TrafficStats,
    predicted_inter_node_messages,
    run_spmd,
)

NRANKS = 16
RANKS_PER_NODE = (4, 2)  # 4 nodes x 4 ranks and 8 nodes x 2 ranks
ALGORITHMS = ("pairwise", "bruck", "hierarchical")
BLOCK_ELEMS = (64, 1024)
FABRIC = FatTree()


def _exchange(rpn, block_elems, algorithm):
    def body(comm):
        gen = np.random.default_rng(10_007 + comm.rank)
        return np.stack(comm.alltoall(
            [gen.standard_normal(block_elems) + 1j * gen.standard_normal(block_elems)
             for _ in range(NRANKS)],
            algorithm=algorithm,
        ))

    res = run_spmd(NRANKS, body, ranks_per_node=rpn)
    return np.stack(res.values), res.stats


def _cell(stats, nodes, out, ref):
    return {
        "inter_node_bytes": int(stats.total_inter_node_bytes),
        "inter_node_messages": int(stats.total_inter_node_messages),
        "modelled_s": FABRIC.alltoall_time(
            stats.total_inter_node_bytes, nodes,
            messages=stats.total_inter_node_messages,
        ),
        "bitwise_equal_to_pairwise": bool(np.array_equal(out, ref)),
        "stats": stats.as_dict(),
    }


def _sweep():
    shapes = {}
    for rpn in RANKS_PER_NODE:
        cells = []
        for block_elems in BLOCK_ELEMS:
            row, ref = {}, None
            for algorithm in ALGORITHMS:
                out, stats = _exchange(rpn, block_elems, algorithm)
                ref = out if ref is None else ref
                row[algorithm] = _cell(stats, NRANKS // rpn, out, ref)
            cells.append(row)
        shapes[rpn] = cells
    return shapes


@pytest.fixture(scope="module")
def shapes():
    return _sweep()


@pytest.fixture(scope="module")
def soi():
    """SOI's one all-to-all under pairwise and hierarchical, 8 ranks x 4/node."""
    n, nranks, rpn = 8192, 8, 4
    plan = SoiPlan(n=n, p=nranks)
    blocks = random_complex(n, seed=n % 9973).reshape(nranks, -1)
    out = {}
    for algorithm in ("pairwise", "hierarchical"):
        res = run_spmd(
            nranks,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], plan, alltoall_algorithm=algorithm
            ),
            ranks_per_node=rpn,
        )
        ph = res.stats.phase("alltoall")
        out[algorithm] = {
            "y": np.concatenate(res.values),
            "inter_node_bytes": int(res.stats.total_inter_node_bytes),
            "alltoall_inter_node_messages": int(ph.inter_node_messages),
            "modelled_s": FABRIC.alltoall_time(
                ph.inter_node_bytes, nranks // rpn, messages=ph.inter_node_messages
            ),
        }
    return out


def _wins(pw, hier):
    return (hier["inter_node_bytes"] < pw["inter_node_bytes"]
            and hier["modelled_s"] < pw["modelled_s"])


class TestPayloadSchema:
    def test_schema_tag(self, shapes):
        """Each cell's traffic is the canonical TrafficStats document."""
        for cells in shapes.values():
            for row in cells:
                for cell in row.values():
                    doc = cell["stats"]
                    assert TrafficStats.from_dict(doc).as_dict() == doc

    def test_json_serialisable(self, shapes):
        for cells in shapes.values():
            for row in cells:
                for cell in row.values():
                    assert json.loads(json.dumps(cell)) == cell

    def test_gates_all_pass(self, shapes, soi):
        m = TestMeasurements()
        m.test_every_cell_bitwise_equal_and_model_exact(shapes)
        m.test_acceptance_hierarchical_wins_both_shapes(shapes)
        m.test_soi_section_end_to_end(soi)

    def test_top_level_sections(self, shapes):
        assert set(shapes) == set(RANKS_PER_NODE)
        for cells in shapes.values():
            assert len(cells) == len(BLOCK_ELEMS)
            for row in cells:
                assert tuple(row) == ALGORITHMS

    def test_config_records_the_setup(self):
        """The fabric model charges a header and an overhead per message."""
        assert FABRIC_HEADER_BYTES == 64
        assert FABRIC.message_overhead_s > 0


class TestMeasurements:
    def test_every_cell_bitwise_equal_and_model_exact(self, shapes):
        for rpn, cells in shapes.items():
            for row in cells:
                for algorithm, cell in row.items():
                    assert cell["bitwise_equal_to_pairwise"]
                    assert cell["inter_node_messages"] == (
                        predicted_inter_node_messages(NRANKS, rpn, algorithm)
                    )

    def test_traffic_deterministic_across_reps(self, shapes):
        again = _sweep()
        assert again == shapes

    def test_acceptance_hierarchical_wins_both_shapes(self, shapes):
        # Hierarchical beats pairwise on measured inter-node bytes AND
        # modelled fat-tree time at both node shapes, largest message.
        assert len(shapes) == 2
        for cells in shapes.values():
            pw, hier = cells[-1]["pairwise"], cells[-1]["hierarchical"]
            assert _wins(pw, hier)
            assert pw["inter_node_bytes"] / hier["inter_node_bytes"] > 1.0
            assert pw["modelled_s"] / hier["modelled_s"] > 1.0

    def test_message_collapse_ratio(self, shapes):
        # 4 nodes x 4 ranks: 192 pairwise inter-node messages vs 12.
        row = shapes[4][-1]
        assert row["pairwise"]["inter_node_messages"] == 192
        assert row["hierarchical"]["inter_node_messages"] == 12

    def test_soi_section_end_to_end(self, soi):
        pw, hier = soi["pairwise"], soi["hierarchical"]
        assert np.array_equal(hier["y"], pw["y"])
        assert _wins(pw, hier)
        assert hier["alltoall_inter_node_messages"] < pw["alltoall_inter_node_messages"]
