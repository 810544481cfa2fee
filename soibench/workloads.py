"""The closed-loop workloads (``seq-large``, ``seq-small-c64``, ``dist-soi``)
and what every workload shares: the interleaved ratio rounds, the op log
and the per-layer metric table.

Every call into the library goes through public names of ``repro.core``,
``repro.dft``, ``repro.simmpi`` and ``repro.parallel``; the traced runs
replay each library call through its public pieces and require the
replay to be bitwise-equal to the call it decomposes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import SoiPlan, clear_soi_plan_cache, soi_fft
from repro.dft import (
    clear_plan_cache,
    fft_flops,
    get_backend,
    plan_cache_info,
    plan_for,
)
from repro.dft.backends import backend_fft_tt
from repro.dft.flops import soi_convolution_flops
from repro.parallel import soi_fft_distributed
from repro.simmpi import (
    FABRIC_HEADER_BYTES,
    NodeMap,
    predicted_inter_node_messages,
    run_spmd,
)

from .metrics import median, ratio_of_medians, rel_l2, soi_budget
from .tracer import Tracer

BACKEND = "repro"
RANKS_PER_NODE = 4
ALGORITHM = "hierarchical"
#: A run times at least this many ops, so the tail percentile (10
#: samples beyond it) sits at or above the median even for a very short
#: ``--seconds``.
MIN_OPS = 20
#: Ratio rounds per run, at least (each round: world, sequential, numpy).
MIN_RATIO_ROUNDS = 3
#: Shortest burst of one kind of call in a ratio round, seconds.
BURST_S = 0.03

#: Every per-layer metric with its unit.  A workload reports all of
#: them; a layer the workload does not run reports 0.
PER_LAYER = {
    "core.plan.build_ms": "ms",
    "core.conv.busy_ms": "ms",
    "core.conv.gflops": "GFLOP/s",
    "core.conv.bytes_computed": "bytes",
    "core.demod.busy_ms": "ms",
    "dft.fft_p.busy_ms": "ms",
    "dft.fft_m.busy_ms": "ms",
    "dft.fft_m.gflops": "GFLOP/s",
    "dft.plan_cache.hit_ratio": "ratio",
    "dft.plan_cache.misses_after_warm": "count",
    "dft.tune.races_run": "count",
    "simmpi.launch_ms": "ms",
    "simmpi.halo.busy_ms": "ms",
    "simmpi.halo.wait_ms": "ms",
    "simmpi.alltoall.busy_ms": "ms",
    "simmpi.alltoall.wait_ms": "ms",
    "simmpi.inter_node_bytes": "bytes",
    "simmpi.inter_node_msgs": "count",
    "simmpi.alltoall_rounds": "count",
    "simmpi.retransmits": "count",
    "parallel.rank.busy_ms": "ms",
    "parallel.rank.imbalance": "ratio",
    "parallel.unpack.busy_ms": "ms",
    "serve.submit_us": "us",
    "serve.queue_wait_p50_ms": "ms",
    "serve.batch_wait_p50_ms": "ms",
    "serve.execute_p50_ms": "ms",
    "serve.mean_batch_size": "count",
    "serve.backlog_max": "count",
    "serve.shed": "count",
    "serve.rejected": "count",
    "loadgen.late_p99_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "trace.overhead_share": "ratio",
}


class ReplayMismatch(RuntimeError):
    """The traced replay diverged from the library call it decomposes."""


@dataclass
class OpLog:
    """What the timed phase of one run observed."""

    slo_s: float
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    slo_met: int = 0
    max_rel_err: float = 0.0
    wall_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def record(self, latency: float | None, ok: bool, err: float | None = None) -> None:
        """One attempted op: its latency (None if it never completed)."""
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
        if err is not None:
            self.max_rel_err = max(self.max_rel_err, err)
        if not ok:
            self.failed += 1
        elif latency is not None and latency <= self.slo_s:
            self.slo_met += 1

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def timed_ops(seconds: float, log: OpLog):
    """Op indices 0, 1, ... until *seconds* have passed and at least
    ``MIN_OPS`` ops were attempted."""
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or log.attempted < MIN_OPS:
        yield i
        i += 1


def random_vector(rng: np.random.Generator, n: int, dtype) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)


def clear_caches() -> None:
    """Forget every plan, so a set-up pays what a fresh process pays."""
    clear_plan_cache()
    clear_soi_plan_cache()


def soi_world(plan: SoiPlan, x: np.ndarray, nranks: int, program=None):
    """One DES world of *nranks* ranks running *program* (default: the
    library's ``soi_fft_distributed``) on block-distributed *x*."""
    block = plan.n // nranks
    if program is None:
        def program(comm):
            lo = comm.rank * block
            return soi_fft_distributed(
                comm, x[lo : lo + block], plan, backend=BACKEND,
                alltoall_algorithm=ALGORITHM,
            )
    res = run_spmd(nranks, program, engine="des", ranks_per_node=RANKS_PER_NODE)
    return np.concatenate(res.values), res


def _empty_rank(comm) -> None:
    return None


def launch_s(nranks: int, engine: str, ranks_per_node: int | None) -> float:
    """Wall time of one empty world (launch to join)."""
    t0 = time.perf_counter()
    run_spmd(nranks, _empty_rank, engine=engine, ranks_per_node=ranks_per_node)
    return time.perf_counter() - t0


def cache_delta(before: dict, after: dict) -> dict:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "misses": misses,
        "races_run": after["races_run"],
        "wisdom_entries": after["wisdom_entries"],
    }


def fft_cols(plan: SoiPlan, z_t: np.ndarray) -> np.ndarray:
    """The P-point stage, column-wise, at the plan's precision."""
    if plan.dtype == np.complex64:
        return plan_for(z_t.shape[0], precision="single").execute_tt(z_t)
    return backend_fft_tt(get_backend(BACKEND), z_t)


def fft_rows(plan: SoiPlan, segs: np.ndarray) -> np.ndarray:
    """The M'-point stage, row-wise, at the plan's precision."""
    if plan.dtype == np.complex64:
        return plan_for(segs.shape[-1], precision="single").execute(segs, inverse=False)
    return get_backend(BACKEND).fft(segs)


def replay_seq(plan: SoiPlan, x: np.ndarray, tracer: Tracer, op: int) -> np.ndarray:
    """``soi_fft(x, plan, backend="repro")`` for 1-D *x*, layer by layer."""
    with tracer.span("core.window_view", op):
        winb = plan.window_view(x, x[: plan.b * plan.p], plan.q_chunks)
    with tracer.span("core.conv", op):
        z_t = plan.contract_windows_t(winb).reshape(plan.p, plan.m_over)
    with tracer.span("dft.fft_p", op):
        segments = fft_cols(plan, z_t)
    with tracer.span("dft.fft_m", op):
        yt = fft_rows(plan, segments)
    with tracer.span("core.demod", op):
        y = yt[..., : plan.m] * plan.demod_recip
    return y.reshape(plan.n)


def replay_rank(comm, x_local: np.ndarray, plan: SoiPlan, tracer: Tracer, op: int):
    """``soi_fft_distributed`` (blocking path) on one rank, layer by layer."""
    size, rank = comm.size, comm.rank
    s_per = plan.p // size
    block = plan.n // size
    rows = plan.m_over // size
    with tracer.span("parallel.rank", op, rank):
        with tracer.span("simmpi.halo", op, rank), comm.phase("halo"):
            halo = comm.sendrecv(
                x_local[: plan.halo], dest=(rank - 1) % size, source=(rank + 1) % size
            )
        with tracer.span("core.window_view", op, rank):
            winb = plan.window_view(x_local, halo, block // (plan.nu * plan.p))
        with tracer.span("core.conv", op, rank):
            z_t = plan.contract_windows_t(winb).reshape(plan.p, rows)
        comm.trace_compute("convolve", soi_convolution_flops(rows * plan.p, plan.b), kind="conv")
        with tracer.span("dft.fft_p", op, rank):
            v_t = fft_cols(plan, z_t)
        comm.trace_compute("fft-p", rows * fft_flops(plan.p))
        with tracer.span("simmpi.alltoall", op, rank), comm.phase("alltoall"):
            mat = comm.alltoall_matrix(v_t.reshape(size, s_per, -1), algorithm=ALGORITHM)
        with tracer.span("parallel.unpack", op, rank):
            segs = np.ascontiguousarray(mat.transpose(1, 0, 2)).reshape(s_per, -1)
        with tracer.span("dft.fft_m", op, rank):
            yt = fft_rows(plan, segs)
        comm.trace_compute("fft-m", s_per * fft_flops(plan.m_over))
        with tracer.span("core.demod", op, rank):
            y = yt[:, : plan.m] * plan.demod_recip[None, :]
    return y.reshape(block)


def layer_ms(tracer: Tracer, name: str, kind: str = "busy") -> float:
    """Median over ops of the op's total busy (or wait) time in *name*.

    Wait is wall time minus busy time.  Spans of one op on several ranks
    are summed, so the figure is the whole transform's time in the layer.
    """
    per_op = tracer.per_op(name)
    if not per_op:
        return 0.0
    totals = []
    for spans in per_op.values():
        busy = sum(s.busy_ns for s in spans)
        totals.append(busy if kind == "busy" else sum(s.wall_ns for s in spans) - busy)
    return median(totals) / 1e6


def layer_wall_s(tracer: Tracer, name: str) -> float:
    return median([sum(s.wall_ns for s in v) for v in tracer.per_op(name).values()]) / 1e9


def compute_layers(tracer: Tracer, plan: SoiPlan, ranks: int = 1) -> dict:
    """The ``core``/``dft`` rows shared by the sequential and distributed
    replays (*ranks* ranks each contract their share of the windows)."""
    itemsize = np.dtype(plan.dtype).itemsize
    conv_flops = soi_convolution_flops(plan.n_over, plan.b)
    fft_m_flops = plan.p * fft_flops(plan.m_over)
    return {
        "core.conv.busy_ms": layer_ms(tracer, "core.conv"),
        "core.conv.gflops": conv_flops / layer_wall_s(tracer, "core.conv") / 1e9,
        # Operand and result bytes of the contraction, per transform:
        # the strided windows it reads, the coefficient tensor (once per
        # rank), and z.
        "core.conv.bytes_computed": itemsize * (
            plan.q_chunks * plan.b * plan.p + ranks * plan.mu * plan.b * plan.p + plan.n_over
        ),
        "core.demod.busy_ms": layer_ms(tracer, "core.demod"),
        "dft.fft_p.busy_ms": layer_ms(tracer, "dft.fft_p"),
        "dft.fft_m.busy_ms": layer_ms(tracer, "dft.fft_m"),
        "dft.fft_m.gflops": fft_m_flops / layer_wall_s(tracer, "dft.fft_m") / 1e9,
    }


class Workload:
    """One named workload; subclasses fill in the hooks."""

    name = ""
    #: The latency limit ``slo_share`` counts against, seconds.
    slo_s = 1.0
    #: Bytes of one transform's input vector (recorded against L2/L3).
    working_set_bytes = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.last_build_s = 0.0

    def prepare(self) -> None:
        """Generate seeded inputs and verified expected outputs (untimed)."""

    def setup(self) -> None:
        """One set-up: plan builds, cache warm-up, server start."""

    def teardown(self) -> None:
        """Undo :meth:`setup` where it left something running."""

    def run(self, seconds: float) -> OpLog:
        raise NotImplementedError

    def traced(self, seconds: float, tracer: Tracer) -> tuple[dict, OpLog]:
        raise NotImplementedError

    # -- interleaved ratio rounds ------------------------------------
    def ratio_case(self) -> tuple[SoiPlan, np.ndarray, np.ndarray]:
        """``(plan, x, soi_fft(x, plan))`` at the workload's SOI shape."""
        raise NotImplementedError

    def ratio_round(self, bursts: tuple[int, int, int]) -> tuple[float, float, float]:
        """One round: bursts of DES worlds of P ranks, sequential
        ``soi_fft`` calls and ``numpy.fft.fft`` calls, back to back on the
        same input.  Returns the mean time of one call in each burst."""
        plan, x, want = self.ratio_case()
        # Fixed buffer placement: a power-of-two FFT's speed depends on
        # where its input and output sit relative to each other (numpy at
        # N=2^18 measured 13 ms with both page-aligned, 7 ms with the
        # output 256 bytes off), and a fresh output per call adds page
        # faults that depend on the allocation history.  Either would make
        # the ratio differ between processes running identical code.
        x = _page_aligned(x)
        ref_out = _page_aligned(x, offset=256)
        k_world, k_seq, k_ref = bursts
        t0 = time.perf_counter()
        for _ in range(k_world):
            yw, _ = soi_world(plan, x, plan.p)
        t1 = time.perf_counter()
        for _ in range(k_seq):
            ys = soi_fft(x, plan, backend=BACKEND)
        t2 = time.perf_counter()
        for _ in range(k_ref):
            np.fft.fft(x, out=ref_out)
        t3 = time.perf_counter()
        if not (np.array_equal(yw, want) and np.array_equal(ys, want)):
            raise AssertionError(f"{self.name}: ratio round output differs from soi_fft")
        return (t1 - t0) / k_world, (t2 - t1) / k_seq, (t3 - t2) / k_ref

    def ratios(self, seconds: float) -> dict:
        """``dist_over_seq`` and ``soi_over_numpy`` from interleaved rounds.

        An untimed warm round of single calls sizes the bursts so each
        lasts at least ``BURST_S``: a sub-millisecond call timed alone is
        mostly timer and scheduler noise.
        """
        warm = self.ratio_round((1, 1, 1))
        bursts = tuple(max(1, math.ceil(BURST_S / max(t, 1e-9))) for t in warm)
        world, seq, ref = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(world) < MIN_RATIO_ROUNDS:
            w, s, r = self.ratio_round(bursts)
            world.append(w)
            seq.append(s)
            ref.append(r)
        return {
            "dist_over_seq": ratio_of_medians(world, seq),
            "soi_over_numpy": ratio_of_medians(seq, ref),
            "rounds": len(world),
            "bursts": bursts,
        }


def _page_aligned(x: np.ndarray, offset: int = 0) -> np.ndarray:
    """A copy of *x* starting *offset* bytes past a 4 KiB boundary."""
    raw = np.empty(x.nbytes + 4096 + offset, dtype=np.uint8)
    start = (-raw.ctypes.data) % 4096 + offset
    out = raw[start : start + x.nbytes].view(x.dtype)
    out[...] = x
    return out


class _VerifiedInputs:
    """Seeded inputs with numpy references and verified library outputs."""

    def __init__(self, rng, plan: SoiPlan, count: int) -> None:
        self.budget = soi_budget(plan)
        self.inputs = [random_vector(rng, plan.n, plan.dtype) for _ in range(count)]
        self.refs = [np.fft.fft(x.astype(np.complex128)) for x in self.inputs]
        self.expected = [soi_fft(x, plan, backend=BACKEND) for x in self.inputs]
        self.errs = [rel_l2(y, r) for y, r in zip(self.expected, self.refs)]

    def __len__(self) -> int:
        return len(self.inputs)

    def check(self, k: int, y: np.ndarray) -> tuple[bool, float]:
        """Is *y* a correct transform of input *k*?  Returns (ok, rel err)."""
        if np.array_equal(y, self.expected[k]):
            err = self.errs[k]
        else:
            err = rel_l2(y, self.refs[k])
        return err <= self.budget, err


class SeqWorkload(Workload):
    """Closed loop, one caller: forward ``soi_fft`` on one plan."""

    def __init__(self, seed: int, name: str, n: int, p: int, dtype,
                 slo_s: float, inputs: int) -> None:
        super().__init__(seed)
        self.name = name
        self.n, self.p, self.dtype = n, p, np.dtype(dtype)
        self.slo_s = slo_s
        self.n_inputs = inputs
        self.working_set_bytes = n * self.dtype.itemsize

    def _plan(self) -> SoiPlan:
        return SoiPlan(n=self.n, p=self.p, dtype=self.dtype)

    def prepare(self) -> None:
        self.data = _VerifiedInputs(
            np.random.default_rng(self.seed), self._plan(), self.n_inputs
        )

    def setup(self) -> None:
        clear_caches()
        t0 = time.perf_counter()
        self.plan = self._plan()
        self.last_build_s = time.perf_counter() - t0
        self.warm()

    def warm(self) -> None:
        """Run the op once, so plans, paths and workspaces exist."""
        soi_fft(self.data.inputs[0], self.plan, backend=BACKEND)

    def ratio_case(self) -> tuple[SoiPlan, np.ndarray, np.ndarray]:
        return self.plan, self.data.inputs[0], self.data.expected[0]

    def run(self, seconds: float) -> OpLog:
        log = OpLog(self.slo_s)
        data, plan = self.data, self.plan
        t_start = time.perf_counter()
        for i in timed_ops(seconds, log):
            k = i % len(data)
            t0 = time.perf_counter()
            y = soi_fft(data.inputs[k], plan, backend=BACKEND)
            dt = time.perf_counter() - t0
            ok, err = data.check(k, y)
            if not ok:
                log.problem(f"op {i}: rel err {err:.3e} > budget {data.budget:.3e}")
            log.record(dt, ok, err)
        log.wall_s = time.perf_counter() - t_start
        return log

    def traced(self, seconds: float, tracer: Tracer) -> tuple[dict, OpLog]:
        log = OpLog(self.slo_s)
        data, plan = self.data, self.plan
        plain, traced = [], []
        before = plan_cache_info()
        t_start = time.perf_counter()
        for i in timed_ops(seconds, log):
            k = i % len(data)
            x = data.inputs[k]
            t0 = time.perf_counter()
            y = soi_fft(x, plan, backend=BACKEND)
            t1 = time.perf_counter()
            with tracer.span("soi.op", i):
                yr = replay_seq(plan, x, tracer, i)
            t2 = time.perf_counter()
            if not np.array_equal(yr, y):
                raise ReplayMismatch(f"{self.name} op {i}: replay differs from soi_fft")
            ok, err = data.check(k, y)
            log.record(t1 - t0, ok, err)
            plain.append(t1 - t0)
            traced.append(t2 - t1)
        log.wall_s = time.perf_counter() - t_start
        cache = cache_delta(before, plan_cache_info())
        layers = compute_layers(tracer, plan)
        layers.update({
            "dft.plan_cache.hit_ratio": cache["hit_ratio"],
            "dft.plan_cache.misses_after_warm": cache["misses"],
            "dft.tune.races_run": cache["races_run"],
            "trace.overhead_share": median(traced) / median(plain) - 1.0,
        })
        return layers, log


class DistWorkload(SeqWorkload):
    """Closed loop: each op is one 16-rank DES world of ``soi_fft_distributed``
    (4 ranks a node, hierarchical all-to-all)."""

    nranks = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed, "dist-soi", 2 ** 18, 16, np.complex128, slo_s=0.5, inputs=4)

    def warm(self) -> None:
        soi_world(self.plan, self.data.inputs[0], self.nranks)
        super().warm()

    def count_problems(self, stats) -> list[str]:
        """Exact traffic counts of one world against the Section 7.4 model."""
        plan, nranks = self.plan, self.nranks
        nm = NodeMap(nranks, RANKS_PER_NODE)
        itemsize = np.dtype(plan.dtype).itemsize
        msgs = predicted_inter_node_messages(nranks, RANKS_PER_NODE, ALGORITHM)
        # One row of (P/R) segments x (M'/R) points per ordered
        # cross-node rank pair, plus a fabric header per message.
        row = (plan.p // nranks) * (plan.m_over // nranks) * itemsize
        per_node = [len(nm.ranks_on(node)) for node in range(nm.nnodes)]
        pairs = sum(r * (nranks - r) for r in per_node)
        a2a, halo = stats.phase("alltoall"), stats.phase("halo")
        want = {
            "alltoall inter-node messages": (a2a.inter_node_messages, msgs),
            "alltoall inter-node bytes": (
                a2a.inter_node_bytes, pairs * row + msgs * FABRIC_HEADER_BYTES),
            # The halo ring crosses a node boundary once per node.
            "halo inter-node messages": (halo.inter_node_messages, nm.nnodes),
            "halo inter-node bytes": (
                halo.inter_node_bytes,
                nm.nnodes * (plan.halo * itemsize + FABRIC_HEADER_BYTES)),
            "alltoall rounds": (stats.alltoall_rounds, 1),
            "retransmits": (stats.total_retransmits, 0),
        }
        return [f"{k}: measured {got}, model {exp}" for k, (got, exp) in want.items()
                if got != exp]

    def _op(self, i: int, log: OpLog):
        k = i % len(self.data)
        t0 = time.perf_counter()
        y, res = soi_world(self.plan, self.data.inputs[k], self.nranks)
        dt = time.perf_counter() - t0
        ok = np.array_equal(y, self.data.expected[k]) and self.data.errs[k] <= self.data.budget
        if not ok:
            log.problem(f"op {i}: world output differs from soi_fft")
        problems = self.count_problems(res.stats)
        for text in problems:
            log.problem(f"op {i}: {text}")
        log.record(dt, ok and not problems, self.data.errs[k])
        log.extra["modelled_makespan_us"] = res.virtual_time_s * 1e6
        return y, res, dt

    def _pin_caches(self, log: OpLog, cache: dict) -> None:
        """Warm worlds miss no plan and race no kernel (no wisdom loaded);
        a violation counts as one failed op."""
        if cache["misses"] or cache["races_run"] or cache["wisdom_entries"]:
            log.problem(f"plan cache after warm-up: {cache}")
            log.failed += 1

    def run(self, seconds: float) -> OpLog:
        log = OpLog(self.slo_s)
        before = plan_cache_info()
        t_start = time.perf_counter()
        for i in timed_ops(seconds, log):
            self._op(i, log)
        log.wall_s = time.perf_counter() - t_start
        self._pin_caches(log, cache_delta(before, plan_cache_info()))
        return log

    def traced(self, seconds: float, tracer: Tracer) -> tuple[dict, OpLog]:
        log = OpLog(self.slo_s)
        plan, nranks = self.plan, self.nranks
        block = plan.n // nranks
        plain, traced, launches = [], [], []
        before = plan_cache_info()
        t_start = time.perf_counter()
        for i in timed_ops(seconds, log):
            x = self.data.inputs[i % len(self.data)]
            y, res, dt = self._op(i, log)

            def program(comm, x=x, op=i):
                lo = comm.rank * block
                return replay_rank(comm, x[lo : lo + block], plan, tracer, op)

            t0 = time.perf_counter()
            yr, rres = soi_world(plan, x, nranks, program)
            plain.append(dt)
            traced.append(time.perf_counter() - t0)
            if not np.array_equal(yr, y):
                raise ReplayMismatch(f"dist-soi op {i}: replay output differs")
            if rres.stats.as_dict() != res.stats.as_dict():
                raise ReplayMismatch(f"dist-soi op {i}: replay TrafficStats differ")
            if rres.virtual_time_s != res.virtual_time_s:
                raise ReplayMismatch(f"dist-soi op {i}: replay virtual time differs")
            launches.append(launch_s(nranks, "des", RANKS_PER_NODE))
        log.wall_s = time.perf_counter() - t_start
        cache = cache_delta(before, plan_cache_info())
        self._pin_caches(log, cache)
        stats = res.stats
        rank_busy = [
            [s.busy_ns for s in spans] for spans in tracer.per_op("parallel.rank").values()
        ]
        layers = compute_layers(tracer, plan, nranks)
        layers.update({
            "dft.plan_cache.hit_ratio": cache["hit_ratio"],
            "dft.plan_cache.misses_after_warm": cache["misses"],
            "dft.tune.races_run": cache["races_run"],
            "simmpi.launch_ms": median(launches) * 1e3,
            "simmpi.halo.busy_ms": layer_ms(tracer, "simmpi.halo"),
            "simmpi.halo.wait_ms": layer_ms(tracer, "simmpi.halo", "wait"),
            "simmpi.alltoall.busy_ms": layer_ms(tracer, "simmpi.alltoall"),
            "simmpi.alltoall.wait_ms": layer_ms(tracer, "simmpi.alltoall", "wait"),
            "simmpi.inter_node_bytes": stats.total_inter_node_bytes,
            "simmpi.inter_node_msgs": stats.total_inter_node_messages,
            "simmpi.alltoall_rounds": stats.alltoall_rounds,
            "simmpi.retransmits": stats.total_retransmits,
            "parallel.rank.busy_ms": median([np.mean(b) for b in rank_busy]) / 1e6,
            "parallel.rank.imbalance": median([max(b) / np.mean(b) for b in rank_busy]),
            "parallel.unpack.busy_ms": layer_ms(tracer, "parallel.unpack"),
            "trace.overhead_share": median(traced) / median(plain) - 1.0,
        })
        return layers, log


def seq_large(seed: int) -> SeqWorkload:
    return SeqWorkload(seed, "seq-large", 2 ** 20, 16, np.complex128, slo_s=1.0, inputs=2)


def seq_small_c64(seed: int) -> SeqWorkload:
    return SeqWorkload(seed, "seq-small-c64", 2 ** 16, 8, np.complex64, slo_s=0.05, inputs=8)
