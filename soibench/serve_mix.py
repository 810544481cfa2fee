"""The open-loop ``serve-mix`` workload.

One submitter thread sends Poisson arrivals at a fixed rate into a
``TransformServer``; every request is timed from the moment it was
*due*, so a generator stall is charged to the requests it delayed, and
the generator's own lateness is reported (and bounded: a run whose
generator fell too far behind is marked invalid).
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.check import exact_tolerance
from repro.core import soi_fft, soi_plan_for
from repro.dft import plan_cache_info, plan_for
from repro.parallel import transpose_fft_distributed
from repro.serve import AdmissionRejected, ServeConfig, TransformServer
from repro.simmpi import run_spmd

from .metrics import due_latencies, median, percentile, rel_l2, soi_budget
from .tracer import Tracer
from .workloads import (
    BACKEND,
    OpLog,
    Workload,
    cache_delta,
    clear_caches,
    launch_s,
    random_vector,
)

RATE_PER_S = 250.0
#: (kind, share of requests, length)
MIX = (("dft", 0.5, 1024), ("soi", 0.3, 2 ** 14), ("transpose", 0.2, 4096))
SOI_P = 8
TRANSPOSE_RANKS = 2
TRANSPOSE_ALGORITHM = "pairwise"  # the server's default schedule
PRIORITIES = ("interactive", "batch", "best_effort")
POOL = 8  # distinct payloads per kind
#: The generator may fall behind its schedule by at most this much at
#: the 99th percentile before the run is marked invalid, seconds.
LATE_P99_BOUND_S = 0.05
RESULT_TIMEOUT_S = 60.0


def _params(kind: str) -> dict:
    if kind == "soi":
        return {"p": SOI_P}
    if kind == "transpose":
        return {"nranks": TRANSPOSE_RANKS, "algorithm": TRANSPOSE_ALGORITHM}
    return {}


def direct_call(kind: str, x: np.ndarray) -> np.ndarray:
    """The library call a served request of *kind* stands for."""
    n = x.size
    if kind == "dft":
        return plan_for(n).execute(x, inverse=False)
    if kind == "soi":
        return soi_fft(x, soi_plan_for(n, SOI_P), backend=BACKEND)
    block = n // TRANSPOSE_RANKS

    def program(comm):
        lo = comm.rank * block
        return transpose_fft_distributed(
            comm, x[lo : lo + block], n, backend=BACKEND,
            alltoall_algorithm=TRANSPOSE_ALGORITHM,
        )

    return np.concatenate(run_spmd(TRANSPOSE_RANKS, program).values)


class ServeWorkload(Workload):
    name = "serve-mix"
    slo_s = 0.1
    working_set_bytes = 2 ** 14 * 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: TransformServer | None = None

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.payloads, self.expected = {}, {}
        for kind, _, n in MIX:
            xs = [random_vector(rng, n, np.complex128) for _ in range(POOL)]
            want = [direct_call(kind, x) for x in xs]
            if kind == "soi":
                tol = soi_budget(soi_plan_for(n, SOI_P))
            else:
                tol = exact_tolerance(n)
            errs = [rel_l2(y, np.fft.fft(x)) for x, y in zip(xs, want)]
            bad = [e for e in errs if e > tol]
            if bad:
                raise AssertionError(f"direct {kind} call: rel err {bad[0]:.3e} > {tol:.3e}")
            self.payloads[kind] = xs
            self.expected[kind] = (want, errs)
        # The schedule: due offsets, kinds and payload picks, all seeded.
        srng = np.random.default_rng([self.seed, 1])
        self.gaps = srng.exponential(1.0 / RATE_PER_S, size=1 << 16)
        self.kinds = srng.choice(len(MIX), size=1 << 16, p=[m[1] for m in MIX])
        self.picks = srng.integers(POOL, size=1 << 16)

    def setup(self) -> None:
        clear_caches()
        self.server = TransformServer(ServeConfig(workers=2)).start()
        t0 = time.perf_counter()
        self.soi_plan = soi_plan_for(MIX[1][2], SOI_P)
        self.last_build_s = time.perf_counter() - t0
        for kind, _, _ in MIX:
            ticket = self.server.submit(
                self.payloads[kind][0], backend=kind, priority="batch", **_params(kind)
            )
            ticket.result(RESULT_TIMEOUT_S)

    def ratio_case(self):
        return self.soi_plan, self.payloads["soi"][0], self.expected["soi"][0][0]

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop(drain=True, timeout=RESULT_TIMEOUT_S)
            self.server = None

    def _load(self, seconds: float, tracer: Tracer | None) -> tuple[OpLog, dict]:
        """Drive the open loop for *seconds*; every even request is traced
        when *tracer* is given."""
        srv = self.server
        log = OpLog(self.slo_s)
        pending = deque()   # (i, kind, pick, due, ticket), in submit order
        settled = []        # (i, kind, pick, due, rid, ok) of every result
        late, backlog, submit_s = [], [], []

        def settle(block: bool) -> None:
            """Check finished results (all of them when *block*), so the
            generator holds no more outputs than the server has in flight."""
            while pending and (block or pending[0][4].done()):
                i, kind, pick, due, ticket = pending.popleft()
                try:
                    if tracer is not None and i % 2 == 0:
                        with tracer.span("serve.result", i):
                            y = ticket.result(RESULT_TIMEOUT_S)
                    else:
                        y = ticket.result(RESULT_TIMEOUT_S)
                except Exception as exc:  # shed, timed out or raised: a failed op
                    log.problem(f"request {i} ({kind}): {type(exc).__name__}: {exc}")
                    log.record(None, False)
                    continue
                ok = np.array_equal(y, self.expected[kind][0][pick])
                if not ok:
                    log.problem(f"request {i} ({kind}): served result differs from direct call")
                settled.append((i, kind, pick, due, ticket.rid, ok))

        before = plan_cache_info()
        clock_offset_ns = time.perf_counter_ns() - time.monotonic_ns()
        start = time.monotonic() + 0.01
        due = start
        i = 0
        while True:
            due += self.gaps[i % len(self.gaps)]
            if due - start > seconds:
                break
            kind, _, _ = MIX[self.kinds[i % len(self.kinds)]]
            pick = int(self.picks[i % len(self.picks)])
            if due > time.monotonic():
                settle(block=False)
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
            t_sub = time.monotonic()
            late.append(max(0.0, t_sub - due))
            backlog.append(srv.inflight())
            try:
                if tracer is not None and i % 2 == 0:
                    with tracer.span("serve.submit", i):
                        ticket = srv.submit(
                            self.payloads[kind][pick], backend=kind,
                            priority=PRIORITIES[i % 3], **_params(kind))
                else:
                    ticket = srv.submit(
                        self.payloads[kind][pick], backend=kind,
                        priority=PRIORITIES[i % 3], **_params(kind))
            except AdmissionRejected:
                log.record(None, False)
            else:
                pending.append((i, kind, pick, due, ticket))
            submit_s.append(time.monotonic() - t_sub)
            i += 1
        settle(block=True)

        spans = self._spans_for([r[4] for r in settled])
        done_at, traced_lat, plain_lat = [], [], []
        for i, kind, pick, due, rid, ok in settled:
            t_done = spans[rid].t_done
            [lat] = due_latencies([due], [t_done])
            log.record(lat, ok, self.expected[kind][1][pick])
            done_at.append(t_done)
            if tracer is not None:
                (traced_lat if i % 2 == 0 else plain_lat).append(lat)
                tracer.add(
                    "serve.request", int(due * 1e9) + clock_offset_ns,
                    int(t_done * 1e9) + clock_offset_ns, i,
                )
        log.wall_s = (max(done_at) - start) if done_at else seconds
        cache = cache_delta(before, plan_cache_info())
        late_p99 = percentile(late, 0.99)
        counters = srv.admission_counters()
        ok_spans = [s for s in srv.metrics.spans() if s.status == "ok"]
        batches = srv.metrics.batches()
        layers = {
            "dft.plan_cache.hit_ratio": cache["hit_ratio"],
            "dft.plan_cache.misses_after_warm": cache["misses"],
            "dft.tune.races_run": cache["races_run"],
            "serve.submit_us": median(submit_s) * 1e6,
            "serve.queue_wait_p50_ms": median([s.queue_wait_s for s in ok_spans]) * 1e3,
            "serve.batch_wait_p50_ms": median([s.batch_wait_s for s in ok_spans]) * 1e3,
            "serve.execute_p50_ms": median([s.execute_s for s in ok_spans]) * 1e3,
            "serve.mean_batch_size": float(np.mean([b.size for b in batches])),
            "serve.backlog_max": max(backlog),
            "serve.shed": counters["shed_capacity"] + counters["shed_deadline"],
            "serve.rejected": counters["rejected"],
            "loadgen.late_p99_ms": late_p99 * 1e3,
            "loadgen.late_max_ms": max(late) * 1e3,
        }
        if tracer is not None:
            layers["trace.overhead_share"] = median(traced_lat) / median(plain_lat) - 1.0
        if late_p99 > LATE_P99_BOUND_S:
            log.extra["invalid"] = (
                f"the load generator fell behind: lateness p99 {late_p99 * 1e3:.1f} ms "
                f"> {LATE_P99_BOUND_S * 1e3:.0f} ms"
            )
        return log, layers

    def _spans_for(self, rids: list[int]) -> dict:
        """The server's RequestSpans of *rids*.  A worker fulfils tickets
        just before it records their spans, so wait for the stragglers."""
        deadline = time.monotonic() + RESULT_TIMEOUT_S
        while True:
            spans = {s.rid: s for s in self.server.metrics.spans()}
            if all(r in spans for r in rids) or time.monotonic() > deadline:
                return spans
            time.sleep(0.001)

    def run(self, seconds: float) -> OpLog:
        log, layers = self._load(seconds, None)
        log.extra["layers"] = layers
        return log

    def traced(self, seconds: float, tracer: Tracer) -> tuple[dict, OpLog]:
        log, layers = self._load(seconds, tracer)
        layers["simmpi.launch_ms"] = median(
            [launch_s(TRANSPOSE_RANKS, "thread", None) for _ in range(21)]
        ) * 1e3
        return layers, log
