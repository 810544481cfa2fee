"""Measured serving throughput: coalesced batching vs one-at-a-time.

The question the serve bench answers is the service-shaped version of
the paper's thesis: when many callers need transforms *now*, how much
does sharing the fixed costs — kernel dispatch, plan lookup, and above
all the distributed transform's SPMD launch and all-to-all epochs —
buy over executing requests one at a time?

``cases``
    Closed-loop load: ``clients`` threads (the acceptance criterion
    demands >= 64) each submit-wait-repeat with priorities assigned
    round-robin over interactive/batch/best_effort.  Every case runs
    twice on identical workloads: ``coalesce=True`` (the server) and
    ``coalesce=False`` (same admission, same workers, batches capped at
    one — the one-request-at-a-time baseline), so the reported speedup
    is purely the batching.  The headline case serves the distributed
    six-step FFT at N=4096: K coalesced transforms share ONE SPMD world
    launch and THREE all-to-all epochs total instead of 3K — the serve
    bench's restatement of "communication/fixed cost dominates, so
    amortise it".  The dft cases are honesty rows: a warm node-local
    FFT at N=4096 has little fixed cost left to amortise, and the
    N=256 repro case shows what per-dispatch overhead coalescing can
    reclaim on tiny transforms.

``overload``
    A burst far beyond queue capacity at 1 worker: every submission
    must resolve as exactly one of ok / synchronous
    ``AdmissionRejected`` / shed / ``DeadlineExceeded`` — typed,
    counted, no hangs, no silent drops.

``cache``
    Plan-cache behaviour of a warmed server: ``start()`` builds the
    configured shapes, and serving those shapes afterwards must be
    all hits (zero in-band plan construction).

``consistency``
    The serve conformance group (zero-tolerance bitwise rows) run
    in-process: coalesced results == one-at-a-time results, per
    backend — the proof that the speedup above changed no bits.

``python -m repro bench-serve`` runs this and writes ``BENCH_PR7.json``.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from ..serve import ServeConfig, TransformServer
from ..serve.errors import AdmissionRejected, DeadlineExceeded
from .runner import with_gates

__all__ = ["SERVE_BENCH_SCHEMA", "run_serve_bench"]

SERVE_BENCH_SCHEMA = "repro-bench-serve/1"

_PRIORITIES = ("interactive", "batch", "best_effort")

#: Closed-loop client count (the acceptance criterion demands >= 64).
_CLIENTS = 64

#: Per-ticket wait bound; a hit means a hang, which is a bench failure.
_RESULT_TIMEOUT = 60.0


def _payloads(n: int, count: int = 4) -> list[np.ndarray]:
    gen = np.random.default_rng(n % 99991)
    return [
        np.ascontiguousarray(
            gen.standard_normal(n) + 1j * gen.standard_normal(n)
        )
        for _ in range(count)
    ]


def _closed_loop(
    cfg: ServeConfig,
    n: int,
    submit_kwargs: dict,
    clients: int,
    per_client: int,
) -> dict:
    """Drive one server with a closed loop; returns its SLO report."""
    xs = _payloads(n)
    errors: list[BaseException] = []

    with TransformServer(cfg) as srv:
        def client(ci: int) -> None:
            x = xs[ci % len(xs)]
            for _ in range(per_client):
                try:
                    ticket = srv.submit(
                        x, priority=_PRIORITIES[ci % len(_PRIORITIES)],
                        **submit_kwargs,
                    )
                    ticket.result(timeout=_RESULT_TIMEOUT)
                except BaseException as exc:  # noqa: BLE001 - counted below
                    errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}")
            for i in range(clients)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        report = srv.metrics_report()

    done = clients * per_client - len(errors)
    return {
        "wall_s": wall,
        "completed": done,
        "client_errors": len(errors),
        "throughput_rps": done / wall if wall > 0 else 0.0,
        "mean_batch_size": report["mean_batch_size"],
        "max_batch_size": report["max_batch_size"],
        "classes": report["classes"],
        "admission": report["admission"],
    }


def _case(
    name: str,
    headline: bool,
    n: int,
    submit_kwargs: dict,
    cfg_kwargs: dict,
    clients: int,
    per_client: int,
) -> dict:
    """One batched-vs-serial pair on identical closed-loop workloads."""
    batched_cfg = ServeConfig(coalesce=True, **cfg_kwargs)
    serial_cfg = ServeConfig(coalesce=False, **{
        # The baseline must not pay the batch-formation window it can
        # never use; everything else stays identical.
        **cfg_kwargs, "batch_linger_s": 0.0,
    })
    batched = _closed_loop(batched_cfg, n, submit_kwargs, clients, per_client)
    serial = _closed_loop(serial_cfg, n, submit_kwargs, clients, per_client)
    speedup = (
        batched["throughput_rps"] / serial["throughput_rps"]
        if serial["throughput_rps"] > 0 else float("inf")
    )
    out = {
        "name": name,
        "headline": headline,
        "n": n,
        "backend": submit_kwargs.get("backend", "dft"),
        "library": submit_kwargs.get("library", "repro"),
        "clients": clients,
        "requests": clients * per_client,
        "config": {
            "workers": batched_cfg.workers,
            "max_queue": batched_cfg.max_queue,
            "max_batch": batched_cfg.max_batch,
            "batch_linger_s": batched_cfg.batch_linger_s,
        },
        "batched": batched,
        "serial": serial,
        "speedup": speedup,
    }
    if headline:
        out["meets_3x"] = bool(speedup >= 3.0)
    return out


def _overload_section(quick: bool) -> dict:
    """Burst far past capacity: every ticket resolves, typed and counted."""
    submitted = 120 if quick else 240
    cfg = ServeConfig(
        workers=1, max_queue=16, max_batch=8,
        coalesce=True, batch_linger_s=0.002,
        default_library="numpy",
    )
    xs = _payloads(4096, count=2)
    tickets = []
    rejected_sync = 0
    with TransformServer(cfg) as srv:
        for i in range(submitted):
            kwargs = {}
            if i % 6 == 0:
                # A deadline tighter than one batch-formation window, on
                # half the *interactive* class: these requests are
                # admitted (capacity sheds target the worst class first)
                # and then expire in the queue — exercising the
                # deadline-shed path rather than folding into the
                # capacity sheds — while the untagged interactive half
                # still completes, so every outcome path shows up.
                kwargs["deadline_s"] = 0.001
            try:
                tickets.append(
                    srv.submit(
                        xs[i % 2],
                        priority=_PRIORITIES[i % len(_PRIORITIES)],
                        **kwargs,
                    )
                )
            except AdmissionRejected:
                rejected_sync += 1
            if i % 64 == 63:
                # Yield briefly so the worker drains between sub-bursts:
                # each 64-deep sub-burst still overflows the 16-deep
                # queue (sheds + rejections), while the pause lets the
                # worker actually serve — sustained overload with
                # service progress, not a stampede that starves the
                # worker of the GIL entirely.
                time.sleep(0.002)
        outcomes = {"ok": 0, "shed": 0, "deadline": 0, "other_error": 0}
        hangs = 0
        for ticket in tickets:
            try:
                ticket.result(timeout=_RESULT_TIMEOUT)
                outcomes["ok"] += 1
            except AdmissionRejected:
                outcomes["shed"] += 1
            except DeadlineExceeded:
                outcomes["deadline"] += 1
            except TimeoutError:
                hangs += 1
            except Exception:
                outcomes["other_error"] += 1
        counters = srv.admission_counters()
    accounted = rejected_sync + sum(outcomes.values())
    return {
        "submitted": submitted,
        "rejected_sync": rejected_sync,
        "outcomes": outcomes,
        "hangs": hangs,
        "admission_counters": counters,
        "all_resolved": bool(hangs == 0 and accounted == submitted),
        "counters_match": bool(
            counters["rejected"] == rejected_sync
            and counters["shed_capacity"] == outcomes["shed"]
            and counters["shed_deadline"] == outcomes["deadline"]
        ),
    }


def _cache_section() -> dict:
    """A warmed server serves its warm shapes with zero in-band builds."""
    from ..dft.cache import plan_cache_info

    shapes = [512, 8192]
    cfg = ServeConfig(
        workers=1, warm_shapes=tuple(shapes), default_library="repro",
    )
    with TransformServer(cfg) as srv:
        warm_info = srv.warmup_info()
        after_warm = plan_cache_info()
        xs = {n: _payloads(n, count=1)[0] for n in shapes}
        tickets = [
            srv.submit(xs[n], backend="dft", library="repro")
            for n in shapes for _ in range(8)
        ]
        for ticket in tickets:
            ticket.result(timeout=_RESULT_TIMEOUT)
        after_serve = plan_cache_info()
    hits = after_serve["hits"] - after_warm["hits"]
    misses = after_serve["misses"] - after_warm["misses"]
    return {
        "warm_shapes": shapes,
        "warmup": warm_info,
        "served_requests": len(tickets),
        "hits_during_serving": hits,
        "misses_during_serving": misses,
        "all_hits": bool(misses == 0 and hits > 0),
        "cache": after_serve,
    }


def _consistency_section(quick: bool) -> dict:
    """The serve conformance group: coalesced == solo, bit for bit."""
    from ..check.conformance import run_conformance

    report = run_conformance("small" if quick else "default", groups=("serve",))
    return {
        "bitwise_ok": report.ok,
        "rows": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in report.rows
        ],
    }


def run_serve_bench(quick: bool = False, reps: int | None = None) -> dict:
    """Run the serving benchmark; returns the ``BENCH_PR7.json`` payload.

    ``quick=True`` shrinks per-client request counts and the
    consistency sweep to CI-smoke scale while keeping the schema, the
    64-client closed loop and the acceptance geometry (N=4096)
    identical.  ``reps`` overrides requests-per-client.
    """
    per_client = reps if reps is not None else (4 if quick else 8)
    clients = _CLIENTS
    cases = [
        _case(
            "serve-transpose-4096",
            headline=True,
            n=4096,
            submit_kwargs={"backend": "transpose", "library": "numpy",
                           "nranks": 4},
            # One worker owns the SPMD world (a second would timeshare
            # the same core against it); max_batch=32 is the measured
            # knee before per-row all-to-all payloads stop amortising.
            cfg_kwargs={"workers": 1, "max_queue": 256, "max_batch": 32,
                        "batch_linger_s": 0.001},
            clients=clients,
            per_client=per_client,
        ),
        _case(
            "serve-dft-numpy-4096",
            headline=False,
            n=4096,
            submit_kwargs={"backend": "dft", "library": "numpy"},
            cfg_kwargs={"workers": 2, "max_queue": 256, "max_batch": 64,
                        "batch_linger_s": 0.0005, "warm_shapes": (4096,)},
            clients=clients,
            per_client=per_client,
        ),
        _case(
            "serve-dft-repro-256",
            headline=False,
            n=256,
            submit_kwargs={"backend": "dft", "library": "repro"},
            cfg_kwargs={"workers": 2, "max_queue": 256, "max_batch": 64,
                        "batch_linger_s": 0.0005, "warm_shapes": (256,)},
            clients=clients,
            per_client=per_client,
        ),
    ]
    headline = next(c for c in cases if c["headline"])
    payload = {
        "schema": SERVE_BENCH_SCHEMA,
        "generated_by": "python -m repro bench-serve",
        "config": {
            "quick": quick,
            "clients": clients,
            "per_client": per_client,
            "timer": (
                "time.perf_counter around the full closed loop "
                f"({clients} client threads, submit-wait-repeat, priorities "
                "round-robin); throughput = completed / wall; identical "
                "workload re-run with coalesce=False as the baseline"
            ),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "cases": cases,
        "headline": {
            "name": headline["name"],
            "speedup": headline["speedup"],
            "meets_3x": headline["meets_3x"],
            "batched_rps": headline["batched"]["throughput_rps"],
            "serial_rps": headline["serial"]["throughput_rps"],
            "mean_batch_size": headline["batched"]["mean_batch_size"],
        },
        "overload": _overload_section(quick),
        "cache": _cache_section(),
        "consistency": _consistency_section(quick),
    }
    over, head, cache = payload["overload"], payload["headline"], payload["cache"]
    return with_gates(payload, {
        "overload hangs == 0": over["hangs"] == 0,
        "overload all_resolved": over["all_resolved"],
        "overload counters_match": over["counters_match"],
        "cache misses_during_serving == 0": cache["misses_during_serving"] == 0,
        "consistency bitwise_ok": payload["consistency"]["bitwise_ok"],
        "batched_rps > 0": head["batched_rps"] > 0,
        "serial_rps > 0": head["serial_rps"] > 0,
    })
