"""The repository's benchmark: one workload per invocation.

    python3 soibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (it imports the library from ``src/``).
Workloads: ``seq-large``, ``seq-small-c64``, ``dist-soi``, ``serve-mix``.

``--trace 0`` measures the end-to-end metrics with tracing off: the
median of repeated set-ups, then interleaved ratio rounds for 60% of
``--seconds`` and a timed op loop for the rest.  ``--trace 1``
replays every op through the library's public layer functions, records
spans, and reports the per-layer metrics; traced and untraced ops
alternate, and their median difference is ``trace.overhead_share``.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}`` holding the metrics listed in ``BENCHMARK.json``.  A full
record (run context, every metric, and for traced runs every span) is
written under ``.soibench_out/``.

Exit codes: 0 ok; 1 a wrong output, a broken exact count or a failed
op; 2 the library sources are missing; 3 the open-loop generator fell
behind (run invalid); 4 a self-test failed; 5 the traced replay
diverged from the library (aborted, no result).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".soibench_out")
#: Set-ups per run: at least ``SETUPS_MIN``, and more until they have
#: taken ``SETUP_BUDGET_S`` together; ``setup_s`` is their median.
SETUPS_MIN = 5
SETUP_BUDGET_S = 1.0
#: Share of ``--seconds`` spent in the interleaved ratio rounds, which
#: run first, in the freshly set-up process; the timed op loop gets the
#: rest.  The ratios cancel the host's speed drift, so they get the
#: larger share.
RATIO_SHARE = 0.6
BLAS_THREADS = 1
WORKLOADS = ("seq-large", "seq-small-c64", "dist-soi", "serve-mix")

#: The end-to-end metrics listed in ``BENCHMARK.json`` (the result line).
END_TO_END = {
    "setup_s": "s",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MiB",
    "soi_over_numpy": "ratio",
    "dist_over_seq": "ratio",
    "slo_share": "ratio",
}
#: End-to-end metrics that are printed and recorded but not listed: on a
#: shared host absolute op times drift with the host's speed (medians of
#: one workload moved by a third between runs minutes apart), which the
#: interleaved ratios cancel and these cannot.
REPORTED = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op_tail_q": "",
    "op_tail_n": "",
    "ops_per_s": "1/s",
    "fail_share": "ratio",
    "slo_limit_ms": "ms",
    "ratio_rounds": "",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def make_workload(name: str, seed: int):
    from soibench.serve_mix import ServeWorkload
    from soibench.workloads import DistWorkload, seq_large, seq_small_c64

    return {
        "seq-large": seq_large,
        "seq-small-c64": seq_small_c64,
        "dist-soi": DistWorkload,
        "serve-mix": ServeWorkload,
    }[name](seed)


def git_sha(root: str) -> str:
    """HEAD of the checkout's git directory, read from its files (the
    benchmark may run in a plain export, where this is "unknown")."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, if it exposes one."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def cache_bytes() -> dict:
    """L2/L3 sizes from glibc's sysconf (cpuid based; 0 when unknown)."""
    try:
        libc = ctypes.CDLL(None)
        # _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE in glibc.
        return {"l2": max(0, libc.sysconf(191)), "l3": max(0, libc.sysconf(194))}
    except (OSError, AttributeError):
        return {"l2": 0, "l3": 0}


def pin_malloc_thresholds() -> bool:
    """Fix glibc's malloc thresholds for this process (False if unavailable).

    By default glibc moves its mmap threshold as blocks are freed, so
    whether a multi-100-KiB temporary comes from reused heap or from
    fresh, page-faulting memory depends on the allocation history: one
    ``numpy.fft.fft`` of 2^16 complex64 points measured 1.65 ms or 3.7 ms
    in the same process.  Fixed thresholds (mmap above 64 MiB, trim above
    256 MiB) keep every run in the reused-heap state.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 64 << 20)) and bool(
        mallopt(m_trim_threshold, 256 << 20))


def run_context(workload) -> dict:
    import numpy as np

    caches = cache_bytes()
    ws = workload.working_set_bytes
    if caches["l2"] and ws <= caches["l2"]:
        fits = "L2"
    elif caches["l3"] and ws <= caches["l3"]:
        fits = "L3"
    else:
        fits = "beyond L3" if caches["l3"] else "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(ROOT),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "l2_bytes": caches["l2"],
        "l3_bytes": caches["l3"],
        "working_set_bytes": ws,
        "working_set_fits": fits,
    }


def end_to_end(log, setups, ratios) -> dict:
    from soibench.metrics import median, share, tail

    value, q, n = tail(log.latencies)
    return {
        "setup_s": median(setups),
        "op_p50_ms": median(log.latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "op_tail_q": q,
        "op_tail_n": n,
        "ops_per_s": (log.attempted - log.failed) / log.wall_s,
        "max_rel_err": log.max_rel_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "soi_over_numpy": ratios["soi_over_numpy"],
        "dist_over_seq": ratios["dist_over_seq"],
        "ratio_rounds": ratios["rounds"],
        "slo_share": share(log.slo_met, log.attempted),
        "slo_limit_ms": log.slo_s * 1e3,
        "fail_share": share(log.failed, log.attempted),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"soibench: no library sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    # One OpenBLAS thread (read when numpy loads).  With the default of
    # one per CPU, the idle worker spins for a while after every einsum,
    # so any call timed on a 2-CPU host right after one ran at a speed
    # that depended on the spin: soi_over_numpy split into two modes
    # 2x apart across runs.  The second thread bought no measurable
    # speed (soi_fft medians within run-to-run noise at N=2^16..2^20).
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    malloc_pinned = pin_malloc_thresholds()
    # Import the benchmark as a package and the library from source; drop
    # this script's own directory so its modules cannot shadow others.
    sys.path[0:1] = [ROOT, src]

    from soibench import selftest

    ok, report = selftest.passes()
    if not ok:
        print(report, file=sys.stderr)
        print("soibench: self-tests failed; not measuring", file=sys.stderr)
        return 4

    from soibench.tracer import Tracer
    from soibench.workloads import PER_LAYER, ReplayMismatch
    from soibench.metrics import median

    wl = make_workload(args.workload, args.seed)
    context = run_context(wl)
    context["malloc_thresholds_pinned"] = malloc_pinned
    wl.prepare()
    setups, builds = [], []
    tracer = Tracer() if args.trace else None
    try:
        while len(setups) < SETUPS_MIN or sum(setups) < SETUP_BUDGET_S:
            if setups:
                wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            builds.append(wl.last_build_s)
        if args.trace:
            try:
                layers, log = wl.traced(args.seconds, tracer)
            except ReplayMismatch as exc:
                print(f"soibench: traced replay aborted: {exc}", file=sys.stderr)
                return 5
            metrics = {name: 0.0 for name in PER_LAYER}
            metrics.update(layers)
            metrics["core.plan.build_ms"] = median(builds) * 1e3
            units = PER_LAYER
        else:
            ratios = wl.ratios(args.seconds * RATIO_SHARE)
            log = wl.run(args.seconds * (1.0 - RATIO_SHARE))
            metrics = end_to_end(log, setups, ratios)
            units = {**END_TO_END, **REPORTED}
    finally:
        wl.teardown()

    invalid = log.extra.get("invalid")
    valid = invalid is None
    correct = log.failed == 0 and not log.problems
    for key, val in context.items():
        print(f"# {key}: {val}")
    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, val in metrics.items():
        unit = units.get(name, "")
        print(f"{name:34s} {val:.6g} {unit}".rstrip())
    if not args.trace:
        if "modelled_makespan_us" in log.extra:
            print(f"{'modelled_makespan_us':34s} {log.extra['modelled_makespan_us']:.6g} us "
                  "(modelled: DES virtual clock)")
        for name, val in log.extra.get("layers", {}).items():
            if name.startswith("loadgen."):
                print(f"{name:34s} {val:.6g} {PER_LAYER[name]}")
    else:
        print({
            "dist-soi": "# replay: every traced op bitwise-equal to the library call, "
                        "TrafficStats and virtual time equal",
            "serve-mix": "# every served result bitwise-equal to the direct library call",
        }.get(wl.name, "# replay: every traced op bitwise-equal to the library call"))
    print(f"# valid {valid}  correct {correct}  attempted {log.attempted}  failed {log.failed}")
    if invalid:
        print(f"# run invalid: {invalid}")
    for text in log.problems:
        print(f"# problem: {text}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "context": context, "seconds": args.seconds, "metrics": metrics,
        "setups_s": setups, "valid": valid, "correct": correct,
        "attempted": log.attempted, "failed": log.failed, "problems": log.problems,
        "extra": {k: v for k, v in log.extra.items() if k != "layers"},
    }
    if tracer is not None:
        record["spans_file"] = f"{stem}.spans.jsonl"
        tracer.dump(os.path.join(OUT_DIR, record["spans_file"]))
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    listed = {name: {"value": float(metrics[name]), "unit": units[name]}
              for name in (PER_LAYER if args.trace else END_TO_END)}
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": listed}))
    if not correct:
        return 1
    return 0 if valid else 3


if __name__ == "__main__":
    sys.exit(main())
