"""Benchmark harness shared by the per-figure benchmarks in benchmarks/."""

from .a2a import A2A_BENCH_SCHEMA, run_a2a_bench
from .micro import BENCH_SCHEMA, run_micro
from .overlap import LINK_BANDWIDTH, LINK_LATENCY, OVERLAP_BENCH_SCHEMA, run_overlap_bench
from .resilience import RESILIENCE_BENCH_SCHEMA, run_resilience_bench
from .scale import SCALE_BENCH_SCHEMA, run_scale_bench
from .serve import SERVE_BENCH_SCHEMA, run_serve_bench
from .tune import TUNE_BENCH_SCHEMA, run_tune
from .runner import FigureResult, measured_traffic, run_figure_sweep, trace_rollups
from .tables import bar_chart, format_series, format_table
from .workloads import chirp_signal, multitone, noisy_tones, random_complex, random_real

#: ``python -m repro`` bench sections: name -> (runner, default JSON path).
#: Each runner takes ``quick=`` and ``reps=`` and returns a payload that
#: carries its own ``gates`` and ``ok`` verdict.
BENCHES = {
    "bench-micro": (run_micro, "BENCH_PR3.json"),
    "bench-overlap": (run_overlap_bench, "BENCH_PR5.json"),
    "bench-resilience": (run_resilience_bench, "BENCH_PR6.json"),
    "bench-serve": (run_serve_bench, "BENCH_PR7.json"),
    "bench-a2a": (run_a2a_bench, "BENCH_PR8.json"),
    "bench-scale": (run_scale_bench, "BENCH_PR9.json"),
    "bench-tune": (run_tune, "BENCH_PR10.json"),
}

__all__ = [
    "BENCHES",
    "A2A_BENCH_SCHEMA",
    "run_a2a_bench",
    "BENCH_SCHEMA",
    "run_micro",
    "OVERLAP_BENCH_SCHEMA",
    "run_overlap_bench",
    "RESILIENCE_BENCH_SCHEMA",
    "run_resilience_bench",
    "SCALE_BENCH_SCHEMA",
    "run_scale_bench",
    "SERVE_BENCH_SCHEMA",
    "run_serve_bench",
    "TUNE_BENCH_SCHEMA",
    "run_tune",
    "LINK_BANDWIDTH",
    "LINK_LATENCY",
    "FigureResult",
    "measured_traffic",
    "run_figure_sweep",
    "trace_rollups",
    "bar_chart",
    "format_series",
    "format_table",
    "chirp_signal",
    "multitone",
    "noisy_tones",
    "random_complex",
    "random_real",
]
