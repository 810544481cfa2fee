"""The benchmark's own metric arithmetic (pure functions, self-tested).

Kept apart from the workloads so ``soibench/selftest.py`` can pin the
rules every reported number depends on: the tail percentile, self time,
due-time latency and the two ratio metrics.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest nearest-rank percentile leaving >= *beyond* samples above it.

    Returns ``(value, q, n)``.  The nearest-rank q-th percentile of n
    sorted samples is the ``ceil(q*n)``-th smallest; at least *beyond*
    samples lie strictly after it when that rank is ``<= n - beyond``,
    so the highest such q is ``(n - beyond) / n``.  With ``n <= beyond``
    no percentile qualifies and the maximum is returned with ``q = 1``.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    if n <= beyond:
        return float(ordered[-1]), 1.0, n
    rank = n - beyond
    return float(ordered[rank - 1]), rank / n, n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile: the ``ceil(q*n)``-th smallest sample."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def ratio_of_medians(numerator: Sequence[float], denominator: Sequence[float]) -> float:
    """``median(numerator) / median(denominator)`` (interleaved samples)."""
    den = median(denominator)
    if den <= 0.0:
        raise ValueError("denominator median must be positive")
    return median(numerator) / den


def due_latencies(due: Sequence[float], done: Sequence[float]) -> list[float]:
    """Open-loop latency: completion minus the time a request was *due*.

    Timing from the due time (not the actual send) charges a generator
    stall to every request it delayed, which is what a user would see.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [d1 - d0 for d0, d1 in zip(due, done)]


def self_time(start: float, end: float, children: Sequence[tuple[float, float]]) -> float:
    """Span duration minus the part of ``[start, end]`` its children cover.

    Children may overlap each other (parallel ranks) or stick out of the
    parent; only the union of their clipped intervals is subtracted.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    )
    covered = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


def share(part: int, whole: int) -> float:
    if whole <= 0:
        raise ValueError("share of an empty whole")
    return part / whole


def rel_l2(got: np.ndarray, ref: np.ndarray) -> float:
    """Relative L2 error ``|got - ref| / |ref|`` (in double precision)."""
    ref = np.asarray(ref, dtype=np.complex128)
    diff = np.asarray(got, dtype=np.complex128) - ref
    return float(np.linalg.norm(diff) / np.linalg.norm(ref))


def soi_budget(plan) -> float:
    """The plan's Section-4 error budget at the plan's own precision.

    ``repro.core.error_budget`` models the FFT rounding term with the
    double-precision epsilon; a complex64 plan rounds at float32, so the
    same model is re-evaluated with the epsilon of the plan's dtype.
    """
    from repro.core import error_budget

    terms = error_budget(plan)
    eps = float(np.finfo(np.dtype(plan.dtype)).eps)
    eps_fft = eps * math.log2(max(plan.n_over, 2))
    return terms["kappa"] * (eps_fft + terms["eps_alias"] + terms["eps_trunc"])


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
