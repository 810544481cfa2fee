"""Calibration: measure this machine's actual kernel rates.

The paper calibrates its model constant ``alpha`` from a measured
single-node MKL FFT time and validates that convolution reaches ~40% of
peak vs ~10% for FFT (a 4x efficiency gap that almost exactly offsets
the ~4x flop overhead of the convolution — Section 7.4).  We cannot
measure a Xeon E5-2670, but we *can* measure the same two kernels here
and verify the structural claim: convolution (a regular tensor
contraction) sustains a several-fold higher flop rate than the FFT
(a scattered-access butterfly network).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.plan import SoiPlan
from ..core.soi import soi_convolve
from ..dft.flops import fft_flops, soi_convolution_flops
from ..dft.tune import race

__all__ = ["KernelRates", "measure_kernel_rates"]


@dataclass(frozen=True)
class KernelRates:
    """Measured local flop rates (GFLOPS) of the two SOI kernels."""

    fft_gflops: float
    conv_gflops: float
    n: int
    b: int

    @property
    def conv_over_fft(self) -> float:
        """Efficiency ratio; the paper measures ~4 (40% vs 10% of peak)."""
        return self.conv_gflops / self.fft_gflops


def measure_kernel_rates(
    n: int = 1 << 16,
    p: int = 8,
    window: str = "full",
    repeats: int = 3,
    rng: np.random.Generator | None = None,
) -> KernelRates:
    """Time the convolution and the equal-size FFT on this machine.

    Uses the paper's flop conventions (``8 N' B`` for convolution,
    ``5 n log2 n`` for FFT) so the returned GFLOPS are comparable with
    the model's efficiency assumptions.
    """
    gen = rng if rng is not None else np.random.default_rng(0)
    plan = SoiPlan(n=n, p=p, window=window)
    x = gen.standard_normal(n) + 1j * gen.standard_normal(n)

    buf = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    best_us = race(
        {"conv": lambda: soi_convolve(x, plan), "fft": lambda: np.fft.fft(buf)},
        repeats,
        burst=1,
    )
    conv_rate = soi_convolution_flops(plan.n_over, plan.b) / best_us["conv"] / 1e3
    fft_rate = fft_flops(n) / best_us["fft"] / 1e3

    return KernelRates(fft_gflops=fft_rate, conv_gflops=conv_rate, n=n, b=plan.b)
