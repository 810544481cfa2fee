"""Power-of-two FFT entry points over the batched Stockham kernel.

This is the workhorse kernel of the local FFT library: the SOI pipeline
only ever needs power-of-two lengths when ``N``, ``P`` and the
oversampled ``M'`` are chosen the usual way (``beta = 1/4`` turns a
power-of-two ``M`` into ``M' = 5*M/4``, handled by the mixed-radix
driver which peels the factor 5 and lands back here).

The butterfly network lives in :mod:`repro.dft.stockham`: an iterative,
self-sorting formulation whose stages read contiguous halves of a
ping-pong buffer and write through ``out=`` ufunc calls — no bit
reversal pass and no per-stage concatenation — while performing exactly
the same floating-point operations as a textbook decimation-in-time
kernel (outputs are bit-for-bit identical to one).
"""

from __future__ import annotations

import numpy as np

from ..utils import is_power_of_two
from .stockham import stockham_fft

__all__ = ["fft_radix2", "ifft_radix2"]


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Forward FFT over the last axis; length must be a power of two.

    Matches ``numpy.fft.fft`` conventions (no scaling on the forward
    transform).  Accepts any batch shape ``(..., n)``.
    """
    arr = np.ascontiguousarray(x, dtype=np.complex128)
    n = arr.shape[-1]
    if not is_power_of_two(n):
        raise ValueError(f"fft_radix2 requires a power-of-two length, got {n}")
    return stockham_fft(arr, sign=-1)


def ifft_radix2(y: np.ndarray) -> np.ndarray:
    """Inverse FFT over the last axis (scaled by 1/n)."""
    arr = np.ascontiguousarray(y, dtype=np.complex128)
    n = arr.shape[-1]
    if not is_power_of_two(n):
        raise ValueError(f"ifft_radix2 requires a power-of-two length, got {n}")
    return stockham_fft(arr, sign=+1) / n
