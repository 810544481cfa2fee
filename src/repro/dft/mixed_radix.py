"""Mixed-radix (Cooley–Tukey) FFT for arbitrary composite sizes.

The SOI oversampling step turns a power-of-two segment length ``M`` into
``M' = M * mu / nu`` (``5*M/4`` for the paper's favourite ``beta=1/4``),
so the node-local FFT must handle sizes of the form ``odd * 2^a``.  This
driver peels one prime factor ``p`` per level:

    ``X[k1 + p*k2] = sum_j2 w_n^(j2*k1) * W_q[k2, j2] *
                     ( sum_j1 x[q*j1 + j2] * W_p[k1, j1] )``

The length-``p`` inner transforms are dense matrix products (``p`` is a
small prime), the length-``q`` outer transform recurses, and pure
power-of-two remainders drop into the radix-2 kernel.  Sizes with a
large prime factor are delegated to Bluestein's algorithm.

Execution is driven by a per-size *factor schedule* computed once and
cached: each level carries its peeled prime, the dense ``DFT_p``
matrices for both directions, and the ``(p, q)`` twiddle table
``w_n^(k1*j2)`` — so repeated transforms of one size (the plan-cache
hit path) do zero factorisation, zero trig and zero index arithmetic
per call, and exactly one contiguous copy per level (the output
interleave).  The per-level arithmetic is unchanged, so results are
bit-for-bit identical to the schedule-free recursion it replaced.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..utils import factorize, is_power_of_two
from .naive import dft_matrix
from .stockham import _columns, stockham_fft
from .twiddle import twiddles

__all__ = ["fft_mixed_radix", "mixed_radix_schedule"]

# Above this prime factor a dense per-factor matrix product stops being
# cheap; Bluestein (O(n log n) via padded convolution) takes over.
_MAX_DENSE_PRIME = 61

# Twiddle tables are n complex values per level per direction; above
# this size the (cached) table would dominate the heap, so huge levels
# recompute it per call exactly the way the schedule-free code did.
_MAX_CACHED_TWIDDLE_TABLE = 1 << 18


@dataclass(frozen=True)
class _PeelLevel:
    """One Cooley–Tukey level: transform length ``n = p * q``."""

    n: int
    p: int
    q: int
    fp_fwd: np.ndarray  # dense DFT_p
    fp_inv: np.ndarray  # dense unscaled inverse DFT_p
    tw_fwd: np.ndarray | None  # w_n^(-k1*j2), shape (p, q); None if too big
    tw_inv: np.ndarray | None

    def dense(self, sign: int) -> np.ndarray:
        return self.fp_fwd if sign == -1 else self.fp_inv

    def twiddle_table(self, sign: int) -> np.ndarray:
        cached = self.tw_fwd if sign == -1 else self.tw_inv
        if cached is not None:
            return cached
        return _twiddle_table(self.n, self.p, self.q, sign)


@dataclass(frozen=True)
class _Schedule:
    """Factor schedule: peel levels then a terminal kernel."""

    n: int
    levels: tuple[_PeelLevel, ...]
    tail: str  # "one" | "radix2" | "bluestein"
    tail_n: int


def _twiddle_table(n: int, p: int, q: int, sign: int) -> np.ndarray:
    """``w_n^(sign * k1 * j2)`` for ``k1 < p``, ``j2 < q`` (exact indices)."""
    w = twiddles(n, sign)
    k1 = np.arange(p)[:, None]
    j2 = np.arange(q)[None, :]
    return w[(k1 * j2) % n]


_SCHED_CACHE_MAX = 64
_sched_cache: OrderedDict[int, _Schedule] = OrderedDict()
_sched_lock = threading.Lock()


def _build_schedule(n: int) -> _Schedule:
    levels: list[_PeelLevel] = []
    rest = n
    while True:
        if rest == 1:
            return _Schedule(n, tuple(levels), "one", rest)
        if is_power_of_two(rest):
            return _Schedule(n, tuple(levels), "radix2", rest)
        p = factorize(rest)[-1]  # largest prime first -> pow2 tail stays intact
        if p > _MAX_DENSE_PRIME:
            return _Schedule(n, tuple(levels), "bluestein", rest)
        q = rest // p
        cache_tables = rest <= _MAX_CACHED_TWIDDLE_TABLE
        levels.append(
            _PeelLevel(
                n=rest,
                p=p,
                q=q,
                fp_fwd=dft_matrix(p),
                fp_inv=dft_matrix(p, inverse=True),
                tw_fwd=_twiddle_table(rest, p, q, -1) if cache_tables else None,
                tw_inv=_twiddle_table(rest, p, q, +1) if cache_tables else None,
            )
        )
        rest = q


def mixed_radix_schedule(n: int) -> _Schedule:
    """The cached factor schedule for size *n* (thread-safe, LRU-bounded)."""
    with _sched_lock:
        hit = _sched_cache.get(n)
        if hit is not None:
            _sched_cache.move_to_end(n)
            return hit
    sched = _build_schedule(n)
    with _sched_lock:
        _sched_cache[n] = sched
        _sched_cache.move_to_end(n)
        while len(_sched_cache) > _SCHED_CACHE_MAX:
            _sched_cache.popitem(last=False)
    return sched


def _execute(x: np.ndarray, sign: int, sched: _Schedule, level: int) -> np.ndarray:
    """Run *sched* from *level* down; same op sequence as the old recursion."""
    if level == len(sched.levels):
        if sched.tail == "one":
            return x.copy()
        if sched.tail == "radix2":
            return stockham_fft(x, sign)
        from .bluestein import _bluestein_core  # local import avoids a cycle

        return _bluestein_core(x, sign)
    lvl = sched.levels[level]
    batch = x.shape[:-1]
    # x[.., q*j1 + j2] -> axes (j1 in [0,p), j2 in [0,q)).
    a = x.reshape(*batch, lvl.p, lvl.q)
    # Inner DFT_p over j1 (dense, p is a small prime).
    b = np.einsum("kj,...jq->...kq", lvl.dense(sign), a)
    # Twiddle: multiply entry (k1, j2) by w_n^(sign * k1 * j2).
    b *= lvl.twiddle_table(sign)
    # Outer DFT_q over j2 (descend; j2 is already the last axis).
    bc = np.ascontiguousarray(b)
    if level + 1 == len(sched.levels) and sched.tail == "radix2" and lvl.q > 1:
        # Innermost level with a power-of-two tail (the SOI shapes:
        # M' = odd * 2^a): hand the rows to the Stockham kernel as
        # columns, keep its (q, rows) output layout and interleave
        # straight into the output index k1 + p*k2 — one output copy
        # instead of the row wrapper's un-transpose followed by the
        # swapaxes copy below.  Pure data movement; the butterfly
        # arithmetic is untouched.
        rows = bc.reshape(-1, lvl.q)
        raw = _columns(rows.T, lvl.q, sign)
        out = np.ascontiguousarray(raw.reshape(lvl.q, -1, lvl.p).swapaxes(0, 1))
        return out.reshape(*batch, lvl.n)
    c = _execute(bc, sign, sched, level + 1)
    # Output index k1 + p*k2: swap (k1, k2) axes then flatten — the one
    # contiguous copy this level makes.
    return np.ascontiguousarray(c.swapaxes(-1, -2)).reshape(*batch, lvl.n)


def _fft_any(x: np.ndarray, sign: int) -> np.ndarray:
    """Forward (sign=-1) or inverse-unscaled (sign=+1) FFT, any size."""
    return _execute(x, sign, mixed_radix_schedule(x.shape[-1]), 0)


def fft_mixed_radix(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """FFT over the last axis for arbitrary length.

    Matches ``numpy.fft`` conventions: forward unscaled, inverse scaled
    by ``1/n``.  Dispatches internally to radix-2 / dense-prime /
    Bluestein sub-kernels as the (cached) factor schedule demands.
    """
    arr = np.ascontiguousarray(x, dtype=np.complex128)
    n = arr.shape[-1]
    if n == 0:
        raise ValueError("transform length must be positive")
    out = _fft_any(arr, sign=+1 if inverse else -1)
    if inverse:
        out = out / n
    return out
