"""Iterative batched Stockham kernel with racing-selectable pass schedules.

The decimation-in-time butterfly network here is *operation-for-operation
identical* to the classic bit-reversal kernel this module replaced —
every butterfly pairs the same two intermediate values with the same
twiddle factor, so outputs are bit-for-bit unchanged — but the Stockham
ordering folds the permutation into the stage-by-stage data movement:

- no up-front bit-reversal gather (a full strided pass on its own);
- every stage reads two contiguous halves of a ping-pong buffer and
  writes with ``out=`` ufunc calls — no per-stage ``np.concatenate``
  allocation;
- batches are carried on the *fastest* axis (``(K, m, nb)`` layout),
  so even the early small-``m`` stages stream long contiguous runs.

Invariant of the ``(K, m, nb)`` layout: after the stage with half-size
``m``, entry ``Y[k, r, i]`` holds bin ``r`` of the length-``m`` DFT of
the decimated subsequence ``x[i, k::K]``.  The first stage is a pure
reshape (``m = 1`` DFTs are the samples themselves) and the last stage
(``K = 1``) leaves the transform in natural order — self-sorting.

Kernel variants (the autotuner's racing dimension, see
:mod:`repro.dft.tune`): the ``log2(n)`` radix-2 stages can be walked by
three *pass schedules* —

- ``"radix2"`` — one buffer pass per stage (the historical default);
- ``"radix4"`` — consecutive stage pairs fused into one radix-4 pass
  (stage A's output never round-trips through a full stage buffer
  handoff; an odd trailing stage runs as a single radix-2 pass);
- ``"split_radix"`` — radix-2 passes for the small-``m`` head (where
  per-call overhead dominates and the simple pass is cheapest) and
  fused radix-4 passes for the large-``m`` tail (the memory-bound
  regime) — an L-shaped split schedule.

All three walk the *same* butterfly network: a fused radix-4 pass
performs the identical scalar multiplies, adds and subtracts of its two
radix-2 stages in the identical order (the stage-B columns decompose
exactly into the stage-A quadrant sums), so every variant is **bitwise
identical** to ``"radix2"``.  They differ only in data movement and
ufunc call granularity — which is precisely what makes racing them per
``(n, dtype, batch)`` meaningful.  True split-radix arithmetic (shared
``w^k * w^{2k}`` products) is *not* used: it reassociates floating-point
operations and would break the repo-wide bitwise invariants
(sequential == distributed SOI, DES == threads, coalesced == solo).

Two further tunables ride along, both bit-neutral:

- ``group_elements`` — the cache-blocking bound over the batch axis
  (``0`` disables grouping, ``None`` keeps the built-in default);
- ``tile_elements`` — the bound below which per-stage twiddle rows are
  batch-expanded (``np.repeat(w, nb)``) so multiplies run on fully
  contiguous operands (``0`` disables tiling, ``None`` the default).

Per-stage twiddle tables (``exp(sign*2j*pi*k/2m)``, ``k < m``) are
precomputed once per (size, dtype) and cached;
:class:`~repro.dft.plan.FftPlan` warms them at plan-construction time so
plan execution never pays trig.  The kernel computes natively in either
``complex128`` or ``complex64`` (the dtype of the input array): the
single-precision path is the engine of the float32 wire pipeline —
half the bytes per element end to end.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..exectx import execution_context
from .twiddle import twiddles

__all__ = [
    "stockham_fft",
    "stockham_fft_tt",
    "stage_twiddles",
    "pass_schedule",
    "clear_stage_cache",
    "KERNEL_VARIANTS",
]

#: The pass schedules the autotuner may race (all bitwise-identical).
KERNEL_VARIANTS = ("radix2", "radix4", "split_radix")

_STAGE_CACHE_MAX = 256
_stage_cache: OrderedDict[tuple, tuple] = OrderedDict()
_stage_lock = threading.Lock()

# Batch-expanded twiddle rows (``np.repeat(w, nb)``) let every stage run
# fully contiguous ufunc passes even for small batch counts, where the
# broadcast multiply's inner loop would be short.  They cost n*nb
# complex values per (size, batch) pair, so only modest problems are
# tiled by default; larger ones use the broadcast path (bit-identical
# either way — the same value pairs are multiplied).  The threshold is a
# tunable: the autotuner races it per shape.
_TILE_MAX_ELEMENTS = 1 << 17
_TILE_CACHE_MAX = 32
_tile_cache: OrderedDict[tuple, tuple] = OrderedDict()
_tile_lock = threading.Lock()

# Ping-pong scratch reuse: the kernel's stage buffers plus the
# twiddle-product temporary are fully overwritten every pass, so they
# can be recycled across calls of the same (n, nb) — repeated same-size
# transforms (the plan-cache hit path) then allocate nothing.  Pools are
# keyed on :func:`repro.exectx.execution_context` — NOT the OS thread —
# because the DES engine recycles a finished rank's thread as the vessel
# for a later rank: a thread-keyed pool would silently hand one rank's
# scratch to another, breaking rank isolation (plain threads degrade to
# per-thread keys, exactly the old behaviour).  Each context keeps a
# tiny LRU of recent problem sizes.
_SCRATCH_PER_CONTEXT = 4
_SCRATCH_MAX_ELEMENTS = 1 << 18  # ~10 MiB per pooled entry; beyond that, allocate
_scratch_tls = threading.local()


def _kernel_ctype(arr: np.ndarray) -> np.dtype:
    """The compute dtype the kernel runs in for this input.

    ``complex64`` inputs stay single precision (the float32 pipeline);
    everything else is the historical ``complex128`` contract.
    """
    dt = arr.dtype
    if dt == np.complex64:
        return np.dtype(np.complex64)
    return np.dtype(np.complex128)


def _scratch_pool() -> OrderedDict:
    """The calling execution context's scratch LRU.

    Lock-free: a context runs on exactly one OS thread for its whole
    life, so a thread-local ``(ctx, pool)`` slot revalidated against the
    current context is private — and a recycled vessel's next rank fails
    the check and starts fresh rather than inheriting buffers.
    """
    ctx = execution_context()
    entry = getattr(_scratch_tls, "entry", None)
    if entry is not None and entry[0] == ctx:
        return entry[1]
    pool: OrderedDict = OrderedDict()
    _scratch_tls.entry = (ctx, pool)
    return pool


def _scratch_buffers(
    total: int, ctype: np.dtype = np.dtype(np.complex128)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two length-*total* stage buffers + a half-length temp (recycled)."""
    if total > _SCRATCH_MAX_ELEMENTS:
        return (
            np.empty(total, dtype=ctype),
            np.empty(total, dtype=ctype),
            np.empty(total // 2, dtype=ctype),
        )
    pool = _scratch_pool()
    key = (total, ctype.char)
    bufs = pool.get(key)
    if bufs is None:
        bufs = (
            np.empty(total, dtype=ctype),
            np.empty(total, dtype=ctype),
            np.empty(total // 2, dtype=ctype),
        )
        pool[key] = bufs
        while len(pool) > _SCRATCH_PER_CONTEXT:
            pool.popitem(last=False)
    else:
        pool.move_to_end(key)
    return bufs


def stage_twiddles(n: int, sign: int, ctype: np.dtype | None = None) -> tuple:
    """Per-stage twiddle tables for a length-*n* radix-2 transform.

    Returns one ``(w_row, w_col)`` pair per butterfly stage
    ``m = 1, 2, 4, ..., n/2`` where ``w_row`` has shape ``(m,)`` and
    ``w_col`` is the same table as an ``(m, 1)`` column (both read-only).
    The ``m = 1`` entry is ``None``: its twiddle is exactly ``1`` and the
    kernel skips the multiply altogether.  *ctype* selects the table
    precision (``complex64`` tables are rounded once from the double
    tables and cached separately).
    """
    ct = np.dtype(np.complex128) if ctype is None else np.dtype(ctype)
    key = (n, sign, ct.char)
    with _stage_lock:
        hit = _stage_cache.get(key)
        if hit is not None:
            _stage_cache.move_to_end(key)
            return hit
    stages = []
    m = 1
    while m < n:
        if m == 1:
            stages.append(None)
        else:
            w = twiddles(2 * m, sign)[:m]
            if ct != np.complex128:
                w = w.astype(ct)
                w.setflags(write=False)
            stages.append((w, w.reshape(m, 1)))
        m *= 2
    table = tuple(stages)
    with _stage_lock:
        _stage_cache[key] = table
        _stage_cache.move_to_end(key)
        while len(_stage_cache) > _STAGE_CACHE_MAX:
            _stage_cache.popitem(last=False)
    return table


def clear_stage_cache() -> None:
    """Drop the per-size stage tables (tests and benchmarks)."""
    with _stage_lock:
        _stage_cache.clear()
    with _tile_lock:
        _tile_cache.clear()


def _tiled_twiddles(n: int, sign: int, nb: int, ctype: np.dtype) -> tuple:
    """Per-stage ``repeat(w, nb)`` rows for the batched kernel (cached)."""
    key = (n, sign, nb, ctype.char)
    with _tile_lock:
        hit = _tile_cache.get(key)
        if hit is not None:
            _tile_cache.move_to_end(key)
            return hit
    tiles = []
    for stage in stage_twiddles(n, sign, ctype):
        if stage is None:
            tiles.append(None)
        else:
            tile = np.repeat(stage[0], nb)
            tile.setflags(write=False)
            tiles.append(tile)
    table = tuple(tiles)
    with _tile_lock:
        _tile_cache[key] = table
        _tile_cache.move_to_end(key)
        while len(_tile_cache) > _TILE_CACHE_MAX:
            _tile_cache.popitem(last=False)
    return table


def pass_schedule(n: int, variant: str = "radix2") -> tuple[str, ...]:
    """The pass tags (``"r2"`` / ``"r4"``) walking the ``log2(n)`` stages.

    - ``radix2``: every stage its own pass.
    - ``radix4``: stage pairs fused from stage 0; an odd trailing stage
      runs as a final radix-2 pass.
    - ``split_radix``: radix-2 passes for the first (small-``m``) stages,
      fused radix-4 passes for the rest; the head length absorbs the
      parity so the tail pairs cleanly.

    A fused pass consumes exactly two stage tables and performs their
    scalar operations unchanged — schedules are data-flow variants of
    one butterfly network, never arithmetic variants.
    """
    s = max(n.bit_length() - 1, 0)
    if variant == "radix2":
        return ("r2",) * s
    if variant == "radix4":
        return ("r4",) * (s // 2) + ("r2",) * (s % 2)
    if variant == "split_radix":
        head = 2 if s >= 4 else s
        head += (s - head) % 2
        return ("r2",) * head + ("r4",) * ((s - head) // 2)
    raise ValueError(f"unknown kernel variant {variant!r}; choose from {KERNEL_VARIANTS}")


def _run_network(
    src: np.ndarray,
    srcbuf: np.ndarray | None,
    free: list,
    out: np.ndarray,
    tmp: np.ndarray,
    n: int,
    nb: int,
    sign: int,
    schedule: tuple[str, ...],
    stages: tuple,
    tiles: tuple | None,
) -> np.ndarray:
    """Execute *schedule* over the ``(K, m, nb)`` views of flat buffers.

    *src* is the stage-0 ``(n, 1, nb)`` view (read-only — possibly the
    caller's array); *srcbuf* the flat buffer backing it (``None`` when
    it is the caller's).  *free* holds the flat scratch buffers currently
    not carrying live data; the last pass must land in *out*, so *out*
    is only picked as a destination on the final pass (earlier fused
    passes may use it as the quadrant spare — its contents die within
    the pass).  Buffer choice never affects values: every pass performs
    the same ufunc calls on the same operands wherever they live.
    """
    total = n * nb
    npass = len(schedule)
    m, big_k, si = 1, n, 0
    for pi, tag in enumerate(schedule):
        last = pi == npass - 1
        dst_i = 0
        for i, b in enumerate(free):
            if (b is out) == last:
                dst_i = i
                break
        dstbuf = free.pop(dst_i)
        half = big_k // 2
        e = src[:half]
        o = src[half:]
        if tag == "r2":
            dst = dstbuf[:total].reshape(half, 2 * m, nb)
            stage = stages[si]
            if stage is None:
                t = o
            else:
                t = tmp[: total // 2].reshape(half, m, nb)
                if tiles is not None:
                    np.multiply(
                        o.reshape(half, m * nb),
                        tiles[si],
                        out=t.reshape(half, m * nb),
                    )
                else:
                    np.multiply(o, stage[1], out=t)
            np.add(e, t, out=dst[:, :m])
            np.subtract(e, t, out=dst[:, m:])
            m *= 2
            si += 1
            big_k = half
        else:  # fused radix-4: two stages, same scalar ops, one handoff
            q = big_k // 4
            quarter = total // 4
            stage_a = stages[si]
            stage_b = stages[si + 1]
            spare = free[0]  # scratch for the stage-A quadrants
            uv = spare[:total].reshape(4, q, m, nb)
            u0, u1, v0, v1 = uv[0], uv[1], uv[2], uv[3]
            a = src[:q]
            b = src[q:half]
            c = src[half : half + q]
            d = src[half + q :]
            if stage_a is None:
                t1, t2 = c, d
            else:
                t = tmp[: total // 2].reshape(half, m, nb)
                if tiles is not None:
                    np.multiply(
                        o.reshape(half, m * nb),
                        tiles[si],
                        out=t.reshape(half, m * nb),
                    )
                else:
                    np.multiply(o, stage_a[1], out=t)
                t1, t2 = t[:q], t[q:]
            # Stage A, split by destination quadrant: (a;b) +- (t1;t2).
            np.add(a, t1, out=u0)
            np.subtract(a, t1, out=u1)
            np.add(b, t2, out=v0)
            np.subtract(b, t2, out=v1)
            # Stage B twiddle halves scale the odd quadrants (t1/t2 are
            # dead by now, so tmp is reused for the products).
            p0 = tmp[:quarter].reshape(q, m, nb)
            p1 = tmp[quarter : 2 * quarter].reshape(q, m, nb)
            if tiles is not None:
                tile_b = tiles[si + 1]
                np.multiply(
                    v0.reshape(q, m * nb), tile_b[: m * nb], out=p0.reshape(q, m * nb)
                )
                np.multiply(
                    v1.reshape(q, m * nb), tile_b[m * nb :], out=p1.reshape(q, m * nb)
                )
            else:
                wb = stage_b[1]  # (2m, 1) column table
                np.multiply(v0, wb[:m], out=p0)
                np.multiply(v1, wb[m:], out=p1)
            dst = dstbuf[:total].reshape(q, 4 * m, nb)
            np.add(u0, p0, out=dst[:, :m])
            np.add(u1, p1, out=dst[:, m : 2 * m])
            np.subtract(u0, p0, out=dst[:, 2 * m : 3 * m])
            np.subtract(u1, p1, out=dst[:, 3 * m :])
            m *= 4
            si += 2
            big_k = q
        if srcbuf is not None:
            free.append(srcbuf)
        srcbuf = dstbuf
        src = dst
    return out[:total]


def _core(
    xt: np.ndarray,
    n: int,
    sign: int,
    variant: str = "radix2",
    tile_elements: int | None = None,
) -> np.ndarray:
    """Butterfly network over the columns of *xt*; output ``(n, nb)``.

    Column ``i`` of the contiguous result is the transform of column
    ``i`` of *xt* — the network's own ``(K, m, nb)`` orientation.  When
    the batch axis is unit-stride (or there is a single column) pass 0
    reads *xt* in place; it is never written.  Otherwise the columns are
    first gathered into the pooled ``hold`` scratch so every pass
    streams contiguous runs.  Which buffer pass 0 reads never changes a
    value: the same ufunc calls see the same operands either way.
    """
    nb = xt.shape[1]
    ctype = _kernel_ctype(xt)
    tmax = _TILE_MAX_ELEMENTS if tile_elements is None else tile_elements
    tiles = _tiled_twiddles(n, sign, nb, ctype) if n * nb <= tmax else None
    stages = stage_twiddles(n, sign, ctype)
    schedule = pass_schedule(n, variant)
    total = n * nb
    out = np.empty(total, dtype=ctype)
    hold, ping, tmp = _scratch_buffers(total, ctype)
    if nb == 1 or xt.strides[1] == xt.itemsize:
        src, srcbuf, free = xt[:, None, :], None, [ping, hold, out]
    else:
        np.copyto(hold.reshape(n, nb), xt)
        src, srcbuf, free = hold.reshape(n, 1, nb), hold, [ping, out]
    result = _run_network(
        src, srcbuf, free, out, tmp, n, nb, sign, schedule, stages, tiles
    )
    return result.reshape(n, nb)


# Cache blocking: one transform's ping-pong working set is ~2.5 * n * nb
# complex values; past this element count it overflows L2 and every
# butterfly pass streams from L3/DRAM.  Batch columns are independent,
# so large batches are processed in groups small enough to keep the
# stage passes cache-resident.  Grouping changes which SIMD lane
# computes each element, never the operands — outputs are bit-identical.
# The bound is a tunable raced by the autotuner (0 disables grouping).
_GROUP_MAX_ELEMENTS = 1 << 15


def _columns(
    xt: np.ndarray,
    n: int,
    sign: int,
    variant: str = "radix2",
    group_elements: int | None = None,
    tile_elements: int | None = None,
) -> np.ndarray:
    """:func:`_core`, cache-blocked over the batch axis; output ``(n, nb)``."""
    nb = xt.shape[1]
    gmax = _GROUP_MAX_ELEMENTS if group_elements is None else group_elements
    if gmax <= 0 or n * nb <= gmax or gmax // n == 0:
        return _core(xt, n, sign, variant, tile_elements)
    g = gmax // n
    out = np.empty((n, nb), dtype=_kernel_ctype(xt))
    for s in range(0, nb, g):
        out[:, s : s + g] = _core(xt[:, s : s + g], n, sign, variant, tile_elements)
    return out


def stockham_fft_tt(
    xt: np.ndarray,
    sign: int,
    *,
    variant: str = "radix2",
    group_elements: int | None = None,
    tile_elements: int | None = None,
) -> np.ndarray:
    """Transform each *column* of 2-D *xt*, returned as ``(n, nb)``.

    The kernel's one entry: input and output both in its internal column
    orientation, so neither an entry nor an exit transpose is paid when
    the columns' batch axis is unit-stride.  Values are bit-identical to
    ``stockham_fft(xt.T, sign).T`` for every (variant, grouping, tiling)
    choice.
    """
    n, nb = xt.shape
    ctype = _kernel_ctype(np.asarray(xt))
    if n == 1:
        return np.array(xt, dtype=ctype, copy=True)
    return _columns(
        np.asarray(xt, dtype=ctype), n, sign, variant, group_elements, tile_elements
    )


def stockham_fft(
    x: np.ndarray,
    sign: int,
    *,
    variant: str = "radix2",
    group_elements: int | None = None,
    tile_elements: int | None = None,
) -> np.ndarray:
    """Unscaled radix-2 transform over the last axis of *x*.

    *x* must be complex with a power-of-two last dimension; complex64
    runs natively single-precision, everything else computes in
    complex128 (the contract of the former bit-reversal core).
    ``sign=-1`` is the forward transform, ``sign=+1`` the unscaled
    inverse.  Returns a new array; the input is never modified.

    The row wrapper around :func:`stockham_fft_tt`: the rows are handed
    to the kernel as columns (a batch copies into scratch on entry) and
    the result is transposed back.
    """
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    batch = x.shape[:-1]
    x2 = np.ascontiguousarray(x).reshape(-1, n)
    out = _columns(x2.T, n, sign, variant, group_elements, tile_elements)
    return np.ascontiguousarray(out.T).reshape(*batch, n)
