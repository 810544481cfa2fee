"""Numerical gates of the plan-cache engine against the frozen seed code.

The frozen reference below is a faithful copy of the pre-plan-cache
implementation (seed commit 20f31fb): a fresh ``FftPlan`` per backend
call, a bit-reversal radix-2 core built from per-stage
``np.concatenate``, a recursive mixed-radix driver that recomputes
factorisation, dense DFT matrices and twiddle index tables per call,
and an SOI chain with a per-call ``np.einsum(..., optimize=True)`` and
demodulation by division.  It deliberately shares no code with
``repro.dft`` beyond the twiddle table and the dense DFT matrix, so the
gates below survive rewrites of the library:

- every engine kernel is bit-identical to the frozen kernel, for
  power-of-two and mixed-radix (1280, 20480) sizes;
- ``soi_fft`` on the ``repro`` backend stays within ``4e-16`` (max
  relative) of the frozen chain — the only deviation is the reciprocal
  demodulation multiply;
- the distributed transform is bitwise equal to the sequential one.
"""

import json

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core.plan import SoiPlan, soi_plan_for
from repro.core.soi import soi_fft
from repro.dft import fft as engine_fft
from repro.dft import plan_cache_info
from repro.dft.naive import dft_matrix
from repro.dft.twiddle import twiddles
from repro.parallel import soi_fft_distributed
from repro.simmpi import run_spmd
from repro.utils import bit_reverse_indices, factorize, is_power_of_two

KERNEL_SHAPES = [(1024,), (8, 256), (1280,), (4096,), (16, 1024), (20480,)]
SOI_CASES = [(1 << 12, 4), (1 << 13, 4), (1 << 14, 8)]


# ----------------------------------------------------------------------
# Frozen pre-plan-cache reference.
# ----------------------------------------------------------------------


def _legacy_radix2(x: np.ndarray, sign: int) -> np.ndarray:
    """Seed DIT kernel: bit-reversal gather + per-stage concatenate."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    a = x[..., bit_reverse_indices(n)]
    batch_shape = a.shape[:-1]
    m = 1
    while m < n:
        w = twiddles(2 * m, sign)[:m]
        a = a.reshape(*batch_shape, n // (2 * m), 2, m)
        even = a[..., 0, :]
        odd = a[..., 1, :] * w
        a = np.concatenate([even + odd, even - odd], axis=-1)
        m *= 2
    return a.reshape(*batch_shape, n)


def _legacy_fft_any(x: np.ndarray, sign: int) -> np.ndarray:
    """Seed mixed-radix driver: per-call factorize / DFT matrix / tables."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    if is_power_of_two(n):
        return _legacy_radix2(x, sign)
    p = factorize(n)[-1]
    if p > 61:  # seed _MAX_DENSE_PRIME; the sizes here never hit Bluestein
        raise ValueError(f"legacy reference does not cover n={n}")
    q = n // p
    batch = x.shape[:-1]
    a = x.reshape(*batch, p, q)
    fp = dft_matrix(p) if sign == -1 else dft_matrix(p, inverse=True)
    b = np.einsum("kj,...jq->...kq", fp, a)
    w = twiddles(n, sign)
    k1 = np.arange(p)[:, None]
    j2 = np.arange(q)[None, :]
    b *= w[(k1 * j2) % n]
    c = _legacy_fft_any(np.ascontiguousarray(b), sign)
    return np.ascontiguousarray(c.swapaxes(-1, -2)).reshape(*batch, n)


class _LegacyFftPlan:
    """Seed FftPlan: kernel dispatch + twiddle warm-up at construction."""

    def __init__(self, n: int) -> None:
        self.n = n
        if n == 1 or is_power_of_two(n):
            self.kernel = "radix2"
        elif max(factorize(n)) <= 61:
            self.kernel = "mixed_radix"
        else:
            raise ValueError(f"legacy reference does not cover n={n}")
        if n > 1:
            twiddles(n, -1)
            twiddles(n, +1)

    def execute(self, x: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(x, dtype=np.complex128)
        if self.kernel == "radix2":
            return _legacy_radix2(arr, -1)
        return _legacy_fft_any(arr, -1)


def _legacy_backend_fft(x: np.ndarray) -> np.ndarray:
    # Seed backends.py: a fresh FftPlan per call, as the pre-plan-cache
    # ``get_backend("repro").fft`` did.
    return _LegacyFftPlan(np.asarray(x).shape[-1]).execute(x)


def _legacy_soi_fft(x: np.ndarray, plan: SoiPlan) -> np.ndarray:
    """Seed sequential SOI pipeline (1-D), per-call allocations included."""
    arr = np.ascontiguousarray(x, dtype=np.complex128)
    xe = np.concatenate([arr, arr[: plan.b * plan.p]])
    stride = plan.nu * plan.p
    win = np.lib.stride_tricks.sliding_window_view(xe, plan.b * plan.p)[::stride][
        : plan.q_chunks
    ]
    winb = win.reshape(plan.q_chunks, plan.b, plan.p)
    z = np.einsum("rbp,qbp->qrp", plan.coeffs, winb, optimize=True)
    z = z.reshape(plan.m_over, plan.p)
    v = _legacy_backend_fft(z)
    segments = np.ascontiguousarray(np.swapaxes(v, -1, -2))
    yt = _legacy_backend_fft(segments)
    y = yt[:, : plan.m] / plan.demod
    return y.reshape(plan.n)


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) / scale if scale else 0.0


# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def kernels():
    rows = []
    for shape in KERNEL_SHAPES:
        x = random_complex(int(np.prod(shape)), seed=sum(shape)).reshape(shape)
        rows.append({
            "shape": list(shape),
            "bit_identical": bool(np.array_equal(engine_fft(x), _legacy_backend_fft(x))),
        })
    return rows


@pytest.fixture(scope="module")
def soi_rows():
    rows = []
    for n, p in SOI_CASES:
        x = random_complex(n, seed=n % 9973)
        engine = soi_fft(x, soi_plan_for(n, p), backend="repro")
        rows.append({
            "n": n, "p": p,
            "max_rel": _max_rel(engine, _legacy_soi_fft(x, SoiPlan(n=n, p=p))),
        })
    return rows


@pytest.fixture(scope="module")
def distributed():
    n, p, nranks = 1 << 12, 4, 4
    plan = SoiPlan(n=n, p=p)
    x = random_complex(n, seed=n % 9973)
    blocks = x.reshape(nranks, -1)
    res = run_spmd(
        nranks,
        lambda comm: soi_fft_distributed(comm, blocks[comm.rank], plan, backend="repro"),
    )
    seq = soi_fft(x, plan, backend="repro")
    return {"nranks": nranks,
            "bitwise_equal": bool(np.array_equal(np.concatenate(res.values), seq))}


class TestPayloadSchema:
    def test_schema_tag(self):
        """The plan-cache counters the engine reports on."""
        assert set(plan_cache_info()) >= {"hits", "misses"}

    def test_json_serialisable(self, kernels, soi_rows):
        doc = {"kernels": kernels, "soi": soi_rows, "plan_cache": plan_cache_info()}
        assert json.loads(json.dumps(doc)) == doc

    def test_gates_all_pass(self, kernels, soi_rows, distributed):
        self.test_kernel_rows_bit_identical(kernels)
        self.test_soi_rows_are_measured(soi_rows)
        self.test_distributed_row(distributed)

    def test_top_level_sections(self, kernels):
        """Power-of-two, batched and mixed-radix kernels are all covered."""
        sizes = [row["shape"][-1] for row in kernels]
        assert any(is_power_of_two(n) for n in sizes)
        assert {1280, 20480} <= set(sizes)
        assert any(len(row["shape"]) == 2 for row in kernels)

    def test_headline_fields(self):
        """A repeated same-size call is a plan-cache hit."""
        x = random_complex(1 << 12, seed=1)
        soi_fft(x, soi_plan_for(1 << 12, 4), backend="repro")
        before = plan_cache_info()
        soi_fft(x, soi_plan_for(1 << 12, 4), backend="repro")
        after = plan_cache_info()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_soi_rows_are_measured(self, soi_rows):
        assert soi_rows
        for row in soi_rows:
            assert row["max_rel"] < 4e-16

    def test_kernel_rows_bit_identical(self, kernels):
        assert kernels
        for row in kernels:
            assert row["bit_identical"] is True, row["shape"]

    def test_distributed_row(self, distributed):
        assert distributed["nranks"] == 4
        assert distributed["bitwise_equal"] is True

    def test_consistency_block(self):
        """A cached plan and a freshly built one compute the same bits."""
        for n, p in SOI_CASES:
            x = random_complex(n, seed=n % 9973)
            assert np.array_equal(
                soi_fft(x, soi_plan_for(n, p), backend="repro"),
                soi_fft(x, SoiPlan(n=n, p=p), backend="repro"),
            )


class TestCliIntegration:
    def test_bench_micro_writes_json(self, capsys):
        """The CLI has no bench sections left: the gates above are tier-1."""
        from repro.__main__ import main

        assert main(["--list"]) == 0
        assert not [s for s in capsys.readouterr().out.split() if s.startswith("bench-")]
        with pytest.raises(SystemExit):
            main(["bench-micro"])
