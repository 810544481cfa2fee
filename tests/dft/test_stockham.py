"""Tests for the iterative batched Stockham kernel.

The kernel replaced the seed's recursive DIT radix-2 core, and the
contract is strict: same butterfly pairings, same twiddle values, same
operation order — so outputs are *bit-for-bit* identical to the
reference decimation-in-time network embedded below (the seed
implementation, kept here verbatim as the oracle).
"""

import numpy as np
import pytest

from repro.dft import fft_radix2, ifft_radix2, tune
from repro.dft import stockham
from repro.dft.stockham import (
    clear_stage_cache,
    stage_twiddles,
    stockham_fft,
    stockham_fft_tt,
)
from repro.dft.twiddle import twiddles
from repro.utils import bit_reverse_indices


def _seed_dit_core(x, sign):
    """The pre-Stockham kernel (seed radix2.py), the bitwise oracle."""
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


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBitIdentityToSeedKernel:
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 512, 4096])
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_single_vector(self, n, sign, rng):
        x = _complex(rng, n)
        np.testing.assert_array_equal(stockham_fft(x, sign), _seed_dit_core(x, sign))

    @pytest.mark.parametrize("shape", [(3, 64), (16, 256), (2, 5, 32)])
    def test_batched(self, shape, rng):
        x = _complex(rng, shape)
        np.testing.assert_array_equal(stockham_fft(x, -1), _seed_dit_core(x, -1))

    def test_public_radix2_wrappers(self, rng):
        x = _complex(rng, (7, 128))
        np.testing.assert_array_equal(fft_radix2(x), _seed_dit_core(x, -1))
        np.testing.assert_array_equal(ifft_radix2(x), _seed_dit_core(x, +1) / 128)

    def test_repeated_calls_do_not_clobber_earlier_results(self, rng):
        # The kernel pools scratch buffers per thread; a returned array
        # must never alias a buffer a later same-size call writes into.
        x1, x2 = _complex(rng, (8, 64)), _complex(rng, (8, 64))
        y1 = stockham_fft(x1, -1)
        snapshot = y1.copy()
        stockham_fft(x2, -1)
        np.testing.assert_array_equal(y1, snapshot)


class TestTransposedVariants:
    @pytest.mark.parametrize("shape", [(1, 8), (5, 1), (12, 256), (40, 512)])
    def test_fft_t_is_transposed_fft(self, shape, rng):
        # Rows handed in as a transposed view: the copy-in branch.
        x2 = _complex(rng, shape)
        out = stockham_fft_tt(x2.T, -1)
        np.testing.assert_array_equal(out, stockham_fft(x2, -1).T)
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(8, 1), (1, 5), (8, 2560), (512, 40)])
    def test_fft_tt_transforms_columns_in_place_of_layout(self, shape, rng):
        xt = _complex(rng, shape)
        out = stockham_fft_tt(xt, -1)
        np.testing.assert_array_equal(out, stockham_fft(xt.T, -1).T)
        assert out.shape == xt.shape

    def test_fft_tt_accepts_strided_column_slices(self, rng):
        # The fused SOI path hands the kernel views; grouped execution
        # slices columns, so non-contiguous input must work unchanged.
        xt = _complex(rng, (64, 48))
        view = xt[:, 5:37]
        np.testing.assert_array_equal(
            stockham_fft_tt(view, -1), stockham_fft(view.T, -1).T
        )

    def test_input_never_modified(self, rng):
        xt = _complex(rng, (32, 9))  # 9 column transforms of length 32
        x2 = _complex(rng, (9, 32))  # 9 row transforms of length 32
        before_t, before_2 = xt.copy(), x2.copy()
        stockham_fft_tt(xt, -1)
        stockham_fft_tt(x2.T, -1)
        np.testing.assert_array_equal(xt, before_t)
        np.testing.assert_array_equal(x2, before_2)


class TestColumnLayouts:
    """Copy-in and in-place reads of pass 0 produce identical bits."""

    @pytest.mark.parametrize("n,nb", [(64, 1), (256, 7), (1024, 16), (4096, 12)])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_every_candidate_config_is_layout_independent(self, n, nb, dtype, rng):
        rows = _complex(rng, (nb + 2, n)).astype(dtype)
        cols = np.ascontiguousarray(rows.T)
        before_rows, before_cols = rows.copy(), cols.copy()
        for cfg in tune.candidate_configs(n, nb):
            view = cols[:, 1 : nb + 1]  # column slice: batch axis unit-stride
            strided = stockham_fft_tt(rows[1 : nb + 1].T, -1, **cfg)
            contiguous = stockham_fft_tt(np.ascontiguousarray(view), -1, **cfg)
            sliced = stockham_fft_tt(view, -1, **cfg)
            np.testing.assert_array_equal(strided, contiguous)
            np.testing.assert_array_equal(sliced, contiguous)
        np.testing.assert_array_equal(rows, before_rows)
        np.testing.assert_array_equal(cols, before_cols)


class TestSingleVectorTunables:
    def test_tile_elements_reaches_the_single_vector_path(self, monkeypatch, rng):
        vec = _complex(rng, 256)
        calls = []
        real = stockham._tiled_twiddles

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(stockham, "_tiled_twiddles", counting)
        clear_stage_cache()
        untiled = stockham_fft(vec, -1, tile_elements=0)
        assert calls == []
        default = stockham_fft(vec, -1)
        assert len(calls) == 1
        np.testing.assert_array_equal(untiled, default)


class TestStageTables:
    def test_tables_cover_all_stages(self):
        stages = stage_twiddles(256, -1)
        assert len(stages) == 8  # log2(256)

    def test_tables_are_cached_and_read_only(self):
        a = stage_twiddles(128, -1)
        assert stage_twiddles(128, -1) is a
        assert a[0] is None  # the m=1 twiddle is exactly 1: no multiply
        for stage in a[1:]:
            assert not stage[0].flags.writeable
            assert not stage[1].flags.writeable

    def test_clear_stage_cache(self):
        a = stage_twiddles(64, -1)
        clear_stage_cache()
        assert stage_twiddles(64, -1) is not a
