"""Tests for the SOI extensions: inverse, batched, and 2-D transforms."""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core import SoiPlan, snr_db, soi_fft, soi_fft2, soi_ifft


@pytest.fixture(scope="module")
def plan10():
    return SoiPlan(n=1024, p=4, window="digits10")


class TestSoiIfft:
    def test_matches_numpy_ifft(self, full_plan):
        x = random_complex(full_plan.n, 31)
        assert snr_db(soi_ifft(x, full_plan), np.fft.ifft(x)) > 280.0

    def test_roundtrip(self, full_plan):
        x = random_complex(full_plan.n, 32)
        assert snr_db(soi_ifft(soi_fft(x, full_plan), full_plan), x) > 275.0

    def test_scaling_convention(self, plan10):
        """ifft(fft(delta)) recovers the delta with 1/N scaling."""
        x = np.zeros(plan10.n, dtype=complex)
        x[7] = 1.0
        out = soi_ifft(soi_fft(x, plan10), plan10)
        assert abs(out[7] - 1.0) < 1e-9
        assert np.max(np.abs(np.delete(out, 7))) < 1e-9

    def test_accuracy_follows_window(self, plan10):
        x = random_complex(plan10.n, 33)
        s = snr_db(soi_ifft(x, plan10), np.fft.ifft(x))
        assert 180.0 < s


class TestBatchedSoi:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    def test_matches_per_row(self, backend, dtype):
        # The batched generic path and the 1-D fused chain share only
        # the back stage; their rows must still agree bitwise.
        plan = SoiPlan(n=1024, p=4, window="digits10", dtype=dtype)
        xb = np.stack([random_complex(plan.n, 40 + i) for i in range(3)])
        full = soi_fft(xb, plan, backend=backend)
        for i in range(3):
            np.testing.assert_array_equal(
                full[i], soi_fft(xb[i], plan, backend=backend)
            )

    def test_3d_batch(self, plan10):
        xb = random_complex(4 * plan10.n, 44).reshape(2, 2, plan10.n)
        out = soi_fft(xb, plan10)
        assert out.shape == (2, 2, plan10.n)
        np.testing.assert_array_equal(out[1, 0], soi_fft(xb[1, 0], plan10))

    def test_batched_accuracy(self, plan10):
        xb = np.stack([random_complex(plan10.n, 50 + i) for i in range(4)])
        assert snr_db(soi_fft(xb, plan10), np.fft.fft(xb, axis=-1)) > 190.0

    def test_wrong_last_axis(self, plan10):
        with pytest.raises(ValueError, match="last axis"):
            soi_fft(np.zeros((3, 100), dtype=complex), plan10)


class TestSoiFft2:
    def test_square_matches_numpy(self, plan10):
        x = random_complex(plan10.n * plan10.n, 60).reshape(plan10.n, plan10.n)
        assert snr_db(soi_fft2(x, plan10), np.fft.fft2(x)) > 185.0

    def test_rectangular(self):
        pr = SoiPlan(n=1024, p=4, window="digits8")
        pc = SoiPlan(n=512, p=4, window="digits8")
        x = random_complex(512 * 1024, 61).reshape(512, 1024)
        assert snr_db(soi_fft2(x, pr, pc), np.fft.fft2(x)) > 150.0

    def test_separable_structure(self, plan10):
        """fft2 of an outer product is the outer product of ffts."""
        u = random_complex(plan10.n, 62)
        v = random_complex(plan10.n, 63)
        x = np.outer(u, v)
        y = soi_fft2(x, plan10)
        ref = np.outer(np.fft.fft(u), np.fft.fft(v))
        assert snr_db(y, ref) > 185.0

    def test_shape_validation(self, plan10):
        with pytest.raises(ValueError, match="expected shape"):
            soi_fft2(np.zeros((10, plan10.n), dtype=complex), plan10)
