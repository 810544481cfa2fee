"""Transform plans: size-dispatching FFT execution objects.

A :class:`FftPlan` mirrors how production FFT libraries (FFTW, MKL —
the substrates in the paper's Fig. 2) are used: create a plan for a
size once, execute it many times, possibly over batches.  The plan
pre-selects the kernel (radix-2 / mixed-radix / Bluestein) and
precomputes everything size-dependent at construction time — the
Stockham per-stage twiddle tables, the mixed-radix factor schedule
(dense prime matrices + per-level twiddle tables), or the Bluestein
chirp and kernel spectrum — so ``execute`` does no factorisation and
no trigonometry, only the transform itself.

Plans are thread-safe: execution touches no shared mutable state
except the flop-accounting counter, which is lock-protected because
the global plan cache (:mod:`repro.dft.cache`) shares one plan object
across all ``run_spmd`` rank threads.

One-shot :func:`fft` / :func:`ifft` route through that cache, so even
casual callers get the create-once/execute-many cost profile.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..utils import check_positive_int, factorize, is_power_of_two
from .bluestein import fft_bluestein, _setup as _bluestein_setup
from .flops import fft_flops
from .mixed_radix import fft_mixed_radix, mixed_radix_schedule, _MAX_DENSE_PRIME
from .stockham import stage_twiddles, stockham_fft, stockham_fft_tt

__all__ = ["FftPlan", "fft", "ifft"]


@dataclass
class FftPlan:
    """Reusable plan for forward/inverse FFTs of one fixed length.

    Parameters
    ----------
    n:
        Transform length (any positive integer).
    inverse:
        Default direction of :meth:`execute`; either direction can be
        requested explicitly per call.
    precision:
        ``"double"`` (the default, complex128 compute — the historical
        contract) or ``"single"`` (complex64 compute, the explicit
        opt-in behind the float32 wire pipeline: half the bytes per
        element through every stage the plan touches).

    Attributes
    ----------
    kernel:
        Which kernel the size dispatched to: ``"radix2"``,
        ``"mixed_radix"`` or ``"bluestein"``.
    executions:
        Number of transforms executed through this plan (batch entries
        count individually), for flop accounting.  Updated under a lock
        so cached plans can be shared across simmpi rank threads.
    """

    n: int
    inverse: bool = False
    precision: str = "double"
    kernel: str = field(init=False)
    executions: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.n = check_positive_int(self.n, "n")
        if self.precision not in ("double", "single"):
            raise ValueError(
                f"precision must be 'double' or 'single', got {self.precision!r}"
            )
        self.compute_dtype = np.dtype(
            np.complex64 if self.precision == "single" else np.complex128
        )
        self._count_lock = threading.Lock()
        # Autotuner memo: (wisdom generation, {batch count -> config}).
        # Revalidated against repro.dft.tune's generation counter so a
        # late wisdom load (server warm-up, bench racing) reaches plans
        # that are already cached and executing.
        self._tune_memo: tuple[int, dict] | None = None
        if self.n == 1 or is_power_of_two(self.n):
            self.kernel = "radix2"
        elif max(factorize(self.n)) <= _MAX_DENSE_PRIME:
            self.kernel = "mixed_radix"
        else:
            self.kernel = "bluestein"
        # Precompute every size-dependent table so the first execute()
        # is not an outlier in timing loops (plans in FFTW/MKL do the
        # same).  Each warm-up populates a shared, thread-safe cache.
        if self.kernel == "radix2" and self.n > 1:
            stage_twiddles(self.n, -1, self.compute_dtype)
            stage_twiddles(self.n, +1, self.compute_dtype)
        elif self.kernel == "mixed_radix":
            schedule = mixed_radix_schedule(self.n)
            if schedule.tail == "radix2" and schedule.tail_n > 1:
                stage_twiddles(schedule.tail_n, -1)
                stage_twiddles(schedule.tail_n, +1)
        elif self.kernel == "bluestein":
            _bluestein_setup(self.n, -1)
            _bluestein_setup(self.n, +1)

    #: The default compute dtype; a plan's actual dtype is
    #: ``self.compute_dtype`` (complex64 for ``precision="single"``).
    COMPUTE_DTYPE = np.complex128

    def _as_compute(self, arr: np.ndarray) -> np.ndarray:
        """Normalise input to the plan's compute dtype, C-contiguous.

        Doing the cast here — rather than relying on each kernel's own
        coercion — makes cross-dtype plan-cache sharing sound by
        construction: a float32 caller and a complex128 caller of the
        same cached plan execute the identical kernel on the identical
        bit pattern.
        """
        return np.ascontiguousarray(arr, dtype=self.compute_dtype)

    def _tuned_config(self, nb: int) -> dict | None:
        """The autotuned kernel config for a batch of *nb*, memoised.

        Consults :mod:`repro.dft.tune` wisdom once per (batch count,
        wisdom generation); ``None`` means the default radix-2 config.
        """
        if self.n <= 1:
            return None
        from . import tune

        gen = tune.wisdom_generation()
        with self._count_lock:
            memo = self._tune_memo
            if memo is None or memo[0] != gen:
                memo = (gen, {})
                self._tune_memo = memo
        cfgs = memo[1]
        if nb not in cfgs:
            cfgs[nb] = tune.tuned_config_for(self.n, self.compute_dtype, nb)
        return cfgs[nb]

    def execute(self, x: np.ndarray, inverse: bool | None = None) -> np.ndarray:
        """Transform *x* over its last axis; length must equal ``self.n``.

        Returns a new array; the input is never modified.  Any numeric
        input dtype/layout is accepted and computed in the plan's
        ``compute_dtype`` (complex128, or complex64 for single-precision
        plans).
        """
        arr = np.asarray(x)
        if arr.shape[-1] != self.n:
            raise ValueError(
                f"plan is for length {self.n}, input last axis is {arr.shape[-1]}"
            )
        arr = self._as_compute(arr)
        inv = self.inverse if inverse is None else inverse
        batch = int(np.prod(arr.shape[:-1], dtype=np.int64)) or 1
        if self.kernel == "mixed_radix":
            # Non-pow2 kernels compute in double; single-precision plans
            # round once at the boundary (strictly more accurate than a
            # native c64 recursion, and the wire dtype is what matters).
            out = fft_mixed_radix(arr, inverse=inv)
        elif self.kernel == "bluestein":
            out = fft_bluestein(arr, inverse=inv)
        else:
            out = stockham_fft(
                arr, +1 if inv else -1, **(self._tuned_config(batch) or {})
            )
            if inv:
                out = out / self.n
        if out.dtype != self.compute_dtype:
            out = out.astype(self.compute_dtype)
        with self._count_lock:
            self.executions += batch
        return out

    def execute_tt(self, xt: np.ndarray) -> np.ndarray:
        """Forward-transform the *columns* of 2-D *xt*; output ``(n, cols)``.

        The fully fused layout: input and output both column-major per
        transform (the Stockham internal orientation), so neither an
        entry nor an exit transpose is paid on the radix-2 path.
        Bit-identical to ``execute(xt.T).T`` made contiguous.
        """
        arr = np.asarray(xt)
        if arr.ndim != 2:
            raise ValueError(f"execute_tt needs a 2-D array, got shape {arr.shape}")
        if arr.shape[0] != self.n:
            raise ValueError(
                f"plan is for length {self.n}, input first axis is {arr.shape[0]}"
            )
        if self.kernel != "radix2" or self.n == 1:
            # execute() does the flop accounting on this path.
            out = self.execute(
                np.ascontiguousarray(np.swapaxes(arr, 0, 1)), inverse=False
            )
            return np.ascontiguousarray(np.swapaxes(out, 0, 1))
        out = stockham_fft_tt(
            self._as_compute(arr), -1, **(self._tuned_config(arr.shape[1]) or {})
        )
        with self._count_lock:
            self.executions += arr.shape[1]
        return out

    def __call__(self, x: np.ndarray, inverse: bool | None = None) -> np.ndarray:
        return self.execute(x, inverse=inverse)

    @property
    def flops_per_execution(self) -> float:
        """Nominal ``5 n log2 n`` flops of one transform through this plan."""
        return fft_flops(self.n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FftPlan(n={self.n}, kernel={self.kernel!r}, executions={self.executions})"


def fft(x: np.ndarray) -> np.ndarray:
    """One-shot forward FFT over the last axis (any length, cached plan)."""
    from .cache import plan_for  # local import: cache.py imports FftPlan

    arr = np.asarray(x)
    return plan_for(arr.shape[-1], arr.dtype).execute(arr, inverse=False)


def ifft(y: np.ndarray) -> np.ndarray:
    """One-shot inverse FFT over the last axis (any length, cached plan)."""
    from .cache import plan_for  # local import: cache.py imports FftPlan

    arr = np.asarray(y)
    return plan_for(arr.shape[-1], arr.dtype).execute(arr, inverse=True)
