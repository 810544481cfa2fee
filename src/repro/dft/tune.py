"""FFTW-style autotuner: variant racing with persistent on-disk wisdom.

The Stockham kernel (:mod:`repro.dft.stockham`) exposes three tunables
that change data movement but never values — the pass-schedule variant
(``radix2`` / ``radix4`` / ``split_radix``), the cache-blocking bound
``group_elements`` and the twiddle-tiling bound ``tile_elements``.
Which combination wins depends on the shape ``(n, dtype, batch)`` and
the machine: small transforms are ufunc-call-bound, large ones
memory-bound, and the crossovers move with cache sizes.  Following
AccFFT's install-time racing and FFTW's planner, this module

1. **races** the candidate configurations per shape with :func:`race`,
   the library's one burst-interleaved min-of-reps timing loop (one
   warm-up each, then interleaved timing bursts so drift hits all
   candidates equally, keeping the minimum per candidate);
2. **verifies** every candidate bitwise against the radix-2 default on
   a deterministic probe before it may win (defence in depth — the
   schedules are bitwise-identical by construction);
3. records winners as **wisdom** that :class:`repro.dft.plan.FftPlan`
   consults on every power-of-two execute, and persists it as a
   versioned, hostname-keyed JSON file so tuning cost amortises to zero
   across processes (EFFT's persisted-planner idea).

A candidate only dethrones the default if it wins by at least
:data:`HYSTERESIS` — re-measured ratios of tuned over default then stay
``>= 1.0`` under timing noise, and a shape where nothing helps keeps
the default config (reported as ratio 1.0 exactly, because it *is* the
same code path).

Wisdom is keyed ``(n, dtype, batch bucket)`` with batches bucketed to
the next power of two: timings vary smoothly in the batch count, so one
raced bucket covers its neighbourhood without racing every count.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable

import numpy as np

from ..utils.atomic import write_json_atomic
from .stockham import (
    KERNEL_VARIANTS,
    _TILE_MAX_ELEMENTS,
    _GROUP_MAX_ELEMENTS,
    stockham_fft_tt,
)

__all__ = [
    "WISDOM_SCHEMA",
    "HYSTERESIS",
    "batch_bucket",
    "candidate_configs",
    "race",
    "race_shape",
    "tune_shape",
    "autotune",
    "tuned_config_for",
    "record_wisdom",
    "save_wisdom",
    "load_wisdom",
    "clear_wisdom",
    "wisdom_info",
    "wisdom_entries",
    "wisdom_generation",
]

#: Schema tag of the persisted wisdom format (bump on layout changes —
#: loaders treat any other tag as stale and fall back to racing).
WISDOM_SCHEMA = "repro.dft.wisdom/1"

#: A challenger must beat the default by this factor to be recorded:
#: ``t_winner < HYSTERESIS * t_default``.  Keeps re-measured
#: tuned-vs-default ratios >= 1.0 under ordinary timing noise.
HYSTERESIS = 0.97

#: Tile-forcing candidates are capped here (expanded twiddles cost
#: ~n*nb complex values per shape; beyond ~8 MiB the tables themselves
#: start fighting the data for cache).
_TILE_FORCE_MAX = 1 << 19

_lock = threading.Lock()
_wisdom: dict[tuple[int, str, int], dict] = {}
_generation = 1
_wisdom_hits = 0
_wisdom_misses = 0
_races_run = 0

#: The do-nothing configuration: exactly the pre-tuner kernel defaults.
DEFAULT_CONFIG = {"variant": "radix2", "group_elements": None, "tile_elements": None}


def batch_bucket(nb: int) -> int:
    """Round a batch count up to its wisdom bucket (next power of two)."""
    if nb <= 1:
        return 1
    return 1 << (int(nb) - 1).bit_length()


def _dtype_name(dtype) -> str:
    return np.dtype(dtype).name


def _effective_signature(n: int, nb: int, cfg: dict) -> tuple:
    """What a config *does* at this shape (for deduplicating candidates).

    Distinct bounds frequently resolve to the same behaviour (e.g. any
    ``group_elements >= n*nb`` is "ungrouped"); racing behavioural
    duplicates of the default would only add noise.
    """
    gmax = _GROUP_MAX_ELEMENTS if cfg["group_elements"] is None else cfg["group_elements"]
    if gmax <= 0 or n * nb <= gmax or gmax // n == 0:
        g_eff = None
    else:
        g_eff = gmax // n
    tmax = _TILE_MAX_ELEMENTS if cfg["tile_elements"] is None else cfg["tile_elements"]
    return (cfg["variant"], g_eff, n * nb <= tmax)


def candidate_configs(n: int, nb: int) -> list[dict]:
    """The candidate list raced for shape ``(n, nb)``, default first.

    Spans the three pass-schedule variants, a spread of cache-blocking
    bounds (including "ungrouped"), and both twiddle-tiling toggles;
    behavioural duplicates of one another are dropped.
    """
    raw = [dict(DEFAULT_CONFIG)]
    for variant in ("radix4", "split_radix"):
        raw.append({"variant": variant, "group_elements": None, "tile_elements": None})
    if nb > 1:
        for ge in (0, 1 << 14, 1 << 17):
            raw.append({"variant": "radix2", "group_elements": ge, "tile_elements": None})
        raw.append({"variant": "radix4", "group_elements": 0, "tile_elements": None})
    raw.append({"variant": "radix2", "group_elements": None, "tile_elements": 0})
    if n * nb <= _TILE_FORCE_MAX:
        raw.append(
            {"variant": "radix2", "group_elements": None, "tile_elements": _TILE_FORCE_MAX}
        )
        if nb > 1:
            raw.append(
                {"variant": "radix2", "group_elements": 0, "tile_elements": _TILE_FORCE_MAX}
            )
    seen: set[tuple] = set()
    out: list[dict] = []
    for cfg in raw:
        sig = _effective_signature(n, nb, cfg)
        if sig in seen:
            continue
        seen.add(sig)
        out.append(cfg)
    return out


def _probe_input(n: int, nb: int, dtype=np.complex128) -> np.ndarray:
    """The deterministic ``(nb, n)`` input every race of a shape runs on."""
    rng = np.random.default_rng(0xB0 + 31 * n + nb)
    return (
        rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))
    ).astype(dtype)


def _runner(x: np.ndarray, cfg: dict):
    """A zero-arg callable transforming the rows of *x* under *cfg*.

    The rows go in as the kernel's columns (a batch is copied into
    scratch on entry) and the output stays in the ``(n, nb)`` layout.
    """
    return lambda: stockham_fft_tt(x.T, -1, **cfg)


def race(
    variants: dict[str, Callable[[], object]], reps: int, burst: int = 3
) -> dict[str, float]:
    """Best-of-*reps* wall-clock microseconds per variant, interleaved.

    One untimed warm-up each (tables, scratch pools), then *reps*
    round-robin turns over the variants.  Round-robin interleaving means
    every variant samples the same load epochs, and taking the minimum
    discards scheduler noise.  Each turn runs a short *burst* of
    individually-timed calls so a variant is measured in its own steady
    cache state rather than right after a competitor evicted it.
    """
    for fn in variants.values():
        fn()
    best = {k: float("inf") for k in variants}
    for _ in range(reps):
        for name, fn in variants.items():
            for _ in range(burst):
                t0 = time.perf_counter_ns()
                fn()
                dt = time.perf_counter_ns() - t0
                if dt < best[name]:
                    best[name] = dt
    return {k: v / 1e3 for k, v in best.items()}


def race_shape(
    n: int,
    dtype=np.complex128,
    nb: int = 1,
    reps: int = 5,
    burst: int = 3,
) -> dict:
    """Race all candidates for one shape; returns the full measurement.

    Timing is :func:`race`: burst-interleaved min-of-reps, so clock
    drift and cache state changes hit all candidates symmetrically;
    the minimum is the best-case per candidate.  Candidates are
    bitwise-verified against the default on the probe input before
    timing — a mismatching candidate (impossible by construction,
    checked anyway) is dropped.

    Returns ``{"n", "dtype", "nb", "bucket", "config", "us",
    "baseline_us", "speedup", "candidates": {label: us}}`` where
    ``config`` is the winner after :data:`HYSTERESIS`.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"autotuning is for power-of-two sizes, got n={n}")
    ct = np.dtype(dtype)
    x = _probe_input(n, nb, ct)
    configs = candidate_configs(n, nb)
    reference = _runner(x, configs[0])()
    kept: list[tuple[str, dict]] = []
    runners = {}
    for cfg in configs:
        label = _config_label(cfg)
        fn = _runner(x, cfg)
        if cfg is not configs[0] and not np.array_equal(fn(), reference):
            continue  # pragma: no cover - schedules are bitwise by construction
        kept.append((label, cfg))
        runners[label] = fn
    times_us = race(runners, max(1, reps), max(1, burst))
    base_label = kept[0][0]
    baseline_us = times_us[base_label]
    win_label, win_cfg = kept[0]
    for label, cfg in kept[1:]:
        if times_us[label] < times_us[win_label]:
            win_label, win_cfg = label, cfg
    if times_us[win_label] >= HYSTERESIS * baseline_us:
        win_label, win_cfg = kept[0]
    return {
        "n": n,
        "dtype": _dtype_name(ct),
        "nb": nb,
        "bucket": batch_bucket(nb),
        "config": dict(win_cfg),
        "us": times_us[win_label],
        "baseline_us": baseline_us,
        "speedup": baseline_us / times_us[win_label] if times_us[win_label] else 1.0,
        "candidates": times_us,
    }


def _config_label(cfg: dict) -> str:
    ge = cfg["group_elements"]
    te = cfg["tile_elements"]
    return f"{cfg['variant']}/g={'d' if ge is None else ge}/t={'d' if te is None else te}"


def tune_shape(n: int, dtype=np.complex128, nb: int = 1, reps: int = 5) -> dict:
    """Race one shape and record the winner as in-memory wisdom.

    Returns the race result (see :func:`race_shape`).  The recorded
    entry covers the whole batch *bucket* of ``nb``.
    """
    global _races_run
    result = race_shape(n, dtype=dtype, nb=nb, reps=reps)
    record_wisdom(
        n,
        result["dtype"],
        result["bucket"],
        result["config"],
        us=result["us"],
        baseline_us=result["baseline_us"],
    )
    with _lock:
        _races_run += 1
    return result


def autotune(shapes, dtype=np.complex128, reps: int = 5) -> list[dict]:
    """Race a list of ``(n, nb)`` shapes (or bare ``n``) into wisdom."""
    results = []
    for shape in shapes:
        if isinstance(shape, (tuple, list)):
            n, nb = shape
        else:
            n, nb = shape, 1
        results.append(tune_shape(int(n), dtype=dtype, nb=int(nb), reps=reps))
    return results


# ----------------------------------------------------------------------
# Wisdom store
# ----------------------------------------------------------------------


def _valid_config(cfg) -> bool:
    if not isinstance(cfg, dict) or cfg.get("variant") not in KERNEL_VARIANTS:
        return False
    for bound in (cfg.get("group_elements"), cfg.get("tile_elements")):
        if bound is not None and (not isinstance(bound, int) or bound < 0):
            return False
    return True


def record_wisdom(
    n: int,
    dtype,
    bucket: int,
    config: dict,
    us: float | None = None,
    baseline_us: float | None = None,
) -> None:
    """Install one wisdom entry (bumps the generation so plans re-read)."""
    if not _valid_config(config):
        raise ValueError(f"invalid kernel config {config!r}")
    entry = {
        "variant": config["variant"],
        "group_elements": config["group_elements"],
        "tile_elements": config["tile_elements"],
    }
    if us is not None:
        entry["us"] = float(us)
    if baseline_us is not None:
        entry["baseline_us"] = float(baseline_us)
    global _generation
    with _lock:
        _wisdom[(int(n), _dtype_name(dtype), int(bucket))] = entry
        _generation += 1


def tuned_config_for(n: int, dtype, nb: int) -> dict | None:
    """The wisdom-selected kernel config for this shape, or ``None``.

    ``None`` means "no wisdom: use the default config" — the lookup
    never triggers a race on its own (racing is explicit: the tuner
    API or a server warm-up), so hot paths stay measurement-free.
    """
    global _wisdom_hits, _wisdom_misses
    key = (int(n), _dtype_name(dtype), batch_bucket(nb))
    with _lock:
        entry = _wisdom.get(key)
        if entry is None:
            _wisdom_misses += 1
            return None
        _wisdom_hits += 1
        return {
            "variant": entry["variant"],
            "group_elements": entry["group_elements"],
            "tile_elements": entry["tile_elements"],
        }


def wisdom_generation() -> int:
    """Monotone counter bumped on every wisdom mutation (plan memo key)."""
    with _lock:
        return _generation


def clear_wisdom() -> None:
    """Drop all wisdom and reset the hit/race counters (tests, benches)."""
    global _wisdom_hits, _wisdom_misses, _races_run, _generation
    with _lock:
        _wisdom.clear()
        _wisdom_hits = 0
        _wisdom_misses = 0
        _races_run = 0
        _generation += 1


def wisdom_info() -> dict:
    """Counters: entries, hits, misses, races_run, generation."""
    with _lock:
        return {
            "entries": len(_wisdom),
            "wisdom_hits": _wisdom_hits,
            "wisdom_misses": _wisdom_misses,
            "races_run": _races_run,
            "generation": _generation,
        }


def wisdom_entries() -> dict:
    """A snapshot of the in-memory wisdom, keyed ``(n, dtype, bucket)``."""
    with _lock:
        return {k: dict(v) for k, v in _wisdom.items()}


def _entry_key(n: int, dtype_name: str, bucket: int) -> str:
    return f"{n}|{dtype_name}|{bucket}"


def save_wisdom(path: str) -> int:
    """Persist this host's wisdom as versioned JSON; returns entry count.

    The file is hostname-keyed: tuned configs are machine truths, not
    portable ones, so each host writes (and later loads) only its own
    section — a shared filesystem can hold one wisdom file for a whole
    cluster.  Other hosts' sections already in the file are preserved.
    The write is atomic: a crash mid-write leaves the previous file
    loadable.
    """
    host = socket.gethostname()
    doc = {"schema": WISDOM_SCHEMA, "hosts": {}}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("schema") == WISDOM_SCHEMA and isinstance(old.get("hosts"), dict):
            doc["hosts"] = old["hosts"]
    except (OSError, ValueError):
        pass
    with _lock:
        entries = {
            _entry_key(n, dt, bucket): dict(entry)
            for (n, dt, bucket), entry in _wisdom.items()
        }
    doc["hosts"][host] = {"entries": entries}
    write_json_atomic(path, doc)
    return len(entries)


def load_wisdom(path: str) -> dict:
    """Load this host's wisdom section from *path* — never raises.

    Returns a status dict ``{"status", "loaded", "host"}``.  Statuses:
    ``"ok"`` (entries merged), ``"no-host-section"`` (valid file, no
    section for this host — e.g. tuned on a different machine),
    ``"missing"`` (no such file), ``"corrupt"`` (unparseable JSON or
    malformed layout) and ``"stale-schema"`` (a different format
    version).  Every non-``"ok"`` outcome leaves existing wisdom
    untouched, so callers fall back to racing without special-casing.
    """
    host = socket.gethostname()
    status = {"status": "ok", "loaded": 0, "host": host}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        status["status"] = "missing"
        return status
    except (OSError, ValueError):
        status["status"] = "corrupt"
        return status
    if not isinstance(doc, dict):
        status["status"] = "corrupt"
        return status
    if doc.get("schema") != WISDOM_SCHEMA:
        status["status"] = "stale-schema"
        return status
    hosts = doc.get("hosts")
    if not isinstance(hosts, dict):
        status["status"] = "corrupt"
        return status
    section = hosts.get(host)
    if not isinstance(section, dict) or not isinstance(section.get("entries"), dict):
        status["status"] = "no-host-section"
        return status
    loaded = 0
    global _generation
    for key, entry in section["entries"].items():
        try:
            n_s, dtype_name, bucket_s = key.split("|")
            n, bucket = int(n_s), int(bucket_s)
        except ValueError:
            continue
        if not _valid_config(entry):
            continue
        with _lock:
            _wisdom[(n, dtype_name, bucket)] = {
                "variant": entry["variant"],
                "group_elements": entry["group_elements"],
                "tile_elements": entry["tile_elements"],
                "us": entry.get("us"),
                "baseline_us": entry.get("baseline_us"),
            }
        loaded += 1
    with _lock:
        _generation += 1
    status["loaded"] = loaded
    return status
