"""Autotuner gates: the tuner never regresses, dispatch stays bitwise,
wisdom survives a save/load, and both low-byte paths halve the wire.

The races run two small shapes; the wire check counts the measured
all-to-all bytes of three 4-rank runs.  No timing is asserted beyond
the tuner's own hysteresis rule.
"""

import json

import numpy as np
import pytest

from repro.core.plan import SoiPlan
from repro.dft import clear_plan_cache, plan_for
from repro.dft import tune
from repro.dft.stockham import stockham_fft
from repro.parallel import rfft_distributed, soi_fft_distributed
from repro.simmpi import run_spmd

SHAPES = [(1024, 16), (256, 64)]


@pytest.fixture(scope="module")
def races():
    clear_plan_cache()
    tune.clear_wisdom()
    yield tune.autotune(SHAPES, reps=1)
    tune.clear_wisdom()
    clear_plan_cache()


@pytest.fixture(scope="module")
def wisdom_file(races, tmp_path_factory):
    path = tmp_path_factory.mktemp("wisdom") / "wisdom.json"
    before = tune.wisdom_entries()
    saved = tune.save_wisdom(str(path))
    tune.clear_wisdom()
    status = tune.load_wisdom(str(path))
    return {"path": path, "saved": saved, "status": status,
            "before": before, "after": tune.wisdom_entries()}


@pytest.fixture(scope="module")
def wire():
    """All-to-all bytes of the complex128, complex64 and rfft paths."""
    n, p, nranks = 1 << 13, 8, 4
    rng = np.random.default_rng(2012)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xr = rng.standard_normal(n)
    blk = n // nranks
    runs = {
        "c128": (soi_fft_distributed, z, SoiPlan(n=n, p=p)),
        "c64": (soi_fft_distributed, z.astype(np.complex64),
                SoiPlan(n=n, p=p, dtype=np.complex64)),
        "rfft": (rfft_distributed, xr, SoiPlan(n=n // 2, p=p)),
    }
    return {
        name: int(run_spmd(
            nranks,
            lambda comm: fn(comm, x[comm.rank * blk:(comm.rank + 1) * blk], plan),
        ).stats.phase("alltoall").total_bytes)
        for name, (fn, x, plan) in runs.items()
    }


def _keys(entries):
    return {k: {f: v[f] for f in ("variant", "group_elements", "tile_elements")}
            for k, v in entries.items()}


class TestPayloadSchema:
    def test_schema_tag(self, wisdom_file):
        doc = json.loads(wisdom_file["path"].read_text(encoding="utf-8"))
        assert doc["schema"] == tune.WISDOM_SCHEMA

    def test_json_serialisable(self, races):
        for race in races:
            assert json.loads(json.dumps(race)) == race

    def test_gates_all_pass(self, races, wire, wisdom_file):
        TestRatios().test_dispatch_is_bitwise(races)
        TestWire().test_both_paths_halve_the_alltoall(wire)
        TestWisdom().test_roundtrip_survives(races, wisdom_file)

    def test_top_level_sections(self, races):
        for race in races:
            assert set(race) >= {
                "n", "dtype", "nb", "bucket", "config", "us", "baseline_us",
                "speedup", "candidates",
            }


class TestRatios:
    def test_no_shape_regresses(self, races):
        """A winner other than the default beat it by the hysteresis."""
        for race in races:
            assert race["speedup"] >= 1.0
            if race["config"] != tune.DEFAULT_CONFIG:
                assert race["us"] < tune.HYSTERESIS * race["baseline_us"]

    def test_default_winners_report_identity_ratio(self, races):
        for race in races:
            if race["config"] == tune.DEFAULT_CONFIG:
                assert race["us"] == race["baseline_us"]
                assert race["speedup"] == 1.0

    def test_headline_is_max_ratio(self, races):
        """The reported time is the winner's own candidate time."""
        for race in races:
            assert race["us"] == race["candidates"][tune._config_label(race["config"])]
            assert race["us"] <= race["baseline_us"]

    def test_dispatch_is_bitwise(self, races):
        for n, nb in SHAPES:
            x = tune._probe_input(n, nb)
            assert tune.tuned_config_for(n, np.complex128, nb) is not None
            assert np.array_equal(plan_for(n).execute(x), stockham_fft(x, -1))


class TestWire:
    def test_both_paths_halve_the_alltoall(self, wire):
        assert wire["c64"] / wire["c128"] <= 0.55
        assert wire["rfft"] / wire["c128"] <= 0.55
        # The measured structure is exact halving, not just under cap.
        assert wire["c64"] * 2 == wire["c128"]
        assert wire["rfft"] * 2 == wire["c128"]


class TestWisdom:
    def test_roundtrip_survives(self, races, wisdom_file):
        assert wisdom_file["status"]["status"] == "ok"
        assert wisdom_file["saved"] == len(races)
        assert wisdom_file["status"]["loaded"] == wisdom_file["saved"]
        assert _keys(wisdom_file["after"]) == _keys(wisdom_file["before"])
