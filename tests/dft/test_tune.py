"""Tests for the autotuner: candidate racing, wisdom store, plan dispatch.

The tuner's two contracts are (1) *safety* — every candidate schedule
is bitwise-identical to the default radix-2 kernel, so racing can never
change a result — and (2) *robustness* — the persisted wisdom file
degrades gracefully: corrupt, stale-schema, missing, or foreign-host
files all fall back to "no wisdom" without raising, leaving the
in-memory store untouched.
"""

import json

import numpy as np
import pytest

from repro.dft import plan_for, tune
from repro.dft.cache import clear_plan_cache
from repro.dft.stockham import stockham_fft, stockham_fft_tt


@pytest.fixture(autouse=True)
def fresh_wisdom():
    """Isolate every test from ambient wisdom and warm plans."""
    tune.clear_wisdom()
    clear_plan_cache()
    yield
    tune.clear_wisdom()
    clear_plan_cache()


@pytest.fixture
def rng():
    return np.random.default_rng(0xD1CE)


class TestCandidates:
    def test_default_config_first(self):
        for n, nb in [(256, 1), (1024, 16), (4096, 4)]:
            configs = tune.candidate_configs(n, nb)
            assert configs[0] == tune.DEFAULT_CONFIG

    def test_no_behavioural_duplicates(self):
        from repro.dft.tune import _effective_signature

        for n, nb in [(256, 1), (1024, 16), (65536, 4)]:
            configs = tune.candidate_configs(n, nb)
            sigs = [_effective_signature(n, nb, c) for c in configs]
            assert len(sigs) == len(set(sigs))

    def test_batch_bucket_rounds_up_to_power_of_two(self):
        assert tune.batch_bucket(1) == 1
        assert tune.batch_bucket(2) == 2
        assert tune.batch_bucket(5) == 8
        assert tune.batch_bucket(16) == 16
        assert tune.batch_bucket(17) == 32

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(ValueError, match="power-of-two"):
            tune.race_shape(360)


class TestSchedulesBitwise:
    """Safety contract: every tunable moves data, never values."""

    @pytest.mark.parametrize("variant", ["radix4", "split_radix"])
    @pytest.mark.parametrize("shape", [(512,), (8, 256), (3, 1024)])
    def test_variants_match_radix2(self, variant, shape, rng):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for sign in (-1, +1):
            assert np.array_equal(
                stockham_fft(x, sign, variant=variant), stockham_fft(x, sign)
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_elements": 0},
            {"group_elements": 1024},
            {"tile_elements": 0},
            {"tile_elements": 1 << 19},
            {"variant": "radix4", "group_elements": 0, "tile_elements": 1 << 19},
        ],
    )
    def test_tunables_match_default(self, kwargs, rng):
        x = rng.standard_normal((16, 512)) + 1j * rng.standard_normal((16, 512))
        assert np.array_equal(stockham_fft(x, -1, **kwargs), stockham_fft(x, -1))
        assert np.array_equal(
            stockham_fft_tt(x.T, -1, **kwargs), stockham_fft_tt(x.T, -1)
        )


class TestRacing:
    def test_race_shape_reports_all_candidates(self):
        res = tune.race_shape(256, nb=4, reps=1, burst=1)
        assert res["n"] == 256 and res["nb"] == 4 and res["bucket"] == 4
        assert len(res["candidates"]) >= 3
        assert res["speedup"] >= 1.0  # winner is never slower than default
        assert tune._valid_config(res["config"])

    def test_tune_shape_records_wisdom(self):
        tune.tune_shape(256, nb=4, reps=1)
        entries = tune.wisdom_entries()
        assert (256, "complex128", 4) in entries
        info = tune.wisdom_info()
        assert info["entries"] == 1
        assert info["races_run"] == 1

    def test_hysteresis_keeps_default_on_narrow_wins(self, monkeypatch):
        # Force all candidates to identical times: nothing beats the
        # default by the hysteresis margin, so the default must win.
        monkeypatch.setattr(tune.time, "perf_counter_ns", lambda: 0)
        res = tune.race_shape(256, nb=4, reps=1, burst=1)
        assert res["config"] == tune.DEFAULT_CONFIG

    def test_autotune_accepts_bare_and_tuple_shapes(self):
        results = tune.autotune([256, (512, 2)], reps=1)
        assert [(r["n"], r["nb"]) for r in results] == [(256, 1), (512, 2)]
        assert tune.wisdom_info()["entries"] == 2


class TestWisdomStore:
    def test_record_and_lookup_by_bucket(self):
        cfg = {"variant": "radix4", "group_elements": 0, "tile_elements": None}
        tune.record_wisdom(512, np.complex128, 8, cfg)
        # Any nb in the bucket (5..8 -> 8) resolves to the entry.
        assert tune.tuned_config_for(512, np.complex128, 5) == cfg
        assert tune.tuned_config_for(512, np.complex128, 8) == cfg
        # Other buckets and dtypes miss.
        assert tune.tuned_config_for(512, np.complex128, 16) is None
        assert tune.tuned_config_for(512, np.complex64, 8) is None
        info = tune.wisdom_info()
        assert info["wisdom_hits"] == 2 and info["wisdom_misses"] == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="invalid kernel config"):
            tune.record_wisdom(512, np.complex128, 1, {"variant": "radix8"})
        with pytest.raises(ValueError, match="invalid kernel config"):
            tune.record_wisdom(
                512, np.complex128, 1,
                {"variant": "radix2", "group_elements": -3, "tile_elements": None},
            )

    def test_generation_bumps_on_every_mutation(self):
        g0 = tune.wisdom_generation()
        tune.record_wisdom(512, np.complex128, 1, dict(tune.DEFAULT_CONFIG))
        g1 = tune.wisdom_generation()
        assert g1 > g0
        tune.clear_wisdom()
        assert tune.wisdom_generation() > g1


class TestPlanDispatch:
    def test_tuned_plan_is_bitwise_default(self, rng):
        x = rng.standard_normal((8, 1024)) + 1j * rng.standard_normal((8, 1024))
        reference = stockham_fft(x, -1)
        for variant in ("radix4", "split_radix"):
            tune.record_wisdom(
                1024, np.complex128, 8,
                {"variant": variant, "group_elements": 0,
                 "tile_elements": 1 << 19},
            )
            assert np.array_equal(plan_for(1024).execute(x), reference)

    def test_dispatch_revalidates_on_generation_change(self, rng):
        x = rng.standard_normal((4, 512)) + 1j * rng.standard_normal((4, 512))
        plan = plan_for(512)
        assert plan._tuned_config(4) is None
        cfg = {"variant": "radix4", "group_elements": None, "tile_elements": None}
        tune.record_wisdom(512, np.complex128, 4, cfg)
        assert plan._tuned_config(4) == cfg
        assert np.array_equal(plan.execute(x), stockham_fft(x, -1))
        tune.clear_wisdom()
        assert plan._tuned_config(4) is None


class TestPersistence:
    """Satellite: the wisdom file degrades gracefully, never raises."""

    def _seed_entries(self):
        tune.record_wisdom(
            512, np.complex128, 4,
            {"variant": "radix4", "group_elements": 0, "tile_elements": None},
            us=10.0, baseline_us=12.0,
        )
        tune.record_wisdom(
            4096, np.complex128, 1,
            {"variant": "radix2", "group_elements": None,
             "tile_elements": 1 << 19},
        )

    def test_round_trip(self, tmp_path):
        self._seed_entries()
        before = tune.wisdom_entries()
        path = tmp_path / "wisdom.json"
        assert tune.save_wisdom(str(path)) == 2
        tune.clear_wisdom()
        status = tune.load_wisdom(str(path))
        assert status["status"] == "ok" and status["loaded"] == 2
        after = tune.wisdom_entries()
        assert set(after) == set(before)
        for key in before:
            for field in ("variant", "group_elements", "tile_elements"):
                assert after[key][field] == before[key][field]

    def test_missing_file(self, tmp_path):
        self._seed_entries()
        status = tune.load_wisdom(str(tmp_path / "nope.json"))
        assert status["status"] == "missing"
        assert tune.wisdom_info()["entries"] == 2  # untouched

    def test_corrupt_file(self, tmp_path):
        self._seed_entries()
        path = tmp_path / "wisdom.json"
        path.write_text("{not json", encoding="utf-8")
        assert tune.load_wisdom(str(path))["status"] == "corrupt"
        path.write_text('["wrong layout"]', encoding="utf-8")
        assert tune.load_wisdom(str(path))["status"] == "corrupt"
        path.write_text(
            json.dumps({"schema": tune.WISDOM_SCHEMA, "hosts": "oops"}),
            encoding="utf-8",
        )
        assert tune.load_wisdom(str(path))["status"] == "corrupt"
        assert tune.wisdom_info()["entries"] == 2  # untouched throughout

    def test_stale_schema(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(
            json.dumps({"schema": "repro.dft.wisdom/0", "hosts": {}}),
            encoding="utf-8",
        )
        assert tune.load_wisdom(str(path))["status"] == "stale-schema"

    def test_no_host_section(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(
            json.dumps(
                {"schema": tune.WISDOM_SCHEMA,
                 "hosts": {"some-other-box": {"entries": {}}}}
            ),
            encoding="utf-8",
        )
        assert tune.load_wisdom(str(path))["status"] == "no-host-section"

    def test_save_preserves_other_hosts(self, tmp_path):
        path = tmp_path / "wisdom.json"
        foreign = {
            "schema": tune.WISDOM_SCHEMA,
            "hosts": {"cluster-node-7": {"entries": {
                "256|complex128|1": {"variant": "radix4",
                                     "group_elements": None,
                                     "tile_elements": None},
            }}},
        }
        path.write_text(json.dumps(foreign), encoding="utf-8")
        self._seed_entries()
        tune.save_wisdom(str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert "cluster-node-7" in doc["hosts"]
        assert len(doc["hosts"]) == 2

    def test_malformed_entries_skipped(self, tmp_path):
        import socket

        path = tmp_path / "wisdom.json"
        path.write_text(
            json.dumps({
                "schema": tune.WISDOM_SCHEMA,
                "hosts": {socket.gethostname(): {"entries": {
                    "bad-key": {"variant": "radix2",
                                "group_elements": None,
                                "tile_elements": None},
                    "512|complex128|oops": {"variant": "radix2",
                                            "group_elements": None,
                                            "tile_elements": None},
                    "512|complex128|1": {"variant": "warp_drive"},
                    "1024|complex128|1": {"variant": "radix4",
                                          "group_elements": None,
                                          "tile_elements": None},
                }}},
            }),
            encoding="utf-8",
        )
        status = tune.load_wisdom(str(path))
        assert status["status"] == "ok" and status["loaded"] == 1
        assert tune.tuned_config_for(1024, np.complex128, 1) is not None
