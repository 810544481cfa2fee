"""Tests for crash-safe persistence (`repro.utils.atomic`).

Both persisted files — the autotuner's wisdom and the plan cache's
shape list — must survive a writer that dies mid-dump: the previous
file stays loadable and no temporary file is left behind.
"""

import json

import numpy as np
import pytest

from repro.dft import (
    clear_plan_cache,
    plan_for,
    save_plan_cache_shapes,
    tune,
    warm_plan_cache_from_file,
)


@pytest.fixture(autouse=True)
def fresh_state():
    tune.clear_wisdom()
    clear_plan_cache()
    yield
    tune.clear_wisdom()
    clear_plan_cache()


def _tear_json_dump(monkeypatch):
    """Make ``json.dump`` write half a document and then raise."""

    def dump(obj, fh, **kwargs):
        text = json.dumps(obj, **kwargs)
        fh.write(text[: len(text) // 2])
        raise OSError("simulated crash mid-dump")

    monkeypatch.setattr(json, "dump", dump)


def _record(n):
    tune.record_wisdom(
        n, np.complex128, 1,
        {"variant": "radix4", "group_elements": 0, "tile_elements": None},
    )


class TestCrashMidDump:
    def test_wisdom_survives_torn_write(self, tmp_path, monkeypatch):
        path = tmp_path / "wisdom.json"
        _record(512)
        assert tune.save_wisdom(str(path)) == 1
        _record(1024)
        _tear_json_dump(monkeypatch)
        with pytest.raises(OSError):
            tune.save_wisdom(str(path))
        tune.clear_wisdom()
        status = tune.load_wisdom(str(path))
        assert status["status"] == "ok" and status["loaded"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["wisdom.json"]

    def test_plan_cache_shapes_survive_torn_write(self, tmp_path, monkeypatch):
        path = tmp_path / "shapes.json"
        plan_for(64)
        assert save_plan_cache_shapes(str(path)) == 1
        plan_for(360)
        _tear_json_dump(monkeypatch)
        with pytest.raises(OSError):
            save_plan_cache_shapes(str(path))
        clear_plan_cache()
        out = warm_plan_cache_from_file(str(path))
        assert out == {"requested": 1, "built": 1, "already": 0}
        assert [p.name for p in tmp_path.iterdir()] == ["shapes.json"]
