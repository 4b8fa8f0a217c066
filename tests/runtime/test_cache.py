"""Tests for the content-addressed result cache."""

import json

import pytest

from repro.runtime.cache import ResultCache, code_fingerprint, default_cache_dir


@pytest.fixture
def cache(tmp_path):
    """Isolated per-test cache (keeps pytest parallel-safe)."""
    return ResultCache(tmp_path / "cache", fingerprint="test-fp")


class TestKeys:
    def test_key_is_stable(self, cache):
        a = cache.key("fig15", "rtt=500", 0.2, 2016, {"rtt_us": 500.0})
        b = cache.key("fig15", "rtt=500", 0.2, 2016, {"rtt_us": 500.0})
        assert a == b

    def test_key_varies_with_identity(self, cache):
        base = cache.key("fig15", "rtt=500", 0.2, 2016)
        assert cache.key("fig17", "rtt=500", 0.2, 2016) != base
        assert cache.key("fig15", "rtt=550", 0.2, 2016) != base
        assert cache.key("fig15", "rtt=500", 0.3, 2016) != base
        assert cache.key("fig15", "rtt=500", 0.2, 7) != base
        assert cache.key("fig15", "rtt=500", 0.2, 2016, {"x": 1}) != base
        assert cache.key("fig15", "rtt=500", 0.2, 2016, options={"x": "1"}) != base

    def test_options_and_params_are_separate_fields(self, cache):
        assert cache.key("e", "k", 1.0, 1, {"x": "1"}) != cache.key(
            "e", "k", 1.0, 1, options={"x": "1"}
        )

    def test_key_varies_with_fingerprint(self, tmp_path):
        a = ResultCache(tmp_path, fingerprint="v1").key("fig15", "k", 0.2, 2016)
        b = ResultCache(tmp_path, fingerprint="v2").key("fig15", "k", 0.2, 2016)
        assert a != b

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestStore:
    def test_round_trip(self, cache):
        key = cache.key("fig15", "rtt=500", 0.2, 2016)
        assert cache.get(key) is None
        cache.put(key, {"data": {"miss_rate": 0.25}, "events": 100})
        assert cache.get(key) == {"data": {"miss_rate": 0.25}, "events": 100}
        assert cache.hits == 1 and cache.misses == 1

    def test_numpy_payloads_serialize(self, cache):
        import numpy as np

        key = cache.key("x", "y", 1.0, 1)
        cache.put(key, {"data": {"arr": np.arange(3), "f": np.float64(1.5)}})
        assert cache.get(key) == {"data": {"arr": [0, 1, 2], "f": 1.5}}

    def test_corrupt_entry_is_a_miss(self, cache):
        key = cache.key("fig15", "rtt=500", 0.2, 2016)
        cache.put(key, {"events": 1})
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_entries_sharded_under_root(self, cache):
        key = cache.key("a", "b", 1.0, 0)
        cache.put(key, {"events": 0})
        path = cache._path(key)
        assert path.parent.name == key[:2]
        assert json.loads(path.read_text()) == {"events": 0}
        assert cache.entry_count() == 1


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("RTOPEX_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv("RTOPEX_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "rtopex-repro"
