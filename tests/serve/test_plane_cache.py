"""PlaneCache unit tests: LRU accounting, byte budget, single-flight."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import PlaneCache


def make_cache(max_bytes=1000):
    return PlaneCache(max_bytes, registry=MetricsRegistry())


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        calls = []

        def loader():
            calls.append(1)
            return "value", 10

        assert cache.get_or_load("k", loader) == "value"
        assert cache.get_or_load("k", loader) == "value"
        assert len(calls) == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_peek_does_not_count(self):
        cache = make_cache()
        assert cache.get("absent") is None
        cache.get_or_load("k", lambda: (1, 1))
        assert cache.get("k") == 1
        assert cache.hits == 0  # peeks are uncounted

    def test_invalidate_and_clear(self):
        cache = make_cache()
        cache.get_or_load("a", lambda: (1, 10))
        cache.get_or_load("b", lambda: (2, 10))
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert "a" not in cache
        assert cache.cached_bytes == 10
        cache.clear()
        assert len(cache) == 0
        assert cache.cached_bytes == 0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            PlaneCache(0, registry=MetricsRegistry())

    def test_stats_shape(self):
        cache = make_cache()
        cache.get_or_load("k", lambda: (1, 100))
        cache.get_or_load("k", lambda: (1, 100))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == stats["miss_rate"] == 0.5
        assert stats["cached_bytes"] == 100
        assert stats["entries"] == 1
        assert 0 < stats["fill_fraction"] <= 1


    def test_fresh_stats_are_zero_guarded_and_reset_keeps_entries(self):
        cache = make_cache()
        assert cache.stats()["hit_rate"] == cache.stats()["miss_rate"] == 0.0
        cache.get_or_load("k", lambda: (1, 100))
        cache.reset()
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert cache.keys() == ["k"]


class TestEviction:
    def test_lru_order(self):
        cache = make_cache(max_bytes=100)
        cache.get_or_load("a", lambda: ("A", 40))
        cache.get_or_load("b", lambda: ("B", 40))
        cache.get_or_load("a", lambda: ("A", 40))  # refresh a
        cache.get_or_load("c", lambda: ("C", 40))  # evicts b (LRU)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_budget_respected(self):
        cache = make_cache(max_bytes=100)
        for i in range(10):
            cache.get_or_load(i, lambda: ("x", 30))
        assert cache.cached_bytes <= 100
        assert len(cache) == 3

    def test_oversized_value_served_uncached(self):
        cache = make_cache(max_bytes=100)
        assert cache.get_or_load("big", lambda: ("huge", 1000)) == "huge"
        assert "big" not in cache
        assert cache.cached_bytes == 0
        # A later request reloads it.
        calls = []
        cache.get_or_load("big", lambda: (calls.append(1) or "huge", 1000))
        assert calls == [1]

    def test_metrics_track_contents(self):
        registry = MetricsRegistry()
        cache = PlaneCache(100, registry=registry)
        cache.get_or_load("a", lambda: (1, 60))
        assert registry.gauge("serve.cache.bytes").value == 60
        assert registry.gauge("serve.cache.entries").value == 1
        cache.get_or_load("b", lambda: (2, 60))  # evicts a
        assert registry.gauge("serve.cache.bytes").value == 60
        assert registry.counter("serve.cache.evictions").value == 1
        emitted = {n for kind in registry.as_dict().values() for n in kind}
        assert emitted == {
            f"serve.cache.{name}"
            for name in ("hits", "misses", "evictions", "bytes", "entries")
        }


class TestSingleFlight:
    def test_concurrent_misses_elect_one_loader(self):
        cache = make_cache()
        calls = []
        release = threading.Event()
        results = []

        def loader():
            calls.append(threading.get_ident())
            release.wait(5.0)
            return "loaded", 10

        def worker():
            results.append(cache.get_or_load("k", loader))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert results == ["loaded"] * 8
        assert len(calls) == 1
        assert cache.misses == 1
        assert cache.hits == 7

    def test_failed_loader_releases_waiters(self):
        cache = make_cache()
        attempts = []

        def failing():
            attempts.append(1)
            raise OSError("storage died")

        with pytest.raises(OSError):
            cache.get_or_load("k", failing)
        # The key is not poisoned: the next caller retries.
        assert cache.get_or_load("k", lambda: ("ok", 5)) == "ok"
        assert attempts == [1]

    def test_distinct_keys_load_concurrently(self):
        cache = make_cache()
        barrier = threading.Barrier(4, timeout=5.0)
        results = {}

        def worker(key):
            def loader():
                barrier.wait()  # deadlocks unless all 4 load in parallel
                return key * 2, 5

            results[key] = cache.get_or_load(key, loader)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert results == {i: i * 2 for i in range(4)}
