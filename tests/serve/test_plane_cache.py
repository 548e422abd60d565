"""PlaneCache tests: LRU accounting, byte budget, single-flight, the
admission rule for derived entries, and recovery that never poisons the
cache."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.segmentation import NUM_PLANES
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import RecoveryReport
from repro.dlv.repository import Repository
from repro.dnn.network import Network
from repro.dnn.zoo import tiny_mlp
from repro.obs.metrics import MetricsRegistry
from repro.serve import ModelRuntime, PlaneCache


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


class TestAdmission:
    """Planes evict anything (LRU); derived entries evict only derived."""

    def test_derived_entry_never_evicts_a_plane(self):
        cache = make_cache(max_bytes=100)
        cache.get_or_load(("plane", "a"), lambda: ("A", 40))
        cache.get_or_load(("bounds", "x", 1), lambda: ("X", 30), derived=True)
        cache.get_or_load(("plane", "b"), lambda: ("B", 20))
        # 10 bytes free + 30 derived: room for 40 only by evicting X.
        cache.get_or_load(("bounds", "y", 1), lambda: ("Y", 40), derived=True)
        assert cache.keys() == [("plane", "a"), ("plane", "b"),
                                ("bounds", "y", 1)]
        assert (cache.evictions, cache.cached_bytes) == (1, 100)

    def test_derived_entry_that_cannot_fit_is_an_uncached_miss(self):
        cache = make_cache(max_bytes=100)
        cache.get_or_load(("plane", "a"), lambda: ("A", 60))
        cache.get_or_load(("bounds", "x", 1), lambda: ("X", 20), derived=True)
        calls = []

        def load():
            calls.append(1)
            return "Y", 50

        for _ in range(2):
            value = cache.get_or_load(("bounds", "y", 1), load, derived=True)
            assert value == "Y"
        assert len(calls) == 2  # served, never kept: each call re-derives
        assert (cache.misses, cache.hits, cache.evictions) == (4, 0, 0)
        assert cache.keys() == [("plane", "a"), ("bounds", "x", 1)]

    def test_plane_evicts_derived_entries_first(self):
        """Derived entries are recomputed from planes: a plane that needs
        room takes theirs before any older plane's."""
        cache = make_cache(max_bytes=100)
        cache.get_or_load(("plane", "a"), lambda: ("A", 40))
        cache.get_or_load(("bounds", "x", 1), lambda: ("X", 50), derived=True)
        cache.get_or_load(("plane", "b"), lambda: ("B", 40))  # evicts X
        assert cache.keys() == [("plane", "a"), ("plane", "b")]
        # With no derived entry left, the least recently used plane goes.
        cache.get_or_load(("plane", "c"), lambda: ("C", 40))
        assert cache.keys() == [("plane", "b"), ("plane", "c")]
        assert cache.evictions == 2

    @pytest.mark.parametrize("derived", [False, True])
    def test_budget_holds_for_both_kinds(self, derived):
        cache = make_cache(max_bytes=100)
        for i in range(10):
            cache.get_or_load((i,), lambda: ("x", 30), derived=derived)
            assert cache.cached_bytes <= 100
        assert len(cache) == 3
        assert cache.evictions == 7

    @pytest.mark.parametrize("derived", [False, True])
    def test_single_flight_for_both_kinds(self, derived):
        # 200 bytes never fit: waiters still share the one load.
        cache = make_cache(max_bytes=100)
        calls = []
        release = threading.Event()
        results = []

        def loader():
            calls.append(1)
            release.wait(5.0)
            return "loaded", 200

        def worker():
            results.append(cache.get_or_load("k", loader, derived=derived))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert results == ["loaded"] * 6
        assert len(calls) == 1
        assert (cache.misses, cache.hits, len(cache)) == (1, 5, 0)

    def test_stress_mixed_kinds_keep_the_budget(self):
        """Many threads, both kinds, a budget a fifth of the key space,
        planes sharing base parts: every caller gets its key's value,
        each held part is charged once, and the byte accounting holds."""
        cache = make_cache(max_bytes=200)
        errors = []

        def bases(i):  # every plane shares its two parts with others
            return {("base", j): (f"B{j}", 5 + j) for j in (i % 5, i * 3 % 5)}

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    i = int(rng.integers(40))
                    derived = i % 4 == 0
                    key = ("bounds" if derived else "plane", i)

                    def load(i=i, derived=derived):
                        loaded = (i, 10 + i % 3 * 10)
                        return loaded if derived else (*loaded, bases(i))

                    value = cache.get_or_load(key, load, derived=derived)
                    assert value == i
                    assert cache.cached_bytes <= 200
            except AssertionError as exc:  # pragma: no cover - reported
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        planes = [i for kind, i in cache.keys() if kind == "plane"]
        shared = {k: v for i in planes for k, v in bases(i).items()}
        assert cache.held([("base", j) for j in range(5)]) == {
            k: value for k, (value, _size) in shared.items()
        }
        assert cache.stats()["shared_bytes"] == sum(
            size for _value, size in shared.values()
        )
        cached = sum(10 + i % 3 * 10 for _, i in cache.keys())
        cached += cache.stats()["shared_bytes"]
        assert cache.cached_bytes == cached <= 200
        assert cache.hits + cache.misses == 8 * 300
        for key in cache.keys():  # the last holder frees every part
            assert cache.invalidate(key)
        assert (cache.cached_bytes, cache.held(shared)) == (0, {})

    def test_unkept_value_is_not_shared_with_waiters(self):
        """``nbytes=None`` (a recovery read): every caller loads itself."""
        cache = make_cache()
        calls = []
        release = threading.Event()

        def loader():
            calls.append(1)
            release.wait(5.0)
            return len(calls), None

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_load("k", loader))
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.2)  # the second caller waits on the first one's load
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert sorted(results) == [1, 2]
        assert "k" not in cache
        assert (cache.misses, cache.hits) == (2, 0)


# -- recovery never poisons the cache ----------------------------------------


@pytest.fixture
def dedup_family(make_repo_target):
    """Three sibling MLPs archived ``--dedup``: one served through a
    ModelRuntime, with page-encoded payloads whose pages we can lose."""
    repo = Repository.init(make_repo_target("memory"))
    base = tiny_mlp(hidden=32).build(seed=0)
    nets = []
    for i in range(3):
        net = base.clone()
        weights = net.get_weights()
        rng = np.random.default_rng(i)
        for params in weights.values():
            for arr in params.values():
                flat = arr.reshape(-1)
                idx = rng.choice(flat.size, max(1, flat.size // 20), False)
                flat[idx] += rng.normal(0, 0.01, idx.size).astype(flat.dtype)
        net.set_weights(weights)
        repo.commit(net, name=f"fam-{i}", message="variant")
        nets.append(net)
    repo.archive(alpha=4.0, dedup=True)
    cache = PlaneCache(64 << 20, registry=MetricsRegistry())
    archive = repo.archive_view(plane_cache=cache)
    for version, net in zip(repo.list_versions(), nets):
        key = version.snapshots[-1].key
        paged = [
            archive.manifest[m] for m in archive._snapshots[key]
            if archive.manifest[m].kind == "pages"
        ]
        if paged:
            break
    else:  # pragma: no cover - the family always page-encodes a sibling
        pytest.fail("no page-encoded snapshot")
    runtime = ModelRuntime(
        "fam", Network.from_spec(version.network).build(0), archive, key,
        plane_cache=cache,
    )
    yield repo, archive, runtime, net, paged
    repo.close()


class TestRecoveryNeverPoisons:
    def test_plane_lost_for_good_keeps_the_report_bounded(self, dedup_family):
        """A plane lost for good adds a recovery event every pass,
        forever: the report keeps a bounded window of them, and every
        pass is still flagged degraded."""
        repo, archive, runtime, net, paged = dedup_family
        x = np.random.default_rng(0).standard_normal(
            (1,) + net.input_shape
        ).astype(np.float32)
        plane = archive.replicate_planes  # the first unmirrored plane
        assert repo.pages.delete(paged[0].pages[plane]["pages"][0][0])
        passes = 2 * RecoveryReport.window + 1  # the window overflows
        flagged = sum(runtime.bounded(x, plane + 1)[2] for _ in range(passes))
        assert flagged == passes
        recovery = archive.recovery
        assert recovery.seq >= passes and recovery.degraded
        assert len(recovery.events) == recovery.window < passes

    @pytest.mark.parametrize("plane", [1, NUM_PLANES - 1])
    def test_restored_page_reads_exact_again(self, dedup_family, plane):
        """Lose a page (and, for a mirrored plane, its replica copy under
        the same address), read the plane degraded, restore it: the next
        read is exact."""
        repo, archive, runtime, net, paged = dedup_family
        cache = runtime.evaluator.plane_cache
        x = np.random.default_rng(0).standard_normal(
            (4,) + net.input_shape
        ).astype(np.float32)
        budget = plane + 1  # the first pass that reads the plane
        manifest = paged[0].pages[plane]
        lost, address = manifest["pages"][0][0], manifest["sha"]
        page = repo.pages.get(lost)
        assert repo.pages.delete(lost)
        mirrored = plane < archive.replicate_planes
        if mirrored:
            assert repo.replica.delete(lost)

        _, _, degraded = runtime.bounded(x, budget)
        assert degraded  # the page was zero-filled
        assert ("plane", address) not in cache

        assert repo.pages.put(page) == lost
        if mirrored:
            assert repo.replica.put(page) == lost
        _, labels, degraded = runtime.bounded(x, budget)
        assert not degraded
        assert ("plane", address) in cache
        if budget == NUM_PLANES:
            np.testing.assert_array_equal(labels, net.predict(x))
            for layer, params in net.get_weights().items():
                for param, value in params.items():
                    installed = runtime.net.get_weights()[layer][param]
                    assert installed.tobytes() == value.tobytes()
        else:  # the bounds served now are those of an intact read
            intact = ProgressiveEvaluator(
                runtime.net, repo.archive_view(), runtime.snapshot_id
            ).param_bounds(budget)
            served = runtime.evaluator.param_bounds(budget)
            for layer, params in intact.items():
                for param, interval in params.items():
                    np.testing.assert_array_equal(
                        served[layer][param].lo, interval.lo
                    )
                    np.testing.assert_array_equal(
                        served[layer][param].hi, interval.hi
                    )

    def test_plane_without_address_reads_uncached(self, dedup_family):
        _, archive, runtime, _, paged = dedup_family
        cache = runtime.evaluator.plane_cache
        entry = paged[0]
        sha = entry.pages[0].pop("sha")
        value = archive.recreate_matrix(entry.matrix_id)
        keys = cache.keys()
        assert ("plane", sha) not in keys
        assert len(keys) == NUM_PLANES - 1
        misses = cache.misses
        np.testing.assert_array_equal(
            archive.recreate_matrix(entry.matrix_id), value
        )
        assert (cache.misses, len(cache)) == (misses, NUM_PLANES - 1)
