"""Retrieval cache tests: what the ``(matrix_id, planes)`` adapter adds.

Eviction, budgets, accounting and single-flight are the LRU's and are
tested once, in ``tests/serve/test_plane_cache.py``.
"""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.cache import RetrievalCache
from repro.core.chunkstore import MemoryChunkStore
from repro.core.retrieval import PlanArchive
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph


@pytest.fixture
def archive(seeded_rng):
    matrices = {
        f"m{i}": (seeded_rng.standard_normal((32, 32)) * 0.1).astype(
            np.float32
        )
        for i in range(4)
    }
    graph = MatrixStorageGraph()
    for mid, matrix in matrices.items():
        graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
        graph.add_materialization(mid, matrix.nbytes, 1.0)
    built = PlanArchive.build(
        MemoryChunkStore(), matrices, minimum_spanning_tree(graph)
    )
    return built, matrices


class TestCorrectness:
    def test_cached_values_match_archive(self, archive):
        built, matrices = archive
        cache = RetrievalCache(built)
        for mid, expected in matrices.items():
            np.testing.assert_array_equal(cache.recreate_matrix(mid), expected)
            # Second read: from cache, still equal.
            np.testing.assert_array_equal(cache.recreate_matrix(mid), expected)

    def test_planes_are_distinct_entries(self, archive):
        built, matrices = archive
        cache = RetrievalCache(built)
        full = cache.recreate_matrix("m0", planes=4)
        partial = cache.recreate_matrix("m0", planes=1)
        assert not np.array_equal(full, partial)
        assert len(cache) == 2

    def test_cached_arrays_are_read_only(self, archive):
        built, _ = archive
        cache = RetrievalCache(built)
        value = cache.recreate_matrix("m0")
        with pytest.raises(ValueError):
            value[0, 0] = 99.0

    def test_snapshot_retrieval(self, archive):
        built, matrices = archive
        cache = RetrievalCache(built)
        result = cache.recreate_snapshot("snap")
        assert set(result.matrices) == set(matrices)
        with pytest.raises(KeyError):
            cache.recreate_snapshot("ghost")


class TestInvalidation:
    def test_invalidate_one_matrix(self, archive):
        built, _ = archive
        cache = RetrievalCache(built)
        cache.recreate_matrix("m0", planes=4)
        cache.recreate_matrix("m0", planes=2)
        cache.recreate_matrix("m1")
        assert cache.invalidate("m0") == 2
        assert len(cache) == 1
        assert cache.cached_bytes == cache.recreate_matrix("m1").nbytes

    def test_budget_and_accounting_are_the_lrus(self, archive):
        built, matrices = archive
        one_matrix = next(iter(matrices.values())).nbytes
        cache = RetrievalCache(built, max_bytes=2 * one_matrix)
        for mid in ("m0", "m1", "m2", "m2"):
            cache.recreate_matrix(mid)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (1, 3, 1)
        assert cache.cached_bytes <= cache.max_bytes
        cache.reset()  # per-phase hit rates: counters zeroed, entries kept
        assert cache.recreate_matrix("m2") is not None
        assert cache.stats()["hit_rate"] == 1.0 and len(cache) == 2
        with pytest.raises(ValueError):
            RetrievalCache(built, max_bytes=0)
