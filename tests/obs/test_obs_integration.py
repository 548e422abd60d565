"""End-to-end: instrumented retrieval records spans and counters.

A group retrieval through :class:`RetrievalCache` must (1) increment the
cache's hit/miss counters in its registry, (2) count chunkstore byte
traffic, and (3) leave a ``cache.snapshot`` span with nested
``pas.matrix`` spans in the trace recorder.
"""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.cache import RetrievalCache
from repro.core.chunkstore import MemoryChunkStore
from repro.core.retrieval import PlanArchive
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceRecorder, set_recorder


@pytest.fixture
def recorder():
    fresh = TraceRecorder(capacity=1024)
    previous = set_recorder(fresh)
    yield fresh
    set_recorder(previous)


@pytest.fixture
def store_registry():
    return MetricsRegistry()


@pytest.fixture
def archive(seeded_rng, store_registry):
    matrices = {
        f"m{i}": (seeded_rng.standard_normal((16, 16)) * 0.1).astype(
            np.float32
        )
        for i in range(3)
    }
    graph = MatrixStorageGraph()
    for mid, matrix in matrices.items():
        graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
        graph.add_materialization(mid, matrix.nbytes, 1.0)
    built = PlanArchive.build(
        MemoryChunkStore(registry=store_registry),
        matrices,
        minimum_spanning_tree(graph),
    )
    return built


class TestCacheCounters:
    def test_group_retrieval_hits_and_misses(self, archive, recorder):
        registry = MetricsRegistry()
        cache = RetrievalCache(archive, registry=registry)
        cold = cache.recreate_snapshot("snap")
        warm = cache.recreate_snapshot("snap")
        assert registry.counter("cache.misses").value == 3
        assert registry.counter("cache.hits").value == 3
        assert set(cold.matrices) == set(warm.matrices)
        assert cold.seconds >= 0.0 and warm.seconds >= 0.0

    def test_cached_bytes_gauge_tracks_entries(self, archive):
        registry = MetricsRegistry()
        cache = RetrievalCache(archive, registry=registry)
        cache.recreate_snapshot("snap")
        assert registry.gauge("cache.bytes").value == cache.cached_bytes
        assert registry.gauge("cache.entries").value == len(cache)


class TestChunkstoreCounters:
    def test_retrieval_counts_store_reads(
        self, archive, store_registry, recorder
    ):
        before = store_registry.counter("chunkstore.get_bytes").value
        RetrievalCache(archive, registry=MetricsRegistry()).recreate_snapshot(
            "snap"
        )
        assert store_registry.counter("chunkstore.get_calls").value > 0
        assert store_registry.counter("chunkstore.get_bytes").value > before


class TestRetrievalSpans:
    def test_group_retrieval_records_nested_spans(self, archive, recorder):
        cache = RetrievalCache(archive)
        cache.recreate_snapshot("snap")
        [group] = recorder.spans("cache.snapshot")
        assert group.attrs["snapshot"] == "snap"
        assert group.elapsed is not None
        matrix_spans = recorder.spans("pas.matrix")
        assert len(matrix_spans) == 3  # one per member matrix (all misses)
        for span in matrix_spans:
            assert span.parent_id == group.span_id
            assert span.attrs["bytes_read"] > 0

    def test_warm_retrieval_records_no_matrix_spans(self, archive, recorder):
        cache = RetrievalCache(archive)
        cache.recreate_snapshot("snap")
        recorder.clear()
        cache.recreate_snapshot("snap")  # all hits: archive never touched
        assert recorder.spans("pas.matrix") == []
        assert len(recorder.spans("cache.snapshot")) == 1

    def test_uncached_archive_snapshot_span(self, archive, recorder):
        archive.recreate_snapshot("snap")
        [group] = recorder.spans("pas.snapshot")
        assert group.attrs["scheme"] == "independent"
        assert group.attrs["bytes_read"] > 0
        assert len(recorder.spans("pas.matrix")) == 3
