"""End-to-end: instrumented retrieval records spans and counters.

A group retrieval through :meth:`PlanArchive.recreate_snapshot` must (1)
count chunkstore byte traffic and (2) leave a ``pas.snapshot`` span with
one nested ``pas.matrix`` span per member in the trace recorder.  Reads
through the one plane cache — a :class:`PlaneCache` behind an archive
and its evaluator — must (3) move that cache's hit/miss counters and
gauges, one per plane, and (4) leave the archive untouched once the
exact weights are installed.  A snapshot read bills the caller
the stored plane bytes it reports (5).
"""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.segmentation import NUM_PLANES
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph
from repro.dnn.zoo import tiny_mlp
from repro.obs.cost import cost_context
from repro.obs.metrics import MetricsRegistry, counter
from repro.obs.tracing import TraceRecorder, set_recorder
from repro.serve import PlaneCache


@pytest.fixture
def recorder():
    fresh = TraceRecorder(capacity=1024)
    previous = set_recorder(fresh)
    yield fresh
    set_recorder(previous)


@pytest.fixture
def net():
    return tiny_mlp(hidden=8).build(seed=0)


@pytest.fixture
def archive(net):
    graph = MatrixStorageGraph()
    matrices = {}
    for layer, params in net.get_weights().items():
        for param, matrix in params.items():
            mid = f"{layer}.{param}"
            graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
            graph.add_materialization(mid, matrix.nbytes, 1.0)
            matrices[mid] = matrix
    return PlanArchive.build(
        MemoryBackend("obs", create=True).chunks,
        matrices,
        minimum_spanning_tree(graph),
    )


def evaluator_over(net, archive, registry=None):
    cache = PlaneCache(registry=registry or MetricsRegistry())
    return ProgressiveEvaluator(net, archive, "snap", plane_cache=cache)


def distinct_planes(archive) -> int:
    return len({
        archive.plane_address(entry, i)
        for entry in archive.manifest.values()
        for i in range(NUM_PLANES)
    })


class TestCacheCounters:
    def test_group_retrieval_hits_and_misses(self, net, archive, recorder):
        registry = MetricsRegistry()
        evaluator = evaluator_over(net, archive, registry)
        cold = evaluator.exact_weights()
        warm = evaluator.exact_weights()
        lookups = NUM_PLANES * len(archive.manifest)
        misses = distinct_planes(archive)  # equal planes share an entry
        assert registry.counter("serve.cache.misses").value == misses
        assert registry.counter("serve.cache.hits").value == (
            2 * lookups - misses
        )
        for layer, params in cold.items():
            for param, value in params.items():
                assert warm[layer][param].tobytes() == value.tobytes()

    def test_cached_bytes_gauge_tracks_entries(self, net, archive):
        registry = MetricsRegistry()
        evaluator = evaluator_over(net, archive, registry)
        evaluator.exact_weights()
        evaluator.param_bounds(2)
        cache = evaluator.plane_cache
        assert registry.gauge("serve.cache.bytes").value == cache.cached_bytes
        assert registry.gauge("serve.cache.entries").value == len(cache)
        assert len(cache) == distinct_planes(archive) + 1


class TestChunkstoreCounters:
    def test_retrieval_counts_store_reads(self, archive, recorder):
        calls, nbytes = (
            counter(f"chunkstore.get_{name}") for name in ("calls", "bytes")
        )
        before = calls.value, nbytes.value
        with cost_context() as bill:
            archive.recreate_snapshot("snap")
        assert bill.chunks_fetched > 0 and bill.bytes_read > 0
        assert (calls.value - before[0], nbytes.value - before[1]) == (
            bill.chunks_fetched, bill.bytes_read,
        )


class TestRetrievalSpans:
    def test_group_retrieval_records_nested_spans(self, archive, recorder):
        members = len(archive.manifest)
        result = archive.recreate_snapshot("snap")
        [group] = recorder.spans("pas.snapshot")
        assert group.attrs["snapshot"] == "snap"
        assert "scheme" not in group.attrs  # execution does not fork on it
        assert group.elapsed is not None
        matrix_spans = recorder.spans("pas.matrix")
        assert len(matrix_spans) == members  # one per member matrix
        for span in matrix_spans:
            assert span.parent_id == group.span_id
            assert span.attrs["bytes_read"] > 0
        total = sum(span.attrs["bytes_read"] for span in matrix_spans)
        assert group.attrs["bytes_read"] == result.bytes_read == total

    def test_snapshot_read_bills_what_it_reports(self, archive):
        with cost_context() as bill:
            result = archive.recreate_snapshot("snap")
        planes = bill.to_dict()["bytes_by_plane"]
        assert sum(planes.values()) == result.bytes_read > 0

    def test_warm_retrieval_records_no_matrix_spans(
        self, net, archive, recorder
    ):
        evaluator = evaluator_over(net, archive)
        x = np.zeros((2,) + net.input_shape, dtype=np.float32)
        evaluator.forward_exact_many([x])
        assert len(recorder.spans("pas.matrix")) == len(archive.manifest)
        recorder.clear()
        # The net holds the exact weights: the archive is never touched.
        evaluator.forward_exact_many([x])
        assert recorder.spans("pas.matrix") == []
        assert recorder.spans("pas.snapshot") == []

    def test_uncached_archive_snapshot_span(self, archive, recorder):
        archive.recreate_snapshot("snap")
        [group] = recorder.spans("pas.snapshot")
        assert group.attrs["bytes_read"] > 0
        assert len(recorder.spans("pas.matrix")) == len(archive.manifest)
