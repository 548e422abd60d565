"""Tiered storage tests: offloading low-order byte planes to a remote tier.

Sec. IV-B: one major advantage of the segmented approach is that the
low-order bytes can be offloaded to remote storage — queries that only
touch high-order planes never pay the remote round trip.
"""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.chunkstore import LatencyStore, MemoryChunkStore
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph


def build_graph(matrices):
    graph = MatrixStorageGraph()
    for mid, matrix in matrices.items():
        graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
        graph.add_materialization(mid, matrix.nbytes, 1.0)
    return graph


@pytest.fixture
def tiered_archive(seeded_rng):
    matrices = {
        f"fc{i}.W": (seeded_rng.standard_normal((32, 16)) * 0.1).astype(
            np.float32
        )
        for i in range(3)
    }
    local = MemoryChunkStore()
    remote = LatencyStore(MemoryChunkStore())
    plan = minimum_spanning_tree(build_graph(matrices))
    archive = PlanArchive.build(
        local, matrices, plan, low_order_store=remote, offload_from=2
    )
    return archive, matrices, local, remote


class TestRouting:
    def test_planes_split_across_tiers(self, tiered_archive):
        archive, matrices, local, remote = tiered_archive
        # 3 matrices x 2 planes per tier (minus dedup) — both tiers hold data.
        assert local.total_size() > 0
        assert remote.inner.total_size() > 0

    def test_full_recreation_exact_across_tiers(self, tiered_archive):
        archive, matrices, _, _ = tiered_archive
        for mid, expected in matrices.items():
            np.testing.assert_array_equal(
                archive.recreate_matrix(mid), expected
            )

    def test_high_order_reads_skip_remote(self, tiered_archive):
        archive, matrices, _, remote = tiered_archive
        remote.get_count = 0
        archive.recreate_matrix("fc0.W", planes=2)
        assert remote.get_count == 0
        archive.recreate_matrix("fc0.W", planes=3)
        assert remote.get_count == 1

    def test_bounds_from_local_tier_only(self, tiered_archive):
        archive, matrices, _, remote = tiered_archive
        remote.get_count = 0
        lo, hi = archive.matrix_bounds("fc1.W", planes=2)
        assert remote.get_count == 0
        value = matrices["fc1.W"]
        assert np.all(lo <= value) and np.all(value <= hi)

    def test_total_size_spans_tiers(self, tiered_archive):
        archive, _, local, remote = tiered_archive
        assert archive.total_size() == (
            local.total_size() + remote.inner.total_size()
        )


class TestProgressiveWithRemote:
    def test_progressive_touches_remote_only_on_escalation(
        self, trained_tiny, digits
    ):
        net, _, _ = trained_tiny
        matrices = {
            f"{layer}.{key}": value
            for layer, params in net.get_weights().items()
            for key, value in params.items()
        }
        local = MemoryChunkStore()
        remote = LatencyStore(MemoryChunkStore())
        plan = minimum_spanning_tree(build_graph(matrices))
        archive = PlanArchive.build(
            local, matrices, plan, low_order_store=remote, offload_from=2
        )
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        remote.get_count = 0
        result = evaluator.evaluate(digits.x_test[:20])
        exact = net.predict(digits.x_test[:20])
        np.testing.assert_array_equal(result.predictions, exact)
        if np.all(result.resolved_at_plane <= 2):
            assert remote.get_count == 0


class TestLatencyStore:
    def test_counts_and_charges_every_round_trip(self):
        import time

        store = LatencyStore(MemoryChunkStore(), get_latency=0.01)
        sha = store.put(b"abc")
        start = time.perf_counter()
        store.get(sha)
        store.get(sha)
        assert time.perf_counter() - start >= 0.02
        assert (store.put_count, store.get_count) == (1, 2)
