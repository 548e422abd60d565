"""Tiered storage tests: offloading low-order byte planes to a remote tier.

Sec. IV-B: one major advantage of the segmented approach is that the
low-order bytes can be offloaded to remote storage — queries that only
touch high-order planes never pay the remote round trip.  Each tier is
a blob store of its own (an unregistered in-memory backend's chunks
tier), so routing is checked by removal: with the remote tier emptied,
every read of the high-order planes still answers exactly.
"""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.segmentation import bounds_from_prefix, segment_planes
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph
from repro.obs.cost import cost_context


def build_graph(matrices):
    graph = MatrixStorageGraph()
    for mid, matrix in matrices.items():
        graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
        graph.add_materialization(mid, matrix.nbytes, 1.0)
    return graph


def tiered(matrices):
    """``(archive, local, remote)``: planes 2-3 live on ``remote``."""
    local = MemoryBackend("local", create=True).chunks
    remote = MemoryBackend("remote", create=True).chunks
    plan = minimum_spanning_tree(build_graph(matrices))
    archive = PlanArchive.build(
        local, matrices, plan, low_order_store=remote, offload_from=2
    )
    return archive, local, remote


def empty(store) -> None:
    assert store.delete_many(list(store.addresses())) > 0
    assert store.total_size() == 0


@pytest.fixture
def tiered_archive(seeded_rng):
    matrices = {
        f"fc{i}.W": (seeded_rng.standard_normal((32, 16)) * 0.1).astype(
            np.float32
        )
        for i in range(3)
    }
    return (*tiered(matrices), matrices)


class TestRouting:
    def test_planes_split_across_tiers(self, tiered_archive):
        _, local, remote, _ = tiered_archive
        # 3 matrices x 2 planes per tier (minus dedup) — both tiers hold data.
        assert local.total_size() > 0
        assert remote.total_size() > 0

    def test_full_recreation_exact_across_tiers(self, tiered_archive):
        archive, _, _, matrices = tiered_archive
        for mid, expected in matrices.items():
            np.testing.assert_array_equal(
                archive.recreate_matrix(mid), expected
            )

    def test_high_order_reads_skip_remote(self, tiered_archive):
        archive, _, remote, matrices = tiered_archive
        empty(remote)
        for mid, value in matrices.items():
            # Two planes are the top 16 bits of every float32, exactly.
            high = (value.view(np.uint32) & 0xFFFF0000).view(np.float32)
            np.testing.assert_array_equal(
                archive.recreate_matrix(mid, planes=2), high
            )
            with pytest.raises(KeyError):
                archive.recreate_matrix(mid, planes=3)

    def test_bounds_from_local_tier_only(self, tiered_archive):
        archive, _, remote, matrices = tiered_archive
        empty(remote)
        value = matrices["fc1.W"]
        lo, hi = archive.matrix_bounds("fc1.W", planes=2)
        want = bounds_from_prefix(segment_planes(value)[:2], value.shape)
        np.testing.assert_array_equal(lo, want[0])
        np.testing.assert_array_equal(hi, want[1])
        assert np.all(lo <= value) and np.all(value <= hi)
        with pytest.raises(KeyError):
            archive.matrix_bounds("fc1.W", planes=3)

    def test_total_size_spans_tiers(self, tiered_archive):
        archive, local, remote, _ = tiered_archive
        assert archive.total_size() == local.total_size() + remote.total_size()


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
        archive, _, _ = tiered(matrices)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        x = digits.x_test[:20]
        with cost_context() as bill:
            result = evaluator.evaluate(x)
        np.testing.assert_array_equal(result.predictions, net.predict(x))
        # A pass at p planes reads planes 0..p-1: the remote tier's
        # planes (index >= 2) are billed only if some row needed a
        # third plane.
        assert max(bill.by_plane) == result.resolved_at_plane.max() - 1
