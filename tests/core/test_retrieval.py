"""Physical archive tests: build/recreate roundtrips, shared-prefix
snapshot reads, partial reads."""

from collections import Counter

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.delta import delta_xor, embed_like
from repro.core.retrieval import PlanArchive
from repro.core.segmentation import bounds_from_prefix, segment_planes
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import (
    ROOT,
    MatrixRef,
    MatrixStorageGraph,
    StorageEdge,
)
from repro.dlv.repository import Repository
from tests.conftest import STORE_BACKENDS


def memory_store():
    """A blob store of its own: the chunks tier of an unregistered
    in-memory backend."""
    return MemoryBackend("retrieval", create=True).chunks


@pytest.fixture
def snapshot_chain(seeded_rng):
    """Three snapshots of one evolving matrix set + the graph + MST plan."""
    base = {
        "a": (seeded_rng.standard_normal((16, 8)) * 0.1).astype(np.float32),
        "b": (seeded_rng.standard_normal((8, 4)) * 0.1).astype(np.float32),
    }
    matrices = {}
    graph = MatrixStorageGraph()
    prev_ids = {}
    for s in range(3):
        for name, matrix in base.items():
            drift = (seeded_rng.standard_normal(matrix.shape) * 0.002).astype(
                np.float32
            )
            current = (matrix + s * drift).astype(np.float32)
            mid = f"s{s}/{name}"
            matrices[mid] = current
            graph.add_matrix(MatrixRef(mid, f"snap{s}", current.nbytes))
            graph.add_materialization(mid, current.nbytes, 1.0)
            if name in prev_ids:
                graph.add_edge(
                    StorageEdge(prev_ids[name], mid, current.nbytes // 4, 1.0)
                )
            prev_ids[name] = mid
    plan = minimum_spanning_tree(graph)
    return matrices, graph, plan


class TestBuildAndRecreate:
    def test_full_recreation_exact(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        for mid, expected in matrices.items():
            np.testing.assert_array_equal(archive.recreate_matrix(mid), expected)

    @pytest.mark.parametrize("layout", ["chunks", "pages"])
    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_snapshot_reads_each_shared_prefix_once(
        self, make_repo_target, seeded_rng, backend, layout
    ):
        """Two members of one snapshot share a chain prefix: ``s1/b`` is
        an XOR delta off ``s1/a``, which is a delta off ``s0/r`` (chunks)
        or a page-encoded root (pages).  A snapshot read is one plan: it
        reads each distinct chain entry once, bills exactly their stored
        planes, and equals each member's own recreation bit for bit."""
        repo = Repository.init(make_repo_target(backend))
        r = (seeded_rng.standard_normal((16, 8)) * 0.1).astype(np.float32)
        a = (r + seeded_rng.standard_normal(r.shape) * 1e-3).astype(np.float32)
        b = (a + seeded_rng.standard_normal(r.shape) * 1e-3).astype(np.float32)
        matrices = {"s0/r": r, "s1/a": a, "s1/b": b}
        graph = MatrixStorageGraph()
        for mid, matrix in matrices.items():
            graph.add_matrix(MatrixRef(mid, mid.split("/")[0], matrix.nbytes))
        graph.add_materialization("s0/r", r.nbytes, 1.0)
        graph.add_materialization("s1/b", b.nbytes, 1.0)
        graph.add_edge(StorageEdge("s1/a", "s1/b", b.nbytes // 8, 1.0))
        if layout == "pages":
            graph.add_edge(StorageEdge(ROOT, "s1/a", 16, 1.0, kind="pages"))
        else:
            graph.add_materialization("s1/a", a.nbytes, 1.0)
            graph.add_edge(StorageEdge("s0/r", "s1/a", a.nbytes // 8, 1.0))
        page_store = repo.page_store()
        archive = PlanArchive.build(
            repo.store, matrices, minimum_spanning_tree(graph),
            page_store=page_store,
        )
        with repo.catalog.transaction():
            page_store.flush()
        entries = {entry.matrix_id for entry in archive.chain("s1/b")}
        assert entries == (
            {"s1/a", "s1/b"} if layout == "pages" else set(matrices)
        )
        assert archive.manifest["s1/a"].kind == (
            "pages" if layout == "pages" else "xor"
        )
        read = Counter()
        read_payload = archive._read_payload

        def counted(matrix_id, planes):
            read[matrix_id] += 1
            return read_payload(matrix_id, planes)

        archive._read_payload = counted
        for planes in range(1, 5):
            read.clear()
            result = archive.recreate_snapshot("s1", planes=planes)
            assert read == {mid: 1 for mid in entries}
            assert result.bytes_read == sum(
                archive.plane_stored_size(archive.manifest[mid], index)
                for mid in entries
                for index in range(planes)
            )
            assert set(result.matrices) == {"s1/a", "s1/b"}
            for mid, value in result.matrices.items():
                alone = archive.recreate_matrix(mid, planes=planes)
                assert value.tobytes() == alone.tobytes()
            if planes == 4:
                for mid, value in result.matrices.items():
                    np.testing.assert_array_equal(value, matrices[mid])
        repo.close()

    def test_xor_deltas_exact(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        kinds = {entry.kind for entry in archive.manifest.values()}
        assert kinds == {"materialize", "xor"}
        for mid, expected in matrices.items():
            np.testing.assert_array_equal(
                archive.recreate_matrix(mid), expected
            )

    def test_manifest_roundtrip(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        store = memory_store()
        archive = PlanArchive.build(store, matrices, plan)
        reopened = PlanArchive.from_manifest_dict(
            store, archive.to_manifest_dict()
        )
        for mid in matrices:
            np.testing.assert_array_equal(
                reopened.recreate_matrix(mid), archive.recreate_matrix(mid)
            )

    def test_unknown_matrix_raises(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        with pytest.raises(KeyError):
            archive.recreate_matrix("nope")
        with pytest.raises(KeyError):
            archive.recreate_snapshot("nope")


class TestPartialRetrieval:
    def test_partial_reads_fewer_bytes(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        full = archive.recreate_snapshot("snap0", planes=4)
        partial = archive.recreate_snapshot("snap0", planes=2)
        assert partial.bytes_read < full.bytes_read

    @pytest.mark.parametrize("planes", [1, 2, 3])
    def test_partial_error_shrinks_with_planes(self, snapshot_chain, planes):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        expected = matrices["s0/a"]
        approx = archive.recreate_matrix("s0/a", planes=planes)
        max_abs = np.abs(expected).max()
        error = np.abs(approx - expected).max()
        # Relative error halves ~256x per extra plane.
        bound = max_abs * (2.0 ** (-max(8 * planes - 9, 0)))
        assert error <= bound + 1e-7

    def test_bytes_read_reflects_chain(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        later = archive.recreate_snapshot("snap2")
        first = archive.recreate_snapshot("snap0")
        # snap2 sits at the end of delta chains: more bytes touched.
        assert later.bytes_read >= first.bytes_read


class TestIntervalRetrieval:
    def test_bounds_contain_exact_value(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        for planes in (1, 2, 3):
            lo, hi = archive.matrix_bounds("s2/a", planes)
            value = matrices["s2/a"]
            assert np.all(lo <= value + 1e-6)
            assert np.all(value <= hi + 1e-6)

    def test_bounds_tighten_with_planes(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        lo1, hi1 = archive.matrix_bounds("s2/a", 1)
        lo2, hi2 = archive.matrix_bounds("s2/a", 2)
        assert (hi2 - lo2).max() <= (hi1 - lo1).max() + 1e-12

    @pytest.mark.parametrize("planes", [1, 2, 3, 4])
    def test_xor_chain_bounds_are_the_targets_prefix_bounds(
        self, snapshot_chain, planes
    ):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        assert len(archive.chain("s2/a")) == 3
        value = matrices["s2/a"]
        got = archive.matrix_bounds("s2/a", planes)
        want = bounds_from_prefix(segment_planes(value)[:planes], value.shape)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestStorageAccounting:
    def test_total_size_counts_unique_chunks(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        store = memory_store()
        archive = PlanArchive.build(store, matrices, plan)
        assert archive.total_size() == store.total_size()

    def test_delta_storage_smaller_than_materialize_all(self, snapshot_chain):
        matrices, graph, plan = snapshot_chain
        delta_archive = PlanArchive.build(memory_store(), matrices, plan)
        # Materialize-everything plan for comparison.
        from repro.core.archival import shortest_path_tree

        flat_plan = shortest_path_tree(graph)
        flat_archive = PlanArchive.build(
            memory_store(), matrices, flat_plan
        )
        assert delta_archive.total_size() < flat_archive.total_size()


class TestMismatchedShapeChains:
    """Archival across a dimension change (fine-tune with a new label space)."""

    def _build(self):
        rng = np.random.default_rng(3)
        base = (rng.standard_normal((32, 10)) * 0.1).astype(np.float32)
        grown = np.zeros((32, 12), dtype=np.float32)
        grown[:, :10] = base
        grown[:, 10:] = 0.05
        matrices = {"s0/fc": base, "s1/fc": grown}
        graph = MatrixStorageGraph()
        graph.add_matrix(MatrixRef("s0/fc", "snap0", base.nbytes))
        graph.add_matrix(MatrixRef("s1/fc", "snap1", grown.nbytes))
        graph.add_materialization("s0/fc", base.nbytes, 1.0)
        graph.add_materialization("s1/fc", grown.nbytes * 10, 1.0)
        graph.add_edge(StorageEdge("s0/fc", "s1/fc", 8, 1.0))
        plan = minimum_spanning_tree(graph)
        archive = PlanArchive.build(memory_store(), matrices, plan)
        return matrices, plan, archive

    def test_plan_uses_mismatched_delta(self):
        _, plan, archive = self._build()
        assert archive.manifest["s1/fc"].kind == "xor"
        assert archive.manifest["s1/fc"].parent == "s0/fc"

    def test_recreation_exact_across_shapes(self):
        matrices, _, archive = self._build()
        for mid, expected in matrices.items():
            np.testing.assert_array_equal(archive.recreate_matrix(mid), expected)

    def test_bounds_across_shapes(self):
        matrices, _, archive = self._build()
        lo, hi = archive.matrix_bounds("s1/fc", 2)
        value = matrices["s1/fc"]
        assert lo.shape == value.shape
        assert np.all(lo <= value) and np.all(value <= hi)


class TestDeltaConsistency:
    def test_stored_delta_matches_manual(self, snapshot_chain):
        matrices, _, plan = snapshot_chain
        archive = PlanArchive.build(memory_store(), matrices, plan)
        deltas = {
            mid: e for mid, e in archive.manifest.items() if e.kind == "xor"
        }
        assert deltas, "fixture should store some XOR deltas"
        for mid, entry in deltas.items():
            expected_delta = delta_xor(
                matrices[mid], embed_like(matrices[entry.parent], entry.shape)
            )
            payload, _ = archive._read_payload(mid, planes=4)
            np.testing.assert_array_equal(payload.view("<u4"), expected_delta)
