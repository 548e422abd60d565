"""Segment-only inspection tests: stats/histograms without low-order bytes."""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.inspect import (
    ascii_histogram,
    segment_compare,
    segment_histogram,
    segment_stats,
)
from repro.core.retrieval import PlanArchive
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph


@pytest.fixture
def archive(seeded_rng):
    matrices = {
        "a": (seeded_rng.standard_normal((64, 32)) * 0.1).astype(np.float32),
        "b": (seeded_rng.standard_normal((64, 32)) * 0.1).astype(np.float32),
        "c": (seeded_rng.standard_normal((8, 8)) * 0.1).astype(np.float32),
    }
    graph = MatrixStorageGraph()
    for mid, matrix in matrices.items():
        graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
        graph.add_materialization(mid, matrix.nbytes, 1.0)
    built = PlanArchive.build(
        MemoryBackend("inspect", create=True).chunks, matrices,
        minimum_spanning_tree(graph),
    )
    return built, matrices


class TestStats:
    def test_stats_close_to_exact(self, archive):
        built, matrices = archive
        stats = segment_stats(built, "a", planes=2)
        exact = matrices["a"]
        assert stats["mean"] == pytest.approx(float(exact.mean()), abs=1e-3)
        assert stats["std"] == pytest.approx(float(exact.std()), rel=1e-2)
        assert stats["l2"] == pytest.approx(
            float(np.linalg.norm(exact)), rel=1e-2
        )

    def test_error_bound_is_sound(self, archive):
        built, matrices = archive
        for planes in (1, 2, 3):
            stats = segment_stats(built, "a", planes=planes)
            lo, hi = built.matrix_bounds("a", planes)
            mid = (lo + hi) / 2.0
            true_error = float(np.abs(mid - matrices["a"]).max())
            assert true_error <= stats["max_error"] + 1e-9

    def test_error_shrinks_with_planes(self, archive):
        built, _ = archive
        errors = [
            segment_stats(built, "a", planes=p)["max_error"]
            for p in (1, 2, 3)
        ]
        assert errors[0] > errors[1] > errors[2]


class TestHistogram:
    def test_counts_sum_to_size(self, archive):
        built, matrices = archive
        histogram = segment_histogram(built, "a", bins=12, planes=2)
        assert sum(histogram["counts"]) == matrices["a"].size
        assert len(histogram["edges"]) == 13

    def test_matches_exact_histogram_at_two_planes(self, archive):
        built, matrices = archive
        histogram = segment_histogram(built, "a", bins=8, planes=2)
        exact_counts, _ = np.histogram(matrices["a"], bins=8)
        # Allow a handful of edge-straddling values to move bins.
        moved = np.abs(np.array(histogram["counts"]) - exact_counts).sum()
        assert moved <= 2 * histogram["uncertain"] + 4

    def test_uncertainty_grows_with_fewer_planes(self, archive):
        built, _ = archive
        one = segment_histogram(built, "a", bins=8, planes=1)["uncertain"]
        two = segment_histogram(built, "a", bins=8, planes=2)["uncertain"]
        assert two <= one

    def test_ascii_render(self, archive):
        built, _ = archive
        text = ascii_histogram(segment_histogram(built, "a", bins=5))
        assert text.count("\n") >= 4
        assert "#" in text


class TestCompare:
    def test_compare_self_is_zero(self, archive):
        built, _ = archive
        report = segment_compare(built, "a", "a")
        assert report["comparable"]
        assert report["relative_l2"] == 0.0

    def test_compare_distinct(self, archive):
        built, matrices = archive
        report = segment_compare(built, "a", "b", planes=2)
        exact = float(
            np.linalg.norm(matrices["a"] - matrices["b"])
        ) / float(np.linalg.norm(matrices["a"]))
        assert report["relative_l2"] == pytest.approx(exact, rel=1e-2)

    def test_shape_mismatch_flagged(self, archive):
        built, _ = archive
        report = segment_compare(built, "a", "c")
        assert not report["comparable"]

    def test_no_remote_reads(self, seeded_rng):
        """Inspection must never touch the offloaded low-order tier: it
        answers with that tier emptied."""
        matrix = (seeded_rng.standard_normal((32, 32)) * 0.1).astype(
            np.float32
        )
        graph = MatrixStorageGraph()
        graph.add_matrix(MatrixRef("m", "snap", matrix.nbytes))
        graph.add_materialization("m", matrix.nbytes, 1.0)
        remote = MemoryBackend("remote", create=True).chunks
        archive = PlanArchive.build(
            MemoryBackend("local", create=True).chunks, {"m": matrix},
            minimum_spanning_tree(graph),
            low_order_store=remote,
        )
        assert remote.delete_many(list(remote.addresses())) > 0
        segment_stats(archive, "m", planes=2)
        segment_histogram(archive, "m", planes=2)
        with pytest.raises(KeyError):
            segment_stats(archive, "m", planes=3)
