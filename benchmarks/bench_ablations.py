"""Ablations of PAS design choices (beyond the paper's headline figures).

Four ablations, each isolating one decision DESIGN.md calls out:

* **delta edge sets** — how much of the MST's storage saving comes from
  within-version snapshot chains vs. cross-version (lineage) deltas;
* **compression level** — zlib level 1/6/9 on trained weights (the paper
  fixes level 6);
* **segmentation granularity** — compressing whole matrices vs. 2 coarse
  halves vs. 4 byte planes;
* **remote offloading** — progressive query latency as the simulated
  round-trip cost of the low-order tier grows (queries resolved from
  high-order planes never pay it).
"""

import time
import zlib

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.chunkstore import BlobCodec, LatencyStore, MemoryChunkStore
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.segmentation import segment_planes
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph


class TestDeltaEdgeSets:
    def test_ablate_edge_sources(self, sd_repo, reporter):
        reporter.line("Ablation: delta edge sets (MST storage cost)")
        reporter.line(f"{'edge set':>28} | {'edges':>6} | {'MST Cs':>12}")
        reporter.line("-" * 55)
        results = {}
        for label, within, lineage in [
            ("materialize only", False, False),
            ("+ snapshot chains", True, False),
            ("+ lineage deltas", False, True),
            ("+ both", True, True),
        ]:
            graph, _ = sd_repo.build_storage_graph(
                delta_within_versions=within, delta_across_lineage=lineage
            )
            cost = minimum_spanning_tree(graph).storage_cost()
            results[label] = cost
            reporter.line(
                f"{label:>28} | {len(graph.edges):>6} | {cost:12.0f}"
            )
        # Each edge source helps; their union is at least as good as either.
        assert results["+ snapshot chains"] < results["materialize only"]
        assert results["+ lineage deltas"] < results["materialize only"]
        assert results["+ both"] <= min(
            results["+ snapshot chains"], results["+ lineage deltas"]
        ) + 1e-6


class TestCompressionLevel:
    def test_level_sweep(self, trained_zoo, reporter):
        net, _, _ = trained_zoo["vgg-mini"]
        payload = b"".join(
            matrix.tobytes()
            for params in net.get_weights().values()
            for matrix in params.values()
        )
        reporter.line("")
        reporter.line("Ablation: zlib level on trained VGG-mini weights")
        reporter.line(f"{'level':>5} | {'bytes':>9} | {'ms':>7}")
        reporter.line("-" * 28)
        sizes = {}
        for level in (1, 6, 9):
            start = time.perf_counter()
            compressed = len(zlib.compress(payload, level))
            elapsed = (time.perf_counter() - start) * 1e3
            sizes[level] = compressed
            reporter.line(f"{level:>5} | {compressed:>9} | {elapsed:7.2f}")
        # What the blob codec stores: its own level and strategy.
        codec = BlobCodec()
        start = time.perf_counter()
        compressed = codec.stored_size_of(payload)
        elapsed = (time.perf_counter() - start) * 1e3
        reporter.line(f"{'codec':>5} | {compressed:>9} | {elapsed:7.2f}")
        assert sizes[9] <= sizes[6] <= sizes[1]


class TestSegmentationGranularity:
    def test_plane_split_vs_whole(self, trained_zoo, reporter):
        net, _, _ = trained_zoo["lenet"]
        matrices = [
            matrix
            for params in net.get_weights().values()
            for matrix in params.values()
        ]
        whole = sum(
            len(zlib.compress(m.astype("<f4").tobytes(), 6)) for m in matrices
        )
        four_planes = 0
        two_halves = 0
        for matrix in matrices:
            planes = segment_planes(matrix)
            four_planes += sum(len(zlib.compress(p, 6)) for p in planes)
            two_halves += len(zlib.compress(planes[0] + planes[1], 6))
            two_halves += len(zlib.compress(planes[2] + planes[3], 6))
        reporter.line("")
        reporter.line("Ablation: segmentation granularity (compressed bytes)")
        for label, size in [
            ("whole matrices", whole),
            ("2 x 2-byte halves", two_halves),
            ("4 byte planes", four_planes),
        ]:
            reporter.line(f"  {label:>18}: {size}")
        # Byte-plane separation should not cost more than ~10% vs whole,
        # in exchange for partial-read capability.
        assert four_planes <= whole * 1.10


class TestRemoteOffloading:
    @pytest.fixture(scope="class")
    def lenet_setup(self, trained_zoo):
        net, _, dataset = trained_zoo["lenet"]
        matrices = {
            f"{layer}.{key}": value
            for layer, params in net.get_weights().items()
            for key, value in params.items()
        }
        graph = MatrixStorageGraph()
        for mid, matrix in matrices.items():
            graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
            graph.add_materialization(mid, matrix.nbytes, 1.0)
        plan = minimum_spanning_tree(graph)
        return net, dataset, matrices, plan

    def test_latency_sweep(self, lenet_setup, reporter):
        net, dataset, matrices, plan = lenet_setup
        x = dataset.x_test[:48]
        reporter.line("")
        reporter.line(
            "Ablation: remote tier latency vs progressive query time"
        )
        reporter.line(
            f"{'latency (ms)':>12} | {'progressive (ms)':>16} | "
            f"{'remote gets':>11}"
        )
        reporter.line("-" * 48)
        timings = {}
        for latency_ms in (0.0, 1.0, 5.0):
            remote = LatencyStore(
                MemoryChunkStore(), get_latency=latency_ms / 1e3
            )
            archive = PlanArchive.build(
                MemoryChunkStore(), matrices, plan,
                low_order_store=remote, offload_from=2,
            )
            evaluator = ProgressiveEvaluator(net, archive, "snap")
            remote.get_count = 0
            start = time.perf_counter()
            result = evaluator.evaluate(x)
            elapsed = (time.perf_counter() - start) * 1e3
            timings[latency_ms] = (elapsed, remote.get_count)
            reporter.line(
                f"{latency_ms:>12.1f} | {elapsed:>16.2f} | "
                f"{remote.get_count:>11}"
            )
            assert np.array_equal(result.predictions, net.predict(x))
        # The progressive evaluator only touches the remote tier for the
        # escalated points, so the latency penalty is bounded by the number
        # of remote gets, not by the total chunk count.
        _, gets = timings[5.0]
        total_low_planes = 2 * len(matrices)
        assert gets <= 2 * total_low_planes  # escalation is bounded


class TestRetrievalCache:
    def test_cache_accelerates_hot_snapshots(self, sd_repo, reporter):
        """Sec. IV-A workload: the latest snapshots dominate access.  The
        one plane cache (a PlaneCache behind an archive and its
        evaluator) against uncached snapshot reads."""
        from repro.dnn.network import Network
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import PlaneCache

        archive = sd_repo.archive_view()
        hot = sorted(archive._snapshots)[-1]
        version = sd_repo.resolve(int(hot.split("/")[0][1:]))
        cache = PlaneCache(256 << 20, registry=MetricsRegistry())
        evaluator = ProgressiveEvaluator(
            Network.from_spec(version.network).build(0),
            sd_repo.archive_view(plane_cache=cache), hot,
        )

        start = time.perf_counter()
        for _ in range(20):
            archive.recreate_snapshot(hot)
        cold = time.perf_counter() - start

        evaluator.exact_weights()  # warm up
        start = time.perf_counter()
        for _ in range(20):
            evaluator.exact_weights()
        warm = time.perf_counter() - start

        reporter.line("")
        reporter.line("Ablation: plane cache on a hot snapshot (20 reads)")
        reporter.line(f"  uncached: {cold * 1e3:8.2f} ms")
        reporter.line(f"  cached:   {warm * 1e3:8.2f} ms")
        reporter.line(f"  stats:    {cache.stats()}")
        assert warm < cold
        assert cache.stats()["hit_rate"] > 0.9


def test_bench_spt_tightening(benchmark, sd_repo):
    """Throughput of the feasibility-fallback solver on the SD graph."""
    from repro.core.archival import alpha_constraints, spt_tightening

    graph, _ = sd_repo.build_storage_graph()
    constraints = alpha_constraints(graph, 1.6)
    plan = benchmark.pedantic(
        spt_tightening, args=(graph, constraints), rounds=2, iterations=1
    )
    assert plan.is_complete()
