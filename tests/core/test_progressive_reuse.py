"""Evaluator reusability: repeated queries must not re-read the archive.

The serving tier keeps one ProgressiveEvaluator per snapshot alive for
the process lifetime; these tests pin down the memoization contract that
makes that viable (and the chunk-read regression that motivated it).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph
from repro.dnn.network import Network
from repro.obs.cost import cost_context
from repro.obs.metrics import MetricsRegistry
from repro.serve import PlaneCache


def archive_of(net, snapshot_id="snap"):
    """Materialize net weights into an archive of their own."""
    graph = MatrixStorageGraph()
    matrices = {}
    for layer, params in net.get_weights().items():
        for key, matrix in params.items():
            mid = f"{layer}.{key}"
            graph.add_matrix(MatrixRef(mid, snapshot_id, matrix.nbytes))
            graph.add_materialization(mid, matrix.nbytes, 1.0)
            matrices[mid] = matrix
    plan = minimum_spanning_tree(graph)
    store = MemoryBackend(snapshot_id, create=True).chunks
    return PlanArchive.build(store, matrices, plan)


@pytest.fixture
def counted_evaluator(trained_tiny):
    net, _, _ = trained_tiny
    fresh = Network.from_spec(net.spec()).build(0)
    return ProgressiveEvaluator(fresh, archive_of(net), "snap"), net


class TestChunkReadRegression:
    def test_repeated_evaluate_reads_no_new_chunks(
        self, counted_evaluator, digits
    ):
        evaluator, _ = counted_evaluator
        x = digits.x_test[:20]
        with cost_context() as cold:
            first = evaluator.evaluate(x)
        assert cold.chunks_fetched > 0
        with cost_context() as warm:
            second = evaluator.evaluate(x)
        assert warm.chunks_fetched == 0, (
            "second evaluate re-read the archive despite the memo"
        )
        np.testing.assert_array_equal(first.predictions, second.predictions)

    def test_param_bounds_memoized_per_plane_count(self, counted_evaluator):
        evaluator, _ = counted_evaluator
        bounds_one = evaluator.param_bounds(1)
        with cost_context() as again:
            assert evaluator.param_bounds(1) is bounds_one
        assert again.chunks_fetched == 0
        with cost_context() as deeper:
            evaluator.param_bounds(2)  # deeper budget does read more
        assert deeper.chunks_fetched > 0

    def test_exact_weights_read_once(self, counted_evaluator, digits):
        evaluator, _ = counted_evaluator
        evaluator.forward_exact_many([digits.x_test[:4]])
        with cost_context() as bill:
            evaluator.forward_exact_many([digits.x_test[4:8]])
        assert bill.chunks_fetched == 0

    def test_evaluate_matches_exact_predictions(
        self, counted_evaluator, digits
    ):
        evaluator, trained = counted_evaluator
        x = digits.x_test[:30]
        result = evaluator.evaluate(x)
        np.testing.assert_array_equal(result.predictions, trained.predict(x))


class TestForwardExactMany:
    """The scheduler's exact path: public API instead of the old pattern
    of grabbing the evaluator's private ``_lock`` from the outside."""

    def test_matches_per_batch_exact_forward(
        self, counted_evaluator, digits
    ):
        evaluator, trained = counted_evaluator
        batches = [digits.x_test[:4], digits.x_test[4:10], digits.x_test[10:11]]
        outputs = evaluator.forward_exact_many(batches)
        assert [len(out) for out in outputs] == [4, 6, 1]
        for batch, out in zip(batches, outputs):
            np.testing.assert_array_equal(
                np.argmax(out, axis=1), trained.predict(batch)
            )

    def test_reads_archive_once_across_calls(
        self, counted_evaluator, digits
    ):
        evaluator, _ = counted_evaluator
        with cost_context() as first:
            evaluator.forward_exact_many([digits.x_test[:4]])
        assert first.chunks_fetched > 0
        with cost_context() as later:
            evaluator.forward_exact_many([digits.x_test[4:8]])
            evaluator.forward_exact_many([digits.x_test[8:12]])
        assert later.chunks_fetched == 0

    def test_empty_batch_list(self, counted_evaluator):
        evaluator, _ = counted_evaluator
        assert evaluator.forward_exact_many([]) == []

    def test_concurrent_exact_batches_are_consistent(
        self, counted_evaluator, digits
    ):
        # The race the refactor closes: exact weights install plus the
        # forward passes are atomic under the evaluator lock, so a
        # concurrent plane-budget evaluation cannot swap truncated
        # weights in mid-run.
        evaluator, trained = counted_evaluator
        x = digits.x_test[:8]
        expected = trained.predict(x)
        errors = []
        results = []

        def exact_worker():
            try:
                out = evaluator.forward_exact_many([x])[0]
                results.append(np.argmax(out, axis=1))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def plane_worker():
            try:
                evaluator.evaluate(x)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=exact_worker) for _ in range(4)]
        threads += [threading.Thread(target=plane_worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors
        assert len(results) == 4
        for got in results:
            np.testing.assert_array_equal(got, expected)


class TestRepositoryMatrixIds:
    def test_prefixed_matrix_ids_map_to_bare_layers(
        self, repo, trained_tiny, digits
    ):
        """Repo archives use ``v1/s0/layer.param`` ids; bounds must still
        key by the network's bare layer names, or ``forward_interval``
        silently ignores every bound (the pre-serving regression)."""
        net, _, _ = trained_tiny
        version = repo.commit(net, name="tiny", message="ids")
        archive = repo.archive_view()
        fresh = Network.from_spec(version.network).build(0)
        evaluator = ProgressiveEvaluator(
            fresh, archive, version.snapshots[-1].key
        )
        bounds = evaluator.param_bounds(1)
        layer_names = {layer.name for layer in fresh.layers()}
        assert set(bounds) <= layer_names
        # With real (wide) plane-1 bounds almost nothing is determined —
        # the vacuous-bounds bug claimed everything was.
        x = digits.x_test[:16]
        determined, _ = evaluator.evaluate_bounded(x, 1)
        result = evaluator.evaluate(x)
        np.testing.assert_array_equal(result.predictions, net.predict(x))
        assert result.resolved_at_plane.max() > 1 or determined.all()


class TestConcurrentReuse:
    @pytest.mark.parametrize("shared", [True, False])
    def test_concurrent_queries_single_archive_read(
        self, trained_tiny, digits, shared
    ):
        """N concurrent callers cost one archive read per plane — through
        the serving tier's shared cache and through the private one an
        evaluator built without ``plane_cache`` gives its archive (whose
        predecessor memo documented "racing computes are possible")."""
        net, _, _ = trained_tiny
        archive = archive_of(net)
        fresh = Network.from_spec(net.spec()).build(0)
        cache = (
            PlaneCache(64 << 20, registry=MetricsRegistry()) if shared else None
        )
        evaluator = ProgressiveEvaluator(
            fresh, archive, "snap", plane_cache=cache
        )
        x = digits.x_test[:10]
        barrier = threading.Barrier(8, timeout=10.0)
        results = []
        errors = []
        bills = []

        def query():
            try:
                barrier.wait()
                with cost_context() as bill:
                    determined, labels = evaluator.evaluate_bounded(x, 2)
                    weights = evaluator.exact_weights()
                results.append((determined, labels, weights))
                bills.append(bill)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=query) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors
        assert len(results) == 8
        base_det, base_lab, base_weights = results[0]
        for det, lab, weights in results[1:]:
            np.testing.assert_array_equal(det, base_det)
            np.testing.assert_array_equal(lab, base_lab)
            for layer, params in base_weights.items():
                for param, value in params.items():
                    np.testing.assert_array_equal(weights[layer][param], value)
        # Cached bounds may be shared across models: always frozen.
        assert not evaluator.param_bounds(2)["fc1"]["W"].lo.flags.writeable
        # Single-flight: the plane-2 bounds and every distinct plane were
        # each loaded exactly once, whatever the interleaving; the lookups
        # are 8 bounds + 2 (bounds) + 8 * 4 (exact) planes per matrix + 1.
        lru = evaluator.plane_cache
        matrices = len(archive.manifest)
        planes = len({
            archive.plane_address(entry, i)
            for entry in archive.manifest.values() for i in range(4)
        })
        assert lru.misses == 1 + planes
        assert lru.misses + lru.hits == 8 + 34 * matrices + 1
        assert sum(bill.chunks_fetched for bill in bills) == planes

    def test_shared_cache_across_evaluators(self, trained_tiny, digits):
        """Two evaluators over one snapshot share the plane cache."""
        net, _, _ = trained_tiny
        registry = MetricsRegistry()
        archive = archive_of(net)
        cache = PlaneCache(64 << 20, registry=registry)
        evaluators = [
            ProgressiveEvaluator(
                Network.from_spec(net.spec()).build(i),
                archive, "snap", plane_cache=cache,
            )
            for i in range(2)
        ]
        evaluators[0].param_bounds(2)
        with cost_context() as bill:
            evaluators[1].param_bounds(2)
        assert bill.chunks_fetched == 0
        assert registry.counter("serve.cache.hits").value == 1
