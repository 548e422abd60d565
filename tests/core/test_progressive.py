"""Progressive query evaluation tests — the Sec. IV-D exactness guarantee."""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph


def archive_snapshot(net, snapshot_id="snap"):
    """Materialize a network's weights into a PlanArchive."""
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


@pytest.fixture(scope="module")
def evaluator_setup(request):
    trained = request.getfixturevalue("trained_lenet")
    digits = request.getfixturevalue("digits")
    net, _, _ = trained
    archive = archive_snapshot(net)
    return net, archive, digits


class TestExactnessGuarantee:
    def test_progressive_matches_full_precision(self, trained_lenet, digits):
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        x = digits.x_test[:60]
        exact = net.predict(x)
        result = evaluator.evaluate(x, k=1)
        np.testing.assert_array_equal(result.predictions, exact)

    def test_topk_all_classes_trivially_determined(self, trained_lenet, digits):
        """k = num_classes separates nothing from nothing: one plane suffices."""
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        x = digits.x_test[:20]
        result = evaluator.evaluate(x, k=digits.num_classes)
        assert np.all(result.resolved_at_plane == 1)

    def test_topk_5_still_exact(self, trained_lenet, digits):
        """Top-5 determination may need more planes (mid-rank logits are
        close for 10 classes) but the final predictions stay exact."""
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        x = digits.x_test[:40]
        result = evaluator.evaluate(x, k=5)
        exact = net.predict(x)
        np.testing.assert_array_equal(result.predictions, exact)

    def test_all_points_get_predictions(self, trained_lenet, digits):
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        result = evaluator.evaluate(digits.x_test[:30])
        assert np.all(result.predictions >= 0)
        assert np.all(result.predictions < digits.num_classes)


class TestEscalationBehaviour:
    def test_determined_fraction_monotone(self, trained_lenet, digits):
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        result = evaluator.evaluate(digits.x_test[:50])
        fractions = [
            result.determined_fraction[k]
            for k in sorted(result.determined_fraction)
        ]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_bytes_fraction_below_one_when_early_determined(
        self, trained_lenet, digits
    ):
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        result = evaluator.evaluate(digits.x_test[:50])
        if np.all(result.resolved_at_plane < 4):
            assert result.bytes_fraction < 1.0

    def test_start_planes_skips_levels(self, trained_lenet, digits):
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        result = evaluator.evaluate(digits.x_test[:20], start_planes=3)
        assert np.all(result.resolved_at_plane >= 3)


class TestTruncatedBaseline:
    def test_error_decreases_with_planes(self, trained_lenet, digits):
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        evaluator = ProgressiveEvaluator(net, archive, "snap")
        x = digits.x_test
        exact = net.predict(x)
        errors = []
        for planes in (1, 2, 3, 4):
            preds = evaluator.evaluate_at_planes(x, planes)
            errors.append(float((preds != exact).mean()))
        assert errors[3] == 0.0
        assert errors[1] <= errors[0] + 1e-9
        # Restore exact weights for other tests sharing the fixture.
        evaluator.forward_exact_many([x[:1]])


class TestValidation:
    def test_requires_built_network(self, trained_lenet):
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        from repro.dnn.network import Network

        unbuilt = Network.from_spec(net.spec())
        with pytest.raises(RuntimeError):
            ProgressiveEvaluator(unbuilt, archive, "snap")

    def test_unknown_snapshot(self, trained_lenet):
        net, _, _ = trained_lenet
        archive = archive_snapshot(net)
        with pytest.raises(KeyError):
            ProgressiveEvaluator(net, archive, "ghost")
