"""Fig. 6(d): progressive query evaluation using high-order bytes.

The paper evaluates the test datasets of the real-world models reading
only the high-order 1 or 2 bytes per float, and reports (a) the error
rate of answering from partial precision, and (b) how rarely the
determinism check requires the full-precision low-order bytes.  Expected
shape: 2-byte evaluation is essentially error-free, 1-byte shows small
errors, and the progressive scheme's final answers are always exact while
reading a fraction of the stored bytes.
"""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph


def archive_weights(net):
    graph = MatrixStorageGraph()
    matrices = {}
    for layer, params in net.get_weights().items():
        for key, matrix in params.items():
            mid = f"{layer}.{key}"
            graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
            graph.add_materialization(mid, matrix.nbytes, 1.0)
            matrices[mid] = matrix
    plan = minimum_spanning_tree(graph)
    store = MemoryBackend(net.name, create=True).chunks
    return PlanArchive.build(store, matrices, plan)


@pytest.fixture(scope="module")
def evaluators(trained_zoo):
    out = {}
    for name, (net, _, dataset) in trained_zoo.items():
        # A clone: truncated installs never touch the shared fixture net.
        evaluator = ProgressiveEvaluator(
            net.clone(), archive_weights(net), "snap"
        )
        out[name] = (evaluator, net, dataset)
    return out


def test_fig6d_error_rates(evaluators, reporter):
    reporter.line("Fig 6(d): partial-precision error rate and progressive stats")
    reporter.line(
        f"{'model':>14} | {'1B err':>7} | {'2B err':>7} | "
        f"{'det@2B':>7} | {'det@3B':>7} | {'bytes frac':>10} | exact"
    )
    reporter.line("-" * 75)
    for name, (evaluator, net, dataset) in evaluators.items():
        x = dataset.x_test
        exact = net.predict(x)
        err_1b = float(
            (evaluator.evaluate_at_planes(x, 1) != exact).mean()
        )
        err_2b = float(
            (evaluator.evaluate_at_planes(x, 2) != exact).mean()
        )
        progressive = evaluator.evaluate(x, k=1)
        is_exact = bool(np.array_equal(progressive.predictions, exact))
        det2 = progressive.determined_fraction.get(2, 0.0)
        det3 = progressive.determined_fraction.get(3, 0.0)
        reporter.line(
            f"{name:>14} | {err_1b:7.3f} | {err_2b:7.3f} | "
            f"{det2:7.3f} | {det3:7.3f} | "
            f"{progressive.bytes_fraction:10.3f} | {is_exact}"
        )
        # Paper shapes: fewer high-order bytes -> (weakly) more errors;
        # 2-byte errors are tiny; the progressive answer is always exact.
        assert err_2b <= err_1b + 1e-9
        assert err_2b <= 0.02
        assert is_exact
        assert progressive.bytes_fraction <= 1.0


def test_fig6d_topk(evaluators, reporter):
    """Top-1 vs top-5 determinism on the LeNet test set."""
    evaluator, net, dataset = evaluators["lenet"]
    x = dataset.x_test
    reporter.line("")
    reporter.line("Fig 6(d) companion: top-k determinism (lenet)")
    for k in (1, 5):
        result = evaluator.evaluate(x, k=k)
        reporter.line(
            f"  top-{k}: resolved planes mean="
            f"{result.resolved_at_plane.mean():.2f} "
            f"bytes fraction={result.bytes_fraction:.3f}"
        )
        assert result.resolved_at_plane.max() <= 4


def test_bench_progressive_vs_full(benchmark, evaluators):
    evaluator, net, dataset = evaluators["lenet"]
    x = dataset.x_test[:64]
    result = benchmark(evaluator.evaluate, x)
    assert len(result.predictions) == 64
