"""Property-based progressive evaluation tests.

The Sec. IV-D exactness guarantee must hold for *arbitrary* models and
data, not just the trained fixtures: hypothesis generates random small
MLPs and random inputs, and the progressive evaluator's answers must
always equal full-precision evaluation — the argmax of the exact logits
the evaluator decides on, not of the float32 softmax after them, which
can round a near-tie of two logits to equal probabilities.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.archival import minimum_spanning_tree
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph
from repro.dnn.layers import Dense, Flatten, ReLU, Softmax
from repro.dnn.network import Network

model_params = st.tuples(
    st.integers(2, 6),        # input dim
    st.integers(2, 8),        # hidden units
    st.integers(2, 5),        # classes
    st.integers(0, 10_000),   # weight seed
    st.integers(0, 10_000),   # data seed
    st.floats(0.01, 5.0),     # weight scale (stresses exponent ranges)
)


def build_case(params):
    in_dim, hidden, classes, weight_seed, data_seed, scale = params
    net = Network((1, 1, in_dim), name="prop")
    net.add(Flatten("flat"))
    net.add(Dense("fc1", units=hidden))
    net.add(ReLU("relu"))
    net.add(Dense("fc2", units=classes))
    net.add(Softmax("prob"))
    net.build(weight_seed)
    rng = np.random.default_rng(weight_seed + 1)
    # Rescale weights to exercise diverse float exponents.
    for layer in net.parametric_layers():
        layer.params["W"] = (layer.params["W"] * scale).astype(np.float32)
        layer.params["b"] = (
            rng.standard_normal(layer.params["b"].shape) * scale * 0.1
        ).astype(np.float32)
    data_rng = np.random.default_rng(data_seed)
    x = data_rng.standard_normal((8, 1, 1, in_dim)).astype(np.float32)
    return net, x


def archive_of(net):
    graph = MatrixStorageGraph()
    matrices = {}
    for layer, params in net.get_weights().items():
        for key, matrix in params.items():
            mid = f"{layer}.{key}"
            graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
            graph.add_materialization(mid, matrix.nbytes, 1.0)
            matrices[mid] = matrix
    return PlanArchive.build(
        MemoryBackend("prop", create=True).chunks, matrices,
        minimum_spanning_tree(graph),
    )


def exact_labels(net, evaluator, x):
    """Full-precision answers: the argmax of the exact logits."""
    return np.argmax(net.forward(x, upto=evaluator.logits_node), axis=1)


class TestExactnessProperty:
    @settings(max_examples=25, deadline=None)
    @given(model_params)
    # Row 6's logits -0.00044372 and -0.00044361 tie to one float32
    # softmax probability, so the softmax argmax answers class 1 where
    # the exact logits (and the progressive pass) answer class 2.
    @example((3, 7, 3, 266, 457, 0.01))
    def test_progressive_always_exact(self, params):
        net, x = build_case(params)
        evaluator = ProgressiveEvaluator(net, archive_of(net), "snap")
        expected = exact_labels(net, evaluator, x)
        result = evaluator.evaluate(x, k=1)
        np.testing.assert_array_equal(result.predictions, expected)

    @settings(max_examples=15, deadline=None)
    @given(model_params, st.integers(1, 3))
    def test_any_start_plane_is_exact(self, params, start):
        net, x = build_case(params)
        evaluator = ProgressiveEvaluator(net, archive_of(net), "snap")
        expected = exact_labels(net, evaluator, x)
        result = evaluator.evaluate(x, start_planes=start)
        np.testing.assert_array_equal(result.predictions, expected)

    @settings(max_examples=15, deadline=None)
    @given(model_params)
    def test_determined_points_do_not_flip(self, params):
        """Points determined at plane k keep the same label at plane 4."""
        net, x = build_case(params)
        evaluator = ProgressiveEvaluator(net, archive_of(net), "snap")
        expected = exact_labels(net, evaluator, x)
        result = evaluator.evaluate(x)
        early = result.resolved_at_plane < 4
        np.testing.assert_array_equal(
            result.predictions[early], expected[early]
        )
