"""Network DAG tests: construction, evaluation, mutation, serialization."""

import numpy as np
import pytest

from repro.dnn.layers import (
    Add,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.dnn.network import INPUT, GraphError, Network, chain


def small_net(name="net"):
    return chain(
        (1, 8, 8),
        [
            Conv2D("conv1", filters=2, kernel=3),
            ReLU("relu1"),
            MaxPool2D("pool1", kernel=2),
            Flatten("flat"),
            Dense("fc1", units=8),
            ReLU("relu2"),
            Dense("fc2", units=4),
            Softmax("prob"),
        ],
        name=name,
    )


class TestConstruction:
    def test_chain_topology(self):
        net = small_net()
        assert net.node_names() == [
            "conv1", "relu1", "pool1", "flat", "fc1", "relu2", "fc2", "prob",
        ]
        assert net.predecessor("conv1") == INPUT
        assert net.output_name == "prob"

    def test_duplicate_name_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="duplicate"):
            net.add(ReLU("relu1"))

    def test_unknown_input_rejected(self):
        net = Network((1, 4, 4))
        with pytest.raises(KeyError):
            net.add(ReLU("r"), input_name="ghost")

    def test_build_infers_shapes(self):
        net = small_net().build(0)
        assert net["conv1"].output_shape == (2, 6, 6)
        assert net["pool1"].output_shape == (2, 3, 3)
        assert net["flat"].output_shape == (18,)
        assert net["fc2"].output_shape == (4,)

    def test_forward_requires_build(self):
        net = small_net()
        with pytest.raises(RuntimeError, match="not built"):
            net.forward(np.zeros((1, 1, 8, 8)))

    def test_forward_validates_input_shape(self):
        net = small_net().build(0)
        with pytest.raises(ValueError, match="input shape"):
            net.forward(np.zeros((2, 1, 12, 12)))

    def test_param_count(self):
        net = small_net().build(0)
        expected = (2 * 1 * 9 + 2) + (18 * 8 + 8) + (8 * 4 + 4)
        assert net.param_count() == expected


class TestEvaluation:
    def test_forward_shape_and_softmax(self):
        net = small_net().build(0)
        out = net.forward(np.random.default_rng(0).standard_normal((5, 1, 8, 8)))
        assert out.shape == (5, 4)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), rtol=1e-5)

    def test_forward_upto(self):
        net = small_net().build(0)
        x = np.random.default_rng(0).standard_normal((2, 1, 8, 8))
        logits = net.forward(x, upto="fc2")
        assert logits.shape == (2, 4)

    def test_predict_is_argmax(self):
        net = small_net().build(0)
        x = np.random.default_rng(0).standard_normal((3, 1, 8, 8))
        np.testing.assert_array_equal(
            net.predict(x), np.argmax(net.forward(x), axis=1)
        )

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(0).standard_normal((2, 1, 8, 8))
        a = small_net().build(7).forward(x)
        b = small_net().build(7).forward(x)
        np.testing.assert_array_equal(a, b)


class TestWeights:
    def test_get_set_roundtrip(self):
        net = small_net().build(0)
        weights = net.get_weights()
        other = small_net().build(99)
        other.set_weights(weights)
        x = np.random.default_rng(1).standard_normal((2, 1, 8, 8))
        np.testing.assert_array_equal(net.forward(x), other.forward(x))

    def test_partial_set_for_finetuning(self):
        net = small_net().build(0)
        original_fc2 = net["fc2"].params["W"].copy()
        net.set_weights({"conv1": {"W": np.zeros_like(net["conv1"].params["W"])}})
        assert np.all(net["conv1"].params["W"] == 0)
        np.testing.assert_array_equal(net["fc2"].params["W"], original_fc2)

    def test_shape_mismatch_rejected(self):
        net = small_net().build(0)
        with pytest.raises(ValueError, match="shape mismatch"):
            net.set_weights({"fc2": {"W": np.zeros((3, 3), np.float32)}})

    def test_unknown_layer_rejected(self):
        net = small_net().build(0)
        with pytest.raises(KeyError):
            net.set_weights({"ghost": {"W": np.zeros(1)}})


class TestMutations:
    def test_insert_after_splits_edge(self):
        net = small_net()
        net.insert_after("relu1", Dropout("drop", rate=0.2))
        assert net.predecessor("drop") == "relu1"
        assert net.predecessor("pool1") == "drop"

    def test_insert_preserves_weights_elsewhere(self):
        net = small_net().build(0)
        conv_w = net["conv1"].params["W"].copy()
        net.insert_after("relu1", Dropout("drop", rate=0.2))
        net.build(123)
        np.testing.assert_array_equal(net["conv1"].params["W"], conv_w)

    def test_delete_reconnects(self):
        net = small_net()
        net.delete_node("relu1")
        assert net.predecessor("pool1") == "conv1"
        assert "relu1" not in net

    def test_delete_unknown_raises(self):
        net = small_net()
        with pytest.raises(KeyError):
            net.delete_node("ghost")

    def test_slice_between(self):
        net = small_net().build(0)
        sub = net.slice_between("conv1", "fc1")
        assert sub.node_names() == ["conv1", "relu1", "pool1", "flat", "fc1"]
        assert sub.output_name == "fc1"

    def test_slice_keeps_weights(self):
        net = small_net().build(0)
        sub = net.slice_between("conv1", "fc1")
        assert sub.is_built
        np.testing.assert_array_equal(
            sub["conv1"].params["W"], net["conv1"].params["W"]
        )
        x = np.random.default_rng(0).standard_normal((2, 1, 8, 8))
        np.testing.assert_allclose(
            sub.forward(x), net.forward(x, upto="fc1")
        )

    def test_slice_no_path_raises(self):
        net = small_net()
        with pytest.raises(ValueError, match="no path"):
            net.slice_between("fc2", "conv1")

    def test_clone_is_independent(self):
        net = small_net().build(0)
        cloned = net.clone(name="copy")
        cloned["conv1"].params["W"][:] = 0
        assert not np.all(net["conv1"].params["W"] == 0)


class TestSerialization:
    def test_spec_roundtrip_structure(self):
        net = small_net()
        rebuilt = Network.from_spec(net.spec())
        assert rebuilt.node_names() == net.node_names()
        assert rebuilt.input_shape == net.input_shape
        assert rebuilt.edges() == net.edges()

    def test_spec_roundtrip_behaviour(self):
        net = small_net().build(3)
        rebuilt = Network.from_spec(net.spec()).build(0)
        rebuilt.set_weights(net.get_weights())
        x = np.random.default_rng(2).standard_normal((2, 1, 8, 8))
        np.testing.assert_allclose(net.forward(x), rebuilt.forward(x))

    def test_architecture_signature(self):
        assert small_net().architecture_signature() == (
            "LConvLPoolLFullLFull"
        )


class TestDAGShape:
    def test_fan_out_and_sinks(self):
        net = Network((4,))
        net.add(Dense("fc1", units=4))
        net.add(ReLU("a"), input_name="fc1")
        net.add(ReLU("b"), input_name="fc1")
        assert sorted(net.sinks()) == ["a", "b"]
        with pytest.raises(ValueError, match="sinks"):
            _ = net.output_name

    def test_topological_order_respects_edges(self):
        net = small_net()
        order = net.topological_order()
        for src, dst in net.edges():
            if src != INPUT:
                assert order.index(src) < order.index(dst)


def _respects_wiring(net, order):
    assert sorted(order) == sorted(net.node_names())
    for src, dst in net.edges():
        if src != INPUT:
            assert order.index(src) < order.index(dst), (src, dst, order)


def _fork():
    """Two dense nodes on the input, joined by an ``Add``."""
    net = Network((4,), name="fork")
    net.add(Dense("a", units=4), INPUT)
    net.add(Dense("b", units=4), INPUT)
    net.add(Add("join"), "a", extra_inputs=["b"])
    return net


def _rewire(how):
    """Make the first node of the stored order consume the second: an
    edge the stale order breaks."""

    def mutate(net):
        first, second = net.topological_order()[:2]
        if how == "_replace_input":
            net._replace_input(first, INPUT, second)
        elif how == "input_name":
            net._nodes[first].input_name = second
        else:
            net._nodes[first].input_names = (second,)

    return mutate


class TestTopologicalOrderIsStored:
    """The order is computed once per wiring; every mutator drops it."""

    @pytest.mark.parametrize("mutate", [
        lambda net: net.add(ReLU("extra"), "a"),
        lambda net: net.insert_after("a", ReLU("extra")),
        lambda net: net.delete_node("b"),
        _rewire("_replace_input"),
        _rewire("input_name"),
        _rewire("input_names"),
    ], ids=["add", "insert_after", "delete_node", "_replace_input",
            "input_name", "input_names"])
    def test_each_mutator_gives_a_fresh_order(self, mutate):
        net = _fork().build(0)
        _respects_wiring(net, net.topological_order())
        mutate(net)
        _respects_wiring(net, net.topological_order())
        x = np.ones((2, 4), dtype=np.float32)
        assert net.build(0).forward(x, upto="join").shape == (2, 4)

    def test_a_caller_cannot_change_the_stored_order(self):
        net = _fork()
        net.topological_order().reverse()
        _respects_wiring(net, net.topological_order())

    def test_cycle_after_a_stored_order_is_refused(self):
        net = _fork().build(0)
        net.topological_order()
        net._nodes["a"].input_names = ("join",)
        with pytest.raises(GraphError, match="cycle"):
            net.topological_order()

    def test_dangling_input_after_a_stored_order_is_refused(self):
        net = _fork().build(0)
        net.topological_order()
        net._nodes["b"].input_name = "ghost"
        with pytest.raises(GraphError, match="'b' consumes missing node 'ghost'"):
            net.topological_order()

    def test_a_clone_keeps_its_own_order(self):
        net = _fork().build(0)
        net.topological_order()
        clone = net.clone()
        clone.delete_node("b")
        assert "b" in net.topological_order()
        _respects_wiring(clone, clone.topological_order())
