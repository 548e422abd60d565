"""Interval arithmetic soundness tests (property-based where it matters).

The invariant behind progressive evaluation: for any concrete values
inside the operand intervals, the operation's concrete result lies inside
the returned interval.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.segmentation import bounds_from_prefix, segment_planes
from repro.dnn import layers as layers_module
from repro.dnn.interval import (
    Interval,
    argmax_determined,
    interval_matmul,
    interval_relu,
    interval_sigmoid,
    interval_tanh,
)
from repro.dnn.layers import Conv2D, Dense, MaxPool2D, Softmax
from repro.dnn.zoo import MODEL_FACTORIES, build_model

finite = st.floats(-10, 10, allow_nan=False, width=32)


def interval_pair(shape):
    """Strategy: an interval and a concrete sample inside it."""
    return st.tuples(
        hnp.arrays(np.float64, shape, elements=finite),
        hnp.arrays(np.float64, shape, elements=st.floats(0, 2, width=32)),
        hnp.arrays(np.float64, shape, elements=st.floats(0, 1, width=32)),
    ).map(
        lambda t: (
            Interval(t[0], t[0] + t[1]),
            t[0] + t[1] * t[2],
        )
    )


class TestIntervalBasics:
    def test_exact_has_zero_width(self):
        iv = Interval.exact(np.array([1.0, -2.0]))
        assert iv.is_exact()
        np.testing.assert_array_equal(iv.mid, [1.0, -2.0])

    def test_from_bounds_validates(self):
        with pytest.raises(ValueError):
            Interval.from_bounds(np.array([1.0]), np.array([0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Interval(np.zeros(2), np.zeros(3))

    def test_add_and_negate(self):
        a = Interval(np.array([0.0]), np.array([1.0]))
        b = Interval(np.array([2.0]), np.array([3.0]))
        s = a + b
        assert s.lo[0] == 2.0 and s.hi[0] == 4.0
        n = -a
        assert n.lo[0] == -1.0 and n.hi[0] == 0.0

    def test_contains(self):
        iv = Interval(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        assert iv.contains(np.array([0.5, 0.0]))
        assert not iv.contains(np.array([2.0, 0.0]))


class TestSoundness:
    @settings(max_examples=50, deadline=None)
    @given(interval_pair((3, 4)), interval_pair((4, 2)))
    def test_matmul_sound(self, xp, wp):
        x_iv, x = xp
        w_iv, w = wp
        out = interval_matmul(x_iv, w_iv)
        assert out.contains(x @ w, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(interval_pair((2, 5)))
    def test_relu_sound(self, pair):
        iv, x = pair
        assert interval_relu(iv).contains(np.maximum(x, 0), atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(interval_pair((2, 5)))
    def test_sigmoid_sound(self, pair):
        iv, x = pair
        concrete = 1.0 / (1.0 + np.exp(-x))
        assert interval_sigmoid(iv).contains(concrete, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(interval_pair((2, 5)))
    def test_tanh_sound(self, pair):
        iv, x = pair
        assert interval_tanh(iv).contains(np.tanh(x), atol=1e-9)

    def test_matmul_exact_when_operands_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        out = interval_matmul(Interval.exact(x), Interval.exact(w))
        np.testing.assert_allclose(out.lo, x @ w, atol=1e-12)
        np.testing.assert_allclose(out.hi, x @ w, atol=1e-12)


class TestLayerIntervalSoundness:
    """Every layer's interval forward must contain its concrete forward."""

    @pytest.mark.parametrize("delta", [0.0, 1e-4, 1e-2])
    def test_dense(self, delta):
        rng = np.random.default_rng(1)
        layer = Dense("d", units=3)
        layer.build((5,), rng)
        x = rng.standard_normal((4, 5))
        exact = layer.forward(x)
        bounds = {
            k: Interval(v - delta, v + delta) for k, v in layer.params.items()
        }
        out = layer.forward_interval(Interval.exact(x), bounds)
        assert out.contains(exact, atol=1e-5)

    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    def test_conv(self, delta):
        rng = np.random.default_rng(2)
        layer = Conv2D("c", filters=2, kernel=3, pad=1)
        layer.build((2, 5, 5), rng)
        x = rng.standard_normal((2, 2, 5, 5))
        exact = layer.forward(x)
        bounds = {
            k: Interval(v - delta, v + delta) for k, v in layer.params.items()
        }
        out = layer.forward_interval(Interval.exact(x), bounds)
        assert out.contains(exact, atol=1e-5)

    def test_maxpool_with_input_interval(self):
        rng = np.random.default_rng(3)
        layer = MaxPool2D("p", kernel=2)
        layer.build((2, 4, 4), rng)
        x = rng.standard_normal((2, 2, 4, 4))
        exact = layer.forward(x)
        iv = Interval(x - 0.1, x + 0.1)
        out = layer.forward_interval(iv)
        assert out.contains(exact, atol=1e-9)

    def test_softmax_bounds_contain_and_normalize(self):
        rng = np.random.default_rng(4)
        layer = Softmax("s")
        x = rng.standard_normal((3, 5))
        exact = layer.forward(x)
        out = layer.forward_interval(Interval(x - 0.05, x + 0.05))
        assert out.contains(exact, atol=1e-9)
        assert np.all(out.lo >= 0.0) and np.all(out.hi <= 1.0 + 1e-9)


class TestArgmaxDetermined:
    def test_clear_winner_is_determined(self):
        out = Interval(
            np.array([[5.0, 0.0, 0.0]]), np.array([[6.0, 1.0, 1.0]])
        )
        determined, labels = argmax_determined(out)
        assert determined[0] and labels[0] == 0

    def test_overlap_is_undetermined(self):
        out = Interval(
            np.array([[0.0, 0.5, 0.0]]), np.array([[1.0, 1.5, 1.0]])
        )
        determined, _ = argmax_determined(out)
        assert not determined[0]

    def test_top_k_determination(self):
        lo = np.array([[10.0, 9.0, 0.0, 0.0]])
        hi = np.array([[11.0, 9.5, 1.0, 1.0]])
        determined_k1, _ = argmax_determined(Interval(lo, hi), k=1)
        determined_k2, _ = argmax_determined(Interval(lo, hi), k=2)
        assert determined_k1[0]  # 10 > 9.5 separates the top-1
        assert determined_k2[0]  # {0,1} separated from {2,3}

    def test_k_equal_classes_always_determined(self):
        out = Interval(np.zeros((2, 3)), np.ones((2, 3)))
        determined, _ = argmax_determined(out, k=3)
        assert determined.all()

    def test_invalid_k(self):
        out = Interval(np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            argmax_determined(out, k=4)

    def test_requires_2d(self):
        out = Interval(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            argmax_determined(out)

    def test_soundness_against_sampling(self):
        """If determined, every concrete realization agrees on the argmax."""
        rng = np.random.default_rng(5)
        lo = rng.standard_normal((20, 6))
        hi = lo + rng.uniform(0, 0.5, size=lo.shape)
        out = Interval(lo, hi)
        determined, labels = argmax_determined(out)
        for _ in range(30):
            sample = lo + (hi - lo) * rng.random(lo.shape)
            concrete = np.argmax(sample, axis=1)
            assert np.all(concrete[determined] == labels[determined])


def _full_rump_matmul(x: Interval, w: Interval) -> Interval:
    """The midpoint-radius product with all three radius terms, always."""
    xc, xr = x.mid, x.rad
    wc, wr = w.mid, w.rad
    center = xc @ wc
    radius = np.abs(xc) @ wr + xr @ np.abs(wc) + xr @ wr
    return Interval(center - radius, center + radius)


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
@pytest.mark.parametrize("planes", [1, 2])
def test_zero_radius_skip_keeps_zoo_logits_bit_identical(
    name, planes, monkeypatch
):
    """An exact input skips the ``xr`` products; every zoo model's logit
    interval is bit for bit what the three-term product gives."""
    net = build_model(name, seed=0)
    sink = net.output_name
    logits = net.predecessor(sink) if net[sink].kind == "SOFTMAX" else sink
    bounds = {
        layer: {
            key: Interval.from_bounds(
                *bounds_from_prefix(segment_planes(value)[:planes], value.shape)
            )
            for key, value in params.items()
        }
        for layer, params in net.get_weights().items()
    }
    x = np.random.default_rng(3).standard_normal(
        (4,) + net.input_shape
    ).astype(np.float32)
    with np.errstate(all="ignore"):
        fast = net.forward_interval(x, bounds, upto=logits)
        monkeypatch.setattr(layers_module, "interval_matmul", _full_rump_matmul)
        full = net.forward_interval(x, bounds, upto=logits)
    for got, want in ((fast.lo, full.lo), (fast.hi, full.hi)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _argsort_determined(lo, hi):
    """The sort-based top-1 test: the highest-midpoint label's lower bound
    above every other label's upper bound."""
    order = np.argsort(-(lo + hi) / 2.0, axis=1)
    rows = np.arange(len(lo))[:, None]
    determined = lo[rows, order[:, :1]].min(axis=1) > (
        hi[rows, order[:, 1:]].max(axis=1))
    return determined, order[:, 0]


@pytest.mark.parametrize("classes", [10, 40])
@pytest.mark.parametrize("seed", range(5))
def test_top1_matches_the_sorted_formulation_with_ties(classes, seed):
    """``k=1`` takes an argmax and a masked max: the same ``determined``
    flags as sorting, and the same label wherever a row is determined
    (a row whose top midpoint ties is never determined)."""
    rng = np.random.default_rng(seed)
    # Coarse grids make equal bounds and equal midpoints common.
    lo = rng.integers(0, 6, (400, classes)).astype(np.float64)
    hi = lo + rng.integers(0, 3, (400, classes))
    lo[::7, 1] = lo[::7, 0] = lo[::7].max(axis=1) + 4  # tied clear winners
    hi[::7, :2] = lo[::7, :2]
    lo[::5] = lo[::5, :1] * 2 + np.arange(classes)  # separated rows
    hi[::5] = lo[::5] + 0.25
    determined, labels = argmax_determined(Interval(lo, hi))
    expected, sorted_labels = _argsort_determined(lo, hi)
    assert 0 < determined.sum() < len(lo)
    np.testing.assert_array_equal(determined, expected)
    np.testing.assert_array_equal(labels[determined], sorted_labels[determined])
    mid = (lo + hi) / 2.0
    np.testing.assert_array_equal(mid[np.arange(len(lo)), labels], mid.max(axis=1))


def test_top1_of_one_class_is_determined():
    determined, labels = argmax_determined(
        Interval(np.full((3, 1), -np.inf), np.zeros((3, 1))))
    assert determined.all() and (labels == 0).all()
