"""Bytewise segmentation tests — the core invariants of PAS partial reads.

Key properties:
* full plane assembly is exact;
* the interval from any prefix contains the true value;
* more planes give (weakly) tighter intervals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.delta import compressed_size
from repro.core.segmentation import (
    NUM_PLANES,
    assemble_planes,
    bounds_from_prefix,
    prefix_estimate,
    segment_planes,
)

float_matrices = hnp.arrays(
    np.float32,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, width=32
    ),
)


class TestRoundtrip:
    @settings(max_examples=100, deadline=None)
    @given(float_matrices)
    def test_segment_assemble_exact(self, m):
        planes = segment_planes(m)
        assert len(planes) == NUM_PLANES
        back = assemble_planes(planes, m.shape)
        np.testing.assert_array_equal(back, m)

    def test_plane_lengths(self):
        m = np.zeros((3, 5), dtype=np.float32)
        for plane in segment_planes(m):
            assert len(plane) == 15

    def test_wrong_plane_count_rejected(self):
        m = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            assemble_planes(segment_planes(m)[:3], m.shape)

    def test_wrong_plane_size_rejected(self):
        with pytest.raises(ValueError):
            assemble_planes([b"\x00"] * 4, (2, 2))


class TestBounds:
    @settings(max_examples=100, deadline=None)
    @given(float_matrices, st.integers(1, NUM_PLANES))
    def test_bounds_contain_value(self, m, k):
        planes = segment_planes(m)
        lo, hi = bounds_from_prefix(planes[:k], m.shape)
        assert np.all(lo <= m) and np.all(m <= hi)

    @settings(max_examples=50, deadline=None)
    @given(float_matrices)
    def test_more_planes_tighter(self, m):
        planes = segment_planes(m)
        widths = []
        for k in range(1, NUM_PLANES + 1):
            lo, hi = bounds_from_prefix(planes[:k], m.shape)
            widths.append(
                (hi.astype(np.float64) - lo.astype(np.float64)).max()
            )
        for prev, nxt in zip(widths, widths[1:]):
            assert nxt <= prev + 1e-12

    def test_full_prefix_is_exact(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4)).astype(np.float32)
        lo, hi = bounds_from_prefix(segment_planes(m), m.shape)
        np.testing.assert_array_equal(lo, m)
        np.testing.assert_array_equal(hi, m)

    def test_two_plane_relative_width(self):
        """Two planes pin sign+exponent+7 mantissa bits: width < 1% of |w|."""
        rng = np.random.default_rng(1)
        m = (rng.standard_normal((64,)) * 0.1 + 0.05).astype(np.float32)
        m = m[np.abs(m) > 1e-3]
        planes = segment_planes(m)
        lo, hi = bounds_from_prefix(planes[:2], m.shape)
        rel = (hi - lo) / np.abs(m)
        assert rel.max() < 0.01

    def test_invalid_plane_counts(self):
        m = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            bounds_from_prefix([], m.shape)

    def test_negative_values_ordered_correctly(self):
        m = np.array([-1.5, -0.001, -123.0], dtype=np.float32)
        planes = segment_planes(m)
        lo, hi = bounds_from_prefix(planes[:1], m.shape)
        assert np.all(lo <= m) and np.all(m <= hi)
        assert np.all(hi <= 0.0)  # sign bit is in plane 0


class TestPrefixEstimate:
    def test_estimate_within_bounds(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 8)).astype(np.float32)
        planes = segment_planes(m)
        est = prefix_estimate(planes[:2], m.shape)
        lo, hi = bounds_from_prefix(planes[:2], m.shape)
        assert np.all(est >= lo - 1e-6) and np.all(est <= hi + 1e-6)

    def test_estimate_close_for_two_planes(self):
        rng = np.random.default_rng(3)
        m = (rng.standard_normal((32,)) * 0.1).astype(np.float32)
        est = prefix_estimate(segment_planes(m)[:2], m.shape)
        np.testing.assert_allclose(est, m, rtol=0.01, atol=1e-5)


class TestEntropyGradient:
    def test_high_planes_compress_better(self):
        """The design premise: plane 0 has far lower entropy than plane 3."""
        rng = np.random.default_rng(4)
        m = (rng.standard_normal((256, 256)) * 0.05).astype(np.float32)
        sizes = [compressed_size(plane) for plane in segment_planes(m)]
        assert sizes[0] < sizes[3] * 0.5
