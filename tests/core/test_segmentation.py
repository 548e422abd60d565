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
from repro.core.retrieval import _prefix_interval
from repro.core.segmentation import (
    NUM_PLANES,
    _general_bounds,
    assemble_planes,
    bounds_from_prefix,
    prefix_estimate,
    segment_planes,
)
from repro.dnn.interval import Interval

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_prefix_bounds_its_finite_completions(self, k):
        """All 256 one-plane and 65,536 two-plane prefixes: every finite
        completion — low bytes all ``0x00``, all ``0xFF`` or random —
        lies in the prefix's bounds, negative saturated exponents too."""
        count = 256 ** k
        codes = np.arange(count, dtype=">u2").view(np.uint8).reshape(-1, 2)
        codes = codes[:, 2 - k:]
        prefix = [codes[:, i].tobytes() for i in range(k)]
        bounds = (
            bounds_from_prefix(prefix, (count,)),
            _prefix_interval(prefix, (count,)),
        )
        rng = np.random.default_rng(7)
        fills = [np.full((count, NUM_PLANES - k), b, np.uint8) for b in (0, 255)]
        fills += [
            rng.integers(0, 256, (count, NUM_PLANES - k), dtype=np.uint8)
            for _ in range(4)
        ]
        for fill in fills:
            value = np.concatenate([codes, fill], axis=1).reshape(-1)
            value = value.view(">f4").astype(np.float32)
            finite = np.isfinite(value)
            for lo, hi in bounds:
                assert np.all(lo[finite] <= value[finite])
                assert np.all(value[finite] <= hi[finite])

    def test_negative_values_ordered_correctly(self):
        m = np.array([-1.5, -0.001, -123.0], dtype=np.float32)
        planes = segment_planes(m)
        lo, hi = bounds_from_prefix(planes[:1], m.shape)
        assert np.all(lo <= m) and np.all(m <= hi)
        assert np.all(hi <= 0.0)  # sign bit is in plane 0


_FLOAT32_MAX = np.float32(np.finfo(np.float32).max)


def _filled(planes: list[bytes], count: int, fill: int) -> np.ndarray:
    raw = np.full((count, NUM_PLANES), fill, dtype=np.uint8)
    for i, plane in enumerate(planes):
        raw[:, i] = np.frombuffer(plane, dtype=np.uint8)
    return raw.reshape(-1).view(">f4").astype(np.float32)


def _oracle_bounds(planes: list[bytes], shape: tuple):
    """The general rule as first written, kept as the oracle: fill the
    missing low bytes with 0x00 and with 0xFF, clamp a NaN one-fill to
    the float32 limit of its sign, and take the elementwise min and max
    (which keep a NaN zero-fill)."""
    count = int(np.prod(shape)) if shape else 1
    zeros = _filled(planes, count, 0x00)
    ones = _filled(planes, count, 0xFF)
    ones = np.where(
        np.isnan(ones),
        np.where(np.signbit(ones), -_FLOAT32_MAX, _FLOAT32_MAX),
        ones,
    )
    lo = np.minimum(zeros, ones).reshape(shape)
    hi = np.maximum(zeros, ones).reshape(shape)
    return lo, hi


def _every_two_byte_prefix() -> np.ndarray:
    """A (256, 256) float32 matrix holding every 2-byte prefix once, in
    shuffled order, with random low-order bytes."""
    rng = np.random.default_rng(11)
    raw = np.empty((65536, NUM_PLANES), dtype=np.uint8)
    prefixes = rng.permutation(65536).astype(">u2").view(np.uint8)
    raw[:, :2] = prefixes.reshape(-1, 2)
    raw[:, 2:] = rng.integers(0, 256, (65536, 2), dtype=np.uint8)
    return raw.reshape(-1).view(">f4").astype(np.float32).reshape(256, 256)


class TestPrefixTables:
    """One and two planes look bounds up in a table built by the general
    rule; the values must be the general rule's, bit for bit."""

    #: Named corners of the float32 bit space, as (plane 0, plane 1):
    #: +0 / -0, subnormals, the largest finite exponent, and saturated
    #: exponents whose fills are infinities or NaN patterns.
    CORNERS = (
        (0x00, 0x00), (0x80, 0x00), (0x00, 0x01), (0x80, 0x7F),
        (0x7F, 0x7F), (0xFF, 0x7F), (0x7F, 0x80), (0xFF, 0x80),
        (0x7F, 0xC0), (0xFF, 0xFF),
    )

    @staticmethod
    def _assert_general(m: np.ndarray, k: int) -> None:
        """``bounds_from_prefix`` and the interval an archive reads are
        the general rule's, and its midpoint and radius are what
        :class:`Interval` derives from them."""
        planes = segment_planes(m)[:k]
        with np.errstate(invalid="ignore"):
            want_lo, want_hi = _oracle_bounds(planes, m.shape)
            want = Interval.from_bounds(
                want_lo.astype(np.float64), want_hi.astype(np.float64)
            )
            lo, hi = bounds_from_prefix(planes, m.shape)
            got = _prefix_interval(planes, m.shape)
        assert lo.dtype == hi.dtype == np.float32 and lo.shape == m.shape
        assert np.array_equal(lo.view(np.uint32), want_lo.view(np.uint32))
        assert np.array_equal(hi.view(np.uint32), want_hi.view(np.uint32))
        assert got.shape == m.shape
        for name in ("lo", "hi", "mid", "rad"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == np.float64
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), name

    @pytest.mark.parametrize("k", [1, 2])
    def test_table_equals_general_rule_for_every_prefix(self, k):
        self._assert_general(_every_two_byte_prefix(), k)

    def test_every_three_byte_prefix_matches_the_oracle(self):
        """All 2^24 three-plane prefixes, in slices: the word-built
        bounds and the interval an escalated pass reads are the
        oracle's bit for bit — saturated exponents, whose fills are
        infinities or NaN patterns, included."""
        step = 1 << 18
        for start in range(0, 1 << 24, step):
            codes = np.arange(start, start + step, dtype=">u4")
            codes = codes.view(np.uint8).reshape(-1, NUM_PLANES)
            planes = [codes[:, i].tobytes() for i in range(1, NUM_PLANES)]
            with np.errstate(invalid="ignore"):
                want_lo, want_hi = _oracle_bounds(planes, (step,))
                want = [b.astype(np.float64) for b in (want_lo, want_hi)]
                got = _prefix_interval(planes, (step,))
            lo, hi = _general_bounds(planes, (step,))
            for bound, oracle in ((lo, want_lo), (hi, want_hi)):
                assert np.array_equal(bound.view(np.uint32), oracle.view(np.uint32))
            for bound, oracle in zip((got.lo, got.hi), want):
                assert bound.dtype == np.float64
                assert np.array_equal(bound.view(np.uint64), oracle.view(np.uint64))

    @pytest.mark.parametrize("k", [1, 2])
    def test_corner_prefixes(self, k):
        raw = np.array(
            [[a, b, 0x5A, 0xA5] for a, b in self.CORNERS], dtype=np.uint8
        )
        self._assert_general(raw.reshape(-1).view(">f4").astype(np.float32), k)

    @pytest.mark.parametrize("scale", [1e-40, 1e-3, 1.0, 1e30])
    def test_bounds_contain_random_matrices(self, scale):
        rng = np.random.default_rng(int(np.log10(scale) + 50))
        m = (rng.standard_normal((37, 53)) * scale).astype(np.float32)
        planes = segment_planes(m)
        for k in (1, 2, 3):
            for lo, hi in (
                bounds_from_prefix(planes[:k], m.shape),
                _prefix_interval(planes[:k], m.shape),
            ):
                assert lo.shape == hi.shape == m.shape
                assert np.all(lo <= m) and np.all(m <= hi)

    def test_wrong_plane_size_rejected(self):
        with pytest.raises(ValueError, match="plane 1 holds 3 bytes"):
            bounds_from_prefix([b"\x00" * 4, b"\x00" * 3], (4,))


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
