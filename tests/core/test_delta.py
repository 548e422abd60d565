"""Delta encoding tests: invertibility, compression behaviour, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.delta import (
    apply_delta,
    compressed_size,
    delta_sub,
    delta_sub_mismatched,
    delta_xor,
    denormalize,
    embed_like,
    measure_schemes,
    normalization_offset,
    normalize,
)
from repro.core.float_schemes import FixedPointScheme

pair_matrices = st.tuples(
    hnp.arrays(
        np.float32, (6, 6),
        elements=st.floats(-100, 100, allow_nan=False, width=32),
    ),
    hnp.arrays(
        np.float32, (6, 6),
        elements=st.floats(-100, 100, allow_nan=False, width=32),
    ),
)


class TestInvertibility:
    @settings(max_examples=100, deadline=None)
    @given(pair_matrices)
    def test_xor_roundtrip_exact(self, pair):
        target, base = pair
        delta = delta_xor(target, base)
        np.testing.assert_array_equal(apply_delta(base, delta, "xor"), target)

    @settings(max_examples=100, deadline=None)
    @given(pair_matrices)
    def test_sub_roundtrip_near_exact(self, pair):
        target, base = pair
        delta = delta_sub(target, base)
        back = apply_delta(base, delta, "sub")
        np.testing.assert_allclose(back, target, rtol=1e-5, atol=1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delta_sub(np.zeros((2, 2), np.float32), np.zeros((3, 3), np.float32))
        with pytest.raises(ValueError):
            delta_xor(np.zeros((2, 2), np.float32), np.zeros((3, 3), np.float32))

    def test_unknown_kind_rejected(self):
        m = np.zeros((2, 2), np.float32)
        with pytest.raises(ValueError):
            apply_delta(m, m, "mul")


class TestCompressionBehaviour:
    def test_identical_matrices_delta_compresses_hugely(self, sample_matrices):
        base = sample_matrices["base"]
        sizes = measure_schemes(base, base)
        assert sizes["sub"] < sizes["materialize"] / 20
        assert sizes["xor"] < sizes["materialize"] / 20

    def test_finetuned_delta_beats_materialize(self, sample_matrices):
        sizes = measure_schemes(
            sample_matrices["finetuned"], sample_matrices["base"]
        )
        assert sizes["sub"] < sizes["materialize"]

    def test_unrelated_delta_not_better(self, sample_matrices):
        """The Fig. 6(b) 'Similar' finding: deltas of independently trained
        matrices do not beat materialization (within noise)."""
        sizes = measure_schemes(
            sample_matrices["unrelated"], sample_matrices["base"]
        )
        assert sizes["sub"] >= sizes["materialize"] * 0.95

    def test_bytewise_helps_smooth_matrices(self, sample_matrices):
        plain = measure_schemes(
            sample_matrices["finetuned"], sample_matrices["base"],
            bytewise=False,
        )
        bytewise = measure_schemes(
            sample_matrices["finetuned"], sample_matrices["base"],
            bytewise=True,
        )
        # Byte planes separate the low-entropy high bytes: at least the
        # materialized representation must not get dramatically worse.
        assert bytewise["materialize"] < plain["materialize"] * 1.2

    def test_lossy_scheme_shrinks_everything(self, sample_matrices):
        lossless = measure_schemes(
            sample_matrices["finetuned"], sample_matrices["base"]
        )
        lossy = measure_schemes(
            sample_matrices["finetuned"], sample_matrices["base"],
            scheme=FixedPointScheme(8),
        )
        assert lossy["materialize"] < lossless["materialize"]
        assert lossy["sub"] < lossless["sub"]


class TestMismatchedShapes:
    """Footnote-3 deltas between matrices with different dimensions."""

    def test_embed_crops(self):
        base = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = embed_like(base, (2, 2))
        np.testing.assert_array_equal(out, [[0, 1], [4, 5]])

    def test_embed_pads_with_zeros(self):
        base = np.ones((2, 2), dtype=np.float32)
        out = embed_like(base, (3, 4))
        assert out.shape == (3, 4)
        assert out.sum() == 4.0
        assert out[2].sum() == 0.0

    def test_embed_mixed_crop_and_pad(self):
        base = np.ones((2, 5), dtype=np.float32)
        out = embed_like(base, (4, 3))
        assert out.shape == (4, 3)
        assert out.sum() == 6.0  # 2x3 overlap

    def test_embed_keeps_the_dtype(self):
        plane = np.full((2, 2), 0xAB, dtype=np.uint8)
        out = embed_like(plane, (3, 1))
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [[0xAB], [0xAB], [0]])

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            embed_like(np.zeros((2, 2), np.float32), (2, 2, 2))

    @pytest.mark.parametrize("target_shape", [(3, 5), (5, 3), (6, 6), (2, 2)])
    def test_roundtrip_any_shapes(self, target_shape):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((4, 4)).astype(np.float32)
        target = rng.standard_normal(target_shape).astype(np.float32)
        embedded = embed_like(base, target_shape)
        delta = delta_xor(target, embedded)
        assert delta.shape == target_shape
        np.testing.assert_array_equal(apply_delta(embedded, delta, "xor"), target)

    def test_grown_classifier_delta_compresses(self):
        """A classifier grown for extra labels deltas well against its base."""
        rng = np.random.default_rng(1)
        base = (rng.standard_normal((64, 10)) * 0.1).astype(np.float32)
        grown = np.zeros((64, 12), dtype=np.float32)
        grown[:, :10] = base  # reused columns
        grown[:, 10:] = (rng.standard_normal((64, 2)) * 0.1).astype(np.float32)
        delta = delta_sub_mismatched(grown, base)
        assert compressed_size(delta.tobytes()) < compressed_size(
            grown.tobytes()
        ) / 2


class TestNormalization:
    def test_offset_dominates_max(self):
        m = np.array([0.3, -0.7], dtype=np.float32)
        offset = normalization_offset(m)
        assert offset == 3.0  # 3 * 2^ceil(log2(0.7)) = 3 * 2^0
        assert offset > 2 * np.abs(m).max()

    def test_normalize_roundtrip(self):
        rng = np.random.default_rng(0)
        m = (rng.standard_normal((16, 16)) * 0.1).astype(np.float32)
        offset = normalization_offset(m)
        back = denormalize(normalize(m, offset), offset)
        np.testing.assert_allclose(back, m, atol=1e-6)

    def test_normalized_values_share_exponent(self):
        rng = np.random.default_rng(1)
        m = (rng.standard_normal((64,)) * 0.1).astype(np.float32)
        shifted = normalize(m, normalization_offset(m))
        exponents = (shifted.view("<u4") >> 23) & 0xFF
        assert len(np.unique(exponents)) == 1

    def test_zero_matrix_offset(self):
        assert normalization_offset(np.zeros(3, np.float32)) == 1.0


class TestMeasureSchemes:
    def test_returns_all_three(self, sample_matrices):
        sizes = measure_schemes(
            sample_matrices["finetuned"], sample_matrices["base"]
        )
        assert set(sizes) == {"materialize", "sub", "xor"}
        assert all(v > 0 for v in sizes.values())

    def test_normalized_variant_runs(self, sample_matrices):
        sizes = measure_schemes(
            sample_matrices["finetuned"], sample_matrices["base"],
            normalized=True, bytewise=True,
        )
        assert sizes["sub"] > 0


class TestSnapshotDeltaCost:
    def test_compressed_size_matches_zlib(self):
        data = b"hello" * 100
        import zlib

        assert compressed_size(data) == len(zlib.compress(data, 6))
