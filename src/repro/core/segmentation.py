"""Bytewise segmentation of float matrices.

The key storage idea of PAS (Sec. IV-B): a float32 matrix is stored in four
byte planes.  Plane 0 holds each value's most significant byte (sign + the
high 7 exponent bits), plane 1 the next byte, and so on.  The high-order
planes have low entropy and compress well with zlib; the low-order planes
can be offloaded or skipped entirely, because

* comparison/exploration queries tolerate the resulting small errors, and
* inference queries can be answered *progressively*: knowing a prefix of
  each value's bytes bounds the value to an interval, and Lemma 4 decides
  whether the prediction is already determined (see
  :mod:`repro.core.progressive`).

This module provides the plane split/assemble primitives and the interval
reconstruction from a high-order prefix.
"""

from __future__ import annotations

import numpy as np

#: float32 has four byte planes.
NUM_PLANES = 4

_FLOAT32_MAX = np.float32(np.finfo(np.float32).max)


def segment_planes(matrix: np.ndarray) -> list[bytes]:
    """Split a float32 matrix into ``NUM_PLANES`` byte planes (MSB first)."""
    arr = np.ascontiguousarray(matrix, dtype=">f4")
    raw = arr.view(np.uint8).reshape(-1, NUM_PLANES)
    return [raw[:, i].tobytes() for i in range(NUM_PLANES)]


def assemble_planes(planes: list[bytes], shape: tuple) -> np.ndarray:
    """Reassemble a float32 matrix from all four byte planes."""
    if len(planes) != NUM_PLANES:
        raise ValueError(f"need {NUM_PLANES} planes, got {len(planes)}")
    count = int(np.prod(shape)) if shape else 1
    raw = np.empty((count, NUM_PLANES), dtype=np.uint8)
    for i, plane in enumerate(planes):
        buf = np.frombuffer(plane, dtype=np.uint8)
        if buf.size != count:
            raise ValueError(
                f"plane {i} holds {buf.size} bytes, expected {count}"
            )
        raw[:, i] = buf
    return raw.reshape(-1).view(">f4").astype(np.float32).reshape(shape)


def _patterns_from_prefix(
    planes: list[bytes], shape: tuple, fill: int
) -> np.ndarray:
    """Bit patterns obtained by filling the missing low planes with ``fill``."""
    count = int(np.prod(shape)) if shape else 1
    raw = np.full((count, NUM_PLANES), fill, dtype=np.uint8)
    for i, plane in enumerate(planes):
        buf = np.frombuffer(plane, dtype=np.uint8)
        if buf.size != count:
            raise ValueError(
                f"plane {i} holds {buf.size} bytes, expected {count}"
            )
        raw[:, i] = buf
    return raw.reshape(-1).view(">f4").astype(np.float32)


def bounds_from_prefix(
    planes: list[bytes], shape: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise value bounds given the leading byte planes.

    For each float, the unknown low-order bytes can be anything in
    ``0x00..0xFF``.  The two extreme bit patterns (all-zero fill and
    all-ones fill) bound the value: for non-negative floats a larger
    unsigned pattern is a larger value; for negative floats the ordering
    flips.  Non-finite extremes (possible only when the known exponent bits
    are saturated) are clamped to the float32 range.

    Returns:
        `(lo, hi)` float32 arrays of ``shape``.
    """
    if not 1 <= len(planes) <= NUM_PLANES:
        raise ValueError(f"need 1..{NUM_PLANES} planes, got {len(planes)}")
    if len(planes) == NUM_PLANES:
        exact = assemble_planes(planes, shape)
        return exact, exact.copy()
    zeros_fill = _patterns_from_prefix(planes, shape, 0x00)
    ones_fill = _patterns_from_prefix(planes, shape, 0xFF)
    ones_fill = np.nan_to_num(
        ones_fill, nan=_FLOAT32_MAX, posinf=_FLOAT32_MAX, neginf=-_FLOAT32_MAX
    )
    lo = np.minimum(zeros_fill, ones_fill).reshape(shape)
    hi = np.maximum(zeros_fill, ones_fill).reshape(shape)
    return lo, hi


def prefix_estimate(planes: list[bytes], shape: tuple) -> np.ndarray:
    """Point estimate from a prefix: the midpoint of the value bounds.

    Used by partial-retrieval queries (``dlv desc`` / ``dlv diff`` style)
    that tolerate small errors.
    """
    lo, hi = bounds_from_prefix(planes, shape)
    return ((lo.astype(np.float64) + hi.astype(np.float64)) / 2.0).astype(
        np.float32
    )
