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

import functools

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


#: The exponent bits of a float32 word.
_EXPONENT = np.uint32(0x7F800000)


def _general_bounds(
    planes: list[bytes], shape: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Float32 bounds from any 1..3-plane prefix, element by element.

    Each weight's prefix is one big-endian word whose missing low bytes
    are zero — the zero-fill pattern; OR-ing the missing bytes' mask in
    gives the one-fill pattern.  The sign decides which of the two is
    the lower bound, so both bounds are integer operations on the word.
    """
    count = int(np.prod(shape)) if shape else 1
    word = np.zeros(count, dtype=np.uint32)
    for i, plane in enumerate(planes):
        buf = np.frombuffer(plane, dtype=np.uint8)
        if buf.size != count:
            raise ValueError(
                f"plane {i} holds {buf.size} bytes, expected {count}"
            )
        word <<= 8
        word |= buf
    fill = 8 * (NUM_PLANES - len(planes))
    word <<= fill
    mask = np.uint32((1 << fill) - 1)
    # The one-fill mask where negative, the zero fill elsewhere: the
    # lower end.  The upper end flips the filled bits, in place of the
    # word itself.
    lo = word >> 31
    lo *= mask
    lo |= word
    hi = np.bitwise_xor(lo, mask, out=word)
    lo, hi = lo.view(np.float32), hi.view(np.float32)
    # A saturated exponent fills to NaN (min and max find it): the
    # finite completions end at the float32 limit on the prefix's own
    # side of zero, and the zero-fill pattern (finite, infinite or NaN)
    # is the other end.
    if count and (np.isnan(lo.min()) or np.isnan(hi.max())):
        zeros = (lo.view(np.uint32) & ~mask).view(np.float32)
        saturated = np.flatnonzero(
            (zeros.view(np.uint32) | mask) & _EXPONENT == _EXPONENT
        )
        zeros = zeros[saturated]
        limit = np.where(np.signbit(zeros), -_FLOAT32_MAX, _FLOAT32_MAX)
        lo[saturated] = np.minimum(zeros, limit)
        hi[saturated] = np.maximum(zeros, limit)
    return lo.reshape(shape), hi.reshape(shape)


@functools.cache
def prefix_table(planes: int) -> np.ndarray:
    """Bounds of every possible ``planes``-byte prefix (1 or 2): a
    read-only float32 array, row 0 the lower and row 1 the upper bounds,
    indexed by :func:`prefix_codes`.  Derived once by the general rule
    itself, so a lookup is bit-identical to deriving the bounds."""
    if planes not in (1, 2):
        raise ValueError(f"prefix tables cover 1 or 2 planes, not {planes}")
    codes = np.arange(256 ** planes, dtype=">u2").view(np.uint8)
    codes = codes.reshape(-1, 2)[:, 2 - planes:]
    prefix = [codes[:, i].tobytes() for i in range(planes)]
    table = np.stack(_general_bounds(prefix, (len(codes),)))
    table.flags.writeable = False
    return table


def prefix_codes(planes: list[bytes], shape: tuple) -> np.ndarray:
    """Each element's 1- or 2-byte prefix read as an unsigned big-endian
    integer: its row in :func:`prefix_table` (flat)."""
    count = int(np.prod(shape)) if shape else 1
    bufs = [np.frombuffer(plane, dtype=np.uint8) for plane in planes]
    for i, buf in enumerate(bufs):
        if buf.size != count:
            raise ValueError(
                f"plane {i} holds {buf.size} bytes, expected {count}"
            )
    codes = bufs[0].astype(np.intp)
    if len(bufs) == 2:
        codes <<= 8
        codes |= bufs[1]
    return codes


def bounds_from_prefix(
    planes: list[bytes], shape: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise value bounds given the leading byte planes.

    For each float, the unknown low-order bytes can be anything in
    ``0x00..0xFF``.  The two extreme bit patterns (all-zero fill and
    all-ones fill) bound the value: for non-negative floats a larger
    unsigned pattern is a larger value; for negative floats the ordering
    flips.  A non-finite extreme (possible only when the known exponent
    bits are saturated) is clamped to the float32 limit of its sign.

    With one or two planes every element's bounds are one lookup in
    :func:`prefix_table`, built once by the same rule.

    Returns:
        `(lo, hi)` float32 arrays of ``shape``.
    """
    if not 1 <= len(planes) <= NUM_PLANES:
        raise ValueError(f"need 1..{NUM_PLANES} planes, got {len(planes)}")
    if len(planes) == NUM_PLANES:
        exact = assemble_planes(planes, shape)
        return exact, exact.copy()
    if len(planes) == 3:
        return _general_bounds(planes, shape)
    table = prefix_table(len(planes))
    lo, hi = table.take(prefix_codes(planes, shape), axis=1)
    return lo.reshape(shape), hi.reshape(shape)


def prefix_estimate(planes: list[bytes], shape: tuple) -> np.ndarray:
    """Point estimate from a prefix: the midpoint of the value bounds.

    Used by partial-retrieval queries (``dlv desc`` / ``dlv diff`` style)
    that tolerate small errors.
    """
    lo, hi = bounds_from_prefix(planes, shape)
    return ((lo.astype(np.float64) + hi.astype(np.float64)) / 2.0).astype(
        np.float32
    )
