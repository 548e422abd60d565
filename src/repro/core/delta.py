"""Delta encoding across checkpointed snapshots and model versions.

Fine-tuned models and nearby checkpoints of the same model have similar
parameters, so storing a *difference* from an already-stored matrix often
compresses far better than storing the matrix outright (Sec. IV-B).  Two
delta operators are supported:

* ``xor`` — bitwise XOR of the IEEE 754 bit patterns.  It is the only
  delta the repository writes: it is bit-exact, and it works byte by byte,
  so the leading byte planes of a delta chain's target are the XOR of the
  chain's leading planes;
* ``sub`` — arithmetic subtraction (float32), the better operator in the
  paper's Fig. 6(b).  It stays as the Sec. V measurement operator, and so
  that ``sub`` payloads already stored read back; ``base + (target -
  base)`` can land 1 ulp off ``target``, so nothing writes it any more.

The module also implements the *normalization* transform evaluated in
Table IV (adding a large constant so that radixes and signs align before
encoding) and measurement helpers used by the Fig. 6(b) / Table IV
benchmarks.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.core.float_schemes import FloatScheme
from repro.core.segmentation import segment_planes

DELTA_KINDS = ("sub", "xor")


def compressed_size(data: bytes, level: int = 6) -> int:
    """zlib-compressed size — the paper's storage cost for every artifact."""
    return len(zlib.compress(data, level))


def delta_sub(target: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Arithmetic delta: ``target - base`` as float32."""
    if target.shape != base.shape:
        raise ValueError(
            f"delta operands must share a shape: {target.shape} vs {base.shape}"
        )
    return (target.astype(np.float32) - base.astype(np.float32)).astype(np.float32)


def delta_xor(target: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Bitwise XOR delta of the float32 bit patterns (returned as uint32)."""
    if target.shape != base.shape:
        raise ValueError(
            f"delta operands must share a shape: {target.shape} vs {base.shape}"
        )
    t = np.ascontiguousarray(target, dtype="<f4").view("<u4")
    b = np.ascontiguousarray(base, dtype="<f4").view("<u4")
    return t ^ b


def apply_delta(base: np.ndarray, delta: np.ndarray, kind: str) -> np.ndarray:
    """Recreate a matrix from its base and stored delta."""
    if kind == "sub":
        return (base.astype(np.float32) + delta.astype(np.float32)).astype(
            np.float32
        )
    if kind == "xor":
        b = np.ascontiguousarray(base, dtype="<f4").view("<u4")
        return (b ^ delta).view("<f4").copy()
    raise ValueError(f"unknown delta kind {kind!r}; expected one of {DELTA_KINDS}")


def embed_like(base: np.ndarray, shape: tuple) -> np.ndarray:
    """Crop or zero-pad ``base`` per axis to match ``shape``, keeping its
    dtype (a float matrix, or one byte plane of it).

    This is the paper's footnote-3 device for delta functions between
    matrices with different dimensions (e.g. a classifier layer re-sized
    for a new label space during fine-tuning): the overlapping region
    differences against the base, the remainder against zero.
    """
    base = np.asarray(base)
    if base.ndim != len(shape):
        raise ValueError(
            f"rank mismatch: base is {base.ndim}-d, target shape {shape}"
        )
    out = np.zeros(shape, dtype=base.dtype)
    overlap = tuple(
        slice(0, min(b, t)) for b, t in zip(base.shape, shape)
    )
    out[overlap] = base[overlap]
    return out


def delta_sub_mismatched(target: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Arithmetic delta against a crop/pad-embedded base (any shapes)."""
    return delta_sub(
        np.asarray(target, dtype=np.float32),
        embed_like(base, np.asarray(target).shape),
    )


def normalization_offset(matrix: np.ndarray) -> float:
    """Offset that aligns radixes and signs of all values.

    With ``c = 3 * 2^ceil(log2(max|m|))`` every shifted value lands in
    ``[c - max, c + max] ⊂ [2^(k+1), 2^(k+2))`` — one binade — so all
    values become positive *and* share a binary exponent, making the
    high-order bytes of the shifted matrix nearly constant (Table IV's
    "After Normalization" rows).
    """
    max_abs = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    if max_abs == 0.0:
        return 1.0
    return float(3.0 * 2.0 ** math.ceil(math.log2(max_abs)))


def normalize(matrix: np.ndarray, offset: float) -> np.ndarray:
    """Shift a matrix by ``offset`` (see :func:`normalization_offset`)."""
    return (matrix.astype(np.float32) + np.float32(offset)).astype(np.float32)


def denormalize(matrix: np.ndarray, offset: float) -> np.ndarray:
    """Inverse of :func:`normalize`."""
    return (matrix.astype(np.float32) - np.float32(offset)).astype(np.float32)


def _payload_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


def _storage_cost(
    arr: np.ndarray,
    bytewise: bool,
    level: int,
    scheme: FloatScheme | None = None,
    normalized: bool = False,
) -> int:
    """Compressed byte count of one stored payload.

    The storage pipeline mirrors Table IV's configurations: the payload
    (a matrix or a delta) is optionally *normalized* (shifted so all values
    share a sign and binary exponent), optionally passed through a lossy
    float scheme (still stored in a 32-bit container — "32-bits" in the
    table caption), optionally split into byte planes, then zlib-compressed.
    """
    if arr.dtype == np.uint32:
        # XOR deltas: opaque bit patterns; transforms do not apply.
        payload = arr.view("<f4")
    else:
        payload = arr.astype(np.float32)
        if normalized:
            payload = normalize(payload, normalization_offset(payload))
        if scheme is not None:
            payload = scheme.roundtrip(payload)
    if not bytewise:
        return compressed_size(_payload_bytes(payload), level)
    return sum(
        compressed_size(p, level) for p in segment_planes(payload)
    )


def measure_schemes(
    target: np.ndarray,
    base: np.ndarray,
    bytewise: bool = False,
    scheme: FloatScheme | None = None,
    normalized: bool = False,
    level: int = 6,
) -> dict[str, int]:
    """Compressed sizes for Materialize / Delta-SUB / Delta-XOR.

    This is the measurement behind Fig. 6(b) and Table IV.

    Args:
        target: Matrix being archived.
        base: Candidate delta base (a similar matrix).
        bytewise: Compress byte planes separately (Table IV "bytewise").
        scheme: Optional lossy :class:`FloatScheme` applied to the stored
            payload (Table IV "Fix point" rows).
        normalized: Align signs/radixes of the stored payload before
            encoding (Table IV "After Normalization" rows).
        level: zlib compression level (the paper uses 6).

    Returns:
        ``{"materialize": bytes, "sub": bytes, "xor": bytes}``.
    """
    t = np.asarray(target, dtype=np.float32)
    b = np.asarray(base, dtype=np.float32)
    return {
        "materialize": _storage_cost(t, bytewise, level, scheme, normalized),
        "sub": _storage_cost(
            delta_sub(t, b), bytewise, level, scheme, normalized
        ),
        "xor": _storage_cost(delta_xor(t, b), bytewise, level),
    }
