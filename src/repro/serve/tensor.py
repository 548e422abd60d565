"""The compact tensor form of a predict body's ``inputs``.

``{"shape": [n, ...], "f32": "<base64>"}`` carries an array as the
base64 of its little-endian float32 bytes: a quarter of the bytes of
JSON float text, and no per-element parse on either side.
:class:`~repro.serve.ServeClient` always sends it; the server also
accepts a nested list, so curl and hand-written clients still work.

This module is the only owner of the form: the client encodes with
:func:`encode` (a ``json.dumps`` ``default=`` hook), the server decodes
with :func:`decode`.  Decoding checks input from outside the program,
and every failure is a :class:`ValueError` naming what is wrong.
"""

from __future__ import annotations

import base64
import binascii
import math

import numpy as np

__all__ = ["DTYPE_TAG", "decode", "encode"]

#: The one dtype tag: little-endian IEEE-754 binary32.
DTYPE_TAG = "f32"
_WIRE_DTYPE = np.dtype("<f4")


def encode(array: np.ndarray) -> dict:
    """The tensor form of ``array`` (cast to float32, any layout or byte
    order).  Raises :class:`TypeError` for anything but an ndarray, so
    it serves as a ``json.dumps(..., default=encode)`` hook."""
    if not isinstance(array, np.ndarray):
        raise TypeError(
            f"Object of type {type(array).__name__} is not JSON serializable"
        )
    raw = np.ascontiguousarray(array, dtype=_WIRE_DTYPE).tobytes()
    return {
        "shape": list(array.shape),
        DTYPE_TAG: base64.b64encode(raw).decode("ascii"),
    }


def decode(doc: dict) -> np.ndarray:
    """The float32 array a tensor form carries.

    Raises:
        ValueError: a dtype tag other than ``f32``, a ``shape`` that is
            not a list of non-negative ints, a payload that is not
            strict base64, or a byte count other than
            ``prod(shape) * 4``.
    """
    tags = sorted(key for key in doc if key != "shape")
    if tags != [DTYPE_TAG]:
        raise ValueError(
            f"tensor needs exactly one dtype tag {DTYPE_TAG!r}, got {tags}"
        )
    shape = doc.get("shape")
    if not isinstance(shape, list) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise ValueError(
            f"tensor 'shape' must be a list of non-negative ints, got {shape!r}"
        )
    payload = doc[DTYPE_TAG]
    if not isinstance(payload, str):
        raise ValueError(f"tensor {DTYPE_TAG!r} must be a base64 string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ValueError(f"tensor {DTYPE_TAG!r} is not base64: {exc}")
    expected = math.prod(shape) * _WIRE_DTYPE.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"tensor of shape {shape} needs {expected} bytes, got {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype=_WIRE_DTYPE)
    return flat.astype(np.float32, copy=False).reshape(shape)
