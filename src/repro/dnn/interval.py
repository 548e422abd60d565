"""Interval arithmetic primitives for progressive query evaluation.

PAS stores float matrices in byte-plane segments.  When only the high-order
segments of the weights are retrieved, each weight is known to lie in a
range ``[w_min, w_max]``.  Progressive evaluation (Sec. IV-D of the paper)
propagates these parameter perturbations through the network and applies
Lemma 4 to decide whether the prediction is already determined.

This module provides the :class:`Interval` container and sound interval
versions of the tensor operations used by the layers.  Linear operations
(matmul, convolution) use the midpoint–radius formulation

    |Y - Xc @ Wc|  <=  |Xc| @ Wr + Xr @ |Wc| + Xr @ Wr

which is a sound outer bound and vectorises into four matrix products.
When one operand is exact (radius zero) the bound is exact as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    """An elementwise interval ``[lo, hi]`` over an ndarray."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        if self.lo.shape != self.hi.shape:
            raise ValueError(
                f"interval bound shapes differ: {self.lo.shape} vs {self.hi.shape}"
            )

    @classmethod
    def exact(cls, value: np.ndarray) -> "Interval":
        """Wrap an exact array as a degenerate interval."""
        value = np.asarray(value, dtype=np.float64)
        return cls(value, value.copy())

    @classmethod
    def from_bounds(cls, lo: np.ndarray, hi: np.ndarray) -> "Interval":
        """Construct from explicit bounds, validating the ordering."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if np.any(lo > hi + 1e-12):
            raise ValueError("interval lower bound exceeds upper bound")
        return cls(lo, np.maximum(lo, hi))

    @classmethod
    def tabulate(cls, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """A read-only table of intervals for :meth:`gather`: rows
        ``lo, hi, mid, rad`` of ``from_bounds(lo, hi)`` over 1-d bounds,
        so the ordering is checked once, here."""
        table = cls.from_bounds(lo, hi)
        rows = np.stack([table.lo, table.hi, table.mid, table.rad])
        rows.flags.writeable = False
        return rows

    @classmethod
    def gather(
        cls, rows: np.ndarray, index: np.ndarray, shape: tuple
    ) -> "Interval":
        """The intervals at ``index`` of a :meth:`tabulate` table, shaped
        ``shape``: one gather yields the bounds with their midpoint and
        radius, bit for bit what deriving them would give."""
        lo, hi, mid, rad = (
            row.reshape(shape) for row in rows.take(index, axis=1)
        )
        out = cls(lo, hi)
        out.__dict__.update(mid=mid, rad=rad)  # the cached properties
        return out

    def __iter__(self):
        """Unpack as ``lo, hi``."""
        return iter((self.lo, self.hi))

    @property
    def shape(self) -> tuple:
        return self.lo.shape

    @functools.cached_property
    def mid(self) -> np.ndarray:
        """Interval midpoint (derived once per interval)."""
        return (self.lo + self.hi) / 2.0

    @functools.cached_property
    def rad(self) -> np.ndarray:
        """Interval radius (half-width); always non-negative."""
        return (self.hi - self.lo) / 2.0

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def is_exact(self, atol: float = 0.0) -> bool:
        """True when every element's width is within ``atol``."""
        return bool(np.all(self.hi - self.lo <= atol))

    def contains(self, value: np.ndarray, atol: float = 1e-9) -> bool:
        """True when ``value`` lies inside the interval elementwise."""
        value = np.asarray(value)
        return bool(
            np.all(value >= self.lo - atol) and np.all(value <= self.hi + atol)
        )

    def reshape(self, *shape) -> "Interval":
        return Interval(self.lo.reshape(*shape), self.hi.reshape(*shape))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)


def interval_matmul(x: Interval, w: Interval) -> Interval:
    """Sound interval matrix product ``x @ w``: the midpoint-radius
    bound of the module docstring.

    An exact ``x`` (zero radius, as at the first layer) skips the two
    ``xr`` products: for finite weights they are exactly zero, so the
    bound is bit-identical without them.
    """
    xc, xr = x.mid, x.rad
    wc, wr = w.mid, w.rad
    center = xc @ wc
    radius = np.abs(xc) @ wr
    if xr.any():
        radius += xr @ np.abs(wc)
        radius += xr @ wr
    return Interval(center - radius, center + radius)


def interval_add_bias(x: Interval, b: Interval) -> Interval:
    """Add an interval bias (broadcast over the batch dimension)."""
    return Interval(x.lo + b.lo, x.hi + b.hi)


def apply_monotonic(x: Interval, fn) -> Interval:
    """Apply a monotonically non-decreasing scalar function to an interval."""
    return Interval(fn(x.lo), fn(x.hi))


def interval_maximum(x: Interval, y: Interval) -> Interval:
    """Elementwise max of two intervals."""
    return Interval(np.maximum(x.lo, y.lo), np.maximum(x.hi, y.hi))


def interval_relu(x: Interval) -> Interval:
    return Interval(np.maximum(x.lo, 0.0), np.maximum(x.hi, 0.0))


def interval_sigmoid(x: Interval) -> Interval:
    def sigmoid(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v, dtype=np.float64)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    return apply_monotonic(x, sigmoid)


def interval_tanh(x: Interval) -> Interval:
    return apply_monotonic(x, np.tanh)


def interval_scale(x: Interval, alpha: float) -> Interval:
    """Multiply an interval by an exact scalar."""
    if alpha >= 0:
        return Interval(x.lo * alpha, x.hi * alpha)
    return Interval(x.hi * alpha, x.lo * alpha)


def argmax_determined(output: Interval, k: int = 1) -> tuple[bool, np.ndarray]:
    """Apply Lemma 4 per row: is the top-``k`` label set determined?

    For ``k = 1`` the paper's condition is: there exists an index whose lower
    bound exceeds every other index's upper bound.  For general ``k`` we
    check that the set of top-``k`` midpoints is separated: the ``k``-th
    largest lower bound among the candidate set exceeds the maximum upper
    bound outside it.

    Returns:
        A `(determined, labels)` pair where ``determined`` is a boolean array
        of shape `(batch,)` and ``labels`` holds the argmax of the midpoint
        (valid answers wherever ``determined`` is True; for k > 1 the labels
        are the midpoint argmax — the full candidate set can be recovered
        from the bounds).
    """
    lo, hi = output.lo, output.hi
    if lo.ndim != 2:
        raise ValueError("argmax determination expects a (batch, classes) output")
    n, c = lo.shape
    if not 1 <= k <= c:
        raise ValueError(f"k={k} out of range for {c} classes")
    mid = output.mid
    if k == 1:
        # One label: the midpoint argmax and a masked max, no sort.  A row
        # is determined only when its top midpoint is strictly the largest,
        # so on determined rows this is the label the sort would pick.
        label = mid.argmax(axis=1)
        if c == 1:
            return np.ones(n, dtype=bool), label
        rows = np.arange(n)
        rest = hi.copy()
        rest[rows, label] = -np.inf
        return lo[rows, label] > rest.max(axis=1), label
    order = np.argsort(-mid, axis=1)
    rows = np.arange(n)[:, None]
    top = order[:, :k]
    rest = order[:, k:]
    top_lo_min = lo[rows, top].min(axis=1)
    if rest.shape[1] == 0:
        determined = np.ones(n, dtype=bool)
    else:
        rest_hi_max = hi[rows, rest].max(axis=1)
        determined = top_lo_min > rest_hi_max
    return determined, order[:, 0]
