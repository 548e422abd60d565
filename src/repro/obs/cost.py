"""Per-request cost accounting and the slow-request log.

The paper's promises are quantitative — progressive queries save bytes,
retrieval latency is bounded — so every *request* (a ``/v1/predict``
call, a DQL statement, a hub pull) deserves its own bill: stored bytes
read per byte plane, chunks fetched, cache hits vs. misses, time spent
queued vs. computing.

:class:`RequestCost` is that bill.  It is installed with
:func:`cost_context` into a contextvar (mirroring
``repro.obs.tracing.current_span``), and the storage layers *charge* it
via :func:`charge` — a no-op when no accumulator is active, so the
instrumentation costs nothing outside request scopes.  Code that crosses
a thread boundary (the serving tier's batch workers) accumulates into a
batch-level cost and :meth:`RequestCost.merge`\\ s it into each
participating request before completion.

Requests whose wall time crosses a threshold land in the bounded
process-global :class:`SlowLog` (``dlv slowlog`` renders it; servers
expose it at ``/v1/slowlog``).
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "RequestCost",
    "SlowLog",
    "charge",
    "cost_context",
    "current_cost",
    "get_slowlog",
    "set_slowlog",
    "DEFAULT_SLOWLOG_MS",
    "DEFAULT_SLOWLOG_CAPACITY",
]

#: Default slow-request threshold in milliseconds (env-overridable).
DEFAULT_SLOWLOG_MS = float(os.environ.get("REPRO_SLOWLOG_MS", "250"))

#: Default slow-log ring capacity (env-overridable).
DEFAULT_SLOWLOG_CAPACITY = int(os.environ.get("REPRO_SLOWLOG_CAPACITY", "128"))

_current_cost: contextvars.ContextVar[Optional["RequestCost"]] = (
    contextvars.ContextVar("repro_obs_current_cost", default=None)
)


class RequestCost:
    """What one request actually cost the storage and serving layers.

    Attributes:
        bytes_read: Uncompressed bytes read out of chunk stores.
        chunks_fetched: Chunk-store ``get`` calls that hit storage.
        planes_fetched: Byte-plane reads (one per ``(payload, plane)``).
        by_plane: ``plane index -> bytes`` breakdown of plane reads —
            the paper's progressive-query byte accounting.
        cache_hits / cache_misses: Plane/retrieval cache outcomes.
        queue_wait_s: Seconds spent waiting in scheduler queues.
        compute_s: Seconds spent in forward/interval passes.
        batches: Coalesced batches this request participated in.
        shared_requests: Sum over those batches of how many requests
            shared each one (cost is charged in full to every sharer, so
            ``shared_requests > batches`` means some bytes were amortized).
    """

    __slots__ = (
        "bytes_read", "chunks_fetched", "planes_fetched", "by_plane",
        "cache_hits", "cache_misses", "queue_wait_s", "compute_s",
        "batches", "shared_requests",
    )

    def __init__(self) -> None:
        self.bytes_read = 0
        self.chunks_fetched = 0
        self.planes_fetched = 0
        self.by_plane: dict[int, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.queue_wait_s = 0.0
        self.compute_s = 0.0
        self.batches = 0
        self.shared_requests = 0

    def add(
        self,
        bytes_read: int = 0,
        chunks_fetched: int = 0,
        planes_fetched: int = 0,
        plane_bytes: Optional[dict[int, int]] = None,
        cache_hits: int = 0,
        cache_misses: int = 0,
        queue_wait_s: float = 0.0,
        compute_s: float = 0.0,
    ) -> None:
        """Charge this accumulator (all amounts are deltas)."""
        self.bytes_read += bytes_read
        self.chunks_fetched += chunks_fetched
        self.planes_fetched += planes_fetched
        if plane_bytes:
            for plane, nbytes in plane_bytes.items():
                self.by_plane[plane] = self.by_plane.get(plane, 0) + nbytes
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses
        self.queue_wait_s += queue_wait_s
        self.compute_s += compute_s

    def absorb(self, other: "RequestCost") -> None:
        """Add another accumulator's charges — one kept by a thread working
        for this request (an accumulator is charged from one thread)."""
        self.add(
            other.bytes_read, other.chunks_fetched, other.planes_fetched,
            other.by_plane, other.cache_hits, other.cache_misses,
            other.queue_wait_s, other.compute_s,
        )

    def merge(self, other: "RequestCost", shared: int = 1) -> None:
        """Fold a batch-level cost into this request's bill.

        ``shared`` is how many requests the batch coalesced; each sharer
        is charged the full batch cost (what the batch *did* on its
        behalf), with the sharing recorded so amortization is visible.
        """
        self.absorb(other)
        self.batches += 1
        self.shared_requests += max(1, shared)

    def to_dict(self) -> dict:
        return {
            "bytes_read": self.bytes_read,
            "chunks_fetched": self.chunks_fetched,
            "planes_fetched": self.planes_fetched,
            "bytes_by_plane": {str(k): v for k, v in sorted(self.by_plane.items())},
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "queue_wait_ms": self.queue_wait_s * 1000.0,
            "compute_ms": self.compute_s * 1000.0,
            "batches": self.batches,
            "shared_requests": self.shared_requests,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestCost(bytes={self.bytes_read}, planes={self.planes_fetched},"
            f" hits={self.cache_hits}, misses={self.cache_misses})"
        )


def current_cost() -> Optional[RequestCost]:
    """The calling context's active accumulator (``None`` outside one)."""
    return _current_cost.get()


@contextmanager
def cost_context(cost: Optional[RequestCost] = None) -> Iterator[RequestCost]:
    """Install ``cost`` (or a fresh accumulator) for the enclosed block."""
    active = cost if cost is not None else RequestCost()
    token = _current_cost.set(active)
    try:
        yield active
    finally:
        _current_cost.reset(token)


def charge(**amounts) -> None:
    """Charge the active accumulator; silently a no-op outside a context.

    Keyword arguments are those of :meth:`RequestCost.add`.
    """
    cost = _current_cost.get()
    if cost is not None:
        cost.add(**amounts)


class SlowLog:
    """Bounded ring of requests that crossed the slow threshold.

    Args:
        capacity: Entries kept (oldest evicted first).
        threshold_ms: Default wall-time threshold; :meth:`record` accepts
            a per-call override (servers pass their configured one).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SLOWLOG_CAPACITY,
        threshold_ms: float = DEFAULT_SLOWLOG_MS,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.threshold_ms = threshold_ms
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._recorded = 0

    def record(
        self,
        name: str,
        ms: float,
        trace_id: str = "",
        cost: Optional[dict] = None,
        attrs: Optional[dict] = None,
        threshold_ms: Optional[float] = None,
    ) -> bool:
        """Log one request iff it is slow; returns whether it was kept."""
        limit = self.threshold_ms if threshold_ms is None else threshold_ms
        if ms < limit:
            return False
        entry = {
            "name": name,
            "ms": ms,
            "trace_id": trace_id,
            "cost": dict(cost) if cost else None,
            "attrs": dict(attrs) if attrs else {},
            "at": time.time(),
        }
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
        return True

    @property
    def total_recorded(self) -> int:
        """Slow requests ever logged, including evicted ones."""
        return self._recorded

    def entries(self) -> list[dict]:
        """Buffered entries, oldest first."""
        with self._lock:
            return [dict(e) for e in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._recorded = 0


_default_slowlog = SlowLog()


def get_slowlog() -> SlowLog:
    """The process-global slow-request log."""
    return _default_slowlog


def set_slowlog(slowlog: SlowLog) -> SlowLog:
    """Swap the process-global slow log; returns the previous one."""
    global _default_slowlog
    previous = _default_slowlog
    _default_slowlog = slowlog
    return previous
