"""The one byte-bounded LRU of the read path.

PAS is *read-optimized*: the same snapshots — above all the latest
snapshot of each version (Sec. IV-A's unbalanced access frequencies) —
are retrieved over and over by testing, comparison, exploration and
serving queries.  The expensive artifacts (per-plane interval bounds,
full-precision weight sets, dedup pages) depend only on what was
archived, never on the request, so one copy can serve every
query — the dedup-aware serving result of Zhou et al. ("Serving Deep
Learning Models with Deduplication from Relational Databases").

:class:`PlaneCache` holds such artifacts under a byte budget with LRU
eviction.  Loads are *single-flight*: when many callers miss the same
key at once, exactly one thread performs the PAS retrieval while the
rest wait for its result — a thundering herd of cold requests costs one
chunk-store read, not N.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.obs.cost import charge
from repro.obs.metrics import MetricsRegistry, get_registry


@dataclass
class _Entry:
    value: object
    nbytes: int


class PlaneCache:
    """Thread-safe, byte-bounded LRU with single-flight loading.

    Keys are arbitrary hashables (the serving layer uses
    ``("bounds", snapshot_id, planes)``, ``("weights", snapshot_id)`` and
    ``("page", sha)``).  Loaders return ``(value, nbytes)``; the reported
    byte size is what the budget charges, since cached values are opaque
    to the cache.

    Args:
        max_bytes: Cache capacity; least-recently-used entries are
            evicted once the total charged bytes exceed it.  A value
            larger than the whole budget is returned uncached.
        registry: Metrics registry for the counters; defaults to the
            process-global one so ``/metrics`` and ``dlv stats`` see the
            hit rate.  The cache emits
            ``serve.cache.{hits,misses,evictions,bytes,entries}``.
    """

    def __init__(
        self,
        max_bytes: int = 256 << 20,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.registry = registry if registry is not None else get_registry()
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._bytes = 0
        self._loading: set[Hashable] = set()
        self._cond = threading.Condition()
        self._hits = self.registry.counter("serve.cache.hits")
        self._misses = self.registry.counter("serve.cache.misses")
        self._evictions = self.registry.counter("serve.cache.evictions")
        self._bytes_gauge = self.registry.gauge("serve.cache.bytes")
        self._entries_gauge = self.registry.gauge("serve.cache.entries")

    # -- accounting ----------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._cond:
            return key in self._entries

    def keys(self) -> list:
        """Snapshot of the cached keys, least recently used first."""
        with self._cond:
            return list(self._entries)

    def stats(self) -> dict:
        """Counter snapshot; every ratio is zero-guarded (no division by
        zero on a fresh or just-reset cache)."""
        hits, misses = self._hits.value, self._misses.value
        total = hits + misses
        with self._cond:
            cached_bytes, entries = self._bytes, len(self._entries)
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self._evictions.value,
            "hit_rate": hits / total if total else 0.0,
            "miss_rate": misses / total if total else 0.0,
            "cached_bytes": cached_bytes,
            "entries": entries,
            "fill_fraction": cached_bytes / self.max_bytes,
        }

    def reset(self) -> None:
        """Zero the hit/miss/eviction counters, keeping cached entries.

        Benchmarks call this between phases to measure per-phase hit
        rates (e.g. cold fill vs. warm reuse) on one warmed cache.
        """
        self._hits.reset()
        self._misses.reset()
        self._evictions.reset()

    def _sync_gauges(self) -> None:
        self._bytes_gauge.set(self._bytes)
        self._entries_gauge.set(len(self._entries))

    # -- access --------------------------------------------------------------

    def get(self, key: Hashable):
        """Peek without loading; ``None`` on a miss (not counted)."""
        with self._cond:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry.value

    def get_or_load(self, key: Hashable, loader: Callable[[], tuple]):
        """Return the cached value, loading it on a miss (single-flight).

        ``loader()`` must return ``(value, nbytes)``.  Concurrent callers
        missing the same key block until the one elected loader finishes;
        a loader that raises releases the waiters, and the first of them
        retries the load.
        """
        with self._cond:
            while True:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits.inc()
                    charge(cache_hits=1)
                    return entry.value
                if key not in self._loading:
                    self._loading.add(key)
                    break
                self._cond.wait()
        try:
            value, nbytes = loader()
        except BaseException:
            with self._cond:
                self._loading.discard(key)
                self._cond.notify_all()
            raise
        with self._cond:
            self._loading.discard(key)
            self._misses.inc()
            charge(cache_misses=1)
            self._admit(key, value, int(nbytes))
            self._cond.notify_all()
        return value

    def _admit(self, key: Hashable, value, nbytes: int) -> None:
        if nbytes > self.max_bytes:
            self._sync_gauges()
            return  # larger than the whole cache: serve without caching
        if key in self._entries:  # lost a (benign) race; replace
            self._bytes -= self._entries.pop(key).nbytes
        self._entries[key] = _Entry(value, nbytes)
        self._bytes += nbytes
        while self._bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._evictions.inc()
        self._sync_gauges()

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was cached."""
        with self._cond:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry.nbytes
            self._sync_gauges()
            return True

    def clear(self) -> None:
        with self._cond:
            self._entries.clear()
            self._bytes = 0
            self._sync_gauges()
