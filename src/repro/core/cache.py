"""The one byte-bounded LRU of the read path.

PAS is *read-optimized*: the same snapshots — above all the latest
snapshot of each version (Sec. IV-A's unbalanced access frequencies) —
are retrieved over and over by testing, comparison, exploration and
serving queries.  What they read depends only on what was archived,
never on the request, so one copy can serve every query — the
dedup-aware serving result of Zhou et al. ("Serving Deep Learning
Models with Deduplication from Relational Databases"), whose buffer
pool is sized in the units storage returns.

:class:`PlaneCache` holds two kinds of entry under one byte budget:

* **planes** — ``("plane", address)``: one byte plane (the unit of
  progressive retrieval, Sec. IV-B/IV-D) under its whole-plane content
  address; planes shared by several models are one entry.  A plane is
  held *assembled*, charged 1 B per weight, or — a page-encoded plane
  whose patch is sparse — in *page form*: its sparse XOR patch, charged
  to the entry, over base pages that are **shared parts**.  A part is
  charged once for as long as any entry holds it and freed with its
  last holder, so a fine-tuned family's common pages are held once.
* **derived** entries — ``("bounds", ns, planes)``: interval bounds
  computed from planes.  They are admitted only into free room or room
  made by evicting other derived entries, so they never displace a
  plane; one that cannot fit is served uncached.  A plane that needs
  room evicts derived entries before any plane: they are recomputed
  from planes, so under plane pressure the room goes to planes.

Loads are *single-flight*: when many callers miss the same key at once,
exactly one thread performs the read while the rest wait for its
result — a thundering herd of cold requests costs one store read, not N.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional

from repro.obs.cost import charge
from repro.obs.metrics import MetricsRegistry, get_registry


@dataclass
class _Entry:
    value: object
    nbytes: int
    parts: tuple = ()  # keys of the shared parts this entry holds


class _Part:
    """A shared part (a base page): charged once while any entry holds it."""

    __slots__ = ("value", "nbytes", "holders")

    def __init__(self, value: object, nbytes: int) -> None:
        self.value = value
        self.nbytes = nbytes
        self.holders = 1  # made for its first holder


class _Flight:
    """One load in progress; its waiters take the value it shares."""

    __slots__ = ("done", "shared", "value")

    def __init__(self) -> None:
        self.done = self.shared = False
        self.value = None


class PlaneCache:
    """Thread-safe, byte-bounded LRU of planes and derived entries, with
    single-flight loading.

    Keys are hashables — the read path uses ``("plane", address)`` and
    ``("bounds", namespace, planes)``.  Loaders return
    ``(value, nbytes)``, or for a plane ``(value, nbytes, parts)``; the
    reported byte sizes are what the budget charges, since cached
    values are opaque to the cache.  :meth:`held` tells a loader which
    parts are held already, so it reads only the others.

    Admission: each kind is its own LRU.  A plane evicts derived
    entries first, then least-recently-used planes, never the parts it
    shares itself; a ``derived=True`` entry evicts only derived entries
    and is served uncached (a miss, nothing evicted) when free room plus
    the derived bytes cannot hold it.  A value larger than the whole
    budget (its parts included), or one its loader reports as
    ``nbytes=None`` (read through a recovery path), is served uncached
    too.  ``cached_bytes <= max_bytes`` after every call.

    Args:
        max_bytes: Cache capacity in charged bytes.
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
        self._planes: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._derived: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._parts: dict[Hashable, _Part] = {}
        self._bytes = 0
        self._loading: dict[Hashable, _Flight] = {}
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
        return len(self._planes) + len(self._derived)

    def __contains__(self, key: Hashable) -> bool:
        with self._cond:
            return key in self._planes or key in self._derived

    def keys(self) -> list:
        """Snapshot of the cached keys: planes, then derived entries,
        each least recently used first."""
        with self._cond:
            return [*self._planes, *self._derived]

    def stats(self) -> dict:
        """Counter snapshot; every ratio is zero-guarded (no division by
        zero on a fresh or just-reset cache)."""
        hits, misses = self._hits.value, self._misses.value
        total = hits + misses
        with self._cond:
            cached_bytes, entries = self._bytes, len(self)
            shared_bytes = sum(p.nbytes for p in self._parts.values())
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self._evictions.value,
            "hit_rate": hits / total if total else 0.0,
            "miss_rate": misses / total if total else 0.0,
            "cached_bytes": cached_bytes,
            "shared_bytes": shared_bytes,
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
        self._entries_gauge.set(len(self))

    # -- access --------------------------------------------------------------

    def get(self, key: Hashable):
        """Peek without loading; ``None`` on a miss (not counted)."""
        with self._cond:
            for tier in (self._planes, self._derived):
                entry = tier.get(key)
                if entry is not None:
                    tier.move_to_end(key)
                    return entry.value
            return None

    def held(self, keys: Iterable[Hashable]) -> dict:
        """``key -> value`` of the shared parts among ``keys`` that a
        cached entry holds now: a loader reads only what is not held."""
        with self._cond:
            parts = self._parts
            return {key: parts[key].value for key in keys if key in parts}

    def get_or_load(
        self, key: Hashable, loader: Callable[[], tuple], derived: bool = False
    ):
        """Return the cached value, loading it on a miss (single-flight).

        ``loader()`` must return ``(value, nbytes)``, or for a plane
        ``(value, nbytes, parts)`` with ``parts`` mapping each shared
        part's key to ``(part, part_nbytes)``: ``nbytes`` is then what
        the entry holds of its own, and each part is charged once for as
        long as any entry holds it.  ``derived`` marks a value computed
        from planes (see the class docs for admission).
        A miss is a call that ran the loader.  Concurrent callers
        missing the same key block until the one elected loader finishes
        and take its value as a hit — also when it was served uncached.
        A loader that raises, or reports ``nbytes=None``, shares nothing:
        the first waiter retries the load.
        """
        tier = self._derived if derived else self._planes
        with self._cond:
            while True:
                entry = tier.get(key)
                if entry is not None:
                    tier.move_to_end(key)
                    return self._hit(entry.value)
                flight = self._loading.get(key)
                if flight is None:
                    flight = self._loading[key] = _Flight()
                    break
                while not flight.done:
                    self._cond.wait()
                if flight.shared:
                    return self._hit(flight.value)
        try:
            value, nbytes, *parts = loader()
        except BaseException:
            with self._cond:
                self._land(key, flight)
            raise
        with self._cond:
            try:
                self._misses.inc()
                charge(cache_misses=1)
                if nbytes is not None:
                    flight.value, flight.shared = value, True
                    self._admit(
                        key, value, int(nbytes), derived,
                        parts[0] if parts else {},
                    )
            finally:  # waiters are released whatever happens here
                self._land(key, flight)
        return value

    def _hit(self, value):
        self._hits.inc()
        charge(cache_hits=1)
        return value

    def _land(self, key: Hashable, flight: _Flight) -> None:
        del self._loading[key]
        flight.done = True
        self._sync_gauges()
        self._cond.notify_all()

    def _admit(
        self, key: Hashable, value, nbytes: int, derived: bool, parts: dict
    ) -> None:
        """Cache ``value`` if the admission rule finds it room."""
        if derived:
            derived_bytes = sum(e.nbytes for e in self._derived.values())
            if nbytes > self.max_bytes - self._bytes + derived_bytes:
                return
            self._make_room(nbytes, (self._derived,))
            self._derived[key] = _Entry(value, nbytes)
            self._bytes += nbytes
            return
        if nbytes + sum(size for _, size in parts.values()) > self.max_bytes:
            return
        fresh = {k: part for k, part in parts.items() if k not in self._parts}
        for k in parts.keys() - fresh.keys():
            self._parts[k].holders += 1  # pinned: no eviction below frees it
        self._make_room(
            nbytes + sum(size for _, size in fresh.values()),
            (self._derived, self._planes),
        )
        for k, (part, size) in fresh.items():
            self._parts[k] = _Part(part, size)
            self._bytes += size
        self._planes[key] = _Entry(value, nbytes, tuple(parts))
        self._bytes += nbytes

    def _make_room(self, nbytes: int, tiers: tuple) -> None:
        """Evict least-recently-used entries, tier by tier, until
        ``nbytes`` fit."""
        for tier in tiers:
            while self.max_bytes - self._bytes < nbytes and tier:
                _, evicted = tier.popitem(last=False)
                self._drop(evicted)
                self._evictions.inc()

    def _drop(self, entry: _Entry) -> None:
        """Uncharge an entry that left the cache, and every shared part
        it was the last to hold."""
        self._bytes -= entry.nbytes
        for k in entry.parts:
            part = self._parts[k]
            part.holders -= 1
            if not part.holders:
                del self._parts[k]
                self._bytes -= part.nbytes

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was cached."""
        with self._cond:
            for tier in (self._planes, self._derived):
                entry = tier.pop(key, None)
                if entry is not None:
                    self._drop(entry)
                    self._sync_gauges()
                    return True
            return False

    def clear(self) -> None:
        with self._cond:
            self._planes.clear()
            self._derived.clear()
            self._parts.clear()
            self._bytes = 0
            self._sync_gauges()
