"""Content-addressed compressed chunk store.

Every artifact PAS persists — encoded matrices, byte planes, deltas — is a
blob.  Blobs are stored zlib-compressed under their SHA-256, which gives
deduplication for free (identical matrices across versions share storage,
a common outcome of fine-tuning with frozen layers).

Every store counts its traffic — calls, uncompressed bytes in/out, and
dedup hits — into a :class:`~repro.obs.MetricsRegistry` (the process
global one unless an instance is injected), so ``dlv stats`` and the
benchmark sidecars can report where bytes actually go.

A write verb runs inside one :func:`write_batch`: while it is open, the
stored form computed for an address — to price an edge or a page, or
to write it to any tier — is kept, so each distinct content is
compressed at most once per verb and the priced bytes are the written
bytes.  Blobs the verb defers (:meth:`WriteBatch.defer`) land with one
``put_many`` per store when it calls :meth:`WriteBatch.land`.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.faults import fs as ffs
from repro.obs.cost import charge
from repro.obs.metrics import MetricsRegistry, get_registry


class ChunkIntegrityError(ValueError):
    """A stored blob failed verification (hash mismatch or undecodable)."""

    def __init__(self, sha: str, reason: str) -> None:
        super().__init__(f"chunk {sha} is corrupt ({reason})")
        self.sha = sha
        self.reason = reason


#: Process-wide sequence making concurrent writers' tmp names distinct.
_tmp_counter = itertools.count()

#: Most threads one ``ChunkStore.put_many`` fsyncs its tmp files on.
SYNC_THREADS = 8


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteBatch:
    """The blob writes of one verb.

    ``stored`` maps ``(zlib level, address)`` to the stored form already
    computed for that content, whichever tier asked first; it lives as
    long as the batch.  Blobs handed to :meth:`defer` wait, per store,
    until :meth:`land` puts each store's share with one ``put_many``.
    """

    def __init__(self) -> None:
        self.stored: dict[tuple[int, str], bytes] = {}
        self._pending: dict[int, tuple[object, dict[str, bytes]]] = {}

    def defer(self, store, data: bytes) -> str:
        """Queue one blob for ``store``; returns its content address."""
        sha = store.address(data)
        self._pending.setdefault(id(store), (store, {}))[1][sha] = data
        return sha

    def land(self) -> None:
        """Put every deferred blob: one ``put_many`` per store."""
        pending, self._pending = self._pending, {}
        for store, blobs in pending.values():
            store.put_many(blobs.values())


_BATCH: contextvars.ContextVar[Optional[WriteBatch]] = contextvars.ContextVar(
    "repro_write_batch", default=None
)


def current_batch() -> Optional[WriteBatch]:
    """The open :func:`write_batch`, if any."""
    return _BATCH.get()


@contextmanager
def write_batch() -> Iterator[WriteBatch]:
    """Open one write batch for a verb (an inner call joins the outer).

    Blobs still deferred at a normal exit land then; an exception
    drops them, since nothing can reference them yet.
    """
    outer = _BATCH.get()
    if outer is not None:
        yield outer
        return
    batch = WriteBatch()
    token = _BATCH.set(batch)
    try:
        yield batch
        batch.land()
    finally:
        _BATCH.reset(token)


class BlobCodec:
    """The blob format, implemented once for every store.

    A blob's address is the SHA-256 of its *uncompressed* content; it is
    stored zlib-compressed; every read decompresses and re-hashes, so
    silent corruption surfaces as :class:`ChunkIntegrityError`.  The
    ``chunkstore.*`` counters and the per-request read bill live here
    too.  Subclasses move the already-encoded bytes — files, rows, a
    dict — and add their own fault sites and transaction joins; none of
    them knows the format.
    """

    def __init__(
        self, level: int = 6, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.level = level
        self.registry = registry if registry is not None else get_registry()
        self._put_calls = self.registry.counter("chunkstore.put_calls")
        self._put_bytes = self.registry.counter("chunkstore.put_bytes")
        self._dedup_hits = self.registry.counter("chunkstore.dedup_hits")
        self._dedup_bytes = self.registry.counter("chunkstore.dedup_bytes")
        self._get_calls = self.registry.counter("chunkstore.get_calls")
        self._get_bytes = self.registry.counter("chunkstore.get_bytes")

    @staticmethod
    def address(data: bytes) -> str:
        """Content address ``put(data)`` files the blob under."""
        return hashlib.sha256(data).hexdigest()

    def stored_size_of(self, data: bytes) -> int:
        """Stored bytes ``put(data)`` adds when the blob is new — the
        paper's storage cost ``Cs``; equals ``stored_size`` afterwards."""
        return len(self._stored_form(data))

    @staticmethod
    def _missing(sha: str) -> KeyError:
        return KeyError(f"no chunk {sha}")

    def _encode(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def _stored_form(self, data: bytes, sha: Optional[str] = None) -> bytes:
        """What a put of ``data`` writes: compressed once per open
        :func:`write_batch`, whichever tier or pricing asks first."""
        batch = _BATCH.get()
        if batch is None:
            return self._encode(data)
        key = (self.level, sha or self.address(data))
        stored = batch.stored.get(key)
        if stored is None:
            stored = batch.stored[key] = self._encode(data)
        return stored

    def _count_put(self, nbytes: int, deduplicated: bool) -> None:
        self._put_calls.inc()
        self._put_bytes.inc(nbytes)
        if deduplicated:
            self._dedup_hits.inc()
            self._dedup_bytes.inc(nbytes)

    def _decode(self, sha: str, stored: bytes) -> bytes:
        """Decompress and verify what a backend read back for ``sha``."""
        try:
            data = zlib.decompress(stored)
        except zlib.error as exc:
            raise ChunkIntegrityError(sha, f"undecodable: {exc}") from exc
        if self.address(data) != sha:
            raise ChunkIntegrityError(sha, "hash mismatch")
        self._get_calls.inc()
        self._get_bytes.inc(len(data))
        # Bill the active request, if any: this is the single choke point
        # every chunk read passes through, whatever holds the bytes.
        charge(bytes_read=len(data), chunks_fetched=1)
        return data

    def get_many(self, addresses: Iterable[str]) -> dict[str, tuple[bytes, int]]:
        """Read and verify each distinct blob once, as one read:
        ``address -> (bytes, stored size)``.  A missing address raises
        ``KeyError`` before any blob is decoded; each blob is then
        verified, counted and billed exactly as a ``get`` of it is."""
        stored = self._read_many(list(dict.fromkeys(addresses)))
        return {
            sha: (self._decode(sha, raw), len(raw)) for sha, raw in stored.items()
        }

    def _read_many(self, shas: list[str]) -> dict[str, bytes]:
        """Stored forms of distinct addresses, one backend read each
        (its length is the stored size: no ``stat``)."""
        return {sha: self._read(sha) for sha in shas}

    def verify_blob(self, sha: str) -> bool:
        """Re-hash one stored blob; ``False`` when corrupt or undecodable."""
        try:
            self.get(sha)
        except ChunkIntegrityError:
            return False
        return True


class ChunkStore(BlobCodec):
    """Filesystem-backed content-addressed store.

    Blobs live at ``<root>/<sha[:2]>/<sha>`` in the :class:`BlobCodec`
    format.  Paths are handled as strings and directories listed with
    :func:`os.scandir`: every repository open sweeps, and ``gc`` and
    fsck list, all of them.
    """

    def __init__(
        self,
        root: str | Path,
        level: int = 6,
        registry: Optional[MetricsRegistry] = None,
        durable: bool = True,
    ) -> None:
        super().__init__(level, registry)
        self.root = Path(root)
        self._root = str(self.root)
        self.durable = durable
        self.root.mkdir(parents=True, exist_ok=True)
        self.sweep_stale_tmps()

    def blob_path(self, sha: str) -> Path:
        """On-disk location of one blob (it may not exist)."""
        return Path(self._path(sha))

    def _path(self, sha: str) -> str:
        return os.path.join(self._root, sha[:2], sha)

    def _bucket_entries(self) -> Iterator[os.DirEntry]:
        """Every entry of every bucket directory, in no set order."""
        with os.scandir(self._root) as top:
            buckets = [e.path for e in top if e.is_dir()]
        for bucket in buckets:
            with os.scandir(bucket) as inner:
                yield from inner

    def stale_tmps(self) -> list[str]:
        """Paths of ``*.tmp`` litter left by crashed writers (sorted)."""
        return sorted(
            e.path for e in self._bucket_entries() if e.name.endswith(".tmp")
        )

    def sweep_stale_tmps(self) -> int:
        """Remove ``*.tmp`` litter left by crashed writers; returns count."""
        removed = 0
        for tmp in self.stale_tmps():
            ffs.unlink(tmp, site="chunkstore.sweep", missing_ok=True)
            removed += 1
        if removed:
            self.registry.counter("chunkstore.tmps_swept").inc(removed)
        return removed

    def put(self, data: bytes) -> str:
        """Store one blob: :meth:`put_many` of one."""
        return self.put_many((data,))[0]

    def put_many(self, blobs: Iterable[bytes]) -> list[str]:
        """Store blobs; returns their content addresses (idempotent).

        Each write is crash-safe: the compressed blob goes to a tmp file
        unique to this call (concurrent writers of the same sha never
        collide), is fsynced and renamed into place; then every bucket
        directory the batch touched is fsynced once, so the entries
        survive power loss.  The batch's tmp files are fsynced together,
        on up to :data:`SYNC_THREADS` threads, so the filesystem can
        commit them as a group; no rename happens before all of them
        are durable.  A crash leaves at worst stale tmps, swept on the
        next store open, or unreferenced blobs, swept by ``gc``.
        """
        shas: list[str] = []
        touched: set[str] = set()
        landing: dict[str, str] = {}  # final path -> its tmp, in order
        renamed = 0
        try:
            for data in blobs:
                sha = self.address(data)
                path = self._path(sha)
                existed = path in landing or os.path.exists(path)
                if not existed:
                    bucket = os.path.dirname(path)
                    if bucket not in touched:
                        if not os.path.isdir(bucket):
                            os.makedirs(bucket, exist_ok=True)
                        touched.add(bucket)
                    tmp = f"{path}.{os.getpid()}-{next(_tmp_counter)}.tmp"
                    landing[path] = tmp
                    ffs.write_bytes(
                        tmp,
                        self._stored_form(data, sha),
                        site="chunkstore.put.write",
                        fsync=False,
                    )
                self._count_put(len(data), deduplicated=existed)
                shas.append(sha)
            if self.durable and landing:
                workers = min(SYNC_THREADS, len(landing))
                with ThreadPoolExecutor(workers) as pool:
                    list(pool.map(_fsync_file, landing.values()))
            for path, tmp in landing.items():
                ffs.replace(tmp, path, site="chunkstore.put.replace")
                renamed += 1
        except Exception:
            # Graceful failure: clean our tmps.  A CrashSimulated
            # (BaseException) deliberately skips this — a dead process
            # leaves litter, which the sweep handles.
            for tmp in list(landing.values())[renamed:]:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
            raise
        if self.durable:
            for bucket in sorted(touched):
                ffs.fsync_dir(bucket, site="chunkstore.put.dirsync")
        return shas

    def get(self, sha: str) -> bytes:
        """Retrieve and verify a blob.

        Raises:
            KeyError: when the address is unknown.
            ChunkIntegrityError: when the stored content fails integrity
                checking (a :class:`ValueError` subclass).
        """
        return self._decode(sha, self._read(sha))

    def _read(self, sha: str) -> bytes:
        # No exists() pre-check: a concurrent gc/delete between the check
        # and the read would escape as FileNotFoundError, which no
        # recovery ladder catches.
        try:
            with open(self._path(sha), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise self._missing(sha) from None

    def __contains__(self, sha: str) -> bool:
        return os.path.exists(self._path(sha))

    def delete(self, sha: str) -> bool:
        """Remove a blob; returns whether it existed."""
        try:
            os.unlink(self._path(sha))
        except FileNotFoundError:
            return False
        return True

    def stored_size(self, sha: str) -> int:
        """On-disk (compressed) size of one blob."""
        try:
            return os.stat(self._path(sha)).st_size
        except FileNotFoundError:
            raise self._missing(sha) from None

    def _blob_entries(self) -> Iterator[os.DirEntry]:
        for entry in self._bucket_entries():
            if not entry.name.endswith(".tmp") and entry.is_file():
                yield entry

    def total_size(self) -> int:
        """Total on-disk bytes across all blobs."""
        return sum(entry.stat().st_size for entry in self._blob_entries())

    def addresses(self) -> Iterator[str]:
        """Iterate over every stored content address (sorted)."""
        return iter(sorted(entry.name for entry in self._blob_entries()))


class MemoryChunkStore(BlobCodec):
    """In-memory store with the same interface, for tests and benchmarks."""

    def __init__(
        self, level: int = 6, registry: Optional[MetricsRegistry] = None
    ) -> None:
        super().__init__(level, registry)
        self._blobs: dict[str, bytes] = {}

    def put(self, data: bytes) -> str:
        return self.put_many((data,))[0]

    def put_many(self, blobs: Iterable[bytes]) -> list[str]:
        shas = []
        for data in blobs:
            sha = self.address(data)
            existed = sha in self._blobs
            if not existed:
                self._blobs[sha] = self._stored_form(data, sha)
            self._count_put(len(data), deduplicated=existed)
            shas.append(sha)
        return shas

    def get(self, sha: str) -> bytes:
        return self._decode(sha, self._read(sha))

    def _read(self, sha: str) -> bytes:
        try:
            return self._blobs[sha]
        except KeyError:
            raise self._missing(sha) from None

    def __contains__(self, sha: str) -> bool:
        return sha in self._blobs

    def delete(self, sha: str) -> bool:
        return self._blobs.pop(sha, None) is not None

    def stored_size(self, sha: str) -> int:
        try:
            return len(self._blobs[sha])
        except KeyError:
            raise self._missing(sha) from None

    def total_size(self) -> int:
        return sum(len(b) for b in self._blobs.values())

    def addresses(self) -> Iterator[str]:
        return iter(sorted(self._blobs))


class LatencyStore:
    """Wraps a chunk store with simulated per-operation latency.

    Stands in for the paper's *remote storage* tier: PAS can offload the
    low-order byte planes to slower, cheaper storage (Sec. IV-B), and the
    archival optimizer can model such edges with higher recreation cost.
    The latency is charged once per ``get``, once per ``get_many`` call
    (one batched round trip, however many blobs) and per blob put — a
    fixed round trip; every other operation is the inner store's own.
    """

    def __init__(self, inner, get_latency: float = 0.0, put_latency: float = 0.0) -> None:
        self.inner = inner
        self.get_latency = get_latency
        self.put_latency = put_latency
        self.get_count = 0
        self.put_count = 0

    def put(self, data: bytes) -> str:
        return self.put_many((data,))[0]

    def put_many(self, blobs: Iterable[bytes]) -> list[str]:
        blobs = list(blobs)
        self.put_count += len(blobs)
        if self.put_latency > 0 and blobs:
            time.sleep(self.put_latency * len(blobs))
        return self.inner.put_many(blobs)

    def get(self, sha: str) -> bytes:
        self.get_count += 1
        if self.get_latency > 0:
            time.sleep(self.get_latency)
        return self.inner.get(sha)

    def get_many(self, addresses: Iterable[str]) -> dict[str, tuple[bytes, int]]:
        self.get_count += 1
        if self.get_latency > 0:
            time.sleep(self.get_latency)
        return self.inner.get_many(addresses)

    def __contains__(self, sha: str) -> bool:
        return sha in self.inner

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
