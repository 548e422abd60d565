"""Content-addressed compressed chunk store.

Every artifact PAS persists — encoded matrices, byte planes, deltas — is a
blob.  Blobs are stored zlib-compressed under their SHA-256, which gives
deduplication for free (identical matrices across versions share storage,
a common outcome of fine-tuning with frozen layers).

Every store counts its traffic — calls, uncompressed bytes in/out, and
dedup hits — into a :class:`~repro.obs.MetricsRegistry` (the process
global one unless an instance is injected), so ``dlv stats`` and the
benchmark sidecars can report where bytes actually go.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time
import zlib
from pathlib import Path
from typing import Iterator, Optional

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
        return len(self._encode(data))

    @staticmethod
    def _missing(sha: str) -> KeyError:
        return KeyError(f"no chunk {sha}")

    def _encode(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

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
    format.
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
        self.durable = durable
        self.root.mkdir(parents=True, exist_ok=True)
        self.sweep_stale_tmps()

    def blob_path(self, sha: str) -> Path:
        """On-disk location of one blob (it may not exist)."""
        return self.root / sha[:2] / sha

    def sweep_stale_tmps(self) -> int:
        """Remove ``*.tmp`` litter left by crashed writers; returns count."""
        removed = 0
        for tmp in self.root.glob("*/*.tmp"):
            ffs.unlink(tmp, site="chunkstore.sweep", missing_ok=True)
            removed += 1
        if removed:
            self.registry.counter("chunkstore.tmps_swept").inc(removed)
        return removed

    def put(self, data: bytes) -> str:
        """Store a blob; returns its content address (idempotent).

        The write is crash-safe: the compressed blob goes to a tmp file
        unique to this call (concurrent writers of the same sha never
        collide), is fsynced, renamed into place, and the bucket
        directory is fsynced so the entry survives power loss.  A crash
        leaves at worst a stale tmp, swept on the next store open.
        """
        sha = self.address(data)
        path = self.blob_path(sha)
        existed = path.exists()
        if not existed:
            path.parent.mkdir(exist_ok=True)
            tmp = path.parent / f"{sha}.{os.getpid()}-{next(_tmp_counter)}.tmp"
            try:
                ffs.write_bytes(
                    tmp,
                    self._encode(data),
                    site="chunkstore.put.write",
                    fsync=self.durable,
                )
                ffs.replace(tmp, path, site="chunkstore.put.replace")
            except Exception:
                # Graceful failure: clean our tmp.  A CrashSimulated
                # (BaseException) deliberately skips this — a dead
                # process leaves litter, which the sweep handles.
                tmp.unlink(missing_ok=True)
                raise
            if self.durable:
                ffs.fsync_dir(path.parent, site="chunkstore.put.dirsync")
        self._count_put(len(data), deduplicated=existed)
        return sha

    def get(self, sha: str) -> bytes:
        """Retrieve and verify a blob.

        Raises:
            KeyError: when the address is unknown.
            ChunkIntegrityError: when the stored content fails integrity
                checking (a :class:`ValueError` subclass).
        """
        # No exists() pre-check: a concurrent gc/delete between the check
        # and the read would escape as FileNotFoundError, which no
        # recovery ladder catches.
        try:
            stored = self.blob_path(sha).read_bytes()
        except FileNotFoundError:
            raise self._missing(sha) from None
        return self._decode(sha, stored)

    def __contains__(self, sha: str) -> bool:
        return self.blob_path(sha).exists()

    def delete(self, sha: str) -> bool:
        """Remove a blob; returns whether it existed."""
        try:
            self.blob_path(sha).unlink()
        except FileNotFoundError:
            return False
        return True

    def stored_size(self, sha: str) -> int:
        """On-disk (compressed) size of one blob."""
        try:
            return self.blob_path(sha).stat().st_size
        except FileNotFoundError:
            raise self._missing(sha) from None

    def _blob_files(self) -> Iterator[Path]:
        for path in sorted(self.root.glob("*/*")):
            if path.is_file() and path.suffix != ".tmp":
                yield path

    def total_size(self) -> int:
        """Total on-disk bytes across all blobs."""
        return sum(path.stat().st_size for path in self._blob_files())

    def addresses(self) -> Iterator[str]:
        """Iterate over every stored content address."""
        return (path.name for path in self._blob_files())


class MemoryChunkStore(BlobCodec):
    """In-memory store with the same interface, for tests and benchmarks."""

    def __init__(
        self, level: int = 6, registry: Optional[MetricsRegistry] = None
    ) -> None:
        super().__init__(level, registry)
        self._blobs: dict[str, bytes] = {}

    def put(self, data: bytes) -> str:
        sha = self.address(data)
        existed = sha in self._blobs
        if not existed:
            self._blobs[sha] = self._encode(data)
        self._count_put(len(data), deduplicated=existed)
        return sha

    def get(self, sha: str) -> bytes:
        try:
            stored = self._blobs[sha]
        except KeyError:
            raise self._missing(sha) from None
        return self._decode(sha, stored)

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
    The latency is charged once per ``get``/``put`` — a fixed round trip;
    every other operation is the inner store's own.
    """

    def __init__(self, inner, get_latency: float = 0.0, put_latency: float = 0.0) -> None:
        self.inner = inner
        self.get_latency = get_latency
        self.put_latency = put_latency
        self.get_count = 0
        self.put_count = 0

    def put(self, data: bytes) -> str:
        self.put_count += 1
        if self.put_latency > 0:
            time.sleep(self.put_latency)
        return self.inner.put(data)

    def get(self, sha: str) -> bytes:
        self.get_count += 1
        if self.get_latency > 0:
            time.sleep(self.get_latency)
        return self.inner.get(sha)

    def __contains__(self, sha: str) -> bool:
        return sha in self.inner

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
