"""Content-addressed compressed chunk store.

Every artifact PAS persists — encoded matrices, byte planes, deltas — is a
blob.  Blobs are stored deflated (zlib level 6, ``Z_RLE``) under the
SHA-256 of their raw bytes, which gives deduplication for free (identical
matrices across versions share storage, a common outcome of fine-tuning
with frozen layers).

Every store counts its traffic — calls, uncompressed bytes in/out, and
dedup hits — into a :class:`~repro.obs.MetricsRegistry` (the process
global one unless an instance is injected), so ``dlv stats`` and the
benchmark sidecars can report where bytes actually go.

A write verb runs inside one :func:`write_batch`: while it is open, the
stored form computed for an address — to price an edge or a page, or
to write it to any tier — is kept, so each distinct content is
compressed at most once per verb and the priced bytes are the written
bytes.  Blobs the verb defers (:meth:`WriteBatch.defer`) land with one
``put_many`` per store when it calls :meth:`WriteBatch.land` — on the
local-fs backend, one fsynced pack per tier.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import os
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.faults import fs as ffs
from repro.faults.plan import CrashSimulated
from repro.obs.cost import charge
from repro.obs.metrics import MetricsRegistry, get_registry


class ChunkIntegrityError(ValueError):
    """A stored blob failed verification (hash mismatch or undecodable)."""

    def __init__(self, sha: str, reason: str) -> None:
        super().__init__(f"chunk {sha} is corrupt ({reason})")
        self.sha = sha
        self.reason = reason


#: How every stored form is deflated.  ``Z_RLE`` matches runs at
#: distance 1 only, which suits byte planes (long runs of sign/exponent
#: bytes, delta planes of mostly zeros) and compresses 3-4x faster than
#: the default string matcher; its output is an ordinary zlib stream, so
#: a reader cannot tell which strategy wrote a blob.
DEFLATE_LEVEL = 6
DEFLATE_STRATEGY = zlib.Z_RLE

#: Process-wide sequence making concurrent writers' tmp names distinct.
_tmp_counter = itertools.count()

#: The last bytes of every pack; a file without them is not a pack.
PACK_MAGIC = b"DLVPACK1"

_PACK_SUFFIX = ".pack"

#: One trailer entry: a blob's raw SHA-256, its offset and its length.
_ENTRY = struct.Struct(">32sQQ")

#: The end of a pack: entry count, CRC-32 of entries and count, magic.
_FOOTER = struct.Struct(">QI8s")


def _encode_pack(
    blobs: dict[str, bytes],
) -> tuple[bytes, list[tuple[str, int, int]]]:
    """One pack of stored forms; returns it with its trailer entries."""
    entries, offset = [], 0
    for sha, stored in blobs.items():
        entries.append((sha, offset, len(stored)))
        offset += len(stored)
    table = b"".join(
        _ENTRY.pack(bytes.fromhex(sha), off, n) for sha, off, n in entries
    )
    count = len(entries)
    footer = _FOOTER.pack(
        count, zlib.crc32(table + count.to_bytes(8, "big")), PACK_MAGIC
    )
    return b"".join((*blobs.values(), table, footer)), entries


def _read_trailer(path: str) -> list[tuple[str, int, int]]:
    """The ``(sha, offset, length)`` entries of one pack.

    Raises ``ValueError`` when the file does not end in a sound trailer.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < _FOOTER.size:
            raise ValueError(f"{path}: too short for a pack")
        count, crc, magic = _FOOTER.unpack(
            os.pread(handle.fileno(), _FOOTER.size, size - _FOOTER.size)
        )
        body = size - _FOOTER.size - count * _ENTRY.size
        if magic != PACK_MAGIC or body < 0:
            raise ValueError(f"{path}: no pack trailer")
        table = os.pread(handle.fileno(), count * _ENTRY.size, body)
    if zlib.crc32(table + count.to_bytes(8, "big")) != crc:
        raise ValueError(f"{path}: pack trailer checksum mismatch")
    entries = [
        (raw.hex(), off, n) for raw, off, n in _ENTRY.iter_unpack(table)
    ]
    if any(off + n > body for _, off, n in entries):
        raise ValueError(f"{path}: pack entry past the blob section")
    return entries


def _read_extents(where: dict[str, tuple[str, int, int]]) -> dict[str, bytes]:
    """``sha -> bytes`` of ``sha -> (file, offset, length)``, opening each
    file once; ``FileNotFoundError`` names a file that is gone."""
    by_file: dict[str, list[tuple[str, int, int]]] = {}
    for sha, (path, off, n) in where.items():
        by_file.setdefault(path, []).append((sha, off, n))
    out: dict[str, bytes] = {}
    for path, extents in by_file.items():
        fd = os.open(path, os.O_RDONLY)
        try:
            for sha, off, n in extents:
                out[sha] = os.pread(fd, n, off)
        finally:
            os.close(fd)
    return {sha: out[sha] for sha in where}


class WriteBatch:
    """The blob writes of one verb.

    ``stored`` maps an address to the stored form already computed for
    that content, whichever tier asked first; it lives as long as the
    batch.  Blobs handed to :meth:`defer` wait, per store,
    until :meth:`land` puts each store's share with one ``put_many``.
    """

    def __init__(self) -> None:
        self.stored: dict[str, bytes] = {}
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
    stored deflated (:data:`DEFLATE_LEVEL`, :data:`DEFLATE_STRATEGY`);
    every read decompresses and re-hashes, so silent corruption
    surfaces as :class:`ChunkIntegrityError`.  The
    ``chunkstore.*`` counters and the per-request read bill live here
    too.  Subclasses move the already-encoded bytes — files, rows, a
    dict — and add their own fault sites and transaction joins; none of
    them knows the format.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
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
        deflate = zlib.compressobj(
            DEFLATE_LEVEL, zlib.DEFLATED, zlib.MAX_WBITS, 8, DEFLATE_STRATEGY
        )
        return deflate.compress(data) + deflate.flush()

    def _stored_form(self, data: bytes, sha: Optional[str] = None) -> bytes:
        """What a put of ``data`` writes: compressed once per open
        :func:`write_batch`, whichever tier or pricing asks first."""
        batch = _BATCH.get()
        if batch is None:
            return self._encode(data)
        key = sha or self.address(data)
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

    def read_stored(self, sha: str) -> bytes:
        """One blob's stored form, unverified (what quarantine keeps)."""
        return self._read_many([sha])[sha]

    def delete(self, sha: str) -> bool:
        """Remove a blob: :meth:`delete_many` of one."""
        return self.delete_many((sha,)) == 1

    def verify_blob(self, sha: str) -> bool:
        """Re-hash one stored blob; ``False`` when corrupt or undecodable."""
        try:
            self.get(sha)
        except ChunkIntegrityError:
            return False
        return True

    def verify_all(self) -> tuple[set[str], int]:
        """Re-hash every stored blob: ``(corrupt addresses, count)``.

        One ``get_many`` per read group — a pack on ``local-fs``, one
        blob elsewhere; a group that fails is re-checked blob by blob.
        """
        corrupt: set[str] = set()
        scanned = 0
        for group in self._verify_groups():
            scanned += len(group)
            try:
                self.get_many(group)
            except ChunkIntegrityError:
                corrupt.update(sha for sha in group if not self.verify_blob(sha))
        return corrupt, scanned

    def _verify_groups(self) -> Iterator[list[str]]:
        return ([sha] for sha in self.addresses())


class ChunkStore(BlobCodec):
    """Filesystem-backed content-addressed store: a directory of packs.

    A *pack* (``pack-<sha256 of the file>.pack``) holds the
    :class:`BlobCodec` stored forms of many blobs back to back, then a
    trailer: one ``(sha, offset, length)`` entry per blob, the entry
    count, a CRC-32 of both and :data:`PACK_MAGIC`.  Packs are written
    once — tmp file, fsync, rename, directory fsync — and never changed;
    a delete writes the survivors of the packs it touches into a new
    pack before unlinking the old ones.  Packs are all it reads: the
    loose blobs of the older layout are folded into one when a
    repository of that format is opened (see
    :meth:`~repro.core.storage.localfs.LocalFSBackend.open_format`).

    The address -> ``(file, offset, length)`` index is built from the
    trailers on first use, under one lock.  A lookup that misses, or a
    read whose pack is gone, rescans the directory once, and every
    write and delete re-lists it first, so a handle sees packs another
    handle wrote or folded after it was built.
    """

    def __init__(
        self, root: str | Path, registry: Optional[MetricsRegistry] = None
    ) -> None:
        super().__init__(registry)
        self.root = Path(root)
        self._root = str(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._packs: Optional[dict[str, list[tuple[str, int, int]]]] = None
        self._unreadable: set[str] = set()
        self._index: dict[str, tuple[str, int, int]] = {}
        self.sweep_stale_tmps()

    # -- the index -----------------------------------------------------------

    def _listing(self) -> tuple[list[str], list[str]]:
        """``(packs, tmp files)`` of the tier, each sorted."""
        packs, tmps = [], []
        with os.scandir(self._root) as top:
            for entry in top:
                if entry.name.endswith(".tmp"):
                    tmps.append(entry.path)
                elif entry.name.endswith(_PACK_SUFFIX):
                    packs.append(entry.path)
        return sorted(packs), sorted(tmps)

    def _refresh(self) -> None:
        """Re-list the tier and rebuild the index (caller holds the lock).

        Trailers are read only for packs not seen before: a pack never
        changes once it has its name.
        """
        packs, _ = self._listing()
        known = self._packs or {}
        if self._packs is not None and (
            known.keys() | self._unreadable == set(packs)
        ):
            return
        fresh: dict[str, list[tuple[str, int, int]]] = {}
        for path in packs:
            entries = known.get(path)
            if entries is None and path not in self._unreadable:
                try:
                    entries = _read_trailer(path)
                except FileNotFoundError:
                    continue  # folded away since the listing
                except ValueError:
                    # Kept on disk for forensics; its blobs read as
                    # missing, which fsck reports and repairs.
                    self._unreadable.add(path)
                    self.registry.counter("chunkstore.unreadable_packs").inc()
            if entries is not None:
                fresh[path] = entries
        self._packs = fresh
        self._reindex()

    def _reindex(self) -> None:
        index: dict[str, tuple[str, int, int]] = {}
        for path, entries in self._packs.items():
            index.update((sha, (path, off, n)) for sha, off, n in entries)
        self._index = index

    def _lookup(self, shas: Iterable[str]) -> dict[str, Optional[tuple]]:
        """Where each address is stored (``None`` when absent), with one
        rescan of the directory when any of them misses."""
        with self._lock:
            fresh = self._packs is None
            if fresh:
                self._refresh()
            found = {sha: self._index.get(sha) for sha in shas}
            if not fresh and None in found.values():
                self._refresh()
                found = {sha: self._index.get(sha) for sha in found}
        return found

    def _held(self, rescan: bool = False) -> dict[str, tuple[str, int, int]]:
        """The index, built on first use (or re-listed: ``rescan``)."""
        with self._lock:
            if rescan or self._packs is None:
                self._refresh()
            return self._index

    def extent(self, sha: str) -> tuple[str, int, int]:
        """``(file, offset, length)`` of one blob's stored form."""
        return self._located([sha])[sha]

    # -- litter --------------------------------------------------------------

    def stale_tmps(self) -> list[str]:
        """Paths of ``*.tmp`` litter left by crashed writers (sorted)."""
        return self._listing()[1]

    def sweep_stale_tmps(self) -> int:
        """Remove ``*.tmp`` litter left by crashed writers; returns count."""
        removed = 0
        for tmp in self.stale_tmps():
            ffs.unlink(tmp, site="chunkstore.sweep", missing_ok=True)
            removed += 1
        if removed:
            self.registry.counter("chunkstore.tmps_swept").inc(removed)
        return removed

    # -- writes --------------------------------------------------------------

    def put(self, data: bytes) -> str:
        """Store one blob: :meth:`put_many` of one."""
        return self.put_many((data,))[0]

    def put_many(self, blobs: Iterable[bytes]) -> list[str]:
        """Store blobs; returns their content addresses (idempotent).

        The new blobs land as one pack: one file fsync, one rename and
        one fsync of the tier directory, however many there are.  Each
        blob's stored form passes the ``chunkstore.put.write`` fault
        site on its own, so a fault plan still tears or flips one blob;
        a failure before the rename leaves nothing but, after a crash, a
        stale tmp that the next open sweeps.  The tier is re-listed
        first, so a blob another handle deleted since is written again.
        """
        held = self._held(rescan=True)
        shas: list[str] = []
        new: dict[str, bytes] = {}
        crash_after = False
        for data in blobs:
            sha = self.address(data)
            existed = sha in new or sha in held
            if not existed:
                new[sha], crash_after = ffs.prepare_write(
                    "chunkstore.put.write", self._stored_form(data, sha)
                )
            self._count_put(len(data), deduplicated=existed)
            shas.append(sha)
            if crash_after:
                # The process dies with its partial pack as a tmp.
                ffs.write_bytes(self._tmp(), b"".join(new.values()), site=None)
                raise CrashSimulated(
                    "simulated crash after torn write (chunkstore.put.write)"
                )
        if new:
            self._add_pack(
                *self._land_pack(new, write_site=None, prefix="put")
            )
        return shas

    def put_stored(self, stored: dict[str, bytes]) -> int:
        """Land ``address -> stored form`` pairs as they are, unverified
        (fsck finds a corrupt one), as one pack of those the tier does
        not hold yet; returns how many it wrote.  A local-fs open folds
        loose format-1 blobs with it, so running it twice writes nothing
        the second time."""
        held = self._held(rescan=True)
        new = {sha: data for sha, data in stored.items() if sha not in held}
        if new:
            self._add_pack(*self._land_pack(
                new, write_site="chunkstore.fold.write", prefix="fold"
            ))
        return len(new)

    def _add_pack(self, path: str, entries: list[tuple[str, int, int]]) -> None:
        """Index a pack this handle just landed."""
        with self._lock:
            if self._packs is not None:
                # Copy on write: readers iterate the index unlocked.
                self._packs[path] = entries
                self._index = {
                    **self._index,
                    **{sha: (path, off, n) for sha, off, n in entries},
                }

    def _tmp(self) -> str:
        return os.path.join(
            self._root, f"pack-{os.getpid()}-{next(_tmp_counter)}.tmp"
        )

    def _land_pack(
        self, blobs: dict[str, bytes], write_site: Optional[str], prefix: str
    ) -> tuple[str, list[tuple[str, int, int]]]:
        """Write one pack durably; returns its path and trailer entries."""
        pack, entries = _encode_pack(blobs)
        path = os.path.join(
            self._root, f"pack-{hashlib.sha256(pack).hexdigest()}{_PACK_SUFFIX}"
        )
        tmp = self._tmp()
        try:
            ffs.write_bytes(tmp, pack, site=write_site)
            ffs.replace(tmp, path, site=f"chunkstore.{prefix}.replace")
        except Exception:
            # Graceful failure: clean our tmp.  A CrashSimulated
            # (BaseException) deliberately skips this — a dead process
            # leaves litter, which the sweep handles.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        ffs.fsync_dir(self._root, site=f"chunkstore.{prefix}.dirsync")
        return path, entries

    def delete_many(self, addresses: Iterable[str]) -> int:
        """Remove blobs; returns how many were stored.

        Every pack holding one of them is folded: its survivors go into
        one new pack (their stored bytes copied, not recompressed),
        which is durable before the old packs are unlinked.  The tier is
        re-listed first, so packs another handle folded are not read.
        """
        with self._lock:
            self._refresh()
            doomed = {sha for sha in addresses if sha in self._index}
            if doomed:
                # Rewrites hold the lock on purpose: the packs they fold
                # and the index they swap must not move under them.
                self._rewrite(  # lint: ignore[CONC405]
                    [p for p, entries in self._packs.items()
                     if any(sha in doomed for sha, _, _ in entries)],
                    doomed,
                )
        return len(doomed)

    def repack(self) -> bool:
        """Fold the whole tier into one pack when it holds more than one
        (what ``gc`` leaves); returns whether it rewrote anything."""
        with self._lock:
            self._refresh()
            if len(self._packs) <= 1:
                return False
            self._rewrite(list(self._packs), set())  # lint: ignore[CONC405]
        return True

    def _rewrite(self, folded: list[str], drop: set[str]) -> None:
        """Replace ``folded`` packs with one pack of their blobs outside
        ``drop`` (caller holds the lock)."""
        elsewhere = {
            sha for path, entries in self._packs.items() if path not in folded
            for sha, _, _ in entries
        }
        sources: dict[str, tuple[str, int, int]] = {}
        for path in folded:
            sources.update(
                (sha, (path, off, n)) for sha, off, n in self._packs[path]
            )
        keep = {
            sha: where for sha, where in sources.items()
            if sha not in drop and sha not in elsewhere
        }
        stale = set(folded)
        if keep:
            path, entries = self._land_pack(  # lint: ignore[CONC405]
                _read_extents(keep), write_site="chunkstore.repack.write",
                prefix="repack",
            )
            stale.discard(path)
            self._packs[path] = entries
        for path in sorted(stale):
            ffs.unlink(path, site="chunkstore.repack.unlink", missing_ok=True)
            self._packs.pop(path, None)
        if stale:
            ffs.fsync_dir(self._root, site="chunkstore.repack.dirsync")
        self._reindex()

    # -- reads ---------------------------------------------------------------

    def get(self, sha: str) -> bytes:
        """Retrieve and verify a blob.

        Raises:
            KeyError: when the address is unknown.
            ChunkIntegrityError: when the stored content fails integrity
                checking (a :class:`ValueError` subclass).
        """
        return self._decode(sha, self._read_many([sha])[sha])

    def _located(self, shas: list[str]) -> dict[str, tuple[str, int, int]]:
        found = self._lookup(shas)
        missing = next((sha for sha, w in found.items() if w is None), None)
        if missing is not None:
            raise self._missing(missing)
        return found

    def _read_many(self, shas: list[str]) -> dict[str, bytes]:
        """Stored forms, opening each pack once.  A pack that vanished
        (folded by another handle) sends the read to a fresh listing."""
        try:
            return _read_extents(self._located(shas))
        except FileNotFoundError:
            with self._lock:
                self._refresh()
        found = self._located(shas)
        try:
            return _read_extents(found)
        except FileNotFoundError as exc:
            raise self._missing(next(
                sha for sha, w in found.items() if w[0] == exc.filename
            )) from None

    def _verify_groups(self) -> Iterator[list[str]]:
        by_file: dict[str, list[str]] = {}
        for sha, (path, _, _) in sorted(self._held().items()):
            by_file.setdefault(path, []).append(sha)
        return iter(by_file.values())

    def __contains__(self, sha: str) -> bool:
        return self._lookup((sha,))[sha] is not None

    def stored_size(self, sha: str) -> int:
        """On-disk (compressed) size of one blob."""
        return self.extent(sha)[2]

    def total_size(self) -> int:
        """Stored bytes of every live blob (each address counted once)."""
        return sum(n for _, _, n in self._held().values())

    def addresses(self) -> Iterator[str]:
        """Iterate over every stored content address (sorted)."""
        return iter(sorted(self._held()))


class MemoryChunkStore(BlobCodec):
    """In-memory store with the same interface, for tests and benchmarks."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(registry)
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

    def delete_many(self, addresses: Iterable[str]) -> int:
        return sum(
            self._blobs.pop(sha, None) is not None for sha in set(addresses)
        )

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
