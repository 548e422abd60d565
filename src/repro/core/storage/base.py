"""The storage-backend contract every repository substrate implements.

A :class:`~repro.dlv.repository.Repository` is versioning logic layered
over its blob tiers and one relational catalog:

* **blobs** — content-addressed byte-plane chunks (``chunks`` and its
  ``replica`` recovery tier), dedup pages (``pages``) and associated
  files (``files``, what ``dlv add`` staged), all in one
  :class:`~repro.core.chunkstore.BlobCodec` format;
* **catalog** — the relational half, whose ``store_journal`` table also
  holds the write-ahead intents of in-flight mutations
  (:class:`~repro.dlv.journal.Journal`);

plus small named **docs** (the repo config, the commit stage,
archive-run reports).  A :class:`StorageBackend` owns all of it for one
physical substrate: blob packs, documents and ``catalog.db`` under
``.dlv/`` (``local-fs``), one SQLite database in WAL mode (``sqlite``),
or an in-process database (``memory``).  The repository, fsck, and the
hub publish path talk only to this interface, which is the seam sharded
and deduplicating stores plug into.

Blob stores conform to :class:`BlobStore` — ``put_many`` / ``put`` /
``get_many`` / ``get`` / ``__contains__`` / ``delete_many`` /
``delete`` / ``stored_size`` / ``total_size`` / ``addresses`` /
``verify_blob`` with SHA-256-of-uncompressed-content addressing.
``get_many`` is the batched read: each blob's verified bytes with its
stored size, one ``SELECT`` on the database backends, so a page-encoded
plane costs one read statement.  Transactionality is shared through one
:class:`TxnState`: while the catalog holds an open transaction
(``txn.active``), a backend whose blobs live in the same database joins
that transaction instead of committing per write, so a rollback takes
speculative blobs with it.

Per-backend fsck contract: :meth:`StorageBackend.litter` reports (and
under repair deletes) substrate-specific debris — stale tmp files for
``local-fs``, nothing for the database backends — and
:meth:`StorageBackend.quarantine_blobs` sets corrupt blobs aside where
no read path will ever touch them again.
"""

from __future__ import annotations

import abc
import contextlib
import datetime
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional, Protocol, runtime_checkable

#: Document name of the repository configuration.
CONFIG_DOC = "config.json"

#: Document name of the ``dlv add`` stage.
STAGE_DOC = "stage.json"

#: Document-name prefix under which archive-run reports are recorded.
ARCHIVES_PREFIX = "archives/"

#: On-disk format this code writes, recorded as ``format`` in the config
#: document; a config without the field is format 1 (local-fs blobs as
#: loose files), format 2 packs them, format 3 stores associated files
#: as a blob tier and intents as catalog rows, and format 4 mirrors a
#: paged plane's pages, not the whole plane (``mirror_page_blobs``).
FORMAT = 4

#: The blob tiers of every backend, and the suffix a quarantined blob of
#: each is named with (``<sha><suffix>``).
TIERS = {"chunks": "", "replica": ".replica", "pages": ".page", "files": ".file"}


def utcnow() -> str:
    """ISO-8601 UTC timestamp (the repo-wide convention)."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class TxnState:
    """Transaction-nesting counter shared between a backend and its catalog.

    The catalog increments ``depth`` inside
    :meth:`~repro.dlv.catalog.Catalog.transaction` blocks; a backend
    whose writes can join that transaction checks :attr:`active` to
    decide between committing immediately and deferring to the
    transaction's single commit point.
    """

    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0

    @property
    def active(self) -> bool:
        """True while at least one catalog transaction block is open."""
        return self.depth > 0


@runtime_checkable
class BlobStore(Protocol):
    """Structural interface of a content-addressed chunk store.

    Conformers are the blob tiers of the backends: ``ChunkStore`` (pack
    files, ``local-fs``) and ``SQLiteBlobStore`` (rows, ``sqlite`` and
    ``mem://``) — raw keyed-bytes I/O under the one
    :class:`~repro.core.chunkstore.BlobCodec` format, in which the
    address of a blob is the SHA-256 hex digest of its *uncompressed*
    content.  A store that is not a repository's is a tier of an
    unregistered backend, e.g. ``MemoryBackend(name, create=True).chunks``.
    """

    def put_many(self, blobs: Iterable[bytes]) -> list[str]:
        """Store blobs as one batch; returns their addresses in order.

        Idempotent per blob.  ``local-fs`` writes the new blobs as one
        pack — tmp file, one fsync, rename, one fsync of the tier
        directory; the database backends insert the batch with one
        statement (inside the open catalog transaction, if any).
        """

    def put(self, data: bytes) -> str:
        """Store one blob: ``put_many`` of one; returns its address."""

    def get_many(self, addresses: Iterable[str]) -> dict[str, tuple[bytes, int]]:
        """Retrieve and integrity-verify many blobs as one read.

        Returns ``address -> (bytes, stored_size)`` for each distinct
        address (input order and repeats do not matter; empty input
        gives ``{}``).  Every blob goes through the codec's verification,
        counters and request bill exactly as a ``get`` of it would.  A
        missing address raises ``KeyError`` naming it before any blob is
        decoded; a corrupt blob raises ``ChunkIntegrityError`` naming
        its sha.  The database backends issue one ``SELECT … IN (…)``
        per batch of addresses; ``local-fs`` opens each pack once.
        """

    def get(self, sha: str) -> bytes:
        """Retrieve and integrity-verify a blob (KeyError when absent)."""

    def __contains__(self, sha: str) -> bool:
        """Whether the address is stored."""

    def delete_many(self, addresses: Iterable[str]) -> int:
        """Remove blobs; returns how many of them were stored.

        ``local-fs`` rewrites the survivors of every pack it touches
        into one new pack before unlinking the old ones; the database
        backends issue one ``DELETE … IN (…)`` per batch of addresses.
        """

    def delete(self, sha: str) -> bool:
        """Remove one blob (``delete_many`` of one); whether it existed."""

    def stored_size(self, sha: str) -> int:
        """Stored (compressed) size of one blob."""

    def total_size(self) -> int:
        """Total stored bytes across all blobs."""

    def addresses(self) -> Iterator[str]:
        """Iterate over every stored content address."""

    def verify_blob(self, sha: str) -> bool:
        """Re-hash one stored blob; ``False`` when corrupt."""

    def address(self, data: bytes) -> str:
        """The content address ``put(data)`` would return (no write)."""

    def stored_size_of(self, data: bytes, sha: Optional[str] = None) -> int:
        """The stored bytes ``put(data)`` would add (no write); ``sha``
        is ``data``'s address when the caller already knows it."""


class StorageBackend(abc.ABC):
    """One physical substrate holding a whole repository.

    Concrete backends expose, as attributes set during construction:

    ``chunks`` / ``replica`` / ``pages`` / ``files``
        :class:`BlobStore` instances for the main, replica, dedup page
        and associated-file tiers (:data:`TIERS`).
    ``catalog``
        The :class:`~repro.dlv.catalog.Catalog` (relational half, with
        the write-ahead journal as its ``journal``).
    ``txn``
        The shared :class:`TxnState`.
    ``root``
        A re-openable location token: the repository directory
        (``local-fs``), the database file (``sqlite``), or the
        ``mem://`` URL (``memory``).
    """

    #: URL scheme of this backend ("local-fs" registers as ``file://``).
    scheme: str = "?"

    # -- identity -----------------------------------------------------------

    @property
    @abc.abstractmethod
    def url(self) -> str:
        """Canonical ``<scheme>://<location>`` URL of this repository."""

    def describe(self) -> dict:
        """Backend identity for ``dlv stats`` and reports."""
        return {"backend": self.scheme, "url": self.url}

    # -- repo config --------------------------------------------------------

    def write_config(self, extra: Optional[dict] = None) -> None:
        """Create the repository config document (init-time)."""
        config = {
            "version": 1,
            "format": FORMAT,
            "created_at": utcnow(),
            "backend": self.scheme,
        }
        if extra:
            config.update(extra)
        self.write_doc(CONFIG_DOC, json.dumps(config, indent=2).encode())

    def read_config(self) -> dict:
        """The repository config document (empty dict when absent)."""
        raw = self.read_doc(CONFIG_DOC)
        return json.loads(raw) if raw else {}

    def open_format(self) -> int:
        """The repository's format, checked on open.

        Raises ``ValueError`` for a format newer than :data:`FORMAT`:
        this code cannot know that layout.
        """
        found = self.read_config().get("format", 1)
        if found > FORMAT:
            raise ValueError(
                f"{self.url} has repository format {found}; this dlv "
                f"reads formats up to {FORMAT} (upgrade dlv)"
            )
        return found

    def mirror_page_blobs(self) -> None:
        """Format 3 -> 4, run by the open that records format 4: copy
        into the replica each page blob planes 0-1 reference (format 3's
        whole-plane mirrors are left for ``gc``).  It copies only what
        the replica lacks, so a crash part way repeats it; a page the
        tier cannot read is left to fsck."""
        from repro.core.retrieval import PlanArchive
        from repro.dedup.pages import manifest_shas

        wanted = {
            sha
            for _matrix, plane, man in self.catalog.all_page_manifests()
            if plane < PlanArchive.replicate_planes
            for sha in manifest_shas(man)
        } - set(self.replica.addresses())
        blobs = []
        for sha in sorted(wanted):
            with contextlib.suppress(KeyError, ValueError):
                blobs.append(self.pages.get(sha))
        self.replica.put_many(blobs)

    def record_format(self) -> None:
        """Write :data:`FORMAT` into the config (after an open's folds)."""
        config = self.read_config()
        config["format"] = FORMAT
        self.write_doc(CONFIG_DOC, json.dumps(config, indent=2).encode())

    def compact(self) -> None:
        """Fold each blob tier into the fewest containers its layout
        allows (``gc``'s last step); the database backends have none."""

    def tier(self, kind: str):
        """The blob store of one of :data:`TIERS`."""
        if kind not in TIERS:
            raise ValueError(f"unknown blob tier {kind!r}")
        return getattr(self, kind)

    # -- small named documents ----------------------------------------------

    @abc.abstractmethod
    def read_doc(self, name: str) -> Optional[bytes]:
        """Read a named document, or ``None`` when absent."""

    @abc.abstractmethod
    def write_doc(self, name: str, data: bytes) -> None:
        """Write (or overwrite) a named document."""

    @abc.abstractmethod
    def delete_doc(self, name: str) -> bool:
        """Remove a document; returns whether it existed."""

    @abc.abstractmethod
    def list_docs(self, prefix: str = "") -> list[str]:
        """Sorted names of stored documents under ``prefix``."""

    # -- per-backend fsck contract -------------------------------------------

    @abc.abstractmethod
    def quarantine_blobs(self, kind: str, shas: Iterable[str]) -> int:
        """Set corrupt blobs of one of :data:`TIERS` aside, as one batch.

        Returns how many blobs were actually moved.  Quarantined blobs
        are unreachable from every read path but retained for forensics.
        """

    @abc.abstractmethod
    def quarantined(self) -> list[str]:
        """Names of quarantined blobs (``<sha><suffix>``, :data:`TIERS`)."""

    def litter(self, repair: bool) -> list[dict]:
        """Substrate-specific debris findings for ``dlv fsck``.

        Returns dicts with ``code`` / ``message`` / ``repaired`` /
        ``repair`` keys (converted to fsck findings by the caller).
        The default is no debris — only ``local-fs`` has stale-tmp
        litter to report.
        """
        del repair
        return []

    # -- hub publishing -------------------------------------------------------

    @abc.abstractmethod
    def publish_tree(self):
        """Context manager yielding a directory tree to publish to a hub.

        ``local-fs`` yields its live ``.dlv`` directory; the database
        backends yield a temp directory holding a consistent single-file
        ``repo.db`` snapshot.  The tree must stay valid for the duration
        of the ``with`` block.
        """

    # -- lifecycle -----------------------------------------------------------

    @abc.abstractmethod
    def close(self) -> None:
        """Release connections/handles.  Idempotent."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def yield_path(path: Path):
    """Trivial context manager over a fixed path (local-fs publish)."""
    yield path
