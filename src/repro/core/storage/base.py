"""The storage-backend contract every repository substrate implements.

A :class:`~repro.dlv.repository.Repository` is versioning logic layered
over four kinds of state:

* **blobs** — content-addressed byte-plane chunks (main + replica tier)
  and dedup pages (the refcounted ``pages`` tier),
* **files** — content-addressed associated files (``dlv add``),
* **docs** — small named documents (repo config, the commit stage,
  archive-run reports),
* **journal** — write-ahead intent records for in-flight mutations,

plus the relational catalog.  A :class:`StorageBackend` owns all of it
for one physical substrate: loose files under ``.dlv/`` (``local-fs``),
one SQLite database in WAL mode (``sqlite``), or an in-process database
(``memory``).  The repository, fsck, and the hub publish path talk only
to this interface, which is the seam sharded and deduplicating stores
plug into.

Blob stores conform to :class:`BlobStore` — ``put`` / ``get`` /
``__contains__`` / ``delete`` / ``stored_size`` / ``total_size`` /
``addresses`` / ``verify_blob`` with SHA-256-of-uncompressed-content
addressing.  Transactionality is shared through one :class:`TxnState`:
while the catalog holds an open transaction (``txn.active``), a backend
whose blobs live in the same database joins that transaction instead of
committing per write, so a rollback takes speculative blobs with it.

Per-backend fsck contract: :meth:`StorageBackend.litter` reports (and
under repair deletes) substrate-specific debris — stale tmp files for
``local-fs``, nothing for the database backends — and
:meth:`StorageBackend.quarantine_blob` sets a corrupt blob aside where
no read path will ever touch it again.
"""

from __future__ import annotations

import abc
import datetime
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Protocol, runtime_checkable

#: Document name of the repository configuration.
CONFIG_DOC = "config.json"

#: Document name of the ``dlv add`` stage.
STAGE_DOC = "stage.json"

#: Document-name prefix under which archive-run reports are recorded.
ARCHIVES_PREFIX = "archives/"


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

    Conformers: ``ChunkStore`` (loose files), ``MemoryChunkStore``
    (dict) and ``SQLiteBlobStore`` (rows) — raw keyed-bytes I/O under
    the one :class:`~repro.core.chunkstore.BlobCodec` format, in which
    the address of a blob is the SHA-256 hex digest of its
    *uncompressed* content — and the ``LatencyStore`` wrapper around
    any of them.
    """

    def put(self, data: bytes) -> str:
        """Store a blob; returns its content address (idempotent)."""

    def get(self, sha: str) -> bytes:
        """Retrieve and integrity-verify a blob (KeyError when absent)."""

    def __contains__(self, sha: str) -> bool:
        """Whether the address is stored."""

    def delete(self, sha: str) -> bool:
        """Remove a blob; returns whether it existed."""

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

    def stored_size_of(self, data: bytes) -> int:
        """The stored bytes ``put(data)`` would add (no write)."""


class StorageBackend(abc.ABC):
    """One physical substrate holding a whole repository.

    Concrete backends expose, as attributes set during construction:

    ``chunks`` / ``replica`` / ``pages``
        :class:`BlobStore` instances for the main, replica, and dedup
        page tiers.
    ``catalog``
        The :class:`~repro.dlv.catalog.Catalog` (relational half).
    ``journal``
        The write-ahead intent journal (``record`` / ``retire`` /
        ``pending`` / ``write_raw``).
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
        config = {"version": 1, "created_at": utcnow(), "backend": self.scheme}
        if extra:
            config.update(extra)
        self.write_doc(CONFIG_DOC, json.dumps(config, indent=2).encode())

    def read_config(self) -> dict:
        """The repository config document (empty dict when absent)."""
        raw = self.read_doc(CONFIG_DOC)
        return json.loads(raw) if raw else {}

    # -- associated files (content addressed) -------------------------------

    @abc.abstractmethod
    def put_file(self, sha: str, data: bytes) -> None:
        """Land one associated file durably under its digest."""

    @abc.abstractmethod
    def get_file(self, sha: str) -> bytes:
        """Read an associated file's content (KeyError when absent)."""

    @abc.abstractmethod
    def delete_file(self, sha: str) -> bool:
        """Remove an associated file; returns whether it existed."""

    @abc.abstractmethod
    def stored_file_shas(self) -> set[str]:
        """Digests of every stored associated file."""

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
    def quarantine_blob(self, kind: str, sha: str) -> bool:
        """Set a corrupt blob aside (``kind``: "chunks"/"replica"/"pages").

        Returns whether a blob was actually moved.  Quarantined blobs
        are unreachable from every read path but retained for forensics.
        """

    @abc.abstractmethod
    def quarantined(self) -> list[str]:
        """Names of quarantined blobs (``<sha>`` / ``<sha>.replica``)."""

    def litter(self, repair: bool) -> list[dict]:
        """Substrate-specific debris findings for ``dlv fsck``.

        Returns dicts with ``code`` / ``message`` / ``repaired`` /
        ``repair`` keys (converted to fsck findings by the caller).
        The default is no debris — only ``local-fs`` has stale-tmp
        litter to report.
        """
        del repair
        return []

    def sweep_stale_tmps(self) -> int:
        """Remove crashed-writer debris; returns count (fs-only concept)."""
        return 0

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
