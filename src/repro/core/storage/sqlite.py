"""Single-file SQLite repository storage in WAL mode.

The whole repository — both chunk-store tiers, associated files, the
stage and config documents, the write-ahead journal, the quarantine,
*and* the relational catalog — lives in one database file, so a repo
ships as a single artifact and replicates with one copy.

Concurrency model (the reason this backend exists):

* ``PRAGMA journal_mode=WAL`` lets readers proceed against the last
  committed snapshot while a writer's transaction is in flight —
  concurrent ``get`` during a journaled commit neither blocks nor
  observes torn/uncommitted state.
* One **writer connection** is shared between the catalog and the blob
  stores.  Blob writes issued while the catalog holds an open
  transaction (:class:`~repro.core.storage.base.TxnState`) join that
  transaction and commit (or roll back) with it — which makes
  ``archive`` / ``convert`` / ``prune`` / fsck-repair chunk rewrites
  atomic with their payload-table updates, something the local-fs
  backend can only approximate with orphan sweeps.
* Reads from other threads use **per-thread read connections** (WAL
  snapshots); reads on the owning thread use the writer connection so
  they observe its in-flight transaction (e.g. ``stored_size`` of a
  chunk written moments ago inside ``convert``).

Crash semantics mirror the journaled-commit protocol of the local-fs
backend: journal intents are inserted and committed *before* any chunk
lands (and refuse to run inside a catalog transaction), chunk writes at
transaction depth zero commit immediately, and the catalog transaction
that ends with the commit marker is the atomic commit point.  Fault
injection uses the same site names (``chunkstore.put.write``,
``journal.write``, ``journal.retire``, ``repo.files.write``,
``catalog.commit``) via :func:`repro.faults.fs.prepare_write`, so the
crash matrix runs unchanged over this backend.
"""

from __future__ import annotations

import json
import sqlite3
import tempfile
import threading
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.core.chunkstore import BlobCodec
from repro.core.storage.base import StorageBackend, TxnState
from repro.faults import fs as ffs
from repro.faults.plan import CrashSimulated

_STORE_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_blob (
    ns    TEXT NOT NULL,
    sha   TEXT NOT NULL,
    data  BLOB NOT NULL,
    PRIMARY KEY (ns, sha)
);
CREATE TABLE IF NOT EXISTS store_file (
    sha   TEXT NOT NULL PRIMARY KEY,
    data  BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS store_doc (
    name  TEXT NOT NULL PRIMARY KEY,
    data  BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS store_journal (
    txid  TEXT NOT NULL PRIMARY KEY,
    seq   INTEGER NOT NULL,
    data  BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS store_quarantine (
    name  TEXT NOT NULL PRIMARY KEY,
    data  BLOB NOT NULL
);
"""

#: File name of the database inside a published tree / pulled ``.dlv``.
DB_NAME = "repo.db"

#: Most addresses one ``get_many`` or ``delete_many`` statement binds:
#: with the namespace this stays under SQLite's historical 999-variable
#: limit.
GET_BATCH = 900


class SQLiteBlobStore(BlobCodec):
    """One content-addressed tier (``chunks`` / ``replica``) as blob rows.

    Conforms to :class:`~repro.core.storage.base.BlobStore`; rows hold
    the :class:`~repro.core.chunkstore.BlobCodec` stored form, exactly
    like the files of :class:`~repro.core.chunkstore.ChunkStore`.
    """

    def __init__(self, backend: "SQLiteBackend", ns: str) -> None:
        super().__init__()
        self._backend = backend
        self.ns = ns

    def _row(self, select: str, sha: str):
        row = self._backend._read_conn().execute(
            f"SELECT {select} FROM store_blob WHERE ns = ? AND sha = ?",
            (self.ns, sha),
        ).fetchone()
        if row is None:
            raise self._missing(sha)
        return row[0]

    def put(self, data: bytes) -> str:
        """Store one blob: :meth:`put_many` of one."""
        return self.put_many((data,))[0]

    def put_many(self, blobs: Iterable[bytes]) -> list[str]:
        """Store blobs with one ``INSERT`` statement; it commits at once
        unless a catalog transaction is open, which it then joins."""
        backend = self._backend
        shas: list[str] = []
        rows: list[tuple[str, str, bytes]] = []
        new: set[str] = set()
        crash_after = False
        with backend._write_lock:
            try:
                for data in blobs:
                    sha = self.address(data)
                    existed = sha in new or backend._blob_exists(self.ns, sha)
                    if not existed:
                        payload, crash_after = ffs.prepare_write(
                            "chunkstore.put.write", self._stored_form(data, sha)
                        )
                        rows.append((self.ns, sha, payload))
                        new.add(sha)
                    self._count_put(len(data), deduplicated=existed)
                    shas.append(sha)
                    if crash_after:
                        break
            finally:
                # Blobs prepared before a fault still land, as they did
                # when each blob was its own put.
                if rows:
                    backend._writer.executemany(
                        "INSERT OR REPLACE INTO store_blob (ns, sha, data) "
                        "VALUES (?, ?, ?)",
                        rows,
                    )
                    backend._commit_if_root()
            if crash_after:
                raise CrashSimulated(
                    "simulated crash after torn write (chunkstore.put.write)"
                )
        return shas

    def get(self, sha: str) -> bytes:
        """Retrieve and verify a blob.

        Raises:
            KeyError: when the address is unknown.
            ChunkIntegrityError: when the stored content fails integrity
                checking.
        """
        return self._decode(sha, self._row("data", sha))

    def _read_many(self, shas: list[str]) -> dict[str, bytes]:
        """One ``SELECT`` per :data:`GET_BATCH` addresses."""
        conn = self._backend._read_conn()
        found: dict[str, bytes] = {}
        for start in range(0, len(shas), GET_BATCH):
            part = shas[start:start + GET_BATCH]
            rows = conn.execute(
                "SELECT sha, data FROM store_blob WHERE ns = ? AND sha IN "
                f"({','.join('?' * len(part))})",
                (self.ns, *part),
            ).fetchall()
            found.update((sha, data) for sha, data in rows)
        missing = next((sha for sha in shas if sha not in found), None)
        if missing is not None:
            raise self._missing(missing)
        return {sha: found[sha] for sha in shas}

    def __contains__(self, sha: str) -> bool:
        return self._backend._blob_exists(self.ns, sha, read=True)

    def delete_many(self, addresses: Iterable[str]) -> int:
        """One ``DELETE`` per :data:`GET_BATCH` addresses; returns how
        many rows went."""
        shas = list(dict.fromkeys(addresses))
        if not shas:
            return 0
        backend = self._backend
        removed = 0
        with backend._write_lock:
            for start in range(0, len(shas), GET_BATCH):
                part = shas[start:start + GET_BATCH]
                removed += backend._writer.execute(
                    "DELETE FROM store_blob WHERE ns = ? AND sha IN "
                    f"({','.join('?' * len(part))})",
                    (self.ns, *part),
                ).rowcount
            backend._commit_if_root()
        return removed

    def stored_size(self, sha: str) -> int:
        """Stored (compressed) size of one blob."""
        return self._row("length(data)", sha)

    def total_size(self) -> int:
        """Total stored bytes across this tier."""
        row = self._backend._read_conn().execute(
            "SELECT COALESCE(SUM(length(data)), 0) FROM store_blob "
            "WHERE ns = ?",
            (self.ns,),
        ).fetchone()
        return row[0]

    def addresses(self) -> Iterator[str]:
        """Iterate over every stored content address (sorted)."""
        rows = self._backend._read_conn().execute(
            "SELECT sha FROM store_blob WHERE ns = ? ORDER BY sha", (self.ns,)
        ).fetchall()
        return iter([r[0] for r in rows])


class SQLiteJournal:
    """Write-ahead intent journal as rows of the same database.

    Journal writes always commit immediately on the writer connection —
    an intent must be durable before the data it describes, so recording
    or retiring one inside an open catalog transaction is a protocol
    violation and raises.
    """

    def __init__(self, backend: "SQLiteBackend") -> None:
        self._backend = backend

    def _guard_txn(self, action: str) -> None:
        if self._backend.txn.active:
            raise RuntimeError(
                f"journal {action} inside an open catalog transaction "
                "(intents must commit independently)"
            )

    def record(self, op: str, **payload):
        """Durably insert an intent row; returns the entry to retire later."""
        from repro.dlv.journal import JournalEntry

        self._guard_txn("record")
        txid = uuid.uuid4().hex
        data = {"txid": txid, "op": op, **payload}
        raw, crash_after = ffs.prepare_write(
            "journal.write", json.dumps(data, indent=2, default=str).encode()
        )
        backend = self._backend
        with backend._write_lock:
            backend._writer.execute(
                "INSERT INTO store_journal (txid, seq, data) VALUES (?, "
                "(SELECT COALESCE(MAX(seq), 0) + 1 FROM store_journal), ?)",
                (txid, raw),
            )
            backend._writer.commit()
        if crash_after:
            raise CrashSimulated(
                "simulated crash after torn write (journal.write)"
            )
        return JournalEntry(path=None, txid=txid, data=data)

    def retire(self, entry) -> None:
        """Remove a fulfilled (or rolled-back) intent."""
        self._guard_txn("retire")
        ffs.checkpoint("journal.retire")
        backend = self._backend
        with backend._write_lock:
            backend._writer.execute(
                "DELETE FROM store_journal WHERE txid = ?", (entry.txid,)
            )
            backend._writer.commit()

    def pending(self) -> list:
        """All intent rows, oldest first; torn ones have ``data=None``."""
        from repro.dlv.journal import JournalEntry

        rows = self._backend._read_conn().execute(
            "SELECT txid, data FROM store_journal ORDER BY seq"
        ).fetchall()
        entries = []
        for txid, raw in rows:
            try:
                data = json.loads(bytes(raw).decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                data = None
            entries.append(JournalEntry(path=None, txid=txid, data=data))
        return entries

    def write_raw(self, txid: str, text: str) -> None:
        """Test helper: store an intent payload verbatim (possibly torn)."""
        backend = self._backend
        with backend._write_lock:
            backend._writer.execute(
                "INSERT OR REPLACE INTO store_journal (txid, seq, data) "
                "VALUES (?, (SELECT COALESCE(MAX(seq), 0) + 1 FROM "
                "store_journal), ?)",
                (txid, text.encode()),
            )
            backend._writer.commit()


class SQLiteBackend(StorageBackend):
    """Whole-repository storage in one WAL-mode SQLite database file."""

    scheme = "sqlite"

    def __init__(self, path: str | Path, *, create: bool = False) -> None:
        self.path = Path(path)
        self.root = self.path  # re-openable token: the db file itself
        if create:
            if self.path.exists():
                raise FileExistsError(
                    f"{self.path} already is a dlv repository database"
                )
            self.path.parent.mkdir(parents=True, exist_ok=True)
        elif not self.path.exists():
            raise FileNotFoundError(
                f"{self.path} is not a dlv repository (run Repository.init)"
            )
        self._attach(self._connect(), create)

    def _attach(self, writer: sqlite3.Connection, create: bool) -> None:
        """Wire the blob tiers, journal and catalog onto one writer."""
        self.txn = TxnState()
        self._write_lock = threading.RLock()
        self._owner_thread = threading.get_ident()
        self._reader_local = threading.local()
        self._readers: list[sqlite3.Connection] = []
        self._readers_lock = threading.Lock()
        self._closed = False
        self._writer = writer
        writer.executescript(_STORE_SCHEMA)
        writer.commit()
        from repro.dlv.catalog import Catalog

        self.catalog = Catalog(self.path, conn=writer, txn=self.txn)
        self.chunks = SQLiteBlobStore(self, "chunks")
        self.replica = SQLiteBlobStore(self, "replica")
        self.pages = SQLiteBlobStore(self, "pages")
        self.journal = SQLiteJournal(self)
        if create:
            self.write_config()

    # -- connections -----------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=5000")
        return conn

    def _read_conn(self) -> sqlite3.Connection:
        """The connection reads should use on the current thread.

        The owning thread reads through the writer connection (so it
        sees its own in-flight transaction); every other thread gets a
        lazily created private connection, which in WAL mode reads the
        last committed snapshot without blocking the writer.
        """
        if threading.get_ident() == self._owner_thread:
            return self._writer
        conn = getattr(self._reader_local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._reader_local.conn = conn
            with self._readers_lock:
                self._readers.append(conn)
        return conn

    def _commit_if_root(self) -> None:
        """Commit the writer now unless a catalog transaction is open."""
        if not self.txn.active:
            self._writer.commit()

    def _blob_exists(self, ns: str, sha: str, read: bool = False) -> bool:
        conn = self._read_conn() if read else self._writer
        row = conn.execute(
            "SELECT 1 FROM store_blob WHERE ns = ? AND sha = ?", (ns, sha)
        ).fetchone()
        return row is not None

    # -- identity ---------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"sqlite://{self.path}"

    def describe(self) -> dict:
        out = super().describe()
        out["location"] = str(self.path)
        out["wal"] = True
        return out

    # -- associated files --------------------------------------------------------

    def put_file(self, sha: str, data: bytes) -> None:
        with self._write_lock:
            row = self._writer.execute(
                "SELECT 1 FROM store_file WHERE sha = ?", (sha,)
            ).fetchone()
            if row is not None:
                return
            payload, crash_after = ffs.prepare_write("repo.files.write", data)
            self._writer.execute(
                "INSERT OR REPLACE INTO store_file (sha, data) VALUES (?, ?)",
                (sha, payload),
            )
            self._commit_if_root()
            if crash_after:
                raise CrashSimulated(
                    "simulated crash after torn write (repo.files.write)"
                )

    def get_file(self, sha: str) -> bytes:
        row = self._read_conn().execute(
            "SELECT data FROM store_file WHERE sha = ?", (sha,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no stored file {sha}")
        return bytes(row[0])

    def delete_file(self, sha: str) -> bool:
        with self._write_lock:
            cur = self._writer.execute(
                "DELETE FROM store_file WHERE sha = ?", (sha,)
            )
            self._commit_if_root()
        return cur.rowcount > 0

    def stored_file_shas(self) -> set[str]:
        rows = self._read_conn().execute(
            "SELECT sha FROM store_file"
        ).fetchall()
        return {r[0] for r in rows}

    # -- documents ----------------------------------------------------------------

    def read_doc(self, name: str) -> Optional[bytes]:
        row = self._read_conn().execute(
            "SELECT data FROM store_doc WHERE name = ?", (name,)
        ).fetchone()
        return bytes(row[0]) if row is not None else None

    def write_doc(self, name: str, data: bytes) -> None:
        with self._write_lock:
            self._writer.execute(
                "INSERT OR REPLACE INTO store_doc (name, data) VALUES (?, ?)",
                (name, data),
            )
            self._commit_if_root()

    def delete_doc(self, name: str) -> bool:
        with self._write_lock:
            cur = self._writer.execute(
                "DELETE FROM store_doc WHERE name = ?", (name,)
            )
            self._commit_if_root()
        return cur.rowcount > 0

    def list_docs(self, prefix: str = "") -> list[str]:
        rows = self._read_conn().execute(
            "SELECT name FROM store_doc WHERE name LIKE ? ORDER BY name",
            (f"{prefix}%",),
        ).fetchall()
        return [r[0] for r in rows]

    # -- fsck contract --------------------------------------------------------------

    def quarantine_blobs(self, kind: str, shas: Iterable[str]) -> int:
        """Move corrupt blob rows into the quarantine table, one
        statement of each kind per :data:`GET_BATCH` addresses."""
        if kind not in ("chunks", "replica", "pages"):
            raise ValueError(f"unknown blob tier {kind!r}")
        suffix = {"chunks": "", "replica": ".replica", "pages": ".page"}[kind]
        shas = sorted(set(shas))
        moved = 0
        with self._write_lock:
            for start in range(0, len(shas), GET_BATCH):
                part = shas[start:start + GET_BATCH]
                marks = ",".join("?" * len(part))
                self._writer.execute(
                    "INSERT OR REPLACE INTO store_quarantine (name, data) "
                    "SELECT sha || ?, data FROM store_blob "
                    f"WHERE ns = ? AND sha IN ({marks})",
                    (suffix, kind, *part),
                )
                moved += self._writer.execute(
                    f"DELETE FROM store_blob WHERE ns = ? AND sha IN ({marks})",
                    (kind, *part),
                ).rowcount
            self._commit_if_root()
        from repro.obs.metrics import counter

        counter("fsck.quarantined").inc(moved)
        return moved

    def quarantined(self) -> list[str]:
        rows = self._read_conn().execute(
            "SELECT name FROM store_quarantine ORDER BY name"
        ).fetchall()
        return [r[0] for r in rows]

    # litter(): inherited no-op — a database has no tmp-file debris.

    # -- hub publishing ----------------------------------------------------------------

    @contextmanager
    def publish_tree(self):
        """A temp tree holding one consistent ``repo.db`` snapshot.

        Uses the sqlite backup API, so the snapshot is transactionally
        consistent even while a writer is active, and carries no ``-wal``
        / ``-shm`` sidecars — the published repo really is one file.
        """
        if self.txn.active:
            raise RuntimeError("cannot publish inside an open transaction")
        with tempfile.TemporaryDirectory(prefix="dlv-publish-") as tmp:
            dest = Path(tmp) / DB_NAME
            snapshot = sqlite3.connect(str(dest))
            try:
                with self._write_lock:
                    self._writer.commit()
                    self._writer.backup(snapshot)
                snapshot.commit()
            finally:
                snapshot.close()
            yield Path(tmp)

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.catalog.close()
        with self._readers_lock:
            readers, self._readers = self._readers, []
        for conn in readers:
            conn.close()
        self._writer.close()
