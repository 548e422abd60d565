"""In-process repository storage for tests and ephemeral serving.

A ``mem://<name>`` repository is the SQLite backend pointed at a private
``:memory:`` database, registered process-wide under its name so the
same repository can be "reopened" by URL within one process.  An
in-memory SQLite database is visible only to the connection that created
it, so this backend shares one connection between all threads (guarded
by the backend's write lock); it trades the WAL reader/writer
concurrency of the file-backed variant for zero I/O.

``close`` is deliberately a no-op — a memory repo stays alive for
reopening until :func:`drop` (or :func:`reset`) discards it.
:func:`clone` snapshots one memory repo into a new name via the sqlite
backup API, which is how the crash matrix replays the same starting
state under many fault plans.
"""

from __future__ import annotations

import sqlite3
import threading

from repro.core.storage.sqlite import SQLiteBackend


class MemoryBackend(SQLiteBackend):
    """Whole-repository storage in one in-process SQLite database."""

    scheme = "memory"

    def __init__(
        self,
        name: str,
        *,
        create: bool = False,
        conn: sqlite3.Connection | None = None,
    ) -> None:
        self.name = name
        self.path = None
        self.root = f"mem://{name}"  # re-openable token: the URL itself
        if conn is None:
            conn = sqlite3.connect(":memory:", check_same_thread=False)
        conn.row_factory = sqlite3.Row
        self._attach(conn, create)

    def _read_conn(self) -> sqlite3.Connection:
        # A :memory: database exists only on its creating connection, so
        # every thread reads (and writes) through the one shared handle.
        return self._writer

    @property
    def url(self) -> str:
        return f"mem://{self.name}"

    def describe(self) -> dict:
        out = super().describe()
        out["location"] = self.name
        out["wal"] = False
        return out

    def close(self) -> None:
        """No-op: the repo stays reopenable until :func:`drop`."""

    def _destroy(self) -> None:
        self.catalog.close()
        self._writer.close()
        self._closed = True


_REGISTRY: dict[str, MemoryBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def create(name: str) -> MemoryBackend:
    """Create and register a fresh ``mem://name`` repository."""
    with _REGISTRY_LOCK:
        if name in _REGISTRY:
            raise FileExistsError(f"mem://{name} already is a dlv repository")
        backend = MemoryBackend(name, create=True)
        _REGISTRY[name] = backend
    return backend


def get(name: str) -> MemoryBackend:
    """Look up a previously created memory repository."""
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        raise FileNotFoundError(
            f"mem://{name} is not a dlv repository (run Repository.init)"
        )
    return backend


def drop(name: str) -> bool:
    """Discard a memory repository; returns whether it existed."""
    with _REGISTRY_LOCK:
        backend = _REGISTRY.pop(name, None)
    if backend is None:
        return False
    backend._destroy()
    return True


def reset() -> None:
    """Discard every registered memory repository (test teardown)."""
    with _REGISTRY_LOCK:
        backends = list(_REGISTRY.values())
        _REGISTRY.clear()
    for backend in backends:
        backend._destroy()


def clone(src_name: str, dst_name: str) -> MemoryBackend:
    """Snapshot one memory repo into a new name (sqlite backup API)."""
    src = get(src_name)
    if src.txn.active:
        raise RuntimeError("cannot clone inside an open transaction")
    conn = sqlite3.connect(":memory:", check_same_thread=False)
    with src._write_lock:
        src._writer.commit()
        src._writer.backup(conn)
    conn.commit()
    with _REGISTRY_LOCK:
        if dst_name in _REGISTRY:
            conn.close()
            raise FileExistsError(f"mem://{dst_name} already is a dlv repository")
        backend = MemoryBackend(dst_name, conn=conn)
        _REGISTRY[dst_name] = backend
    return backend
