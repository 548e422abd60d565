"""sqlite3 metadata catalog for DLV repositories.

ModelHub manages artifacts in a split back-end (Sec. I): structured data —
network structure, training logs, lineage, metadata — lives in a
relational database, while learned parameters live in PAS.  This module
owns the relational half.  The schema follows the paper's data model:

* ``model_version(name, id, ...)`` with the network ``N`` stored both as a
  JSON spec and relationally as ``node``/``edge`` EDBs (the DQL selector
  operator navigates these);
* ``metadata(version_id, key, value)`` and ``training_log`` for ``M``;
* ``file(version_id, path, sha)`` for ``F``;
* ``lineage(base, derived, commit)`` — the ``parent`` relation;
* ``snapshot`` / ``matrix`` / ``payload`` — the PAS-side bookkeeping:
  which matrices belong to which snapshot (co-usage groups) and how each
  matrix is currently stored (materialized or as a delta, with its byte
  plane chunk addresses).
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.core.storage.base import TxnState
from repro.dedup.pages import manifest_shas
from repro.dlv.objects import ModelVersion, Snapshot
from repro.faults import fs as ffs

_SCHEMA = """
CREATE TABLE IF NOT EXISTS model_version (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL,
    message     TEXT NOT NULL DEFAULT '',
    created_at  TEXT NOT NULL,
    network     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS node (
    version_id  INTEGER NOT NULL REFERENCES model_version(id),
    name        TEXT NOT NULL,
    kind        TEXT NOT NULL,
    attrs       TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (version_id, name)
);
CREATE TABLE IF NOT EXISTS edge (
    version_id  INTEGER NOT NULL REFERENCES model_version(id),
    src         TEXT NOT NULL,
    dst         TEXT NOT NULL,
    PRIMARY KEY (version_id, src, dst)
);
CREATE TABLE IF NOT EXISTS metadata (
    version_id  INTEGER NOT NULL REFERENCES model_version(id),
    key         TEXT NOT NULL,
    value       TEXT NOT NULL,
    PRIMARY KEY (version_id, key)
);
CREATE TABLE IF NOT EXISTS training_log (
    version_id  INTEGER NOT NULL REFERENCES model_version(id),
    iteration   INTEGER NOT NULL,
    loss        REAL,
    accuracy    REAL,
    lr          REAL,
    epoch       INTEGER
);
CREATE TABLE IF NOT EXISTS file (
    version_id  INTEGER NOT NULL REFERENCES model_version(id),
    path        TEXT NOT NULL,
    sha         TEXT NOT NULL,
    PRIMARY KEY (version_id, path)
);
CREATE TABLE IF NOT EXISTS lineage (
    base        INTEGER NOT NULL REFERENCES model_version(id),
    derived     INTEGER NOT NULL REFERENCES model_version(id),
    message     TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (base, derived)
);
CREATE TABLE IF NOT EXISTS snapshot (
    version_id   INTEGER NOT NULL REFERENCES model_version(id),
    idx          INTEGER NOT NULL,
    iteration    INTEGER NOT NULL,
    float_scheme TEXT NOT NULL DEFAULT 'float32',
    created_at   TEXT NOT NULL,
    PRIMARY KEY (version_id, idx)
);
CREATE TABLE IF NOT EXISTS matrix (
    matrix_id    TEXT PRIMARY KEY,
    version_id   INTEGER NOT NULL,
    snapshot_idx INTEGER NOT NULL,
    layer        TEXT NOT NULL,
    param        TEXT NOT NULL,
    shape        TEXT NOT NULL,
    nbytes       INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS payload (
    matrix_id    TEXT PRIMARY KEY REFERENCES matrix(matrix_id),
    parent       TEXT NOT NULL,
    kind         TEXT NOT NULL,
    chunks       TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS commit_marker (
    txid        TEXT PRIMARY KEY,
    version_id  INTEGER NOT NULL,
    created_at  TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS page_ref (
    sha         TEXT PRIMARY KEY,
    refcount    INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS page_payload (
    matrix_id   TEXT NOT NULL,
    plane       INTEGER NOT NULL,
    manifest    TEXT NOT NULL,
    PRIMARY KEY (matrix_id, plane)
);
CREATE TABLE IF NOT EXISTS page_sketch (
    sketch      TEXT NOT NULL,
    sha         TEXT NOT NULL,
    PRIMARY KEY (sketch, sha)
);
CREATE INDEX IF NOT EXISTS idx_matrix_snapshot
    ON matrix(version_id, snapshot_idx);
CREATE INDEX IF NOT EXISTS idx_page_sketch_sha
    ON page_sketch(sha);
"""


class Catalog:
    """Thin data-access layer over the repository's sqlite3 database.

    Opens (and owns) its own connection when given a ``path``, or rides
    a connection borrowed from a storage backend whose blobs live in the
    same database (``conn=``) — in which case the catalog never closes
    it.  The transaction-nesting state can likewise be shared: a backend
    passes its :class:`~repro.core.storage.base.TxnState` so blob writes
    issued inside a :meth:`transaction` block join the same sqlite
    transaction and commit (or roll back) with it.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        conn: Optional[sqlite3.Connection] = None,
        txn: Optional[TxnState] = None,
    ) -> None:
        if conn is None:
            if path is None:
                raise ValueError("Catalog needs a path or a connection")
            self.path = Path(path)
            self._conn = sqlite3.connect(self.path)
            self._conn.row_factory = sqlite3.Row
            self._owns_conn = True
        else:
            self.path = Path(path) if path is not None else None
            self._conn = conn
            self._owns_conn = False
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._txn = txn if txn is not None else TxnState()

    def close(self) -> None:
        if self._owns_conn:
            self._conn.close()

    # -- transactions ---------------------------------------------------------

    def _maybe_commit(self) -> None:
        """Commit now, unless a :meth:`transaction` is open (deferred)."""
        if self._txn.depth == 0:
            self._conn.commit()

    @contextmanager
    def transaction(self) -> Iterator["Catalog"]:
        """Group catalog writes into one atomic sqlite transaction.

        Every write method inside the block defers its commit; the block
        exit commits once (all rows become visible together, which is
        what makes a crash mid-commit leave *zero* dangling rows) or
        rolls everything back on error.  Nesting is allowed — only the
        outermost exit commits.  The commit point is an instrumented
        fault site (``catalog.commit``), so crash-matrix tests cover
        "died just before the transaction landed".
        """
        self._txn.depth += 1
        try:
            yield self
        except BaseException:
            self._txn.depth -= 1
            if self._txn.depth == 0:
                self._conn.rollback()
            raise
        self._txn.depth -= 1
        if self._txn.depth == 0:
            try:
                ffs.checkpoint("catalog.commit")
            except BaseException:
                self._conn.rollback()
                raise
            self._conn.commit()

    # -- commit markers (journal protocol) ------------------------------------

    def add_commit_marker(
        self, txid: str, version_id: int, created_at: str = ""
    ) -> None:
        """Record that the transaction ``txid`` reached durability."""
        self._conn.execute(
            "INSERT OR REPLACE INTO commit_marker (txid, version_id, "
            "created_at) VALUES (?, ?, ?)",
            (txid, version_id, created_at),
        )
        self._maybe_commit()

    def has_commit_marker(self, txid: str) -> bool:
        row = self._conn.execute(
            "SELECT txid FROM commit_marker WHERE txid = ?", (txid,)
        ).fetchone()
        return row is not None

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- model versions ------------------------------------------------------

    def insert_version(
        self,
        name: str,
        message: str,
        created_at: str,
        network_spec: dict,
    ) -> int:
        cur = self._conn.execute(
            "INSERT INTO model_version (name, message, created_at, network) "
            "VALUES (?, ?, ?, ?)",
            (name, message, created_at, json.dumps(network_spec)),
        )
        version_id = cur.lastrowid
        for entry in network_spec.get("nodes", []):
            layer = entry["layer"]
            self._conn.execute(
                "INSERT INTO node (version_id, name, kind, attrs) "
                "VALUES (?, ?, ?, ?)",
                (
                    version_id,
                    layer["name"],
                    layer["kind"],
                    json.dumps(layer.get("hyperparams", {})),
                ),
            )
            self._conn.execute(
                "INSERT INTO edge (version_id, src, dst) VALUES (?, ?, ?)",
                (version_id, entry["input"], layer["name"]),
            )
        self._maybe_commit()
        return version_id

    def get_version(self, version_id: int) -> Optional[ModelVersion]:
        row = self._conn.execute(
            "SELECT * FROM model_version WHERE id = ?", (version_id,)
        ).fetchone()
        if row is None:
            return None
        version = ModelVersion(
            id=row["id"],
            name=row["name"],
            message=row["message"],
            created_at=row["created_at"],
            network=json.loads(row["network"]),
            metadata=self.get_metadata(version_id),
            files=self.get_files(version_id),
            snapshots=self.get_snapshots(version_id),
        )
        return version

    def find_versions(self, name_like: Optional[str] = None) -> list[ModelVersion]:
        """All versions, optionally filtered by a SQL LIKE pattern on name."""
        if name_like is None:
            rows = self._conn.execute(
                "SELECT id FROM model_version ORDER BY id"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT id FROM model_version WHERE name LIKE ? ORDER BY id",
                (name_like,),
            ).fetchall()
        return [self.get_version(r["id"]) for r in rows]

    def latest_version_id(self) -> Optional[int]:
        row = self._conn.execute(
            "SELECT MAX(id) AS m FROM model_version"
        ).fetchone()
        return row["m"]

    # -- metadata / logs / files -------------------------------------------------

    def set_metadata(self, version_id: int, values: dict) -> None:
        for key, value in values.items():
            self._conn.execute(
                "INSERT OR REPLACE INTO metadata (version_id, key, value) "
                "VALUES (?, ?, ?)",
                (version_id, key, json.dumps(value)),
            )
        self._maybe_commit()

    def get_metadata(self, version_id: int) -> dict:
        rows = self._conn.execute(
            "SELECT key, value FROM metadata WHERE version_id = ?",
            (version_id,),
        ).fetchall()
        return {r["key"]: json.loads(r["value"]) for r in rows}

    def add_training_log(self, version_id: int, entries: Iterable[dict]) -> None:
        self._conn.executemany(
            "INSERT INTO training_log (version_id, iteration, loss, accuracy, "
            "lr, epoch) VALUES (?, ?, ?, ?, ?, ?)",
            [
                (
                    version_id,
                    e.get("iteration"),
                    e.get("loss"),
                    e.get("accuracy"),
                    e.get("lr"),
                    e.get("epoch"),
                )
                for e in entries
            ],
        )
        self._maybe_commit()

    def get_training_log(self, version_id: int) -> list[dict]:
        rows = self._conn.execute(
            "SELECT iteration, loss, accuracy, lr, epoch FROM training_log "
            "WHERE version_id = ? ORDER BY iteration",
            (version_id,),
        ).fetchall()
        return [dict(r) for r in rows]

    def add_files(self, version_id: int, files: dict[str, str]) -> None:
        self._conn.executemany(
            "INSERT OR REPLACE INTO file (version_id, path, sha) VALUES (?, ?, ?)",
            [(version_id, p, s) for p, s in files.items()],
        )
        self._maybe_commit()

    def get_files(self, version_id: int) -> dict[str, str]:
        rows = self._conn.execute(
            "SELECT path, sha FROM file WHERE version_id = ?", (version_id,)
        ).fetchall()
        return {r["path"]: r["sha"] for r in rows}

    def all_file_shas(self) -> set[str]:
        """Every associated-file digest referenced by any version."""
        rows = self._conn.execute("SELECT DISTINCT sha FROM file").fetchall()
        return {r["sha"] for r in rows}

    # -- lineage ----------------------------------------------------------------

    def add_lineage(self, base: int, derived: int, message: str = "") -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO lineage (base, derived, message) "
            "VALUES (?, ?, ?)",
            (base, derived, message),
        )
        self._maybe_commit()

    def get_parents(self, version_id: int) -> list[int]:
        rows = self._conn.execute(
            "SELECT base FROM lineage WHERE derived = ?", (version_id,)
        ).fetchall()
        return [r["base"] for r in rows]

    def get_children(self, version_id: int) -> list[int]:
        rows = self._conn.execute(
            "SELECT derived FROM lineage WHERE base = ?", (version_id,)
        ).fetchall()
        return [r["derived"] for r in rows]

    def all_lineage(self) -> list[tuple[int, int, str]]:
        rows = self._conn.execute(
            "SELECT base, derived, message FROM lineage ORDER BY derived"
        ).fetchall()
        return [(r["base"], r["derived"], r["message"]) for r in rows]

    # -- snapshots & PAS bookkeeping ----------------------------------------------

    def add_snapshot(self, snapshot: Snapshot) -> None:
        self._conn.execute(
            "INSERT INTO snapshot (version_id, idx, iteration, float_scheme, "
            "created_at) VALUES (?, ?, ?, ?, ?)",
            (
                snapshot.version_id,
                snapshot.index,
                snapshot.iteration,
                snapshot.float_scheme,
                snapshot.created_at,
            ),
        )
        self._maybe_commit()

    def set_snapshot_scheme(
        self, version_id: int, idx: int, float_scheme: str
    ) -> None:
        self._conn.execute(
            "UPDATE snapshot SET float_scheme = ? "
            "WHERE version_id = ? AND idx = ?",
            (float_scheme, version_id, idx),
        )
        self._maybe_commit()

    def delete_snapshot(self, version_id: int, idx: int) -> None:
        """Drop one snapshot row (its matrices go via :meth:`delete_matrix`)."""
        self._conn.execute(
            "DELETE FROM snapshot WHERE version_id = ? AND idx = ?",
            (version_id, idx),
        )
        self._maybe_commit()

    def get_snapshots(self, version_id: int) -> list[Snapshot]:
        rows = self._conn.execute(
            "SELECT * FROM snapshot WHERE version_id = ? ORDER BY idx",
            (version_id,),
        ).fetchall()
        return [
            Snapshot(
                version_id=r["version_id"],
                index=r["idx"],
                iteration=r["iteration"],
                float_scheme=r["float_scheme"],
                created_at=r["created_at"],
            )
            for r in rows
        ]

    def add_matrix(
        self,
        matrix_id: str,
        version_id: int,
        snapshot_idx: int,
        layer: str,
        param: str,
        shape: tuple,
        nbytes: int,
    ) -> None:
        self._conn.execute(
            "INSERT INTO matrix (matrix_id, version_id, snapshot_idx, layer, "
            "param, shape, nbytes) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                matrix_id,
                version_id,
                snapshot_idx,
                layer,
                param,
                json.dumps(list(shape)),
                nbytes,
            ),
        )

    def get_matrices(
        self, version_id: Optional[int] = None, snapshot_idx: Optional[int] = None
    ) -> list[dict]:
        query = "SELECT * FROM matrix"
        clauses, args = [], []
        if version_id is not None:
            clauses.append("version_id = ?")
            args.append(version_id)
        if snapshot_idx is not None:
            clauses.append("snapshot_idx = ?")
            args.append(snapshot_idx)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        rows = self._conn.execute(query, args).fetchall()
        return [
            {
                "matrix_id": r["matrix_id"],
                "version_id": r["version_id"],
                "snapshot_idx": r["snapshot_idx"],
                "layer": r["layer"],
                "param": r["param"],
                "shape": tuple(json.loads(r["shape"])),
                "nbytes": r["nbytes"],
            }
            for r in rows
        ]

    def set_payload(
        self, matrix_id: str, parent: str, kind: str, chunks: list[str]
    ) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO payload (matrix_id, parent, kind, chunks) "
            "VALUES (?, ?, ?, ?)",
            (matrix_id, parent, kind, json.dumps(chunks)),
        )

    def delete_matrix(self, matrix_id: str) -> None:
        """Drop a matrix: its matrix and payload rows *and* its page
        manifests with the reference counts they hold, so the pages and
        replica mirrors only it kept alive become collectable."""
        self.release_page_manifests(matrix_id)
        self._conn.execute(
            "DELETE FROM payload WHERE matrix_id = ?", (matrix_id,)
        )
        self._conn.execute(
            "DELETE FROM matrix WHERE matrix_id = ?", (matrix_id,)
        )
        self._maybe_commit()

    @staticmethod
    def _payload(row: sqlite3.Row) -> dict:
        return {
            "matrix_id": row["matrix_id"],
            "parent": row["parent"],
            "kind": row["kind"],
            "chunks": json.loads(row["chunks"]),
        }

    def get_payload(self, matrix_id: str) -> Optional[dict]:
        row = self._conn.execute(
            "SELECT * FROM payload WHERE matrix_id = ?", (matrix_id,)
        ).fetchone()
        return self._payload(row) if row is not None else None

    def all_payloads(self) -> list[dict]:
        rows = self._conn.execute("SELECT * FROM payload").fetchall()
        return [self._payload(row) for row in rows]

    # -- dedup page bookkeeping ---------------------------------------------------

    def set_page_manifest(self, matrix_id: str, plane: int, manifest: dict) -> None:
        """Record the page manifest of one plane of a page-encoded payload."""
        self._conn.execute(
            "INSERT OR REPLACE INTO page_payload (matrix_id, plane, manifest) "
            "VALUES (?, ?, ?)",
            (matrix_id, plane, json.dumps(manifest)),
        )
        self._maybe_commit()

    def get_page_manifests(self, matrix_id: str) -> dict[int, dict]:
        rows = self._conn.execute(
            "SELECT plane, manifest FROM page_payload WHERE matrix_id = ?",
            (matrix_id,),
        ).fetchall()
        return {r["plane"]: json.loads(r["manifest"]) for r in rows}

    def all_page_manifests(self) -> list[tuple[str, int, dict]]:
        rows = self._conn.execute(
            "SELECT matrix_id, plane, manifest FROM page_payload "
            "ORDER BY matrix_id, plane"
        ).fetchall()
        return [
            (r["matrix_id"], r["plane"], json.loads(r["manifest"])) for r in rows
        ]

    def release_page_manifests(self, matrix_id: str) -> None:
        """Drop a matrix's page manifests and the reference counts they
        hold; the blobs themselves are swept by ``gc`` once unreferenced."""
        for manifest in self.get_page_manifests(matrix_id).values():
            for sha in manifest_shas(manifest):
                self.bump_page_ref(sha, -1)
        self._conn.execute(
            "DELETE FROM page_payload WHERE matrix_id = ?", (matrix_id,)
        )
        self._maybe_commit()

    def bump_page_ref(self, sha: str, delta: int) -> None:
        """Adjust one page's reference count.

        Rows at zero (or below — drift repaired by fsck F402) are
        dropped so the table mirrors the set of live pages.
        """
        self._conn.execute(
            "INSERT INTO page_ref (sha, refcount) VALUES (?, ?) "
            "ON CONFLICT(sha) DO UPDATE SET refcount = refcount + ?",
            (sha, delta, delta),
        )
        self._conn.execute(
            "DELETE FROM page_ref WHERE sha = ? AND refcount <= 0", (sha,)
        )
        self._maybe_commit()

    def page_refcounts(self) -> dict[str, int]:
        rows = self._conn.execute(
            "SELECT sha, refcount FROM page_ref"
        ).fetchall()
        return {r["sha"]: r["refcount"] for r in rows}

    def replace_page_refcounts(self, counts: dict[str, int]) -> None:
        """Overwrite the whole refcount table (fsck ``--repair``)."""
        self._conn.execute("DELETE FROM page_ref")
        self._conn.executemany(
            "INSERT INTO page_ref (sha, refcount) VALUES (?, ?)",
            [(sha, n) for sha, n in counts.items() if n > 0],
        )
        self._maybe_commit()

    def add_page_sketch(self, sketch: str, sha: str) -> None:
        self._conn.execute(
            "INSERT OR IGNORE INTO page_sketch (sketch, sha) VALUES (?, ?)",
            (sketch, sha),
        )
        self._maybe_commit()

    def has_page_sketches(self) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM page_sketch LIMIT 1"
        ).fetchone() is not None

    def sketch_candidates(self, sketches: Iterable[str], limit: int = 4) -> list[str]:
        """Base-page shas matching the most probe bands, best first."""
        keys = list(sketches)
        if not keys:
            return []
        placeholders = ",".join("?" for _ in keys)
        rows = self._conn.execute(
            f"SELECT sha, COUNT(*) AS votes FROM page_sketch "
            f"WHERE sketch IN ({placeholders}) "
            f"GROUP BY sha ORDER BY votes DESC, sha LIMIT ?",
            (*keys, limit),
        ).fetchall()
        return [r["sha"] for r in rows]

    def forget_pages(self, shas: Iterable[str]) -> None:
        """Drop the refcount and sketch rows of swept page blobs."""
        rows = [(s,) for s in shas]
        self._conn.executemany("DELETE FROM page_ref WHERE sha = ?", rows)
        self._conn.executemany("DELETE FROM page_sketch WHERE sha = ?", rows)
        self._maybe_commit()

    def commit(self) -> None:
        self._maybe_commit()
