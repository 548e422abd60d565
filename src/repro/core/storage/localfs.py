"""The local-fs storage backend (the original ``.dlv/`` layout).

Everything lives under ``<root>/.dlv/``: the sqlite3 catalog, the three
:class:`~repro.core.chunkstore.ChunkStore` blob tiers (``chunks``,
``replica``, ``pages``) — each a directory of immutable packs, one per
write batch, folded into one by ``gc`` — content-addressed associated
files, the intent-file journal, and small documents (config, stage,
archive reports) as JSON files landed by tmp file, fsync and rename.
All mutations route through :mod:`repro.faults.fs`, so fault plans
tear/crash/corrupt this backend exactly as before the storage seam
existed.

Filesystem-only concepts — unique tmp names, the sweep of stale tmp
litter after a crash, quarantine as a copy into a directory, the fold
of format-1 loose blobs into one pack per tier on every open and the
config upgrade after it — are implemented here and *only* here; the
database backends have no such debris.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from pathlib import Path
from typing import Iterable, Optional

from repro.core.chunkstore import ChunkStore
from repro.core.storage.base import (
    ARCHIVES_PREFIX,
    CONFIG_DOC,
    FORMAT,
    StorageBackend,
    TxnState,
    yield_path,
)
from repro.faults import fs as ffs
from repro.obs.metrics import counter


#: Process-wide sequence making concurrent document writers' tmps distinct.
_doc_tmp_counter = itertools.count()


class LocalFSBackend(StorageBackend):
    """Repository storage as files under ``<root>/.dlv/``."""

    scheme = "local-fs"
    DLV_DIR = ".dlv"

    def __init__(self, root: str | Path, *, create: bool = False) -> None:
        self.root = Path(root)
        self.dlv_dir = self.root / self.DLV_DIR
        if create:
            if self.dlv_dir.exists():
                raise FileExistsError(f"{self.root} already is a dlv repository")
            self.dlv_dir.mkdir(parents=True)
        elif not self.dlv_dir.exists():
            raise FileNotFoundError(
                f"{self.root} is not a dlv repository (run Repository.init)"
            )
        from repro.dlv.catalog import Catalog
        from repro.dlv.journal import Journal

        self.txn = TxnState()
        self.catalog = Catalog(self.dlv_dir / "catalog.db", txn=self.txn)
        # Opening the stores sweeps any stale pack tmps from a crash.
        self.chunks = ChunkStore(self.dlv_dir / "chunks")
        self.replica = ChunkStore(self.dlv_dir / "replica")
        # Dedup page tier; mkdir-on-open upgrades pre-dedup repositories.
        self.pages = ChunkStore(self.dlv_dir / "pages")
        self.files_dir = self.dlv_dir / "files"
        self.files_dir.mkdir(exist_ok=True)
        self.journal = Journal(self.dlv_dir / "journal")
        if create:
            self.write_config()

    @property
    def url(self) -> str:
        return f"file://{self.root}"

    def describe(self) -> dict:
        out = super().describe()
        out["location"] = str(self.root)
        return out

    # -- associated files ----------------------------------------------------

    def put_file(self, sha: str, data: bytes) -> None:
        """Land one associated file durably (write-tmp, fsync, rename)."""
        dest = self.files_dir / sha
        if dest.exists():
            return
        tmp = dest.with_name(f"{sha}.{os.getpid()}.tmp")
        ffs.write_bytes(tmp, data, site="repo.files.write")
        ffs.replace(tmp, dest, site="repo.files.replace")
        ffs.fsync_dir(self.files_dir)

    def get_file(self, sha: str) -> bytes:
        path = self.files_dir / sha
        if not path.exists():
            raise KeyError(f"no stored file {sha}")
        return path.read_bytes()

    def delete_file(self, sha: str) -> bool:
        path = self.files_dir / sha
        if path.exists():
            path.unlink()
            return True
        return False

    def stored_file_shas(self) -> set[str]:
        return {
            p.name
            for p in self.files_dir.iterdir()
            if p.is_file() and p.suffix != ".tmp"
        }

    # -- documents ------------------------------------------------------------

    def _doc_path(self, name: str) -> Path:
        return self.dlv_dir / name

    def read_doc(self, name: str) -> Optional[bytes]:
        path = self._doc_path(name)
        return path.read_bytes() if path.exists() else None

    def write_doc(self, name: str, data: bytes) -> None:
        """Land a document whole or not at all: tmp file, fsync,
        rename, directory fsync."""
        path = self._doc_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}-{next(_doc_tmp_counter)}.tmp"
        )
        ffs.write_bytes(tmp, data, site="repo.docs.write")
        ffs.replace(tmp, path, site="repo.docs.replace")
        ffs.fsync_dir(path.parent)

    def _doc_tmps(self) -> list[Path]:
        return sorted(
            path
            for pattern in ("*.tmp", f"{ARCHIVES_PREFIX}*.tmp")
            for path in self.dlv_dir.glob(pattern)
        )

    def delete_doc(self, name: str) -> bool:
        path = self._doc_path(name)
        if path.exists():
            path.unlink()
            return True
        return False

    def list_docs(self, prefix: str = "") -> list[str]:
        base = self.dlv_dir
        names = []
        pattern = f"{prefix}*" if prefix else "*"
        for path in base.glob(pattern):
            if path.is_file() and path.suffix != ".tmp":
                names.append(str(path.relative_to(base)))
        return sorted(names)

    # -- fsck contract ---------------------------------------------------------

    def _store_for(self, kind: str) -> ChunkStore:
        if kind == "chunks":
            return self.chunks
        if kind == "replica":
            return self.replica
        if kind == "pages":
            return self.pages
        raise ValueError(f"unknown blob tier {kind!r}")

    def quarantine_blobs(self, kind: str, shas: Iterable[str]) -> int:
        """Copy corrupt blobs' stored bytes into ``.dlv/quarantine/``
        (forensics), then delete them from their tier with one
        ``delete_many``, so the tier's packs are rewritten once."""
        store = self._store_for(kind)
        suffix = {"chunks": "", "replica": ".replica", "pages": ".page"}[kind]
        quarantine = self.dlv_dir / "quarantine"
        copied = []
        for sha in sorted(set(shas)):
            try:
                stored = store.read_stored(sha)
            except KeyError:
                continue
            quarantine.mkdir(exist_ok=True)
            ffs.write_bytes(
                quarantine / f"{sha}{suffix}", stored,
                site="repo.quarantine.write",
            )
            copied.append(sha)
        moved = store.delete_many(copied)
        counter("fsck.quarantined").inc(moved)
        return moved

    def quarantined(self) -> list[str]:
        quarantine = self.dlv_dir / "quarantine"
        if not quarantine.exists():
            return []
        return sorted(p.name for p in quarantine.iterdir() if p.is_file())

    def litter(self, repair: bool) -> list[dict]:
        """Stale ``*.tmp`` files in a blob tier or among the documents
        (F302)."""
        tmps = [
            (f"{label}/{os.path.basename(tmp)}", tmp)
            for store, label in (
                (self.chunks, "chunks"),
                (self.replica, "replica"),
                (self.pages, "pages"),
            )
            for tmp in store.stale_tmps()
        ]
        tmps += [
            (str(tmp.relative_to(self.dlv_dir)), tmp) for tmp in self._doc_tmps()
        ]
        findings = []
        for name, tmp in tmps:
            finding = {
                "code": "F302",
                "message": f"stale tmp {name}",
                "repaired": False,
                "repair": None,
            }
            if repair:
                Path(tmp).unlink(missing_ok=True)
                finding["repaired"] = True
                finding["repair"] = "deleted"
            findings.append(finding)
        return findings

    def compact(self) -> None:
        """Fold each tier into one pack."""
        for store in (self.chunks, self.replica, self.pages):
            store.repack()

    def open_format(self) -> int:
        """Check the format and fold any loose blobs into packs.

        Every open folds each tier's loose ``<sha[:2]>/<sha>`` blobs into
        one pack, whatever the config says: a format-1 repository holds
        them, and so does one an earlier format-2 dlv upgraded by the
        config alone.  A tier without buckets costs one directory scan.
        Only after the fold does a format-1 config record the new
        format.  A crash part way leaves loose blobs behind, so the next
        open folds again; that writes no blob a pack already holds."""
        found = super().open_format()
        for store in (self.chunks, self.replica, self.pages):
            _fold_loose(store)
        if found < FORMAT:
            config = self.read_config()
            config["format"] = FORMAT
            self.write_doc(CONFIG_DOC, json.dumps(config, indent=2).encode())
        return FORMAT

    # -- hub publishing ---------------------------------------------------------

    def publish_tree(self):
        """The live ``.dlv`` directory *is* the publishable tree."""
        return yield_path(self.dlv_dir)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        self.catalog.close()


def _fold_loose(store: ChunkStore) -> None:
    """Move one tier's loose ``<sha[:2]>/<sha>`` blobs (format 1) into a
    pack, then remove them, any tmp litter beside them and their bucket
    directories.  Stored forms are copied unverified: a corrupt blob
    never blocks the open, and fsck still finds and quarantines it.  A
    file or bucket that vanishes part way was folded by a concurrent
    opener, which unlinks only after its pack has landed."""
    with os.scandir(store.root) as top:
        buckets = sorted(Path(e.path) for e in top if e.is_dir())
    if not buckets:
        return
    files = []
    for bucket in buckets:
        with contextlib.suppress(FileNotFoundError):
            files += sorted(bucket.iterdir())
    stored = {}
    for path in files:
        if not path.name.endswith(".tmp"):
            with contextlib.suppress(FileNotFoundError):
                stored[path.name] = path.read_bytes()
    store.put_stored(stored)
    for path in files:
        ffs.unlink(path, site="chunkstore.fold.unlink", missing_ok=True)
    for bucket in buckets:
        with contextlib.suppress(OSError):  # litter keeps it
            bucket.rmdir()
    ffs.fsync_dir(store.root, site="chunkstore.fold.dirsync")
