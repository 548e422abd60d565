"""The local-fs storage backend (the original ``.dlv/`` layout).

Everything lives under ``<root>/.dlv/``: the sqlite3 catalog (with the
journal's intent rows), the four
:class:`~repro.core.chunkstore.ChunkStore` blob tiers (``chunks``,
``replica``, ``pages``, ``files``) — each a directory of immutable
packs, one per write batch, folded into one by ``gc`` — and small
documents (config, stage, archive reports) as JSON files landed by tmp
file, fsync and rename.  All mutations route through
:mod:`repro.faults.fs`, so fault plans tear/crash/corrupt this backend
exactly as before the storage seam existed.

Filesystem-only concepts — unique tmp names, the sweep of stale tmp
litter after a crash, quarantine as a copy into a directory, the folds
of older layouts on every open (format-1 loose blobs, format-2 raw
associated files and intent files) and the config upgrade after them —
are implemented here and *only* here; the database backends have no
such debris.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from pathlib import Path
from typing import Iterable, Optional

from repro.core.chunkstore import ChunkStore
from repro.core.storage.base import (
    ARCHIVES_PREFIX,
    FORMAT,
    TIERS,
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

        self.txn = TxnState()
        self.catalog = Catalog(self.dlv_dir / "catalog.db", txn=self.txn)
        # Opening a tier creates its directory (upgrading a repository
        # older than the tier) and sweeps any stale pack tmps from a crash.
        self.chunks = ChunkStore(self.dlv_dir / "chunks")
        self.replica = ChunkStore(self.dlv_dir / "replica")
        self.pages = ChunkStore(self.dlv_dir / "pages")
        self.files = ChunkStore(self.dlv_dir / "files")
        if create:
            self.write_config()

    @property
    def url(self) -> str:
        return f"file://{self.root}"

    def describe(self) -> dict:
        out = super().describe()
        out["location"] = str(self.root)
        return out

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

    def quarantine_blobs(self, kind: str, shas: Iterable[str]) -> int:
        """Copy corrupt blobs' stored bytes into ``.dlv/quarantine/``
        (forensics), then delete them from their tier with one
        ``delete_many``, so the tier's packs are rewritten once."""
        store, suffix = self.tier(kind), TIERS[kind]
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
            (f"{kind}/{os.path.basename(tmp)}", tmp)
            for kind in TIERS
            for tmp in self.tier(kind).stale_tmps()
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
        for kind in TIERS:
            self.tier(kind).repack()

    def open_format(self) -> int:
        """Check the format and fold what older layouts left behind.

        Every open folds, whatever the config says: each tier's loose
        blobs into one pack (format 1's ``<sha[:2]>/<sha>``, which a
        format-2 config an earlier dlv upgraded alone may still hold,
        and format 2's raw ``files/<sha>``), and format 2's
        ``journal/<txid>.json`` intent files into catalog rows.  A
        repository with nothing to fold costs a few directory scans.
        Each source is removed only after what it became has landed, so
        a crash part way leaves it behind and the next open folds again,
        writing nothing twice.  Only after the folds, and an older
        format's page mirrors (:meth:`mirror_page_blobs`, one pack), does
        an older config record the new format."""
        found = super().open_format()
        for kind in TIERS:
            _fold_loose(self.tier(kind))
        _fold_intent_files(self.dlv_dir / "journal", self.catalog.journal)
        if found < FORMAT:
            self.mirror_page_blobs()
            self.record_format()
        return FORMAT

    # -- hub publishing ---------------------------------------------------------

    def publish_tree(self):
        """The live ``.dlv`` directory *is* the publishable tree."""
        return yield_path(self.dlv_dir)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        self.catalog.close()


def _fold_loose(store: ChunkStore) -> None:
    """Move what an older layout left loose in one tier into a pack,
    then remove it: format 1's ``<sha[:2]>/<sha>`` stored forms (copied
    unverified: a corrupt one never blocks the open, and fsck still
    finds and quarantines it) with any tmp litter beside them and their
    bucket directories, and format 2's raw ``files/<sha>`` associated
    files (filed under what they hold: one whose bytes rotted no longer
    has the address its version names, which fsck reports).  A file or
    bucket that vanishes part way was folded by a concurrent opener,
    which unlinks only after its pack has landed."""
    with os.scandir(store.root) as top:
        loose = sorted(
            Path(e.path) for e in top
            if e.is_dir() or not e.name.endswith((".pack", ".tmp"))
        )
    if not loose:
        return
    files = []
    for path in loose:
        with contextlib.suppress(FileNotFoundError):
            files += sorted(path.iterdir()) if path.is_dir() else [path]
    stored, raw = {}, []
    for path in files:
        if not path.name.endswith(".tmp"):
            with contextlib.suppress(FileNotFoundError):
                if path.parent == store.root:
                    raw.append(path.read_bytes())
                else:
                    stored[path.name] = path.read_bytes()
    store.put_stored(stored)
    store.put_many(raw)
    for path in files:
        ffs.unlink(path, site="chunkstore.fold.unlink", missing_ok=True)
    for bucket in (path for path in loose if path.is_dir()):
        with contextlib.suppress(OSError):  # litter keeps it
            bucket.rmdir()
    ffs.fsync_dir(store.root, site="chunkstore.fold.dirsync")


def _fold_intent_files(root: Path, journal) -> None:
    """Move format 2's ``journal/<txid>.json`` intent files into catalog
    rows, torn ones too (replay discards them), then remove the files
    and the directory."""
    if not root.is_dir():
        return
    paths = sorted(root.glob("*.json"))
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            journal.write_raw(path.stem, path.read_bytes())
    for path in paths:
        ffs.unlink(path, site="journal.fold.unlink", missing_ok=True)
    with contextlib.suppress(OSError):  # litter keeps it
        root.rmdir()
