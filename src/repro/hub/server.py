"""Directory-backed hub server.

Hub layout::

    <hub-root>/
        index.json                          name -> record
        repos/<name>/<revision>/            full copies of published .dlv trees
        repos/<name>/<revision>.manifest.json   per-file sha256 checksums

Revisions are monotonically increasing integers per name, so repeated
publishes never clobber history — collaborators can pull any revision.
The manifest written beside each revision lists the sha256 of every file
in the tree; clients verify it after pulling, so a torn or bit-flipped
transfer is detected before the repository is installed.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.faults import fs as ffs
from repro.obs.metrics import counter


class HubIntegrityError(OSError):
    """A pulled tree does not match its published manifest.

    An :class:`OSError` subclass so the hub's :class:`~repro.hub.retry.Retrier`
    treats a failed verification as transient and re-copies.
    """


def compute_manifest(root: str | Path) -> dict[str, str]:
    """``relative path -> sha256`` for every file under ``root``."""
    root = Path(root)
    manifest = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            manifest[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return manifest


def verify_tree(root: str | Path, manifest: dict[str, str]) -> None:
    """Check a tree against a manifest; raises :class:`HubIntegrityError`.

    Extra local files are permitted (a pulled repository immediately
    grows journal/replay artifacts); missing or mismatched files are not.
    """
    root = Path(root)
    problems = []
    for rel, expected in manifest.items():
        path = root / rel
        if not path.exists():
            problems.append(f"missing {rel}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != expected:
            problems.append(f"checksum mismatch {rel}")
    if problems:
        counter("hub.verify_failures").inc()
        raise HubIntegrityError(
            f"pulled tree fails verification: {'; '.join(problems[:5])}"
            + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
        )


def _count_request(operation: str) -> None:
    """Bump the hub request counters (total plus per-operation)."""
    counter("hub.requests").inc()
    counter(f"hub.requests.{operation}").inc()


@dataclass
class HubRecord:
    """Index entry for one published repository."""

    name: str
    description: str = ""
    revision: int = 1
    published_at: str = ""
    model_names: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "revision": self.revision,
            "published_at": self.published_at,
            "model_names": list(self.model_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HubRecord":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            revision=data.get("revision", 1),
            published_at=data.get("published_at", ""),
            model_names=list(data.get("model_names", [])),
        )


class HubServer:
    """Owns a hub directory: the index plus published repository trees.

    The *directory* implementation of the hub read protocol — ``search``,
    ``revisions``, ``resolve_revision``, ``manifest``, ``files``,
    ``fetch_file`` — which :class:`~repro.hub.httpd.RemoteHub` speaks
    over HTTP, and the only place that walks a published tree, guards
    against path traversal, or decides what "latest" means.

    A revision is *visible* iff it is at most the name's index revision
    (the index update is every writer's commit point) and its directory
    is present: a tree left by a writer that died is never served.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "repos").mkdir(exist_ok=True)

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    def _load_index(self) -> dict[str, dict]:
        if self._index_path.exists():
            return json.loads(self._index_path.read_text())
        return {}

    def _save_index(self, index: dict[str, dict]) -> None:
        ffs.write_bytes(
            self._index_path,
            json.dumps(index, indent=2).encode(),
            site="hub.publish.index",
        )

    def _manifest_path(self, name: str, revision: int) -> Path:
        return self.root / "repos" / name / f"{revision}.manifest.json"

    def _write_manifest(
        self, name: str, revision: int, manifest: dict[str, str], site: str
    ) -> None:
        ffs.write_bytes(
            self._manifest_path(name, revision),
            json.dumps(manifest, indent=2).encode(),
            site=site,
        )

    # -- the read protocol ---------------------------------------------------

    def search(self, pattern: str = "*") -> list[HubRecord]:
        """Match records by glob pattern on name, description, or models."""
        _count_request("search")
        import fnmatch

        records = [
            HubRecord.from_dict(d) for d in self._load_index().values()
        ]
        if pattern in ("", "*"):
            return sorted(records, key=lambda r: r.name)
        matched = []
        for record in records:
            haystacks = [record.name, record.description, *record.model_names]
            if any(fnmatch.fnmatch(h, pattern) for h in haystacks):
                matched.append(record)
        return sorted(matched, key=lambda r: r.name)

    def _visible(self, name: str, committed: int) -> list[int]:
        base = self.root / "repos" / name
        if not committed or not base.exists():
            return []
        return sorted(
            int(p.name)
            for p in base.iterdir()
            if p.is_dir() and p.name.isdigit() and int(p.name) <= committed
        )

    def revisions(self, name: str) -> list[int]:
        """All visible revisions of a repository (``[]`` when unknown)."""
        _count_request("revisions")
        record = self._load_index().get(name, {})
        return self._visible(name, record.get("revision", 0))

    def resolve_revision(
        self, name: str, revision: Optional[int] = None
    ) -> int:
        """The visible revision ``revision`` names (``None`` -> latest).

        "Latest" is the index's committed revision, not the highest
        directory on disk.

        Raises:
            KeyError: unknown name, or a revision that is not visible.
        """
        index = self._load_index()
        if name not in index:
            raise KeyError(f"hub has no repository {name!r}")
        committed = index[name]["revision"]
        revision = revision or committed
        if revision > committed or not (
            self.root / "repos" / name / str(revision)
        ).is_dir():
            raise KeyError(f"{name!r} has no revision {revision}")
        return revision

    def manifest(self, name: str, revision: Optional[int] = None) -> Optional[dict]:
        """Checksum manifest of one revision (None for pre-manifest ones)."""
        path = self._manifest_path(name, self.resolve_revision(name, revision))
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def get(self, name: str, revision: Optional[int] = None) -> Path:
        """Path of a published repository tree.

        Raises:
            KeyError: unknown name or revision.
        """
        _count_request("get")
        revision = self.resolve_revision(name, revision)
        return self.root / "repos" / name / str(revision)

    def files(self, name: str, revision: Optional[int] = None) -> list[str]:
        """Sorted relative paths of every file in one revision's tree."""
        tree = self.get(name, revision)
        return sorted(
            p.relative_to(tree).as_posix()
            for p in tree.rglob("*")
            if p.is_file()
        )

    def fetch_file(
        self, name: str, revision: Optional[int], rel: str, offset: int = 0
    ) -> bytes:
        """Bytes of one published file, from ``offset`` to EOF.

        Raises:
            PermissionError: ``rel`` resolves outside the published tree
                (whatever ``..`` or symlink tricks it pulls).
            KeyError: unknown name, revision or file.
        """
        tree = self.get(name, revision).resolve()
        target = (tree / rel).resolve()
        if tree not in target.parents:
            raise PermissionError(f"path escapes tree: {rel}")
        if not target.is_file():
            raise KeyError(f"no file {rel}")
        with open(target, "rb") as handle:
            handle.seek(offset)
            return handle.read()

    def watermark(self) -> int:
        """Replication watermark: count of visible ``(name, revision)`` trees.

        Publishes only ever add trees, so the watermark is monotone; a
        follower is caught up exactly when its watermark matches the
        primary's.  Counts what :meth:`revisions` lists, so a follower
        mid-sync reports exactly the trees it can serve.
        """
        return sum(
            len(self._visible(name, record["revision"]))
            for name, record in self._load_index().items()
        )

    def health(self) -> dict:
        """Liveness payload (what ``/healthz`` reports about the store)."""
        return {
            "status": "ok",
            "root": str(self.root),
            "watermark": self.watermark(),
        }

    # -- writes ---------------------------------------------------------------

    def publish(
        self,
        name: str,
        dlv_dir: Path,
        description: str = "",
        model_names: Optional[list[str]] = None,
    ) -> HubRecord:
        """Store a copy of a repository's ``.dlv`` tree under ``name``.

        A checksum manifest is written beside the revision so pullers can
        verify the transfer; the index update comes last and is the
        commit point, so a publish that dies midway never becomes
        visible and its leftover directory is overwritten by the next.
        """
        _count_request("publish")
        index = self._load_index()
        revision = index.get(name, {}).get("revision", 0) + 1
        dest = self.root / "repos" / name / str(revision)
        if dest.exists():
            shutil.rmtree(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        # A catalog's rollback journal is not repository state: between
        # transactions it is absent or, persisted, has a zeroed header
        # over stale page images, so it does not ship.
        ffs.copytree(
            dlv_dir, dest, site="hub.publish.copytree",
            ignore=shutil.ignore_patterns("*-journal"),
        )
        self._write_manifest(
            name, revision, compute_manifest(dest), "hub.publish.manifest"
        )
        record = HubRecord(
            name=name,
            description=description,
            revision=revision,
            published_at=datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(),
            model_names=model_names or [],
        )
        index[name] = record.to_dict()
        self._save_index(index)
        return record

    def install_revision(
        self,
        name: str,
        revision: int,
        tree: Path,
        manifest: dict[str, str],
        record: Optional[HubRecord] = None,
    ) -> bool:
        """Adopt an already-verified tree as ``name``/``revision``.

        The replication path: a follower fetched and checksum-verified
        ``tree`` from its primary and now *moves* it into place (manifest
        file, then the atomic rename, then the index update that commits
        it — ``publish``'s never-visible-half-done ordering).  Returns
        ``False`` untouched when the revision is already visible; a
        directory left by an install that died uncommitted is overwritten.
        """
        _count_request("install")
        dest = self.root / "repos" / name / str(revision)
        if revision in self.revisions(name):
            shutil.rmtree(tree, ignore_errors=True)
            return False
        if dest.exists():
            shutil.rmtree(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        self._write_manifest(name, revision, manifest, "hub.sync.manifest")
        ffs.replace(tree, dest, site="hub.sync.install")
        index = self._load_index()
        current = index.get(name, {})
        merged = record.to_dict() if record is not None else dict(current)
        merged.setdefault("name", name)
        # Advertise only what this hub can actually serve: the newest
        # locally held revision, whatever the primary is already at.
        merged["revision"] = max(current.get("revision", 0), revision)
        index[name] = merged
        self._save_index(index)
        return True

    def delete(self, name: str) -> bool:
        """Remove a repository (all revisions) from the hub."""
        _count_request("delete")
        index = self._load_index()
        if name not in index:
            return False
        del index[name]
        self._save_index(index)
        tree = self.root / "repos" / name
        if tree.exists():
            shutil.rmtree(tree)
        return True
