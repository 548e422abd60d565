"""Resumable chunk transfer: the ``.partial`` state file and fetch loop.

A hub pull moves a whole published tree file-by-file.  When the peer
dies mid-transfer the bytes already moved are not garbage — every file
is covered by the revision's sha256 manifest, so a completed file can be
*proven* complete and never fetched again.  This module owns that
protocol:

* :class:`PartialState` — the ``.dlv.pull.partial.json`` file written
  beside the in-flight temp tree.  It records the pull's identity
  (``name``/``revision``) plus a map of relative path → verified sha256
  for every file that has fully landed.  A later pull with the same
  identity adopts the state and skips those files; a pull for a
  different name/revision discards it.
* :class:`ResumableTransfer` — the fetch loop.  Each file is downloaded
  (resuming mid-file via an HTTP Range offset when partial bytes are
  already on disk), hashed, checked against the manifest entry, and only
  then recorded in the state file.  A peer failure leaves the state
  consistent, so the caller can swap in another peer's fetch function
  and call :meth:`run` again — completed files are not re-downloaded.

The fetch function signature is ``fetch(rel, offset) -> bytes`` (bytes
from ``offset`` to EOF) — any hub source's ``fetch_file`` bound to a
name and revision; the transfer layer itself never touches a socket.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.faults import fs as ffs
from repro.hub.server import HubIntegrityError
from repro.obs.cost import charge
from repro.obs.metrics import counter

__all__ = ["PartialState", "ResumableTransfer", "TransferStats"]

#: Well-known names beside a pull destination (stable across processes,
#: so a pull restarted after a crash finds its own leftovers).
TMP_DIR_NAME = ".dlv.pull.tmp"
PARTIAL_STATE_NAME = ".dlv.pull.partial.json"


class PartialState:
    """The ``.partial`` file: which files of which pull are verified.

    Args:
        path: Where the state file lives (beside the temp tree).
        name / revision: Identity of the pull this state belongs to.
    """

    def __init__(self, path: str | Path, name: str, revision: int) -> None:
        self.path = Path(path)
        self.name = name
        self.revision = int(revision)
        self.completed: dict[str, str] = {}

    @classmethod
    def load(cls, path: str | Path) -> Optional["PartialState"]:
        """Read a state file; ``None`` when absent or unreadable."""
        path = Path(path)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            state = cls(path, data["name"], data["revision"])
            state.completed = {
                str(k): str(v) for k, v in data["completed"].items()
            }
            return state
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def matches(self, name: str, revision: int) -> bool:
        return self.name == name and self.revision == int(revision)

    def mark(self, rel: str, digest: str) -> None:
        """Record one verified file and persist the state durably."""
        self.completed[rel] = digest
        self.save()

    def save(self) -> None:
        ffs.write_bytes(
            self.path,
            json.dumps(
                {
                    "name": self.name,
                    "revision": self.revision,
                    "completed": self.completed,
                },
                indent=2,
            ).encode(),
            site="hub.pull.partial",
        )

    def discard(self) -> None:
        self.path.unlink(missing_ok=True)


@dataclass
class TransferStats:
    """What one :meth:`ResumableTransfer.run` round actually moved."""

    files_fetched: int = 0
    files_resumed: int = 0
    bytes_fetched: int = 0
    bytes_resumed: int = 0


class ResumableTransfer:
    """Fetch a manifest's files into ``tmp``, resumable and verified.

    Args:
        tmp: Temp tree the files land in (created on demand).
        state: The pull's :class:`PartialState` (already matched to this
            name/revision by the caller).
        manifest: ``relative path -> sha256`` — the transfer's ground
            truth; a fetched file that does not hash to its manifest
            entry is refetched from offset 0 once, then the transfer
            fails with :class:`~repro.hub.server.HubIntegrityError`.
        files: Relative paths to move (normally ``manifest.keys()``).
    """

    def __init__(
        self,
        tmp: str | Path,
        state: PartialState,
        manifest: dict[str, str],
        files: Optional[list[str]] = None,
    ) -> None:
        self.tmp = Path(tmp)
        self.state = state
        self.manifest = dict(manifest)
        self.files = sorted(files if files is not None else manifest)
        self.stats = TransferStats()

    def pending(self) -> list[str]:
        """Files not yet verified-complete (adopting prior state)."""
        remaining = []
        for rel in self.files:
            recorded = self.state.completed.get(rel)
            # A pre-manifest revision has no entry to compare against:
            # the digest recorded when the file landed stands in.
            done = (
                recorded is not None
                and recorded == self.manifest.get(rel, recorded)
                and (self.tmp / rel).is_file()
            )
            if not done:
                remaining.append(rel)
        return remaining

    def run(self, fetch: Callable[[str, int], bytes]) -> TransferStats:
        """Fetch every pending file through ``fetch(rel, offset)``.

        Raises whatever ``fetch`` raises on a network failure — the
        state file already records everything that completed, so the
        caller may call :meth:`run` again with a different peer's fetch
        function and only the remainder moves.
        """
        for rel in self.pending():
            self._fetch_one(rel, fetch)
        return self.stats

    def _fetch_one(self, rel: str, fetch: Callable[[str, int], bytes]) -> None:
        expected = self.manifest.get(rel)
        target = self.tmp / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        offset = target.stat().st_size if target.is_file() else 0
        for attempt in range(2):
            if offset:
                # Mid-file resume: ask for the tail, append to the
                # partial bytes a dead peer left behind.
                data = fetch(rel, offset)
                with open(target, "ab") as handle:
                    handle.write(data)
                self.stats.bytes_resumed += offset
                counter("hub.pull.bytes_resumed").inc(offset)
            else:
                data = fetch(rel, 0)
                target.write_bytes(data)
            self.stats.bytes_fetched += len(data)
            charge(bytes_read=len(data), chunks_fetched=1)
            digest = hashlib.sha256(target.read_bytes()).hexdigest()
            if expected is None or digest == expected:
                self.stats.files_fetched += 1
                counter("hub.pull.files_fetched").inc()
                self.state.mark(rel, digest)
                return
            # Corrupt (e.g. the partial bytes were torn): one clean retry.
            counter("hub.pull.file_checksum_retries").inc()
            target.unlink(missing_ok=True)
            offset = 0
        raise HubIntegrityError(
            f"file {rel!r} failed checksum verification after refetch"
        )


def open_transfer(
    dest: Path,
    name: str,
    revision: int,
    manifest: dict[str, str],
    files: Optional[list[str]] = None,
) -> ResumableTransfer:
    """Set up (or adopt) the resumable transfer workspace under ``dest``.

    Uses the well-known ``.dlv.pull.tmp`` / ``.dlv.pull.partial.json``
    names so a crashed pull's leftovers are found and resumed instead of
    accumulating as orphans.  State belonging to a *different*
    name/revision is discarded along with its temp tree.  Adopted files
    are re-hashed: only the state file is fsynced, so an entry whose
    file was torn by power loss is dropped and refetched instead of
    failing every later pull.
    """
    tmp = dest / TMP_DIR_NAME
    state_path = dest / PARTIAL_STATE_NAME
    state = PartialState.load(state_path)
    if state is not None and state.matches(name, revision):
        for rel, digest in list(state.completed.items()):
            path = tmp / rel
            intact = path.is_file() and manifest.get(rel, digest) == digest == (
                hashlib.sha256(path.read_bytes()).hexdigest()
            )
            if not intact:
                del state.completed[rel]
                path.unlink(missing_ok=True)
        if state.completed:
            counter("hub.pull.resumes").inc()
            counter("hub.pull.files_resumed").inc(len(state.completed))
    else:
        if tmp.exists():
            shutil.rmtree(tmp)
        state = PartialState(state_path, name, revision)
        state.save()
    tmp.mkdir(parents=True, exist_ok=True)
    transfer = ResumableTransfer(tmp, state, manifest, files)
    transfer.stats.files_resumed = len(state.completed)
    return transfer
