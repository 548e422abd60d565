"""Hub client: the ``dlv publish`` / ``dlv search`` / ``dlv pull`` verbs.

:class:`HubClient` is a facade: it hands a hub *location* — a directory
or :class:`~repro.hub.server.HubServer` (the paper's offline stand-in),
the URL of a running :class:`~repro.hub.httpd.HubHTTPServer`, or several
URLs naming a replicated fleet — to the one pull engine
(:class:`~repro.hub.fleet.FleetClient`) and adds ``publish``.  Every read
verb is the engine's, so it is identical across locations: it runs under
a :class:`~repro.hub.retry.Retrier`, fails over between peers when there
are several, and ``pull`` is atomic, verified against the revision's
checksum manifest and *resumable* (see :mod:`repro.hub.transfer`) — a
pull interrupted by a crash, a failed copy or a dead peer continues
where it stopped.  Every ``pull`` runs under a ``hub.pull`` trace span
(joining any caller trace), bills the bytes it moves to the context's
request cost, and feeds the ``hub.pull`` rolling latency window.

Remote hubs are read-only: ``publish`` over HTTP raises.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Optional

from repro.dlv.repository import Repository
from repro.hub.fleet import FleetClient, HubLocation
from repro.hub.httpd import DEFAULT_HUB_TIMEOUT_S
from repro.hub.retry import Retrier
from repro.hub.server import HubRecord, HubServer


class HubClient:
    """Client API over a directory-backed, HTTP, or fleet hub.

    Args:
        hub: Hub directory path, an existing :class:`HubServer`, one
            ``http(s)://`` URL, or several URLs (list or comma-separated
            string) naming a replicated fleet.
        retrier: Retry policy for hub I/O.  When omitted, one source
            gets the stock :class:`Retrier`; several get a single pass,
            because failover across peers already is the retry.
        timeout: Socket/read timeout, seconds, for every remote request
            — a hung peer fails the request (retriable) instead of
            blocking a pull forever.
    """

    def __init__(
        self,
        hub: HubLocation,
        retrier: Optional[Retrier] = None,
        timeout: float = DEFAULT_HUB_TIMEOUT_S,
    ) -> None:
        self.engine = FleetClient(hub, timeout=timeout, retrier=retrier)
        self.retrier = self.engine.retrier
        #: Where ``publish`` lands: the directory, when the hub is one.
        self.server: Optional[HubServer] = next(
            (p.source for p in self.engine.peers
             if isinstance(p.source, HubServer)),
            None,
        )

    def publish(
        self, repo: Repository, name: str, description: str = ""
    ) -> HubRecord:
        """``dlv publish``: push a whole repository to the hub.

        Raises:
            NotImplementedError: when the hub is a remote URL — the HTTP
                surface is read-only by design; publish where the hub
                directory is mounted.
        """
        if self.server is None:
            raise NotImplementedError(
                "publishing over HTTP is not supported; the hub's HTTP "
                "surface is read-only — publish against the hub directory"
            )
        model_names = sorted({v.name for v in repo.list_versions()})
        # The backend decides what tree a publish ships: the live .dlv
        # directory for loose-file repos, a temp tree holding one
        # consistent single-file repo.db snapshot for database repos.
        with repo.backend.publish_tree() as tree:
            return self.retrier.call(
                self.server.publish,
                name,
                tree,
                description=description,
                model_names=model_names,
            )

    def search(self, pattern: str = "*") -> list[HubRecord]:
        """``dlv search``: find published repositories."""
        return self.engine.search(pattern)

    def revisions(self, name: str) -> list[int]:
        """All visible revisions of a published repository."""
        return self.engine.revisions(name)

    def pull(
        self,
        name: str,
        dest: str | Path,
        revision: Optional[int] = None,
    ) -> Path:
        """``dlv pull``: materialize a published repository locally.

        The tree lands in a workspace under ``dest``, is verified
        against the published checksum manifest (when one exists) and
        renamed into place atomically; a failed pull keeps its verified
        files for the next attempt.  Returns ``dest``, a ready-to-open
        DLV repository.
        """
        return self.engine.pull(name, dest, revision)

    def pull_repository(
        self, name: str, dest: str | Path, revision: Optional[int] = None
    ) -> Repository:
        """Pull and open in one step."""
        return Repository.open(str(self.pull(name, dest, revision)))

    def pull_for_serving(
        self, name: str, revision: Optional[int] = None
    ) -> Path:
        """Pull into a fresh scratch directory (``dlv serve --hub``).

        Serving does not care where the bytes live, only that they are a
        verified, openable repository — so the destination is a new
        temporary directory the caller may delete after shutdown.
        """
        scratch = Path(tempfile.mkdtemp(prefix=f"dlv-serve-{name}-"))
        try:
            return self.pull(name, scratch / "repo", revision)
        except Exception:
            shutil.rmtree(scratch, ignore_errors=True)
            raise

    def close(self) -> None:
        """Release remote connections (no-op for directory hubs)."""
        self.engine.close()
