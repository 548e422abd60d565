"""Asynchronous hub-to-hub replication: primary publish → follower sync.

A replicated hub fleet is one *primary* (where ``dlv publish`` lands)
plus N read-only followers, each running a :class:`Replicator` against
the primary's HTTP surface.  Replication is pull-based and idempotent:

1. list the primary's index and per-name revisions,
2. for every ``(name, revision)`` tree the follower does not hold,
   fetch it through the same pull engine ``dlv pull`` uses
   (:meth:`~repro.hub.fleet.FleetClient.fetch_revision`: per-file
   verified, resumable across rounds, whole tree checked against the
   primary's sha256 manifest),
3. atomically install it (manifest file → tree rename → index update)
   via :meth:`~repro.hub.server.HubServer.install_revision`.

Because revisions are immutable once published, there is no conflict
resolution — a follower converges by copying trees it misses, and its
*watermark* (count of ``(name, revision)`` trees held, see
:meth:`HubServer.watermark`) meets the primary's when it is caught up.
``hub.replication.lag`` (a gauge) tracks the difference after every
sync round; ``/healthz`` on a follower reports the same numbers.

Sync runs either on demand (:meth:`Replicator.sync_once` — what the
deterministic chaos tests drive) or on a background thread
(:meth:`start`/:meth:`stop`) that polls at ``interval_s`` using an
``Event`` wait, so ``stop`` never blocks for a full interval.
:class:`HubFleet` wires a primary and its followers together in one
process — the fixture the chaos suite and the examples stand on.
"""

from __future__ import annotations

import shutil
import threading
from pathlib import Path
from typing import Optional

from repro.dlv.repository import Repository
from repro.hub.client import HubClient
from repro.hub.fleet import FleetClient
from repro.hub.httpd import DEFAULT_HUB_TIMEOUT_S, HubHTTPServer
from repro.hub.retry import Retrier
from repro.hub.server import HubServer
from repro.obs.metrics import counter, gauge
from repro.obs.tracing import trace_span

__all__ = ["HubFleet", "Replicator"]


class Replicator:
    """Keeps one follower :class:`HubServer` in sync with a primary.

    Args:
        local: The follower's hub directory (written by sync).
        primary_urls: One or more ``http://`` addresses of the primary
            tier (list or comma-separated); reads fail over between
            them, so a primary behind several addresses (or a
            re-elected one) still feeds the follower.
        interval_s: Poll period of the background thread.
        timeout: Socket timeout for primary requests.
    """

    def __init__(
        self,
        local: HubServer,
        primary_urls: str | list[str],
        interval_s: float = 2.0,
        timeout: float = 10.0,
    ) -> None:
        self.local = local
        self.interval_s = interval_s
        self.timeout = timeout
        # Building an engine once validates and splits the addresses.
        self.primary_urls = [p.url for p in self._engine(primary_urls).peers]
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()
        # Guards lifecycle writes (_thread) and the stats dict.
        self._lock = threading.Lock()
        self._stats = {
            "synced_revisions": 0,
            "sync_rounds": 0,
            "sync_errors": 0,
            "lag": None,
            "last_error": "",
            "primary": "",
        }

    # -- one synchronous round (what tests drive directly) -------------------

    def sync_once(self) -> int:
        """Run one full sync round; returns revisions copied.

        Raises on total failure (no primary reachable); partial
        progress before an error is kept — every installed revision was
        individually verified, so there is nothing to roll back.
        """
        with trace_span("hub.replication.sync", follower=str(self.local.root)):
            try:
                copied = self._sync_round()
            except Exception as exc:
                with self._lock:
                    self._stats["sync_errors"] += 1
                    self._stats["last_error"] = f"{type(exc).__name__}: {exc}"
                counter("hub.replication.sync_errors").inc()
                raise
        return copied

    def _engine(self, urls) -> FleetClient:
        """A single-pass engine: the next address or round is the retry."""
        return FleetClient(
            urls, timeout=self.timeout, retrier=Retrier(attempts=1)
        )

    def _sync_round(self) -> int:
        # A fresh engine per round: connections are not shared between
        # the poll thread and a caller driving sync_once() directly.
        with self._engine(self.primary_urls) as primary:
            health = primary.health()
            copied = 0
            for record in primary.search("*"):
                have = set(self.local.revisions(record.name))
                for revision in primary.revisions(record.name):
                    if revision not in have:
                        copied += self._copy_revision(primary, record, revision)
        lag = max(0, int(health.get("watermark", 0)) - self.local.watermark())
        gauge("hub.replication.lag").set(lag)
        with self._lock:
            self._stats["synced_revisions"] += copied
            self._stats["sync_rounds"] += 1
            self._stats["lag"] = lag
            self._stats["primary"] = health["url"]
            self._stats["last_error"] = ""
        if copied:
            counter("hub.replication.synced_revisions").inc(copied)
        return copied

    def _copy_revision(self, primary: FleetClient, record, revision: int) -> bool:
        """Fetch + verify + install one revision tree; True when installed.

        The workspace's non-numeric name keeps it out of the revision
        listing; a failed fetch leaves it for the next round to resume.
        """
        workdir = (
            self.local.root / "repos" / record.name / f".sync.{revision}"
        )
        transfer = primary.fetch_revision(record.name, revision, workdir)
        try:
            return self.local.install_revision(
                record.name, revision, transfer.tmp, transfer.manifest, record
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    # -- background thread ----------------------------------------------------

    def start(self) -> "Replicator":
        """Start the poll thread (idempotent per lifecycle)."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("replicator already started")
            self._wake.clear()
            self._thread = threading.Thread(
                target=self._run,
                name=f"dlv-hub-sync-{self.local.root.name}",
                daemon=True,
            )
            thread = self._thread
        thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        self._wake.set()
        if thread is not None:
            thread.join(timeout=10.0)

    def _run(self) -> None:
        while not self._wake.is_set():
            try:
                self.sync_once()
            except Exception:  # noqa: BLE001 - stats/metrics already updated
                pass
            self._wake.wait(self.interval_s)

    def stats(self) -> dict:
        """Snapshot of sync progress (what ``/healthz`` reports)."""
        with self._lock:
            return dict(self._stats)

    def __enter__(self) -> "Replicator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class HubFleet:
    """A simulated fleet: one primary + ``size - 1`` replicas, one process.

    Each peer owns its own hub directory under ``root`` and its own
    :class:`~repro.hub.httpd.HubHTTPServer`; replicas carry a
    :class:`~repro.hub.replication.Replicator` pointed at the primary.
    By default replication is driven manually via :meth:`sync` (what the
    deterministic chaos tests need); pass ``sync_interval_s`` to run the
    replicator threads instead.

    Usage::

        with HubFleet(tmp_path, size=3) as fleet:
            fleet.publish(repo, "shared")
            fleet.sync()                      # replicas catch up
            client = fleet.client()           # FleetClient over all peers
            client.pull("shared", dest)
    """

    def __init__(
        self,
        root: str | Path,
        size: int = 3,
        sync_interval_s: Optional[float] = None,
        timeout: float = DEFAULT_HUB_TIMEOUT_S,
    ) -> None:
        if size < 1:
            raise ValueError("fleet size must be >= 1")
        self.root = Path(root)
        self.size = size
        self.sync_interval_s = sync_interval_s
        self.timeout = timeout
        self.servers: list[HubHTTPServer] = []
        self.replicators: list[Replicator] = []

    @property
    def primary(self) -> HubHTTPServer:
        return self.servers[0]

    @property
    def urls(self) -> list[str]:
        return [server.url for server in self.servers]

    def start(self) -> "HubFleet":
        primary = HubHTTPServer(
            self.root / "n0", peer_name="n0", role="primary"
        ).start()
        self.servers.append(primary)
        for i in range(1, self.size):
            store = HubServer(self.root / f"n{i}")
            replicator = Replicator(
                store,
                primary.url,
                interval_s=self.sync_interval_s or 2.0,
                timeout=self.timeout,
            )
            server = HubHTTPServer(
                store,
                peer_name=f"n{i}",
                role="replica",
                replicator=replicator,
            ).start()
            self.replicators.append(replicator)
            self.servers.append(server)
        if self.sync_interval_s is not None:
            for replicator in self.replicators:
                replicator.start()
        return self

    def stop(self) -> None:
        for replicator in self.replicators:
            replicator.stop()
        for server in self.servers:
            server.stop()
        self.servers = []
        self.replicators = []

    def publish(self, repo: Repository, name: str, description: str = ""):
        """Publish to the primary (the only writable peer)."""
        return HubClient(self.primary.server).publish(repo, name, description)

    def sync(self) -> int:
        """Run one sync round on every replica; returns revisions copied."""
        return sum(r.sync_once() for r in self.replicators)

    def client(self, **kwargs) -> FleetClient:
        """A :class:`FleetClient` over every peer in this fleet."""
        kwargs.setdefault("timeout", self.timeout)
        return FleetClient(self.urls, **kwargs)

    def kill(self, index: int) -> None:
        """Hard-stop one peer (chaos: the node is gone, port refused)."""
        self.servers[index].stop()

    def __enter__(self) -> "HubFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
