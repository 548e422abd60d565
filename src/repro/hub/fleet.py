"""The hub pull engine: failover reads over 1..N sources.

The paper's ModelHub is a single always-available service; in practice
one hub process is one fault away from failing every ``dlv serve --hub``
boot.  This module is the one read path every hub location shares (the
server half of replication is :mod:`repro.hub.replication`):

* :class:`CircuitBreaker` — per-peer failure accounting.  After
  ``failure_threshold`` consecutive failures the breaker *opens* and the
  peer is skipped for ``cooldown_s`` (measured on an injectable
  monotonic clock, so tests advance time explicitly); after the
  cooldown one probe request half-opens it.
* :class:`FleetClient` — fronts one or more *sources* (a directory
  :class:`~repro.hub.server.HubServer` or an HTTP
  :class:`~repro.hub.httpd.RemoteHub`, which answer the same six read
  calls) with round-robin routing and failover: any network-shaped
  failure (refused or dropped connection, truncated body, timeout,
  429/5xx, a file failing its checksum) marks the peer and moves on.
  It is itself a source, and owns the only pull there is: resolve →
  manifest → resumable per-file transfer (:mod:`repro.hub.transfer`) →
  whole-tree ``verify_tree`` → atomic rename.  A pull that loses its
  peer mid-tree continues on another replica — or, for a lone source,
  on the caller's next retry — without refetching verified files.

A replica that answers but *lags* (``KeyError`` / 404 for a revision it
has not synced yet) is not a failure — the client just tries the next
peer without charging the breaker.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.dlv.repository import Repository
from repro.faults import fs as ffs
from repro.hub.httpd import DEFAULT_HUB_TIMEOUT_S, RemoteHub
from repro.hub.retry import Retrier
from repro.hub.server import HubRecord, HubServer, verify_tree
from repro.hub.transfer import (
    PARTIAL_STATE_NAME,
    TMP_DIR_NAME,
    ResumableTransfer,
    open_transfer,
)
from repro.obs.metrics import counter, get_registry
from repro.obs.tracing import trace_span
from repro.wire import NETWORK_FAILURES  # "this peer failed": fail over

__all__ = ["CircuitBreaker", "FleetClient", "NoHealthyPeer"]

#: A directory, an open source, "url[,url...]", or a list of any of those.
HubLocation = Union[str, Path, HubServer, RemoteHub, Sequence]


class NoHealthyPeer(OSError):
    """Every peer in the fleet failed (or had its breaker open)."""


class CircuitBreaker:
    """Consecutive-failure breaker for one peer.

    Closed (normal) → open after ``failure_threshold`` consecutive
    failures → half-open after ``cooldown_s``: one request is allowed
    through; success closes the breaker, failure re-opens it for
    another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    def allow(self) -> bool:
        """May a request be sent to this peer right now?"""
        with self._lock:
            if self._opened_at is None:
                return True
            if self.clock() - self._opened_at >= self.cooldown_s:
                # Half-open: let exactly one probe through per cooldown.
                if not self._probing:
                    self._probing = True
                    return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            reopened = self._probing
            if reopened or self._consecutive_failures >= self.failure_threshold:
                if self._opened_at is None or reopened:
                    counter("hub.fleet.breaker_opened").inc()
                self._opened_at = self.clock()
                self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self.clock() - self._opened_at >= self.cooldown_s:
                return "half-open"
            return "open"


class _Peer:
    """One fleet member: a source, its display address, its breaker."""

    def __init__(self, source, breaker: CircuitBreaker) -> None:
        self.source = source
        self.url = getattr(source, "url", None) or str(source.root)
        self.breaker = breaker


def _open_sources(location: HubLocation, timeout: float) -> list:
    """Turn a hub location into the sources that answer for it."""
    if isinstance(location, str) and "://" in location:
        location = [u.strip() for u in location.split(",") if u.strip()]
    elif not isinstance(location, (list, tuple)):
        location = [location]
    sources = []
    for item in location:
        if isinstance(item, str) and "://" in item:
            item = RemoteHub(item, timeout=timeout)
        elif not isinstance(item, (HubServer, RemoteHub)):
            item = HubServer(item)
        sources.append(item)
    return sources


class FleetClient:
    """Read client and pull engine over one or more hub sources.

    Args:
        sources: Where the hub is — a directory, a
            :class:`~repro.hub.server.HubServer`, a URL, several URLs
            (list or one comma-separated string), or a list mixing them.
            Reads round-robin across peers whose breaker is closed.
        timeout: Per-request socket deadline, seconds.
        retrier: Policy applied once every peer has failed.  Defaults to
            a single pass for several peers (failover already is the
            retry) and to the stock :class:`~repro.hub.retry.Retrier`
            for one.  A retried transfer never restarts — it resumes.
        failure_threshold / cooldown_s / clock: Breaker tuning (see
            :class:`CircuitBreaker`).
    """

    def __init__(
        self,
        sources: HubLocation,
        timeout: float = DEFAULT_HUB_TIMEOUT_S,
        retrier: Optional[Retrier] = None,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.peers = [
            _Peer(source, CircuitBreaker(failure_threshold, cooldown_s, clock))
            for source in _open_sources(sources, timeout)
        ]
        if not self.peers:
            raise ValueError("fleet needs at least one peer")
        if retrier is None:
            retrier = Retrier(attempts=1) if len(self.peers) > 1 else Retrier()
        self.retrier = retrier
        self._lock = threading.Lock()
        self._rr = 0

    def close(self) -> None:
        for peer in self.peers:
            if isinstance(peer.source, RemoteHub):
                peer.source.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing --------------------------------------------------------------

    def _rotation(self) -> list[_Peer]:
        """Peers in this request's try-order (round-robin start)."""
        with self._lock:
            start = self._rr
            self._rr = (self._rr + 1) % len(self.peers)
        ordered = self.peers[start:] + self.peers[:start]
        available = [p for p in ordered if p.breaker.allow()]
        # All breakers open: trying *something* beats failing for sure.
        return available or ordered

    def _each_peer(self, fn: Callable, what: str, every: bool = False):
        """Run ``fn(peer)`` against peers in rotation until one succeeds.

        ``KeyError`` (a lagging replica that lacks the name/revision) is
        remembered but does not charge the breaker; network failures do;
        ``PermissionError`` (a refused path) is the caller's mistake and
        propagates.  With ``every`` all peers are asked and the list of
        answers returned.  When none answers: the remembered ``KeyError``
        if peers were healthy but lacked the data, a lone source's own
        error, else :class:`NoHealthyPeer`.
        """
        answers = []
        last_network: Optional[Exception] = None
        last_missing: Optional[KeyError] = None
        for peer in self._rotation():
            try:
                answers.append(fn(peer))
            except PermissionError:
                raise
            except KeyError as exc:
                last_missing = exc
            except NETWORK_FAILURES as exc:
                peer.breaker.record_failure()
                counter("hub.fleet.peer_failures").inc()
                last_network = exc
            else:
                peer.breaker.record_success()
                if not every:
                    return answers[0]
                continue
            counter("hub.fleet.failovers").inc()
        if answers:
            return answers
        cause = last_network or last_missing
        if last_network is None or len(self.peers) == 1:
            raise cause
        counter("hub.fleet.exhausted").inc()
        raise NoHealthyPeer(
            f"all {len(self.peers)} hub peers failed during {what}"
        ) from cause

    def _read(self, verb: str, *args):
        return self.retrier.call(
            self._each_peer, lambda p: getattr(p.source, verb)(*args), verb
        )

    # -- the read protocol (a fleet is itself a source) -----------------------

    def search(self, pattern: str = "*") -> list[HubRecord]:
        return self._read("search", pattern)

    def revisions(self, name: str) -> list[int]:
        return self._read("revisions", name)

    def manifest(
        self, name: str, revision: Optional[int] = None
    ) -> Optional[dict]:
        return self._read("manifest", name, revision)

    def files(self, name: str, revision: Optional[int] = None) -> list[str]:
        return self._read("files", name, revision)

    def fetch_file(
        self, name: str, revision: int, rel: str, offset: int = 0
    ) -> bytes:
        return self._read("fetch_file", name, revision, rel, offset)

    def resolve_revision(
        self, name: str, revision: Optional[int] = None
    ) -> int:
        if revision is not None:
            return revision
        # "latest" must come from the most caught-up peer that answers —
        # a lagging replica would silently serve an old revision.
        return max(self.retrier.call(
            self._each_peer,
            lambda p: p.source.resolve_revision(name),
            "resolve_revision",
            every=True,
        ))

    def health(self) -> dict:
        """Health of the first answering peer, plus that peer's ``url``."""
        return self._each_peer(
            lambda p: {**p.source.health(), "url": p.url}, "health"
        )

    def status(self) -> list[dict]:
        """Per-peer probe: healthz payload (or error) + breaker state.

        Unlike the read surface this intentionally touches *every* peer,
        breaker or not — it is the observability verb behind
        ``dlv hub status``.
        """
        report = []
        for peer in self.peers:
            entry = {"url": peer.url, "breaker": peer.breaker.state}
            try:
                entry.update(peer.source.health())
                entry["ok"] = True
            except NETWORK_FAILURES as exc:
                entry["ok"] = False
                entry["error"] = f"{type(exc).__name__}: {exc}"
            report.append(entry)
        return report

    # -- the pull -------------------------------------------------------------

    def pull(
        self,
        name: str,
        dest: str | Path,
        revision: Optional[int] = None,
    ) -> Path:
        """``dlv pull``: materialize a published revision under ``dest``.

        The tree lands in the ``.dlv.pull.tmp`` workspace, is verified
        whole against the manifest, and only then renamed into place.
        A pull that fails leaves either nothing it created or — once the
        transfer has started — exactly that workspace and its
        ``.dlv.pull.partial.json`` state, which the next pull of the
        same revision adopts (in this process or a restarted one).
        """
        dest = Path(dest)
        target = dest / Repository.DLV_DIR
        if target.exists():
            raise FileExistsError(f"{dest} already contains a dlv repository")
        created_dest = not dest.exists()
        with trace_span("hub.pull", repo=name) as span:
            try:
                transfer = self.fetch_revision(name, revision, dest)
                ffs.replace(transfer.tmp, target, site="hub.pull.replace")
                transfer.state.discard()
            except Exception:
                # Never install half a repository.  A CrashSimulated
                # (BaseException) skips this — a dead process leaves its
                # workspace for the next pull to adopt.
                if not (dest / PARTIAL_STATE_NAME).exists():
                    shutil.rmtree(dest / TMP_DIR_NAME, ignore_errors=True)
                    if created_dest:
                        shutil.rmtree(dest, ignore_errors=True)
                raise
            span.set_attr("revision", transfer.state.revision)
            span.set_attr("files_fetched", transfer.stats.files_fetched)
            span.set_attr("files_resumed", transfer.stats.files_resumed)
            span.set_attr("bytes", transfer.stats.bytes_fetched)
        get_registry().window("hub.pull").observe(span.elapsed)
        return dest

    def fetch_revision(
        self, name: str, revision: Optional[int], workdir: str | Path
    ) -> ResumableTransfer:
        """Fetch one revision into ``workdir``'s transfer workspace, verified.

        The manifest (from any peer) is the transfer's ground truth;
        files stream from one peer until it fails, then from the next —
        files already verified are never fetched again.  Returns the
        completed transfer: ``.tmp`` holds the tree, checked whole
        against ``.manifest``; the caller moves it into place and
        discards ``.state``.
        """
        workdir = Path(workdir)
        rev = self.resolve_revision(name, revision)
        manifest = self.manifest(name, rev)
        files = self.files(name, rev)
        workdir.mkdir(parents=True, exist_ok=True)
        transfer = open_transfer(workdir, name, rev, manifest or {}, files)
        # One pass per peer in rotation; each retry re-enters the transfer,
        # which skips what the last pass completed — retry == resume.
        self.retrier.call(
            self._each_peer,
            lambda p: transfer.run(
                lambda rel, offset: p.source.fetch_file(name, rev, rel, offset)
            ),
            f"pull of {name!r} rev {rev}",
        )
        if manifest is not None:
            verify_tree(transfer.tmp, manifest)
            counter("hub.pulls_verified").inc()
        return transfer
