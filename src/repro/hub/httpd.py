"""HTTP transport for the hub: :class:`HubHTTPServer` and :class:`RemoteHub`.

The directory-backed :class:`~repro.hub.server.HubServer` is the storage
and the source of truth; this module puts an HTTP listener in front of
it so a :class:`~repro.hub.client.HubClient` on another machine (or just
another process) can search and pull over the wire.  Every ``/v1`` route
is one call of the store's read protocol — the handler never touches the
published trees itself.  This module owns the hub routes, the chaos
seam, ``Range`` handling and :class:`RemoteHub`'s error contract; the
transport under them (sockets, listener lifecycle, responder, status
table, ops routes, keep-alive session) is :mod:`repro.wire`'s.  Endpoints:

=============================================  ==============================
``GET /healthz``                               Liveness + fleet identity:
                                               peer name, role, replication
                                               watermark (and replicator
                                               stats on followers).
``GET /metrics``                               ``repro.obs`` dump (JSON);
                                               Prometheus text under
                                               ``Accept: text/plain``.
``GET /v1/trace``                              Span ring buffer (orphan-
                                               marked dicts).
``GET /v1/index?pattern=``                     Search the published index.
``GET /v1/repos/<name>/revisions``             Visible revisions of a repo.
``GET /v1/repos/<name>/<rev>/manifest``        Checksum manifest (``latest``
                                               resolves the newest revision).
``GET /v1/repos/<name>/<rev>/files``           Relative paths in the tree.
``GET /v1/repos/<name>/<rev>/files/<rel>``     Raw bytes of one file; honors
                                               ``Range: bytes=N-`` with a
                                               206 so interrupted transfers
                                               resume mid-file.
=============================================  ==============================

Every handler adopts an incoming ``traceparent`` header, so a remote
pull's server-side ``hub.http.*`` spans join the puller's trace — the
same propagation contract the serving tier speaks.

Every request also passes one deterministic chaos seam: an injected
:class:`~repro.faults.net.NetFaultPlan` is consulted (site
``"<peer>:<path>"``) before routing, and may answer with an error
status, a 503 + ``Retry-After``, a dropped connection, a truncated body,
or an injected delay — which is how the fleet's failover paths are
proven without real networks misbehaving on cue.

:class:`RemoteHub` is the matching client: the same six read calls as
:class:`HubServer` (``search``, ``revisions``, ``resolve_revision``,
``manifest``, ``files``, range-resumable ``fetch_file``) over the
keep-alive :class:`repro.wire.Session` it extends, with a per-request
socket timeout and the calling context's ``traceparent`` on every
request.  404 raises ``KeyError`` and 403 ``PermissionError`` exactly as
the directory does; 429/5xx raise :class:`RemoteHubUnavailable` — an
:class:`OSError` carrying any server ``Retry-After`` — so retriers and
the pull engine's circuit breakers treat them as transient.
"""

from __future__ import annotations

import json
import urllib.parse
from pathlib import Path
from typing import Optional

from repro.faults.net import get_net_plan
from repro.hub.server import HubRecord, HubServer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.propagation import TRACEPARENT_HEADER
from repro.wire import Handler, HTTPError, Listener, Session, adopt_span

__all__ = [
    "HubHTTPServer",
    "RemoteHub",
    "RemoteHubError",
    "RemoteHubUnavailable",
]

#: Default socket/read timeout for hub requests — a hung peer must fail
#: the request (so retries and failover can act), not block a pull forever.
DEFAULT_HUB_TIMEOUT_S = 30.0


class RemoteHubError(RuntimeError):
    """Non-2xx response from a remote hub."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class RemoteHubUnavailable(RemoteHubError, OSError):
    """429/5xx from a remote hub: transient, retry elsewhere or later.

    An :class:`OSError` subclass so :class:`~repro.hub.retry.Retrier`
    retries it; carries the server's ``Retry-After`` (seconds, or
    ``None``) which the retrier honors over its own backoff.
    """

    def __init__(
        self, status: int, payload: dict,
        retry_after: Optional[float] = None,
    ) -> None:
        RemoteHubError.__init__(self, status, payload)
        self.retry_after = retry_after


class _Handler(Handler):
    """Routes one HTTP exchange; state lives on ``server.app``."""

    server_version = "dlv-hub"
    _truncate: Optional[int] = None  # this request's ``truncate`` fault

    def send(self, status, body, content_type="application/json",
             headers=None, truncate=None) -> None:
        """Every hub response, errors included, passes the tear point."""
        super().send(status, body, content_type, headers, self._truncate)

    def _net_fault(self, path: str) -> bool:
        """Consult the chaos plan; True when the request gets no answer."""
        self._truncate = None
        site = f"{self.server.app.peer_name}:{path}"
        plan = get_net_plan()
        point = None if plan is None else plan.on_request(site)
        if point is None:
            return False
        if point.action == "drop":
            # No response at all: the client sees the connection die.
            self.close_connection = True
            return True
        if point.action == "error":
            raise HTTPError(point.status, {"error": point.message})
        if point.action == "unavailable":
            headers = {}
            if point.retry_after is not None:
                headers["Retry-After"] = f"{point.retry_after:g}"
            raise HTTPError(503, {"error": point.message}, headers)
        # truncate: let routing proceed; send() tears the body.
        self._truncate = point.offset
        return False

    def route(self, path: str, query: dict[str, list[str]]) -> None:
        if self._net_fault(path):
            return
        hub = self.server.app
        with adopt_span(
            "hub.http", self.headers.get(TRACEPARENT_HEADER), path=path
        ):
            if not self.ops_route(path, hub.registry, hub.registry.as_dict):
                self._route_read(hub, query, [
                    urllib.parse.unquote(p) for p in path.split("/") if p
                ])

    def _route_read(self, hub: "HubHTTPServer", query: dict[str, list[str]],
                    parts: list[str]) -> None:
        """``/healthz`` and the ``/v1`` read protocol."""
        if parts == ["healthz"]:
            self.send(200, hub.health_payload())
        elif parts == ["v1", "index"]:
            pattern = query.get("pattern", ["*"])[0]
            self.send(200, {
                "records": [r.to_dict() for r in hub.server.search(pattern)]
            })
        elif len(parts) == 4 and parts[:2] == ["v1", "repos"] \
                and parts[3] == "revisions":
            self.send(200, {
                "name": parts[2],
                "revisions": hub.server.revisions(parts[2]),
            })
        elif len(parts) == 5 and parts[:2] == ["v1", "repos"] \
                and parts[4] in ("manifest", "files"):
            name, what = parts[2], parts[4]
            revision = hub.server.resolve_revision(
                name, self._revision(parts[3])
            )
            self.send(200, {
                "name": name,
                "revision": revision,
                what: getattr(hub.server, what)(name, revision),
            })
        elif len(parts) >= 6 and parts[:2] == ["v1", "repos"] \
                and parts[4] == "files":
            data = hub.server.fetch_file(
                parts[2], self._revision(parts[3]), "/".join(parts[5:])
            )
            start = self._range_start(len(data))
            if start is None:
                self.send(200, data, "application/octet-stream")
            else:
                self.send(
                    206,
                    data[start:],
                    "application/octet-stream",
                    headers={
                        "Content-Range":
                            f"bytes {start}-{len(data) - 1}/{len(data)}",
                    },
                )
        else:
            raise self.no_route()

    def _range_start(self, size: int) -> Optional[int]:
        """Parse an open-ended ``Range: bytes=N-`` header (or ``None``).

        Only the suffix-open form the resumable transfer sends is
        supported; anything else is ignored and the full body returned
        (a legal, if unhelpful, server response to any Range request).
        """
        header = self.headers.get("Range", "")
        if not header.startswith("bytes=") or not header.endswith("-"):
            return None
        raw = header[len("bytes="):-1]
        if not raw.isdigit():
            return None
        start = int(raw)
        if start <= 0 or start > size:
            return None
        return start

    @staticmethod
    def _revision(raw: str) -> Optional[int]:
        """Parse a revision path segment (``latest`` -> newest)."""
        if raw == "latest":
            return None
        try:
            return int(raw)
        except ValueError:
            raise HTTPError(400, {"error": f"bad revision {raw!r}"}) from None

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self.dispatch()


class HubHTTPServer:
    """Serves one hub directory over HTTP (read-only: search + pull).

    Publishing stays a local, filesystem-level operation — the HTTP
    surface deliberately exposes only the verbs a *puller* needs, so an
    exposed hub cannot be written to remotely.

    Args:
        root: Hub directory or an existing :class:`HubServer`.
        host / port: Bind address; port 0 lets the OS pick.
        registry: Metrics registry backing ``/metrics`` (defaults to the
            process-global one, so ``dlv stats`` agrees).
        peer_name: Fleet identity reported by ``/healthz`` and used as
            the chaos-plan site prefix (default ``"hub"``).
        role: ``"primary"`` or ``"replica"`` — advisory, reported by
            ``/healthz`` so a :class:`~repro.hub.fleet.FleetClient` can
            tell the topology apart.
        replicator: Optional :class:`~repro.hub.replication.Replicator`
            whose stats ``/healthz`` reports.  Lifecycle stays with the
            caller — the HTTP server never starts or stops replication.
    """

    def __init__(
        self,
        root: str | Path | HubServer,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        peer_name: str = "hub",
        role: str = "primary",
        replicator=None,
    ) -> None:
        self.server = root if isinstance(root, HubServer) else HubServer(root)
        self.host = host
        self._port = port
        self.registry = registry if registry is not None else get_registry()
        self.peer_name = peer_name
        self.role = role
        self.replicator = replicator
        self._listener = Listener(_Handler, self, f"dlv-hub-http-{peer_name}")

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        return self._listener.port or self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def health_payload(self) -> dict:
        """What ``/healthz`` reports: liveness plus fleet identity."""
        payload = {
            **self.server.health(), "peer": self.peer_name, "role": self.role
        }
        if self.replicator is not None:
            payload["replication"] = self.replicator.stats()
        return payload

    def start(self) -> "HubHTTPServer":
        self._listener.start(self.host, self._port)
        return self

    def stop(self) -> None:
        self._listener.stop()

    def __enter__(self) -> "HubHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class RemoteHub(Session):
    """Keep-alive HTTP client for a :class:`HubHTTPServer`.

    The HTTP implementation of the read protocol :class:`HubServer`
    defines — the same six calls with the same results and errors.  One
    instance per thread; the underlying connection is not thread-safe.

    Args:
        url: ``http(s)://`` address of a running hub.
        timeout: Socket timeout per request, seconds
            (:data:`DEFAULT_HUB_TIMEOUT_S`).  Covers connect *and* each
            read, so a peer that accepts and then hangs fails the
            request instead of blocking a pull indefinitely.
    """

    def __init__(
        self, url: str, timeout: float = DEFAULT_HUB_TIMEOUT_S
    ) -> None:
        super().__init__(url, timeout, traced=True)
        self.url = url.rstrip("/")

    @staticmethod
    def _retry_after(headers: dict) -> Optional[float]:
        raw = headers.get("Retry-After")
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:  # http-date form: not worth parsing here
            return None

    def _raise_for_status(
        self, path: str, status: int, raw: bytes, headers: dict
    ) -> None:
        if status < 400:
            return
        try:
            data = json.loads(raw or b"{}")
        except json.JSONDecodeError:
            data = {"error": raw.decode(errors="replace")}
        if status == 404:
            raise KeyError(data.get("error", f"not found: {path}"))
        if status == 403:
            raise PermissionError(data.get("error", f"forbidden: {path}"))
        if status == 429 or status >= 500:
            # Any server-side failure is transient from the client's
            # seat: retryable here, failover-eligible in a fleet.
            raise RemoteHubUnavailable(
                status, data, retry_after=self._retry_after(headers)
            )
        raise RemoteHubError(status, data)

    def _get_json(self, path: str) -> dict:
        status, raw, headers = self.exchange("GET", path)
        self._raise_for_status(path, status, raw, headers)
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise RemoteHubError(
                status, {"error": f"invalid JSON body: {exc}"}
            ) from None

    # -- hub surface ---------------------------------------------------------

    def health(self) -> dict:
        return self._get_json("/healthz")

    def metrics(self) -> dict:
        return self._get_json("/metrics")

    def search(self, pattern: str = "*") -> list[HubRecord]:
        quoted = urllib.parse.quote(pattern)
        payload = self._get_json(f"/v1/index?pattern={quoted}")
        return [HubRecord.from_dict(d) for d in payload["records"]]

    def _repo(self, name: str, revision: Optional[int], what: str) -> dict:
        rev = "latest" if revision is None else str(revision)
        quoted = urllib.parse.quote(name, safe="")
        return self._get_json(f"/v1/repos/{quoted}/{rev}/{what}")

    def revisions(self, name: str) -> list[int]:
        quoted = urllib.parse.quote(name, safe="")
        return self._get_json(f"/v1/repos/{quoted}/revisions")["revisions"]

    def manifest(
        self, name: str, revision: Optional[int] = None
    ) -> Optional[dict]:
        return self._repo(name, revision, "manifest")["manifest"]

    def files(self, name: str, revision: Optional[int] = None) -> list[str]:
        return self._repo(name, revision, "files")["files"]

    def resolve_revision(
        self, name: str, revision: Optional[int] = None
    ) -> int:
        """The concrete revision number ``latest`` currently means.

        An explicit revision is returned as is (no round trip); the
        ``manifest``/``files`` call that follows reports it missing.
        """
        if revision is not None:
            return revision
        return self._repo(name, None, "files")["revision"]

    def fetch_file(
        self, name: str, revision: int, rel: str, offset: int = 0
    ) -> bytes:
        """Bytes of one published file, from ``offset`` to EOF.

        A non-zero offset is sent as ``Range: bytes=N-``; a server that
        ignores the header (answering 200 with the full body) is
        handled by slicing locally, so callers always receive exactly
        the tail they asked for.
        """
        quoted = urllib.parse.quote(name, safe="")
        quoted_rel = "/".join(
            urllib.parse.quote(seg, safe="") for seg in rel.split("/")
        )
        path = f"/v1/repos/{quoted}/{revision}/files/{quoted_rel}"
        status, data, headers = self.exchange(
            "GET", path,
            headers={"Range": f"bytes={offset}-"} if offset > 0 else None,
        )
        self._raise_for_status(path, status, data, headers)
        if offset > 0 and status != 206:
            data = data[offset:]
        return data
