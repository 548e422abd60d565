"""HTTP transport for the hub: :class:`HubHTTPServer` and :class:`RemoteHub`.

The directory-backed :class:`~repro.hub.server.HubServer` is the storage
and the source of truth; this module puts a stdlib
``ThreadingHTTPServer`` in front of it so a
:class:`~repro.hub.client.HubClient` on another machine (or just another
process) can search and pull over the wire.  Every ``/v1`` route is one
call of the store's read protocol — the handler never touches the
published trees itself.  Endpoints:

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
``manifest``, ``files``, range-resumable ``fetch_file``) over keep-alive
``http.client`` with a per-request socket timeout.  It sends the calling
context's ``traceparent`` on every request.  404 raises ``KeyError`` and
403 ``PermissionError`` exactly as the directory does; 429/5xx raise
:class:`RemoteHubUnavailable` — an :class:`OSError` carrying any server
``Retry-After`` — so retriers and the pull engine's circuit breakers
treat them as transient.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from repro.faults.net import get_net_plan
from repro.hub.server import HubRecord, HubServer
from repro.obs.export import mark_orphans
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.propagation import (
    TRACEPARENT_HEADER,
    current_traceparent,
    parse_traceparent,
)
from repro.obs.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_text,
    wants_text,
)
from repro.obs.tracing import get_recorder, trace_span

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


class _HTTPError(Exception):
    """Internal: carry an HTTP status + JSON body up to the dispatcher."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP exchange; state lives on ``server.hub_http``."""

    protocol_version = "HTTP/1.1"
    server_version = "dlv-hub"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # requests are observable via /metrics, not stderr noise

    # -- plumbing ------------------------------------------------------------

    def _send_payload(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[dict] = None,
    ) -> None:
        """One choke point for every response — where truncation bites.

        A ``truncate`` net fault promises the full ``Content-Length``
        but writes only the first N bytes and closes the connection, so
        the client's read fails with ``IncompleteRead`` exactly like a
        torn transfer.
        """
        truncate = getattr(self, "_truncate_body", None)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, str(value))
        if truncate is not None and truncate < len(body):
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body[:truncate])
            self.close_connection = True
        else:
            self.end_headers()
            self.wfile.write(body)

    def _send_json(
        self, status: int, payload: dict,
        extra_headers: Optional[dict] = None,
    ) -> None:
        body = json.dumps(payload, default=str).encode()
        self._send_payload(status, body, "application/json", extra_headers)

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str = "application/octet-stream",
                    extra_headers: Optional[dict] = None) -> None:
        self._send_payload(status, body, content_type, extra_headers)

    def _apply_net_fault(self, path: str) -> bool:
        """Consult the chaos plan; returns True when the request is done."""
        plan = get_net_plan()
        if plan is None:
            return False
        hub = self.server.hub_http
        point = plan.on_request(f"{hub.peer_name}:{path}")
        if point is None:
            return False
        if point.action == "drop":
            # No response at all: the client sees the connection die.
            self.close_connection = True
            return True
        if point.action == "error":
            self._send_json(point.status, {"error": point.message})
            return True
        if point.action == "unavailable":
            headers = {}
            if point.retry_after is not None:
                headers["Retry-After"] = f"{point.retry_after:g}"
            self._send_json(503, {"error": point.message}, headers)
            return True
        # truncate: let routing proceed; _send_payload tears the body.
        self._truncate_body = point.offset
        return False

    def _dispatch(self) -> None:
        hub = self.server.hub_http
        parsed = urllib.parse.urlsplit(self.path)
        parts = [
            urllib.parse.unquote(p)
            for p in parsed.path.split("/")
            if p != ""
        ]
        query = urllib.parse.parse_qs(parsed.query)
        ctx = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
        try:
            if self._apply_net_fault(parsed.path):
                return
            with trace_span(
                "hub.http",
                trace_id=ctx.trace_id if ctx else None,
                remote_parent=ctx.span_id if ctx else None,
                path=parsed.path,
            ):
                self._route(hub, parts, query)
        except _HTTPError as exc:
            self._send_json(exc.status, exc.payload)
        except KeyError as exc:
            self._send_json(404, {"error": str(exc)})
        except PermissionError as exc:
            self._send_json(403, {"error": str(exc)})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - surface, don't kill thread
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _route(self, hub: "HubHTTPServer", parts: list[str],
               query: dict[str, list[str]]) -> None:
        if parts == ["healthz"]:
            self._send_json(200, hub.health_payload())
        elif parts == ["metrics"]:
            if wants_text(self.headers.get("Accept")):
                self._send_bytes(
                    200,
                    render_text(hub.registry).encode(),
                    PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send_json(200, hub.registry.as_dict())
        elif parts == ["v1", "trace"]:
            recorder = get_recorder()
            self._send_json(200, {
                "total_recorded": recorder.total_recorded,
                "spans": mark_orphans(
                    [s.to_dict() for s in recorder.spans()]
                ),
            })
        elif parts == ["v1", "index"]:
            pattern = query.get("pattern", ["*"])[0]
            self._send_json(200, {
                "records": [r.to_dict() for r in hub.server.search(pattern)]
            })
        elif len(parts) == 4 and parts[:2] == ["v1", "repos"] \
                and parts[3] == "revisions":
            self._send_json(200, {
                "name": parts[2],
                "revisions": hub.server.revisions(parts[2]),
            })
        elif len(parts) == 5 and parts[:2] == ["v1", "repos"] \
                and parts[4] in ("manifest", "files"):
            name, what = parts[2], parts[4]
            revision = hub.server.resolve_revision(
                name, self._revision(parts[3])
            )
            self._send_json(200, {
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
                self._send_bytes(200, data)
            else:
                self._send_bytes(
                    206,
                    data[start:],
                    extra_headers={
                        "Content-Range":
                            f"bytes {start}-{len(data) - 1}/{len(data)}",
                    },
                )
        else:
            raise _HTTPError(
                404, {"error": f"no route {self.command} {self.path}"}
            )

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
            raise _HTTPError(400, {"error": f"bad revision {raw!r}"}) from None

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch()


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    disable_nagle_algorithm = True
    request_queue_size = 128
    hub_http: "HubHTTPServer"


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
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        # Guards lifecycle writes (_httpd/_thread); reads stay lockless.
        self._lifecycle = threading.Lock()

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._port

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
        with self._lifecycle:
            if self._httpd is not None:
                raise RuntimeError("hub server already started")
            self._httpd = _Server((self.host, self._port), _Handler)
            self._httpd.hub_http = self
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"dlv-hub-http-{self.peer_name}",
                daemon=True,
            )
            thread = self._thread
        thread.start()
        return self

    def stop(self) -> None:
        with self._lifecycle:
            httpd, thread = self._httpd, self._thread
            self._httpd = None
            self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "HubHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class RemoteHub:
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
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", "https"):
            raise ValueError(f"not an http(s) hub url: {url!r}")
        self.url = url.rstrip("/")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or (443 if parsed.scheme == "https" else 80)
        self.scheme = parsed.scheme
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RemoteHub":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(
        self, path: str, extra_headers: Optional[dict] = None
    ) -> tuple[int, bytes, dict]:
        if self._conn is None:
            conn_cls = (
                http.client.HTTPSConnection
                if self.scheme == "https"
                else http.client.HTTPConnection
            )
            self._conn = conn_cls(self.host, self.port, timeout=self.timeout)
            self._conn.connect()
            if isinstance(self._conn.sock, socket.socket):
                self._conn.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
        headers = dict(extra_headers or {})
        traceparent = current_traceparent()
        if traceparent:
            headers[TRACEPARENT_HEADER] = traceparent
        self._conn.request("GET", path, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())

    def _get(
        self, path: str, extra_headers: Optional[dict] = None
    ) -> tuple[int, bytes, dict]:
        try:
            return self._roundtrip(path, extra_headers)
        except (http.client.HTTPException, ConnectionError, BrokenPipeError):
            # Stale keep-alive connection: reconnect once and retry.  A
            # second failure propagates — that is a peer problem, and
            # the caller's retrier/failover owns it from here.
            self.close()
            try:
                return self._roundtrip(path, extra_headers)
            except Exception:
                self.close()
                raise
        except OSError:
            self.close()
            raise

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
        status, raw, headers = self._get(path)
        self._raise_for_status(path, status, raw, headers)
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise RemoteHubError(
                status, {"error": f"invalid JSON body: {exc}"}
            ) from None

    def _get_bytes(
        self, path: str, extra_headers: Optional[dict] = None
    ) -> tuple[int, bytes]:
        status, raw, headers = self._get(path, extra_headers)
        self._raise_for_status(path, status, raw, headers)
        return status, raw

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
        headers = {"Range": f"bytes={offset}-"} if offset > 0 else None
        status, data = self._get_bytes(path, headers)
        if offset > 0 and status != 206:
            data = data[offset:]
        return data
