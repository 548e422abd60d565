"""The one HTTP seam: what ``dlv serve`` and ``dlv hub-serve`` do
identically on a socket, and what their clients do identically.

The only module under ``src/repro`` that touches ``http.server``,
``http.client`` or a socket option (the CLI's remote verbs used to bring
a third client, ``urllib.request``; they ride :class:`Session` now).
Server side: :class:`Handler` (the responder), :class:`Listener` (the
bound server and its thread), :func:`adopt_span`,
:func:`run_until_signalled`.  Client side: :class:`Session`.  A tier
keeps its routes, payload shapes and error contract; status codes mean
nothing to a session.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Union
from urllib.parse import parse_qs, urlsplit

from repro.obs import prometheus, propagation
from repro.obs.export import mark_orphans
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_recorder, trace_span

__all__ = [
    "HTTPError", "Handler", "Listener", "MAX_BODY_BYTES", "NETWORK_FAILURES",
    "POLL_INTERVAL_S", "Session", "adopt_span", "run_until_signalled",
]

#: What a failed exchange raises on the client side: socket-level errors
#: and protocol-level ones (torn body, bad status line).
NETWORK_FAILURES = (OSError, http.client.HTTPException)

#: The largest request body a server reads (64 MiB; an 8-row predict is
#: ~6 KB).  A longer ``Content-Length`` is answered 413 unread.
MAX_BODY_BYTES = 64 << 20

#: How often a listener's accept loop looks for a stop request, seconds:
#: the longest :meth:`Listener.stop` waits for the loop to notice.
POLL_INTERVAL_S = 0.05


class HTTPError(Exception):
    """Carry an HTTP status + JSON document up to :meth:`Handler.dispatch`."""

    def __init__(self, status: int, payload: dict,
                 headers: Optional[dict] = None) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


def adopt_span(name: str, traceparent: Optional[str], **attrs):
    """A ``trace_span`` that joins the trace a ``traceparent`` value names
    (recording the remote span as parent); a plain span when it is absent
    or malformed."""
    ctx = propagation.parse_traceparent(traceparent)
    return trace_span(
        name,
        trace_id=ctx.trace_id if ctx else None,
        remote_parent=ctx.span_id if ctx else None,
        **attrs,
    )


class Handler(BaseHTTPRequestHandler):
    """Responder base.  A tier subclasses it, defines ``do_GET`` /
    ``do_POST`` as calls to :meth:`dispatch`, and implements
    ``route(path, query)``, which answers through :meth:`send` or raises
    into the status table.  The owning object is ``self.server.app``."""

    protocol_version = "HTTP/1.1"
    # socketserver reads this from the *handler*, not the server.  Without
    # it Nagle + delayed ACK stall a keep-alive response ~40 ms.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # requests are observable via /metrics, not stderr noise

    def send(self, status: int, body: Union[bytes, dict],
             content_type: str = "application/json",
             headers: Optional[dict] = None,
             truncate: Optional[int] = None) -> None:
        """The one way a response leaves: head and body in one write.

        ``body`` is bytes, or a document to JSON-encode.  ``truncate``
        (the hub's chaos seam) promises the full ``Content-Length`` but
        writes only the first N bytes and closes the connection, so the
        client's read fails exactly like a torn transfer.
        """
        if not isinstance(body, bytes):
            body = json.dumps(body, default=str).encode()
        fields = {
            "Server": self.version_string(),
            "Date": self.date_time_string(),
            "Content-Type": content_type,
            "Content-Length": len(body),
            **(headers or {}),
        }
        if truncate is not None and truncate < len(body):
            fields["Connection"] = "close"
            self.close_connection = True
            body = body[:truncate]
        head = "".join(f"{key}: {value}\r\n" for key, value in fields.items())
        reason = self.responses.get(status, ("",))[0]
        self.wfile.write(
            f"{self.protocol_version} {status} {reason}\r\n{head}\r\n".encode(
                "latin-1") + body
        )

    def _read_body(self) -> bytes:
        """Consume the request body, whatever route (if any) wants it —
        left on the socket it would be parsed as the next request."""
        length = self.headers.get("Content-Length") or "0"
        if not length.isdigit():
            self.close_connection = True  # the next request's start is lost
            raise HTTPError(400, {"error": f"bad Content-Length {length!r}"})
        if int(length) > MAX_BODY_BYTES:
            self.close_connection = True  # the body stays unread
            raise HTTPError(
                413,
                {"error": f"body of {length} bytes exceeds the "
                          f"{MAX_BODY_BYTES}-byte limit"},
                headers={"Connection": "close"},
            )
        return self.rfile.read(int(length))

    def dispatch(self) -> None:
        """Read the body (``self.body``), parse the target, route — and
        answer whatever that raises from one status table."""
        try:
            self.body = self._read_body()
            target = urlsplit(self.path)
            self.route(target.path, parse_qs(target.query))
        except HTTPError as exc:
            self.send(exc.status, exc.payload, headers=exc.headers)
        except KeyError as exc:
            self.send(404, {"error": str(exc)})
        except PermissionError as exc:
            self.send(403, {"error": str(exc)})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - surface, don't kill thread
            self.send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def no_route(self) -> HTTPError:
        return HTTPError(404, {"error": f"no route {self.command} {self.path}"})

    def ops_route(self, path: str, registry: MetricsRegistry,
                  metrics: Callable[[], dict]) -> bool:
        """Answer ``GET /metrics`` (the tier's ``metrics()`` document, or
        the registry as Prometheus text under ``Accept: text/plain``) or
        ``GET /v1/trace`` (the span ring buffer); False for anything else."""
        if self.command != "GET":
            return False
        if path == "/metrics":
            if prometheus.wants_text(self.headers.get("Accept")):
                self.send(200, prometheus.render_text(registry).encode(),
                          prometheus.PROMETHEUS_CONTENT_TYPE)
            else:
                self.send(200, metrics())
        elif path == "/v1/trace":
            recorder = get_recorder()
            spans = [span.to_dict() for span in recorder.spans()]
            self.send(200, {"total_recorded": recorder.total_recorded,
                            "spans": mark_orphans(spans)})
        else:
            return False
        return True


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # The default backlog of 5 drops SYNs under connect bursts (~1 s each).
    request_queue_size = 128
    app: object


class Listener:
    """A bound HTTP server and its thread: ``start`` / ``stop`` / ``port``
    are exactly-once however many threads race them.  ``handler`` is the
    tier's :class:`Handler` subclass, ``app`` what its instances reach as
    ``self.server.app``, ``name`` the thread's (and lifecycle errors')."""

    def __init__(self, handler: type, app: object, name: str) -> None:
        self.handler, self.app, self.name = handler, app, name
        #: True once :meth:`retire` ran (read locklessly by handlers).
        self.retired = False
        self._lock = threading.Lock()  # guards every lifecycle write
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, host: str, port: int) -> None:
        """Bind ``host:port`` (0 = OS-chosen) and serve in a daemon thread."""
        with self._lock:
            if self.retired or self._httpd is not None:
                state = "stopped" if self.retired else "started"
                raise RuntimeError(f"{self.name} already {state}")
            self._httpd = _Server((host, port), self.handler)
            self._httpd.app = self.app
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, args=(POLL_INTERVAL_S,),
                name=self.name, daemon=True,
            )
            # Under the lock: a racing stop() must never be handed a
            # thread it cannot join yet.
            self._thread.start()

    @property
    def port(self) -> Optional[int]:
        """The bound port, or ``None`` while not serving."""
        httpd = self._httpd
        return None if httpd is None else httpd.server_address[1]

    def stop(self) -> None:
        """Stop serving (idempotent); :meth:`start` may be called again."""
        with self._lock:
            httpd, thread = self._httpd, self._thread
            self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5.0)

    def retire(self) -> bool:
        """Refuse any further :meth:`start`; True for the first caller only
        — for an owner whose shutdown is one-shot and has steps of its own
        (a drain) to run exactly once before :meth:`stop`."""
        with self._lock:
            first = not self.retired
            self.retired = True
        return first


def run_until_signalled(boot: dict, emit: Callable[[dict], None]) -> None:
    """Emit ``boot`` (flushed, so a wrapper can discover the bound port),
    then block until SIGINT or SIGTERM."""
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    emit(boot)
    sys.stdout.flush()
    stop.wait()


class Session:
    """One keep-alive HTTP/1.1 connection to the server at ``url``
    (``http(s)://host[:port]``); one per thread.

    ``timeout`` (seconds) covers connect *and* each read, so a peer that
    accepts and then hangs fails the request instead of blocking the
    caller.  ``traced`` sends the calling span's ``traceparent``, so the
    server-side spans join the caller's trace.
    """

    def __init__(self, url: str, timeout: float, traced: bool = False) -> None:
        parsed = urlsplit(url)
        if parsed.scheme not in ("http", "https"):
            raise ValueError(f"not an http(s) url: {url!r}")
        self.https = parsed.scheme == "https"
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or (443 if self.https else 80)
        self.timeout = timeout
        self.traced = traced
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Drop the persistent connection (reopened by the next request)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _once(self, method, path, body, headers) -> tuple[int, bytes, dict]:
        if self._conn is None:
            peer, timeout = (self.host, self.port), self.timeout
            if self.https:
                conn = http.client.HTTPSConnection(*peer, timeout=timeout)
            else:
                conn = http.client.HTTPConnection(*peer, timeout=timeout)
            conn.connect()
            # Without TCP_NODELAY, Nagle holds the request body until
            # the header segment is ACKed (~40 ms with delayed ACKs).
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())

    def exchange(self, method: str, path: str, body: Optional[bytes] = None,
                 headers: Optional[dict] = None) -> tuple[int, bytes, dict]:
        """One request: ``(status, body, headers)``, whatever the status.
        A stale keep-alive connection (the server closed it between two
        calls) is reconnected once; a second failure — or any other
        socket error — propagates with the connection dropped, and is
        the caller's retrier's from there."""
        headers = dict(headers or {})
        if self.traced and (parent := propagation.current_traceparent()):
            headers[propagation.TRACEPARENT_HEADER] = parent
        try:
            try:
                return self._once(method, path, body, headers)
            except (http.client.HTTPException, ConnectionError):
                self.close()
                return self._once(method, path, body, headers)
        except NETWORK_FAILURES:
            self.close()
            raise
