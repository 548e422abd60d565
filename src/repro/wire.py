"""The one HTTP seam: what ``dlv serve`` and ``dlv hub-serve`` do
identically on a socket, and what their clients do identically.

The only module under ``src/repro`` that touches ``http.server``,
``http.client`` or a socket option (the CLI's remote verbs used to bring
a third client, ``urllib.request``; they ride :class:`Session` now).
Server side: :class:`Handler` (the responder), :class:`Listener` (the
bound server and its thread), :func:`adopt_span`,
:func:`run_until_signalled`.  Client side: :class:`Session`.  Both
sides: :func:`read_headers`, the one parser of an HTTP header block —
the stdlib's servers and connections still accept, connect and
encrypt, but no head crosses the stdlib's e-mail parser.  A tier keeps
its routes, payload shapes and error contract; status codes mean
nothing to a session.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Union
from urllib.parse import parse_qs, urlsplit

from repro.obs import prometheus, propagation
from repro.obs.export import mark_orphans
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_recorder, trace_span

__all__ = [
    "HTTPError", "Handler", "HeadError", "Headers", "Listener",
    "MAX_BODY_BYTES", "MAX_HEADERS", "MAX_LINE", "NETWORK_FAILURES",
    "POLL_INTERVAL_S", "Session", "adopt_span", "read_headers",
    "run_until_signalled",
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

#: The longest line of a head, bytes: a longer request line is a 414, a
#: longer header line a 431 (the stdlib's limit and statuses).
MAX_LINE = 65536

#: The most lines a header block may have, its blank terminator included
#: (so 99 fields); one more is a 431 — again the stdlib's count.
MAX_HEADERS = 100


class HeadError(http.client.HTTPException):
    """A head over :data:`MAX_LINE` or :data:`MAX_HEADERS`.  ``status`` is
    what a server answers it with; to a client it is one more protocol
    failure of :data:`NETWORK_FAILURES`."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Headers(dict):
    """Header fields keyed by lower-cased name, so ``get`` and ``[]``
    ignore case; of a repeated name the first field wins."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())

    def __contains__(self, name: str) -> bool:
        return dict.__contains__(self, name.lower())


# A line that continues the header block: a field (a name of visible
# ASCII, no colon, then a colon), a folded continuation, or a mailbox
# "From " line, which is skipped.  Anything else — the blank line first
# of all — ends the block, as it does for the stdlib's parser.
_HEADER_LINE = re.compile(rb"From |[\x21-\x39\x3b-\x7e]*:|[\t ]")


def read_headers(rfile) -> Headers:
    """Read one header block from a buffered socket file, up to and
    including its blank line (or EOF), and parse it.

    The values are the ones the stdlib's e-mail parser gives, lookup for
    lookup: a value loses the spaces and tabs after its colon and the
    line break at its end, keeps any other whitespace, and a folded line
    is appended with its break; bytes are latin-1; lines split at CR, LF
    and CRLF.  Raises :class:`HeadError` (431) for a line over
    :data:`MAX_LINE` or a block of more than :data:`MAX_HEADERS` lines.
    """
    lines = []
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadError(431, "header line too long")
        lines.append(line)
        if len(lines) > MAX_HEADERS:
            raise HeadError(431, f"got more than {MAX_HEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            break
    fields = Headers()
    name, value = None, b""
    for line in b"".join(lines).splitlines(True):
        if not _HEADER_LINE.match(line):
            break
        if line[:1] in b" \t":
            if name is not None:
                value += line
            continue
        if name is not None:
            fields.setdefault(name, value.rstrip(b"\r\n").decode("latin-1"))
            name = None
        colon = line.find(b":")
        if colon > 0 and not line.startswith(b"From "):
            name = line[:colon].decode("ascii").lower()
            value = line[colon + 1:].lstrip(b" \t")
    if name is not None:
        fields.setdefault(name, value.rstrip(b"\r\n").decode("latin-1"))
    return fields


def _http_version(text: str) -> Optional[tuple[int, int]]:
    """``HTTP/<major>.<minor>`` as two ints, or ``None`` if malformed."""
    number = text[5:].split(".") if text.startswith("HTTP/") else ()
    if len(number) != 2 or not all(
            part.isascii() and part.isdigit() and len(part) <= 10
            for part in number):
        return None
    return int(number[0]), int(number[1])


_date = (0, "")


def _http_date() -> str:
    """The ``Date`` header's value, formatted at most once a second."""
    global _date
    now = int(time.time())
    if _date[0] != now:
        year, month, day, hh, mm, ss, weekday, _, _ = time.gmtime(now)
        _date = (now, f"{Handler.weekdayname[weekday]}, {day:02d} "
                      f"{Handler.monthname[month]} {year:04d} "
                      f"{hh:02d}:{mm:02d}:{ss:02d} GMT")
    return _date[1]


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

    def parse_request(self) -> bool:
        """Parse the head whose request line the stdlib server just read
        (it answers a line over :data:`MAX_LINE` with 414 itself).

        A line that is not ``METHOD TARGET HTTP/x.y`` is a 400, a version
        from 2.0 up a 505, a header block over a limit a 431 — each sent
        with ``Connection: close``.  The connection is kept for HTTP/1.1
        unless ``Connection: close``, for HTTP/1.0 only under
        ``Connection: keep-alive``; ``Expect: 100-continue`` is answered.
        False when the request is not to be served.
        """
        self.command = None
        self.close_connection = True
        # The stdlib writes no head for an HTTP/0.9 request; every refusal
        # here gets one.
        self.request_version = "HTTP/1.0"
        line = self.raw_requestline.decode("latin-1").rstrip("\r\n")
        self.requestline = line
        words = line.split()
        if not words:
            return False
        if len(words) != 3:
            self.send_error(400, f"Bad request syntax ({line!r})")
            return False
        command, path, version = words
        number = _http_version(version)
        if number is None:
            self.send_error(400, f"Bad request version ({version!r})")
            return False
        if number >= (2, 0):
            self.send_error(505, f"Invalid HTTP version ({version})")
            return False
        self.request_version = version
        try:
            self.headers = read_headers(self.rfile)
        except HeadError as exc:
            self.send_error(exc.status, str(exc))
            return False
        # As the stdlib does: "//host/x" must not read as a network path.
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        connection = self.headers.get("Connection", "").lower()
        self.close_connection = connection == "close" or (
            number < (1, 1) and connection != "keep-alive")
        if (number >= (1, 1)
                and self.headers.get("Expect", "").lower() == "100-continue"):
            return self.handle_expect_100()
        return True

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
            "Date": _http_date(),
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

    ``http.client`` connects (and wraps TLS); the session writes each
    request in one send and reads the response head with
    :func:`read_headers`.  A response body is ``Content-Length`` bytes,
    or everything up to EOF when there is none; a short body raises
    ``http.client.IncompleteRead``, a chunked one an
    ``http.client.HTTPException``.
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
        self._host_field = parsed.netloc.rpartition("@")[2] or self.host
        self._conn: Optional[http.client.HTTPConnection] = None
        self._rfile: Optional[io.BufferedReader] = None

    def close(self) -> None:
        """Drop the persistent connection (reopened by the next request)."""
        if self._conn is not None:
            # The socket closes only once its reader has let go of it.
            self._rfile.close()
            self._conn.close()
            self._conn = self._rfile = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request_head(self, method: str, path: str, body: Optional[bytes],
                      headers: dict) -> bytes:
        fields = {"Host": self._host_field, "Accept-Encoding": "identity"}
        if body is not None or method in ("POST", "PUT"):
            fields["Content-Length"] = len(body or b"")
        fields.update(headers)
        lines = [f"{method} {path} HTTP/1.1"]
        lines += [f"{key}: {value}" for key, value in fields.items()]
        head = "\r\n".join(lines) + "\r\n\r\n"
        if head.count("\r") + head.count("\n") != 2 * len(lines) + 2:
            raise ValueError(f"line break inside a request head: {head!r}")
        return head.encode("latin-1")

    def _read_response(self, method: str) -> tuple[int, bytes, Headers]:
        rfile = self._rfile
        while True:
            raw = rfile.readline(MAX_LINE + 1)
            if len(raw) > MAX_LINE:
                raise http.client.LineTooLong("status line")
            if not raw:
                raise http.client.RemoteDisconnected(
                    "Remote end closed connection without response")
            line = raw.decode("latin-1")
            words = line.split(None, 2)
            try:
                version, status = words[0], int(words[1])
            except (IndexError, ValueError):
                raise http.client.BadStatusLine(line) from None
            number = _http_version(version)
            if number is None or number[0] != 1 or not 100 <= status <= 999:
                raise http.client.BadStatusLine(line)
            headers = read_headers(rfile)
            if status != 100:
                break
        connection = headers.get("Connection", "").lower()
        close = ("close" in connection if number >= (1, 1)
                 else "keep-alive" not in connection)
        if "chunked" in headers.get("Transfer-Encoding", "").lower():
            raise http.client.HTTPException("chunked response body")
        try:
            expected = int(headers.get("Content-Length", ""))
        except ValueError:
            expected = -1
        if method == "HEAD" or status < 200 or status in (204, 304):
            body = b""
        elif expected >= 0:
            body = rfile.read(expected)
            if len(body) < expected:
                raise http.client.IncompleteRead(body, expected - len(body))
        else:
            body, close = rfile.read(), True
        if close:
            self.close()
        return status, body, headers

    def _once(self, method, path, body, headers) -> tuple[int, bytes, Headers]:
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
            self._conn, self._rfile = conn, conn.sock.makefile("rb")
        head = self._request_head(method, path, body, headers)
        self._conn.sock.sendall(head + body if body else head)
        return self._read_response(method)

    def exchange(self, method: str, path: str, body: Optional[bytes] = None,
                 headers: Optional[dict] = None) -> tuple[int, bytes, Headers]:
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
