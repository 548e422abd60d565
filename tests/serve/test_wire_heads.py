"""Differential suite for the one HTTP head parser (``repro.wire``).

``read_headers`` replaced the stdlib's e-mail-based header parsing on
both ends of the seam.  The stdlib parser is the oracle here, and this is
the only file that calls it: hypothesis generates header blocks — names
in mixed case and repeated, odd whitespace, latin-1 values, folded and
malformed lines, lines over the length limit, blocks over the count
limit — and both parsers must give the same value for every lookup and
refuse the same blocks.  A live :class:`repro.wire.Handler` must answer
each head with the status a stdlib request handler gives it.
"""

from __future__ import annotations

import http.client
import io
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.wire import (
    MAX_HEADERS,
    MAX_LINE,
    Handler,
    HeadError,
    Headers,
    Listener,
    Session,
    read_headers,
)

NAMES = ["Content-Length", "Accept", "Connection", "traceparent", "X-Probe"]

# -- generating heads ----------------------------------------------------------


def _cases(name: str):
    """The name in several spellings of case."""
    return st.sampled_from(
        [name, name.lower(), name.upper(), name.swapcase(), name.title()])


_names = st.one_of(
    st.sampled_from(NAMES).flatmap(_cases),
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E,
                          blacklist_characters=":"), min_size=1, max_size=8),
)
_spaces = st.text(st.sampled_from(" \t"), max_size=3)
# latin-1 without the line breaks a client could never send in a value.
_values = st.text(
    st.characters(max_codepoint=0xFF, blacklist_characters="\r\n"),
    max_size=24,
)
_field = st.builds(
    lambda name, before, value, after: f"{name}:{before}{value}{after}",
    _names, _spaces, _values, _spaces,
)
_odd = st.sampled_from([
    " folded continuation",       # joins the field before it
    "\tfolded after a tab",
    "From someone",               # mailbox line: skipped
    ": no name",                  # skipped
    "no colon at all",            # ends the block early
    "Bad Name: space in the name",  # ends the block early
    "Caf\xe9: latin-1 name",      # ends the block early
    "Split: one\rtwo",            # a bare CR splits the line
])
_lines = st.lists(
    st.one_of(_field, _field, _field, _odd), max_size=12)
_endings = st.sampled_from(["\r\n", "\r\n", "\n"])


@st.composite
def header_blocks(draw) -> bytes:
    """A header block with its terminator (or none: a torn head)."""
    lines = draw(_lines)
    ending = draw(_endings)
    text = "".join(line + draw(_endings) for line in lines)
    terminator = draw(st.sampled_from([ending, ending, ending, ""]))
    return (text + terminator).encode("latin-1")


# -- the differential ----------------------------------------------------------


def _parse(parser, block: bytes):
    """``(result or the refusal, bytes left on the stream)``."""
    stream = io.BufferedReader(io.BytesIO(block + b"BODY"))
    try:
        result = parser(stream)
    except http.client.HTTPException as exc:
        result = exc
    return result, stream.read()


def assert_same(block: bytes) -> None:
    ours, our_rest = _parse(read_headers, block)
    theirs, their_rest = _parse(http.client.parse_headers, block)
    assert our_rest == their_rest
    if isinstance(theirs, Exception):
        assert isinstance(ours, HeadError), (ours, theirs)
        assert ours.status == 431
        return
    assert isinstance(ours, Headers), ours
    assert set(ours) == {name.lower() for name in theirs.keys()}
    lookups = {name for name in theirs.keys()} | set(NAMES)
    for name in lookups:
        for spelling in (name, name.lower(), name.upper()):
            assert ours.get(spelling) == theirs.get(spelling), spelling
            assert (spelling in ours) == (spelling in theirs)


@settings(max_examples=400, deadline=None)
@given(header_blocks())
def test_every_lookup_matches_the_stdlib(block):
    assert_same(block)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(MAX_LINE - 40, MAX_LINE + 40), _endings, st.booleans())
def test_line_length_limit_matches_the_stdlib(length, ending, folded):
    line = "X-Long: " + "v" * (length - len("X-Long: "))
    if folded:
        line = "X-Short: a" + ending + " " + "v" * (length - 1)
    assert_same(f"Accept: */*{ending}{line}{ending}{ending}".encode())


@settings(max_examples=40, deadline=None)
@given(st.integers(MAX_HEADERS - 3, MAX_HEADERS + 3), _endings,
       st.booleans())
def test_header_count_limit_matches_the_stdlib(count, ending, repeated):
    fields = [
        f"X-{'Same' if repeated else i}: {i}{ending}" for i in range(count)]
    assert_same(("".join(fields) + ending).encode())


def test_values_keep_what_the_stdlib_keeps():
    block = (b"ACCEPT:\t text/plain \r\nX-Fold: a\r\n  b\r\n"
             b"accept: second\r\nX-Empty:\r\n\r\n")
    headers = read_headers(io.BufferedReader(io.BytesIO(block)))
    assert headers.get("accept") == "text/plain "
    assert headers["X-Fold"] == "a\r\n  b"
    assert headers.get("x-empty") == ""
    assert headers.get("missing", "default") == "default"
    assert_same(block)


# -- the server's answers --------------------------------------------------------


class _Stdlib(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_GET(self):  # noqa: N802 - stdlib naming
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()


class _Wire(Handler):
    def route(self, path, query):
        self.send(200, b"")

    do_GET = Handler.dispatch  # noqa: N815 - stdlib naming


@pytest.fixture(scope="module")
def ports():
    stdlib = ThreadingHTTPServer(("127.0.0.1", 0), _Stdlib)
    stdlib.daemon_threads = True
    thread = threading.Thread(target=stdlib.serve_forever, daemon=True)
    thread.start()
    wire = Listener(_Wire, None, "wire-heads")
    wire.start("127.0.0.1", 0)
    yield {"stdlib": stdlib.server_address[1], "wire": wire.port}
    wire.stop()
    stdlib.shutdown()
    stdlib.server_close()
    thread.join(timeout=5.0)


def _final_status(reader, statuses: list) -> bool:
    """Read responses up to a final one, noting each status; False once
    the server has closed or gone quiet instead.

    The stdlib writes no head when it refuses a request line whose
    version it could not take; its HTML page still names the status."""
    while True:
        try:
            line = reader.readline()
        except (TimeoutError, ConnectionError):
            return False
        if not line:
            return False
        if not line.startswith(b"HTTP/"):
            page = line + reader.read()
            statuses.append(int(re.search(rb"Error code: (\d+)", page)[1]))
            return False
        statuses.append(int(line.split()[1]))
        length = 0
        while (field := reader.readline()) not in (b"\r\n", b""):
            if field.lower().startswith(b"content-length:"):
                length = int(field.split(b":")[1])
        reader.read(length)
        if statuses[-1] != 100:
            return True


def _answers(port: int, head: bytes, then: bytes = b"") -> list[int]:
    """The statuses a server answers ``head`` with — and then, on the
    same connection if it is kept, ``then`` — in order."""
    statuses: list[int] = []
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        with sock.makefile("rb") as reader:
            sock.sendall(head)
            if _final_status(reader, statuses) and then:
                sock.settimeout(1.0)
                try:
                    sock.sendall(then)
                except OSError:
                    return statuses
                _final_status(reader, statuses)
    return statuses


REQUEST = b"GET /x HTTP/1.1\r\nHost: h\r\n"
HEADS = {
    "plain": REQUEST + b"\r\n",
    "request line too long": b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n",
    "header line too long": REQUEST + b"X: " + b"v" * MAX_LINE + b"\r\n\r\n",
    "99 fields": REQUEST + b"X: 1\r\n" * 98 + b"\r\n",
    "100 fields": REQUEST + b"X: 1\r\n" * 99 + b"\r\n",
    "four words": b"GET /x y HTTP/1.1\r\n\r\n",
    "bad version": b"GET /x HTTX/1.1\r\n\r\n",
    "version 2.0": b"GET /x HTTP/2.0\r\n\r\n",
    "blank line": b"\r\n",
    "expect 100-continue": REQUEST + b"Expect: 100-continue\r\n\r\n",
    "1.1 connection close": REQUEST + b"Connection: close\r\n\r\n",
    "1.0 default close": b"GET /x HTTP/1.0\r\n\r\n",
    "1.0 keep-alive": b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
}


@pytest.mark.parametrize("case", sorted(HEADS))
def test_server_answers_each_head_as_the_stdlib_does(ports, case):
    """Same statuses, and the connection kept exactly when the stdlib
    keeps it (a second request on it is answered)."""
    answers = {
        side: _answers(port, HEADS[case], then=b"GET /y HTTP/1.1\r\n\r\n")
        for side, port in ports.items()
    }
    assert answers["wire"] == answers["stdlib"]


@settings(max_examples=30, deadline=None)
@given(header_blocks())
def test_server_status_matches_the_stdlib_on_generated_heads(ports, block):
    if not block.endswith(b"\n\n") and not block.endswith(b"\r\n\r\n"):
        block += b"\r\n"
    lowered = block.lower()
    if b"content-length" in lowered or b"expect" in lowered or (
            b"connection" in lowered):
        return  # a body, a continue or a close would fork the exchange
    head = b"GET /x HTTP/1.1\r\n" + block
    first = {side: _answers(port, head)[:1] for side, port in ports.items()}
    assert first["wire"] == first["stdlib"]


def test_two_word_request_line_is_a_400(ports):
    # The stdlib would answer an HTTP/0.9 "GET /x" with a bare body; the
    # seam speaks HTTP/1.x only.
    assert _answers(ports["wire"], b"GET /x\r\n") == [400]


@pytest.mark.parametrize("case", ["bad version", "version 2.0"])
def test_a_refused_version_is_answered_with_a_head(ports, case):
    with socket.create_connection(("127.0.0.1", ports["wire"]), 5) as sock:
        sock.sendall(HEADS[case])
        with sock.makefile("rb") as reader:
            assert reader.readline().startswith(b"HTTP/1.1 ")


# -- the client's refusals ---------------------------------------------------------


def _serve_once(reply: bytes):
    """A one-shot server that reads a request head, writes ``reply`` raw
    and closes; returns its port."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = listener.accept()
        with conn:
            reader = conn.makefile("rb")
            while reader.readline() not in (b"\r\n", b""):
                pass
            conn.sendall(reply)
            reader.close()
        listener.close()

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname()[1]


@pytest.mark.parametrize("reply, refusal", [
    (b"HTTX/1.1 200 OK\r\n\r\n", http.client.BadStatusLine),
    (b"HTTP/1.1 2x0 OK\r\n\r\n", http.client.BadStatusLine),
    (b"", http.client.RemoteDisconnected),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
     http.client.IncompleteRead),
    (b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * MAX_HEADERS + b"\r\n", HeadError),
])
def test_client_refusals_are_http_exceptions(reply, refusal):
    port = _serve_once(reply)
    session = Session(f"http://127.0.0.1:{port}", timeout=5.0)
    with pytest.raises(refusal) as excinfo:
        session._once("GET", "/", None, {})
    assert isinstance(excinfo.value, http.client.HTTPException)
    session.close()


def test_client_reads_to_eof_without_content_length():
    port = _serve_once(
        b"HTTP/1.0 200 OK\r\ncontent-type: text/plain\r\n\r\nall of it")
    with Session(f"http://127.0.0.1:{port}", timeout=5.0) as session:
        status, body, headers = session.exchange("GET", "/")
        assert (status, body) == (200, b"all of it")
        assert headers["Content-Type"] == "text/plain"
        assert session._conn is None  # the server closed: so does the session


def test_client_refuses_a_line_break_in_a_header_value():
    with pytest.raises(ValueError, match="line break"):
        Session("http://127.0.0.1:1", timeout=1.0)._request_head(
            "GET", "/", None, {"X": "a\r\nInjected: 1"})
