"""Conformance suite for the one HTTP seam (``repro.wire``).

Both tiers — ``ModelServer`` ↔ ``ServeClient`` and ``HubHTTPServer`` ↔
``RemoteHub`` — take their sockets, listener lifecycle, responder, ops
routes and keep-alive session from ``repro.wire``, so everything they
must do identically is checked once, parametrised over the two.  What a
tier does on its own (predict contracts, the hub read protocol, chaos)
stays in ``test_server.py`` / ``tests/hub``.
"""

from __future__ import annotations

import http.client
import json
import socket
import socketserver
import statistics
import time
from types import SimpleNamespace

import pytest

from repro.hub.httpd import HubHTTPServer, RemoteHub
from repro.hub.server import HubServer
from repro.obs.prometheus import parse_text
from repro.obs.tracing import TraceRecorder, set_recorder, trace_span
from repro.serve import ModelServer, ServeClient, ServeConfig, ServeError
from repro.wire import NETWORK_FAILURES, Session


@pytest.fixture(params=["serve", "hub"])
def tier(request, served_repo, registry, digits, tmp_path):
    """How to build, reach and exercise one tier; ``make()`` returns a
    fresh unstarted server, and every started one is stopped afterwards."""
    repo, _, _ = served_repo
    made = []

    def track(server):
        made.append(server)
        return server

    if request.param == "serve":
        yield SimpleNamespace(
            name="serve",
            make=lambda: track(ModelServer(
                repo,
                ServeConfig(max_wait_ms=2.0, drain_timeout_s=5.0),
                registry=registry,
            )),
            url=lambda server: server.address,
            client=lambda server: ServeClient(port=server.port, timeout=10.0),
            span="serve.predict",
            traced_call=lambda c: c.predict("tiny", digits.x_test[:1]),
        )
    else:
        yield SimpleNamespace(
            name="hub",
            make=lambda: track(HubHTTPServer(
                HubServer(tmp_path / "hub"), registry=registry
            )),
            url=lambda server: server.url,
            client=lambda server: RemoteHub(server.url, timeout=10.0),
            span="hub.http",
            traced_call=lambda c: c.health(),
        )
    for server in made:
        server.stop()


@pytest.fixture
def live(tier):
    """A started server of the tier."""
    return tier.make().start()


@pytest.fixture
def raw(tier, live):
    """A bare session: the wire as any HTTP client sees it."""
    with Session(tier.url(live), timeout=10.0) as session:
        yield session


@pytest.fixture
def recorder():
    fresh = TraceRecorder(capacity=512)
    previous = set_recorder(fresh)
    yield fresh
    set_recorder(previous)


class TestRoutes:
    def test_healthz(self, tier, live):
        with tier.client(live) as client:
            assert client.health()["status"] == "ok"

    def test_metrics_json_by_default(self, tier, live, raw):
        status, body, headers = raw.exchange("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert isinstance(json.loads(body), dict)
        with tier.client(live) as client:
            assert client.metrics().keys() == json.loads(body).keys()

    def test_metrics_prometheus_text_negotiated(self, raw):
        status, body, headers = raw.exchange(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        parse_text(body.decode())  # raises on any grammar violation

    def test_trace_endpoint_marks_orphans(self, raw, recorder):
        with trace_span("still-open"):
            with trace_span("child-of-open-parent"):
                pass
            status, body, _ = raw.exchange("GET", "/v1/trace")
        assert status == 200
        payload = json.loads(body)
        assert payload["total_recorded"] >= 1
        [child] = [
            d for d in payload["spans"] if d["name"] == "child-of-open-parent"
        ]
        # Its parent is not in the buffer (still open): re-rooted.
        assert child["truncated"] is True and child["parent_id"] is None

    def test_query_string_does_not_change_the_route(self, raw):
        assert raw.exchange("GET", "/healthz?probe=1")[0] == 200
        assert raw.exchange("GET", "/metrics?x=1")[0] == 200

    def test_unknown_route_is_json_404_and_connection_survives(self, raw):
        status, body, headers = raw.exchange("GET", "/v1/bogus")
        assert status == 404
        assert headers["Content-Type"] == "application/json"
        assert "no route" in json.loads(body)["error"]
        conn = raw._conn
        assert raw.exchange("GET", "/healthz")[0] == 200
        assert raw._conn is conn  # same connection, not a reconnect

    def test_incoming_traceparent_is_adopted(self, tier, live, recorder):
        with tier.client(live) as client:
            with trace_span("driver") as driver:
                tier.traced_call(client)
            # A handler's span closes after its response is written; the
            # connection's next exchange is served strictly after that.
            client.health()
        adopted = [
            span for span in recorder.spans(tier.span)
            if span.trace_id == driver.trace_id
        ]
        assert adopted, "server span must join the caller's trace"
        assert all(span.remote_parent for span in adopted)


class TestRequestBodies:
    def test_unanswered_post_body_is_drained(self, server):
        # Left on the socket, the body would be parsed as the next
        # request line (HTTP 400 + an HTML page on the *following* call).
        model_server, _ = server
        body = json.dumps({"model": "tiny", "inputs": [[0.0] * 4]}).encode()
        with ServeClient(port=model_server.port, timeout=10.0) as client:
            assert client._roundtrip("POST", "/v1/nope", body)[0] == 404
            conn = client._conn
            assert client.health()["status"] == "ok"
            # A route that answers 400 before looking at its inputs.
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/v1/predict", {"inputs": [1]})
            assert excinfo.value.status == 400
            assert client.health()["status"] == "ok"
            assert client._conn is conn  # never had to reconnect

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, live, length):
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        try:
            conn.putrequest("GET", "/healthz")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "Content-Length" in payload["error"]


class TestTransport:
    def test_accepted_sockets_have_nagle_disabled(
        self, tier, live, monkeypatch
    ):
        seen = []
        setup = socketserver.StreamRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(
            socketserver.StreamRequestHandler, "setup", recording_setup
        )
        with tier.client(live) as client:
            client.health()
        assert seen and all(flag == 1 for flag in seen)

    def test_keepalive_roundtrip_has_no_nagle_stall(self, tier, live):
        # Nagle + delayed ACK cost ~40 ms per response; the fixed
        # round-trip is well under 1 ms, so 10 ms separates the two.
        laps = []
        with tier.client(live) as client:
            client.health()
            for _ in range(20):
                start = time.perf_counter()
                client.health()
                laps.append((time.perf_counter() - start) * 1e3)
        assert statistics.median(laps) < 10.0, laps

    def test_stale_connection_is_reconnected_once(
        self, tier, live, monkeypatch
    ):
        attempts = []
        once = Session._once

        def counting_once(session, *args):
            attempts.append(args[1])
            return once(session, *args)

        monkeypatch.setattr(Session, "_once", counting_once)
        with tier.client(live) as client:
            # The server honours the request's "Connection: close" without
            # announcing it, so the client keeps a connection that is dead.
            status, _, _ = client.exchange(
                "GET", "/healthz", headers={"Connection": "close"}
            )
            assert status == 200
            del attempts[:]
            assert client.health()["status"] == "ok"
            assert attempts == ["/healthz", "/healthz"]

    def test_second_failure_propagates_and_drops_the_connection(
        self, tier, live
    ):
        with tier.client(live) as client:
            # Stale connection, and nothing listening for the reconnect.
            client.exchange("GET", "/healthz", headers={"Connection": "close"})
            live.stop()
            with pytest.raises(NETWORK_FAILURES):
                client.health()
            assert client._conn is None

    def test_connection_refused_is_an_oserror(self, tier, live):
        # Readiness loops (the perf harness, CI) poll until OSError stops.
        client = tier.client(live)
        live.stop()
        with client, pytest.raises(OSError):
            client.health()


class TestLifecycle:
    def test_concurrent_start_binds_exactly_once(self, tier, registry, hammer):
        server = tier.make()
        errors = hammer(server.start)
        assert len(errors) == 7
        assert all(isinstance(e, RuntimeError) for e in errors)
        assert all("already started" in str(e) for e in errors)
        assert server.port != 0
        with tier.client(server) as client:
            assert client.health()["status"] == "ok"
        if tier.name == "serve":
            assert registry.counter("serve.starts").value == 1

    def test_concurrent_stop_is_idempotent(self, tier, live, hammer):
        url = tier.url(live)
        results = []
        errors = hammer(lambda: results.append(live.stop()))
        assert errors == []
        assert len(results) == 8  # every call returns, none crashes
        live.stop()  # still safe after full shutdown
        with pytest.raises(OSError):
            Session(url, timeout=2.0).exchange("GET", "/healthz")

    def test_after_stop(self, tier, live):
        first_port = live.port
        assert first_port != 0
        live.stop()
        if tier.name == "hub":  # restartable: rebinds and serves again
            live.start()
            with tier.client(live) as client:
                assert client.health()["status"] == "ok"
        else:  # one-shot: reports draining, refuses to come back
            assert live.stop() is True
            assert live.handle_health() == (503, {"status": "draining"})
            with pytest.raises(RuntimeError, match="already stopped"):
                live.start()
