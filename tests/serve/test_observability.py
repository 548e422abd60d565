"""End-to-end serving observability: distributed traces, cost bills,
Prometheus exposition, and the slow-request log.

This codifies the PR's acceptance scenario: one ``ServeClient.predict``
produces a single trace id spanning client, server, batch, and
progressive spans (exportable as valid Chrome JSON), and the response
carries a cost bill with non-zero ``bytes_read`` / ``planes_fetched``.
"""

import json

import pytest

from repro.obs.cost import SlowLog, get_slowlog, set_slowlog
from repro.obs.export import connected_roots, group_by_trace, to_chrome
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import parse_text
from repro.obs.tracing import TraceRecorder, get_recorder, set_recorder
from repro.serve import ModelServer, ServeClient, ServeConfig


@pytest.fixture
def recorder():
    fresh = TraceRecorder(capacity=1024)
    previous = set_recorder(fresh)
    yield fresh
    set_recorder(previous)


@pytest.fixture
def slowlog():
    fresh = SlowLog(capacity=32, threshold_ms=0.0)
    previous = set_slowlog(fresh)
    yield fresh
    set_slowlog(previous)


@pytest.fixture
def obs_server(served_repo, recorder, slowlog):
    """A server whose slowlog threshold is zero (every request logs)."""
    repo, net, _ = served_repo
    model_server = ModelServer(
        repo,
        ServeConfig(drain_timeout_s=5.0, slowlog_ms=0.0),
        registry=MetricsRegistry(),
    )
    with model_server:
        yield model_server, net


class TestPredictCost:
    def test_response_carries_nonzero_bill(self, obs_server, digits):
        server, _ = obs_server
        prediction = ServeClient(port=server.port).predict(
            "tiny", digits.x_test[:4]
        )
        cost = prediction.cost
        assert cost is not None
        assert cost["bytes_read"] > 0
        assert cost["planes_fetched"] > 0
        assert cost["chunks_fetched"] > 0
        assert cost["bytes_by_plane"]  # per-plane breakdown present
        assert cost["batches"] >= 1
        assert cost["shared_requests"] >= cost["batches"]

    def test_cached_second_request_reads_fewer_bytes(
        self, obs_server, digits
    ):
        server, _ = obs_server
        client = ServeClient(port=server.port)
        first = client.predict("tiny", digits.x_test[:4]).cost
        second = client.predict("tiny", digits.x_test[:4]).cost
        # The plane cache absorbs the second request's reads.
        assert second["bytes_read"] <= first["bytes_read"]
        assert second["cache_hits"] >= 1


class TestDistributedTrace:
    def test_one_trace_spans_client_server_batch(self, obs_server, digits):
        server, _ = obs_server
        prediction = ServeClient(port=server.port).predict(
            "tiny", digits.x_test[:2]
        )
        assert prediction.trace_id
        recorder_spans = [
            span.to_dict() for span in get_recorder().spans()
        ]
        trace = group_by_trace(recorder_spans).get(prediction.trace_id)
        assert trace, "server spans must share the response's trace id"
        names = {d["name"] for d in trace}
        assert {"serve.client.predict", "serve.predict", "serve.batch"} <= names
        assert any(n.startswith("progressive.") for n in names)
        # Exactly one connected root: the client-side span.
        [root] = connected_roots(trace)
        assert root["name"] == "serve.client.predict"

    def test_trace_exports_as_valid_chrome_json(self, obs_server, digits):
        server, _ = obs_server
        prediction = ServeClient(port=server.port).predict(
            "tiny", digits.x_test[:2]
        )
        payload = ServeClient(port=server.port).trace()
        mine = [
            d for d in payload["spans"]
            if d.get("trace_id") == prediction.trace_id
        ]
        chrome = to_chrome(mine)
        blob = json.dumps(chrome)
        parsed = json.loads(blob)
        slices = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        assert len(slices) >= 3  # predict + batch + progressive at least
        assert len({e["pid"] for e in slices}) == 1


class TestMetricsEndpoint:
    def test_prometheus_text_negotiated_and_parses(self, obs_server, digits):
        server, _ = obs_server
        client = ServeClient(port=server.port)
        client.predict("tiny", digits.x_test[:2])
        status, raw = client._roundtrip(
            "GET", "/metrics", None, {"Accept": "text/plain"}
        )
        assert status == 200
        parsed = parse_text(raw.decode())
        names = {name for name, _, _ in parsed["samples"]}
        assert "serve_requests_total" in names
        assert parsed["types"].get("serve_predict") == "summary"

    def test_json_metrics_include_latency_window(self, obs_server, digits):
        server, _ = obs_server
        client = ServeClient(port=server.port)
        client.predict("tiny", digits.x_test[:2])
        windows = client.metrics()["metrics"]["windows"]
        assert windows["serve.predict"]["count"] >= 1
        assert windows["serve.predict"]["p95"] > 0


class TestSlowlogEndpoint:
    def test_zero_threshold_logs_every_predict(self, obs_server, digits):
        server, _ = obs_server
        client = ServeClient(port=server.port)
        prediction = client.predict("tiny", digits.x_test[:2])
        report = client.slowlog()
        assert report["threshold_ms"] == 0.0
        assert report["total_recorded"] >= 1
        entry = report["entries"][-1]
        assert entry["name"] == "serve.predict"
        assert entry["trace_id"] == prediction.trace_id
        assert entry["cost"]["bytes_read"] >= 0
