"""Hub-over-HTTP: the HubHTTPServer wire surface (status codes, headers,
metrics exposition, trace adoption).  The read calls and pulls themselves
are covered for every transport in ``test_transports.py``.
"""

import http.client
import json

import pytest

from repro.hub.client import HubClient
from repro.hub.httpd import HubHTTPServer, RemoteHub
from repro.hub.server import HubServer
from repro.obs.prometheus import parse_text
from repro.obs.tracing import TraceRecorder, set_recorder, trace_span


@pytest.fixture
def hub(tmp_path):
    return HubServer(tmp_path / "hub")


@pytest.fixture
def published(hub, repo, trained_tiny):
    net, result, _ = trained_tiny
    repo.commit(net.clone(), name="shared-model", train_result=result)
    record = HubClient(hub).publish(repo, "demo-repo", description="demo")
    return record


@pytest.fixture
def httpd(hub, published):
    with HubHTTPServer(hub) as server:
        yield server


@pytest.fixture
def recorder():
    fresh = TraceRecorder(capacity=512)
    previous = set_recorder(fresh)
    yield fresh
    set_recorder(previous)


def _raw_get(server, path, headers=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


class TestEndpoints:
    def test_health(self, httpd):
        status, body, _ = _raw_get(httpd, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_index_search(self, httpd):
        status, body, _ = _raw_get(httpd, "/v1/index?pattern=demo*")
        assert status == 200
        [record] = json.loads(body)["records"]
        assert record["name"] == "demo-repo"

    def test_revisions(self, httpd):
        status, body, _ = _raw_get(httpd, "/v1/repos/demo-repo/revisions")
        assert json.loads(body)["revisions"] == [1]

    def test_manifest_latest(self, httpd):
        status, body, _ = _raw_get(httpd, "/v1/repos/demo-repo/latest/manifest")
        payload = json.loads(body)
        assert payload["revision"] == 1
        assert payload["manifest"]  # per-file sha256 map

    def test_files_listing_and_fetch(self, httpd):
        _, body, _ = _raw_get(httpd, "/v1/repos/demo-repo/1/files")
        files = json.loads(body)["files"]
        assert files
        status, data, headers = _raw_get(
            httpd, f"/v1/repos/demo-repo/1/files/{files[0]}"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/octet-stream"
        assert len(data) > 0

    def test_unknown_repo_is_404(self, httpd):
        status, _, _ = _raw_get(httpd, "/v1/repos/nope/revisions")
        assert status == 200  # revisions of unknown repo: empty list
        status, _, _ = _raw_get(httpd, "/v1/repos/nope/latest/manifest")
        assert status == 404

    def test_unknown_route_is_404(self, httpd):
        status, _, _ = _raw_get(httpd, "/v1/bogus")
        assert status == 404

    def test_bad_revision_is_400(self, httpd):
        status, _, _ = _raw_get(httpd, "/v1/repos/demo-repo/banana/manifest")
        assert status == 400

    def test_path_traversal_refused(self, httpd):
        status, body, _ = _raw_get(
            httpd, "/v1/repos/demo-repo/1/files/..%2F..%2F..%2Findex.json"
        )
        assert status == 403
        assert "escapes" in json.loads(body)["error"]


class TestMetricsExposition:
    def test_json_by_default(self, httpd):
        status, body, headers = _raw_get(httpd, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        json.loads(body)

    def test_prometheus_text_negotiated(self, httpd):
        status, body, headers = _raw_get(
            httpd, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        parse_text(body.decode())  # raises on any grammar violation


class TestRemoteHub:
    def test_non_http_url_rejected(self):
        with pytest.raises(ValueError):
            RemoteHub("ftp://example/hub")

    def test_server_spans_join_the_pullers_trace(
        self, httpd, tmp_path, recorder
    ):
        client = HubClient(httpd.url)
        assert client.server is None
        with trace_span("driver") as driver:
            client.pull("demo-repo", tmp_path / "pulled")
        # Server handlers adopted the same trace id (same process here,
        # but via the wire header — the spans carry remote_parent).
        http_spans = [
            span for span in recorder.spans("hub.http")
            if span.trace_id == driver.trace_id
        ]
        assert http_spans
        assert any(span.remote_parent for span in http_spans)

    def test_publish_over_http_refused(self, httpd, repo):
        client = HubClient(httpd.url)
        with pytest.raises(NotImplementedError):
            client.publish(repo, "another")
