"""ModelServer HTTP tests: endpoints, contracts, overload, drain, CLI."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.segmentation import NUM_PLANES
from repro.dnn.network import GraphError
from repro.serve import (
    ModelServer,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerOverloaded,
)


def client_for(server: ModelServer) -> ServeClient:
    return ServeClient(port=server.port, timeout=30.0)


class TestEndpoints:
    def test_health(self, server):
        model_server, _ = server
        health = client_for(model_server).health()
        assert health["status"] == "ok"
        assert health["models"] == ["tiny"]

    def test_models_listing(self, server):
        model_server, net = server
        models = client_for(model_server).models()
        assert len(models) == 1
        assert models[0]["name"] == "tiny"
        assert models[0]["param_count"] == net.param_count()
        assert tuple(models[0]["input_shape"]) == net.input_shape

    def test_metrics_exposes_cache_and_queues(self, server, digits):
        model_server, _ = server
        client = client_for(model_server)
        client.predict("tiny", digits.x_test[:4])
        client.predict("tiny", digits.x_test[:4])
        metrics = client.metrics()
        assert metrics["plane_cache"]["hits"] > 0
        assert metrics["plane_cache"]["hit_rate"] > 0
        assert "tiny" in metrics["queues"]
        assert metrics["metrics"]["counters"]["serve.completed"] >= 2

    def test_unknown_route_is_404(self, server):
        model_server, _ = server
        with pytest.raises(ServeError) as excinfo:
            client_for(model_server)._request("GET", "/nope")
        assert excinfo.value.status == 404


class TestPredict:
    def test_progressive_matches_exact(self, server, digits):
        model_server, net = server
        x = digits.x_test[:16]
        result = client_for(model_server).predict("tiny", x, start_planes=1)
        np.testing.assert_array_equal(result.predictions, net.predict(x))
        assert result.resolved_planes.shape == (16,)
        assert result.latency_ms > 0

    def test_exact_flag(self, server, digits):
        model_server, net = server
        x = digits.x_test[:4]
        result = client_for(model_server).predict("tiny", x, exact=True)
        assert (result.resolved_planes == NUM_PLANES).all()
        np.testing.assert_array_equal(result.predictions, net.predict(x))

    def test_single_example_gets_batch_dim(self, server, digits):
        model_server, net = server
        result = client_for(model_server).predict("tiny", digits.x_test[0])
        assert result.predictions.shape == (1,)
        assert result.predictions[0] == net.predict(digits.x_test[:1])[0]

    def test_unknown_model_404(self, server, digits):
        model_server, _ = server
        with pytest.raises(ServeError) as excinfo:
            client_for(model_server).predict("ghost", digits.x_test[:1])
        assert excinfo.value.status == 404
        assert excinfo.value.payload["models"] == ["tiny"]

    def test_bad_shape_400(self, server):
        model_server, _ = server
        with pytest.raises(ServeError) as excinfo:
            client_for(model_server).predict("tiny", np.zeros((2, 3)))
        assert excinfo.value.status == 400
        assert "shape" in excinfo.value.payload["error"]

    def test_malformed_json_400(self, server):
        model_server, _ = server
        conn = http.client.HTTPConnection("127.0.0.1", model_server.port)
        try:
            conn.request(
                "POST", "/v1/predict", body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_missing_fields_400(self, server):
        model_server, _ = server
        client = client_for(model_server)
        x = np.zeros((1, 1, 12, 12)).tolist()  # a well-formed input
        for body, field in (
            ({"inputs": [1]}, "model"),
            ({"model": "tiny"}, "inputs"),
            ({"model": "tiny", "inputs": x, "exact": "false"}, "exact"),
            ({"model": "tiny", "inputs": x, "start_planes": True},
             "start_planes"),
        ):
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/v1/predict", body)
            assert excinfo.value.status == 400
            assert f"'{field}'" in excinfo.value.payload["error"]

    def test_concurrent_mixed_plane_requests(self, server, digits):
        model_server, net = server
        x = digits.x_test[:10]
        expected = net.predict(x)
        errors = []

        def hit(i):
            try:
                result = ServeClient(port=model_server.port).predict(
                    "tiny", x, start_planes=1 + i % 3
                )
                np.testing.assert_array_equal(result.predictions, expected)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(i,)) for i in range(10)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors


class TestOverload:
    def test_shed_returns_429(self, served_repo, registry, digits):
        repo, _, _ = served_repo
        model_server = ModelServer(
            repo,
            ServeConfig(max_batch=1, queue_limit=1),
            registry=registry,
        )
        runtime = model_server.scheduler.runtime("tiny")
        real_bounded = runtime.bounded

        def slow_bounded(x, planes):
            time.sleep(0.25)
            return real_bounded(x, planes)

        runtime.bounded = slow_bounded
        with model_server:
            overloaded = []

            def flood():
                try:
                    ServeClient(port=model_server.port, timeout=30.0).predict(
                        "tiny", digits.x_test[:2]
                    )
                except ServerOverloaded as exc:
                    overloaded.append(exc)

            threads = [threading.Thread(target=flood) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert overloaded, "queue_limit=1 under flood must shed"
            assert all(e.status == 429 for e in overloaded)
            assert registry.counter("serve.shed").value >= len(overloaded)


class TestDegraded:
    def test_lost_low_plane_marks_response_degraded(
        self, served_repo, registry, digits
    ):
        """Deleting an unreplicated plane forces zero-fill recovery."""
        repo, net, version = served_repo
        # Drop the lowest-order plane of every payload in the snapshot:
        # planes >= replicate_planes have no replica, so retrieval recovers
        # them as zero-filled (inexact) bytes.
        for payload in repo.catalog.all_payloads():
            sha = payload["chunks"][NUM_PLANES - 1]
            assert NUM_PLANES - 1 >= repo.archive_view().replicate_planes
            repo.store.delete(sha)
        model_server = ModelServer(repo, ServeConfig(), registry=registry)
        with model_server:
            result = client_for(model_server).predict(
                "tiny", digits.x_test[:4], exact=True
            )
        assert result.degraded
        assert registry.counter("serve.degraded_responses").value >= 1

    def test_intact_repo_is_not_degraded(self, server, digits):
        model_server, _ = server
        result = client_for(model_server).predict(
            "tiny", digits.x_test[:4], exact=True
        )
        assert not result.degraded


class TestValidationGate:
    def test_invalid_snapshot_is_refused(
        self, served_repo, registry, monkeypatch
    ):
        import repro.serve.server as server_module

        def reject(net):
            raise GraphError("broken by test")

        monkeypatch.setattr(server_module, "validate_network", reject)
        repo, _, _ = served_repo
        with pytest.raises(ValueError, match="no servable"):
            ModelServer(repo, ServeConfig(), registry=registry)
        assert registry.counter("serve.models_rejected").value == 1

    def test_strict_mode_raises(self, served_repo, registry, monkeypatch):
        import repro.serve.server as server_module

        def reject(net):
            raise GraphError("broken by test")

        monkeypatch.setattr(server_module, "validate_network", reject)
        repo, _, _ = served_repo
        with pytest.raises(GraphError):
            ModelServer(repo, ServeConfig(), registry=registry, strict=True)

    def test_unknown_requested_model(self, served_repo, registry):
        repo, _, _ = served_repo
        with pytest.raises(KeyError, match="ghost"):
            ModelServer(
                repo, ServeConfig(), models=["ghost"], registry=registry
            )


class TestDrain:
    def test_stop_drains_inflight_request(self, served_repo, registry, digits):
        repo, net, _ = served_repo
        model_server = ModelServer(
            repo, ServeConfig(drain_timeout_s=10.0),
            registry=registry,
        )
        runtime = model_server.scheduler.runtime("tiny")
        real_bounded = runtime.bounded

        def slow_bounded(x, planes):
            time.sleep(0.3)
            return real_bounded(x, planes)

        runtime.bounded = slow_bounded
        model_server.start()
        results = []

        def hit():
            results.append(
                ServeClient(port=model_server.port, timeout=30.0).predict(
                    "tiny", digits.x_test[:4]
                )
            )

        thread = threading.Thread(target=hit)
        thread.start()
        time.sleep(0.1)  # let the request reach its batch
        assert model_server.stop(drain=True)
        thread.join(timeout=30.0)
        assert len(results) == 1
        np.testing.assert_array_equal(
            results[0].predictions, net.predict(digits.x_test[:4])
        )

    def test_serving_starts_no_model_thread(
        self, served_repo, registry, digits
    ):
        repo, net, _ = served_repo
        repo.commit(net, name="tiny-b", message="a second served model")
        with ModelServer(repo, ServeConfig(), registry=registry) as served:
            client = client_for(served)
            for model in ("tiny", "tiny-b"):
                client.predict(model, digits.x_test[:4])
            names = {thread.name for thread in threading.enumerate()}
        assert served.scheduler.models() == ["tiny", "tiny-b"]
        assert not names & {"serve-tiny", "serve-tiny-b"}, names

    def test_health_reports_draining(self, served_repo, registry):
        repo, _, _ = served_repo
        model_server = ModelServer(
            repo, ServeConfig(), registry=registry
        ).start()
        client = client_for(model_server)
        assert client.health()["status"] == "ok"
        model_server.scheduler._draining = True
        with pytest.raises(ServeError) as excinfo:
            client.health()
        assert excinfo.value.status == 503
        model_server.scheduler._draining = False
        model_server.stop()


class TestCLI:
    def test_dlv_serve_subprocess_drains_on_sigint(self, served_repo, digits):
        repo, net, _ = served_repo
        if str(repo.root).startswith("mem://"):
            pytest.skip("memory repos are process-local; a subprocess "
                        "cannot open one")
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.dlv.cli",
                "--repo", str(repo.root), "serve", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            lines = []
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                lines.append(line)
                if line.rstrip() == "}":
                    break
            startup = json.loads("".join(lines))
            assert startup["models"] == ["tiny"]
            client = ServeClient(port=startup["port"], timeout=30.0)
            x = digits.x_test[:5]
            result = client.predict("tiny", x)
            np.testing.assert_array_equal(result.predictions, net.predict(x))
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert '"drained": true' in out
