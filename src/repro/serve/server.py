"""The HTTP face of the serving tier: :class:`ModelServer`.

Every request thread parses JSON, submits a ticket to the
:class:`BatchScheduler`, and blocks until the batched data path answers.
This module owns the serving routes, their payloads and the drain; the
transport under them (sockets, listener lifecycle, responder, status
table, ops routes) is :mod:`repro.wire`'s.  Endpoints:

========================  ====================================================
``GET /healthz``          Liveness; 503 once a drain has started.
``GET /v1/models``        Served snapshots and their shapes.
``GET /metrics``          ``repro.obs`` dump + plane-cache and queue stats
                          (JSON); Prometheus text exposition under
                          ``Accept: text/plain``.
``GET /v1/slowlog``       Requests that crossed the slow threshold.
``GET /v1/trace``         The span ring buffer (orphan-marked dicts).
``POST /v1/predict``      ``{"model", "inputs", "start_planes"?, "exact"?}``
========================  ====================================================

Predict responses carry the progressive-serving contract: per-row
``resolved_planes`` (which plane budget determined each answer),
``escalations``, and ``degraded: true`` whenever a lossy recovery path
(PR-3 degraded retrieval) supplied any plane along the way — plus the
request's ``cost`` bill and its ``trace_id``.

Requests arriving with a ``traceparent`` header join the sender's trace:
the handler's ``serve.predict`` span adopts the carried trace id and
records the remote span as its parent, and the identity is forwarded
across the thread hop into the batch worker, so one distributed trace
covers client, handler, and batch spans.

Snapshots whose stored network spec fails :func:`validate_network` are
refused at startup — a serving tier should not boot on a model that
static analysis can prove broken.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import obs
from repro.analysis.net_check import validate_network
from repro.dlv.repository import Repository
from repro.dnn.network import GraphError, Network
from repro.obs.cost import get_slowlog
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.propagation import TRACEPARENT_HEADER
from repro.serve.cache import PlaneCache
from repro.serve.config import ServeConfig
from repro.serve.scheduler import AdmissionError, BatchScheduler, ModelRuntime
from repro.wire import Handler, HTTPError, Listener, adopt_span

__all__ = ["ModelServer"]


class _Handler(Handler):
    """Routes one HTTP exchange; state lives on ``server.app``."""

    server_version = "dlv-serve"

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        self.send(status, payload, headers=headers)

    def _read_json(self) -> dict:
        try:
            body = json.loads(self.body or b"{}")
        except json.JSONDecodeError as exc:
            raise HTTPError(400, {"error": f"invalid JSON body: {exc}"})
        if not isinstance(body, dict):
            raise HTTPError(400, {"error": "request body must be an object"})
        return body

    def route(self, path: str, query: dict) -> None:
        serve = self.server.app
        if self.ops_route(path, serve.registry, serve.handle_metrics):
            return
        request = (self.command, path)
        if request == ("GET", "/healthz"):
            self._send_json(*serve.handle_health())
        elif request == ("GET", "/v1/models"):
            self._send_json(200, serve.handle_models())
        elif request == ("GET", "/v1/slowlog"):
            self._send_json(200, serve.handle_slowlog())
        elif request == ("POST", "/v1/predict"):
            self._send_json(
                200,
                serve.handle_predict(
                    self._read_json(),
                    traceparent=self.headers.get(TRACEPARENT_HEADER),
                ),
            )
        else:
            raise self.no_route()

    do_GET = do_POST = Handler.dispatch  # noqa: N815 - stdlib naming


class ModelServer:
    """Serves a repository's model snapshots over HTTP.

    Args:
        repo: An open :class:`Repository` or a path to one (paths are
            opened — and closed — by the server).
        config: Batching/caching/bind policy; defaults to
            :class:`ServeConfig`'s defaults.
        models: Version names to serve (default: every version that has a
            snapshot).  The latest version per name wins.
        registry: Metrics registry (defaults to the process-global one,
            so ``/metrics`` and ``dlv stats`` agree).
        strict: When True, a snapshot failing static validation aborts
            startup instead of being skipped with a counter.
    """

    def __init__(
        self,
        repo: Union[Repository, str, Path],
        config: Optional[ServeConfig] = None,
        models: Optional[list[str]] = None,
        registry: Optional[MetricsRegistry] = None,
        strict: bool = False,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else get_registry()
        self._owns_repo = not isinstance(repo, Repository)
        self.repo = (
            repo if isinstance(repo, Repository) else Repository.open(str(repo))
        )
        self.cache = PlaneCache(self.config.cache_bytes, registry=self.registry)
        self.scheduler = BatchScheduler(self.config, registry=self.registry)
        self.rejected: dict[str, str] = {}
        self._listener = Listener(_Handler, self, "serve-http")
        self._load_models(models, strict)
        if not self.scheduler.models():
            raise ValueError("repository has no servable model snapshots")

    # -- model loading -------------------------------------------------------

    def _load_models(self, names: Optional[list[str]], strict: bool) -> None:
        """Build a runtime per served snapshot; refuse invalid networks."""
        # Passing the serve cache into the archive keys dedup page reads
        # by content hash, so pages shared across served models occupy
        # cache bytes once and concurrent loads single-flight.
        archive = self.repo.archive_view(plane_cache=self.cache)
        versions = [v for v in self.repo.list_versions() if v.snapshots]
        if names is not None:
            wanted = set(names)
            versions = [v for v in versions if v.name in wanted]
            missing = wanted - {v.name for v in versions}
            if missing:
                raise KeyError(
                    "no servable versions named "
                    + ", ".join(sorted(repr(n) for n in missing))
                )
        latest: dict[str, object] = {}
        for version in versions:  # list_versions is id-ordered: latest wins
            latest[version.name] = version
        rejected_counter = self.registry.counter("serve.models_rejected")
        for name, version in sorted(latest.items()):
            net = Network.from_spec(version.network)
            try:
                validate_network(net)
            except GraphError as exc:
                if strict:
                    raise
                self.rejected[name] = str(exc)
                rejected_counter.inc()
                continue
            snapshot = version.snapshots[-1]
            runtime = ModelRuntime(
                name=name,
                net=net.build(0),
                archive=archive,
                snapshot_id=snapshot.key,
                plane_cache=self.cache,
                meta={
                    "ref": version.ref,
                    "float_scheme": snapshot.float_scheme,
                },
            )
            self.scheduler.register(runtime)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ModelServer":
        """Bind, serve in a daemon thread, and start the scheduler workers."""
        self._listener.start(self.config.host, self.config.port)
        self.scheduler.start()
        self.registry.counter("serve.starts").inc()
        return self

    @property
    def port(self) -> int:
        port = self._listener.port
        if port is None:
            raise RuntimeError("server not started")
        return port

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def stop(self, drain: bool = True) -> bool:
        """Shut down; with ``drain`` waits for in-flight work first.

        Returns True when the drain completed within the configured
        grace period (vacuously True for ``drain=False``, and for every
        call but the first, which is the one that shuts down).
        """
        if not self._listener.retire():
            return True
        drained = True
        if drain:
            drained = self.scheduler.drain(self.config.drain_timeout_s)
        self.scheduler.stop()
        self._listener.stop()
        if self._owns_repo:
            self.repo.close()
        return drained

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=True)

    # -- endpoint logic (handler-thread context) -----------------------------

    def handle_health(self) -> tuple[int, dict]:
        if self.scheduler.draining or self._listener.retired:
            return 503, {"status": "draining"}
        return 200, {
            "status": "ok",
            "models": self.scheduler.models(),
            "outstanding": self.scheduler.outstanding(),
        }

    def handle_models(self) -> dict:
        return {
            "models": [
                self.scheduler.runtime(name).info()
                for name in self.scheduler.models()
            ],
            "rejected": dict(self.rejected),
        }

    def handle_metrics(self) -> dict:
        return {
            "metrics": obs.dump_metrics(registry=self.registry),
            "plane_cache": self.cache.stats(),
            "queues": self.scheduler.queue_depths(),
            "draining": self.scheduler.draining,
        }

    def handle_slowlog(self) -> dict:
        slowlog = get_slowlog()
        return {
            "threshold_ms": self.config.slowlog_ms,
            "capacity": slowlog.capacity,
            "total_recorded": slowlog.total_recorded,
            "entries": slowlog.entries(),
        }

    def handle_predict(
        self, body: dict, traceparent: Optional[str] = None
    ) -> dict:
        with adopt_span("serve.predict", traceparent) as span:
            model = body.get("model")
            if not isinstance(model, str):
                raise HTTPError(400, {"error": "'model' must be a string"})
            span.set_attr("model", model)
            if "inputs" not in body:
                raise HTTPError(400, {"error": "'inputs' is required"})
            try:
                x = np.asarray(body["inputs"], dtype=np.float32)
            except (TypeError, ValueError) as exc:
                raise HTTPError(
                    400, {"error": f"'inputs' is not a numeric array: {exc}"}
                )
            start_planes = body.get("start_planes")
            if start_planes is not None and not isinstance(start_planes, int):
                raise HTTPError(
                    400, {"error": "'start_planes' must be an int"}
                )
            try:
                runtime = self.scheduler.runtime(model)
            except KeyError:
                raise HTTPError(
                    404,
                    {"error": f"unknown model {model!r}",
                     "models": self.scheduler.models(),
                     "rejected": dict(self.rejected)},
                )
            if x.ndim == len(runtime.net.input_shape):  # single example
                x = x[np.newaxis, ...]
            if tuple(x.shape[1:]) != runtime.net.input_shape:
                raise HTTPError(
                    400,
                    {"error": (
                        f"input shape {list(x.shape[1:])} does not match "
                        f"model {model!r} input "
                        f"{list(runtime.net.input_shape)}"
                    )},
                )
            if self.scheduler.draining or self._listener.retired:
                raise HTTPError(503, {"error": "server is draining"})
            span.set_attr("rows", len(x))
            try:
                ticket = self.scheduler.submit(
                    model, x,
                    start_planes=start_planes,
                    exact=bool(body.get("exact", False)),
                    trace=(span.trace_id, span.hex_id),
                )
            except AdmissionError as exc:
                raise HTTPError(
                    429,
                    {"error": str(exc), "queue_depth": exc.depth,
                     "queue_limit": exc.limit},
                    headers={"Retry-After": "1"},
                )
            try:
                outcome = ticket.wait(self.config.request_timeout_s)
            except TimeoutError:
                raise HTTPError(
                    504, {"error": "prediction timed out in the scheduler"}
                )
            except Exception as exc:  # noqa: BLE001 - worker-side failure
                raise HTTPError(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            span.set_attr("cost", outcome.cost)
        self.registry.window("serve.predict").observe(outcome.seconds)
        get_slowlog().record(
            "serve.predict",
            outcome.seconds * 1000.0,
            trace_id=span.trace_id,
            cost=outcome.cost,
            attrs={"model": model, "rows": len(x)},
            threshold_ms=self.config.slowlog_ms,
        )
        return {
            "model": model,
            "predictions": outcome.predictions.tolist(),
            "resolved_planes": outcome.resolved_planes.tolist(),
            "degraded": outcome.degraded,
            "escalations": outcome.escalations,
            "latency_ms": outcome.seconds * 1000.0,
            "cost": outcome.cost,
            "trace_id": span.trace_id,
        }
