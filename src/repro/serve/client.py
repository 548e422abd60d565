"""Minimal stdlib client for a running :class:`~repro.serve.ModelServer`.

The examples, benchmarks, and CI smoke test all talk to the server
through this, so the whole serving round-trip is exercised without any
third-party HTTP dependency.  The connection — keep-alive, Nagle off,
timeout, reconnect-once, ``traceparent`` injection — is the
:class:`repro.wire.Session` a :class:`ServeClient` extends; this module
owns the serving endpoints' JSON shapes and the :class:`ServeError`
contract.

Every ``predict`` opens a ``serve.client.predict`` span whose identity
the session sends in a ``traceparent`` header, so the server-side spans
join the client's trace — one trace id covers the whole distributed
request.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from repro.obs.tracing import trace_span
from repro.wire import Session

__all__ = ["Prediction", "ServeClient", "ServeError", "ServerOverloaded"]


class ServeError(RuntimeError):
    """Non-2xx response from the serving tier."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(
            f"HTTP {status}: {payload.get('error', payload)}"
        )
        self.status = status
        self.payload = payload


class ServerOverloaded(ServeError):
    """429 — the model's queue shed this request; retry after a backoff."""


class Prediction:
    """Parsed ``/v1/predict`` response."""

    def __init__(self, payload: dict) -> None:
        self.model: str = payload["model"]
        self.predictions = np.asarray(payload["predictions"], dtype=np.int64)
        self.resolved_planes = np.asarray(
            payload["resolved_planes"], dtype=np.int64
        )
        self.degraded: bool = bool(payload["degraded"])
        self.escalations: int = int(payload["escalations"])
        self.latency_ms: float = float(payload["latency_ms"])
        self.cost: Optional[dict] = payload.get("cost")
        self.trace_id: str = payload.get("trace_id", "")
        self.raw = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Prediction(model={self.model!r}, n={len(self.predictions)}, "
            f"max_planes={int(self.resolved_planes.max(initial=0))}, "
            f"degraded={self.degraded})"
        )


class ServeClient(Session):
    """Talks JSON-over-HTTP to one server over a keep-alive connection.

    The connection is reused across calls (the server speaks HTTP/1.1
    with explicit Content-Length) and transparently re-established if
    the server closed it; under concurrent load this keeps clients out
    of the listener's accept backlog.  One client instance per thread —
    the underlying session is not thread-safe.

    Args:
        host / port: Where the server listens (``ModelServer.port``).
        timeout: Socket timeout per request, seconds.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080,
        timeout: float = 60.0,
    ) -> None:
        super().__init__(f"http://{host}:{port}", timeout, traced=True)

    def _roundtrip(self, method: str, path: str, payload: Optional[bytes],
                   extra_headers: Optional[dict] = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if payload else {}
        if extra_headers:
            headers.update(extra_headers)
        status, raw, _ = self.exchange(method, path, payload, headers)
        return status, raw

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        payload = json.dumps(body).encode() if body is not None else None
        status, raw = self._roundtrip(method, path, payload)
        try:
            data = json.loads(raw or b"{}")
        except json.JSONDecodeError:
            data = {"error": raw.decode(errors="replace")}
        if status == 429:
            raise ServerOverloaded(status, data)
        if status >= 400:
            raise ServeError(status, data)
        return data

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def models(self) -> list[dict]:
        return self._request("GET", "/v1/models")["models"]

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def slowlog(self) -> dict:
        return self._request("GET", "/v1/slowlog")

    def trace(self) -> dict:
        """The server's span ring buffer (orphan-marked span dicts)."""
        return self._request("GET", "/v1/trace")

    def predict(
        self,
        model: str,
        inputs,
        start_planes: Optional[int] = None,
        exact: bool = False,
    ) -> Prediction:
        """Predict labels for ``inputs`` (list or array of examples).

        Args:
            model: Served model name (see :meth:`models`).
            inputs: One example or a batch; converted via ``tolist``.
            start_planes: Plane budget to start the progressive
                evaluation at (server default when omitted).
            exact: Skip progressive serving; answer at full precision.
        """
        body: dict = {
            "model": model,
            "inputs": np.asarray(inputs, dtype=np.float32).tolist(),
        }
        if start_planes is not None:
            body["start_planes"] = int(start_planes)
        if exact:
            body["exact"] = True
        with trace_span("serve.client.predict", model=model) as span:
            prediction = Prediction(self._request("POST", "/v1/predict", body))
            span.set_attr("server_trace_id", prediction.trace_id)
        return prediction
