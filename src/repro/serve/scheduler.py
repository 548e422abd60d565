"""Request batching, admission control, and progressive escalation.

The serving data path.  Each served snapshot gets one worker thread and
one bounded queue; HTTP handler threads submit :class:`PredictTicket`\\ s
and block, while the worker coalesces everything queued at the same
``(model, plane budget)`` into a single batched forward pass — a
max-batch / max-wait policy, so a lone request is not held hostage and a
burst is amortized into one DAG traversal.

Progressive escalation happens *between* batches: a request enters at
the lowest plane budget, the interval pass answers the rows Lemma 4
determines, and only the ambiguous remainder is re-queued (at the front,
to bound its latency) for the next budget — joining whatever other
requests are already waiting there.  The queue is bounded; when it is
full new arrivals are shed with :class:`AdmissionError`, which the HTTP
layer maps to 429.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.segmentation import NUM_PLANES
from repro.core.storage_graph import ROOT
from repro.dnn.network import Network
from repro.obs.cost import RequestCost, cost_context
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import trace_span

__all__ = [
    "AdmissionError",
    "BatchScheduler",
    "ModelRuntime",
    "PredictOutcome",
    "PredictTicket",
]

#: Histogram buckets for batch sizes (rows and coalesced requests).
BATCH_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class AdmissionError(RuntimeError):
    """The model's queue is full — the request was shed (HTTP 429)."""

    def __init__(self, model: str, depth: int, limit: int) -> None:
        super().__init__(
            f"model {model!r} queue is full ({depth}/{limit} requests)"
        )
        self.model = model
        self.depth = depth
        self.limit = limit


@dataclass
class PredictOutcome:
    """What a completed predict request resolves to.

    Attributes:
        predictions: Final label per input row (exact — either determined
            by Lemma 4 at some plane budget or computed at full precision).
        resolved_planes: Plane budget that determined each row.
        degraded: True when any plane read along the way took the lossy
            zero-fill recovery path, so bounds/weights were approximate.
        escalations: How many times the request's remainder was re-queued
            at a deeper budget.
        seconds: Queue-to-completion wall time.
        cost: The request's bill (:meth:`repro.obs.RequestCost.to_dict`
            shape): bytes/planes read, cache traffic, queue-wait vs.
            compute time, batch amortization.
    """

    predictions: np.ndarray
    resolved_planes: np.ndarray
    degraded: bool
    escalations: int
    seconds: float
    cost: dict = field(default_factory=dict)


class _Request:
    """Scheduler-internal state of one predict call."""

    __slots__ = (
        "x", "predictions", "resolved", "pending", "planes", "degraded",
        "escalations", "event", "error", "enqueued_at", "finished_at",
        "trace_id", "parent_hex", "cost", "queued_since",
    )

    def __init__(
        self,
        x: np.ndarray,
        planes: int,
        trace: Optional[tuple[str, str]] = None,
    ) -> None:
        n = len(x)
        self.x = x
        self.predictions = np.full(n, -1, dtype=np.int64)
        self.resolved = np.full(n, -1, dtype=np.int64)
        self.pending = np.arange(n)
        self.planes = planes
        self.degraded = False
        self.escalations = 0
        self.event = threading.Event()
        self.error: Optional[BaseException] = None
        self.enqueued_at = time.monotonic()
        self.finished_at = 0.0
        # Trace identity of the submitting side (the worker thread has no
        # inherited context, so the hop is carried explicitly).
        self.trace_id = trace[0] if trace else ""
        self.parent_hex = trace[1] if trace else None
        self.cost = RequestCost()
        # Reset on every (re-)queue so queue-wait sums across escalations.
        self.queued_since = self.enqueued_at


class PredictTicket:
    """Caller-side handle on a submitted request."""

    def __init__(self, request: _Request) -> None:
        self._request = request

    def done(self) -> bool:
        return self._request.event.is_set()

    def wait(self, timeout: Optional[float] = None) -> PredictOutcome:
        """Block until the request completes; re-raises worker errors.

        Raises:
            TimeoutError: the request did not finish within ``timeout``.
        """
        request = self._request
        if not request.event.wait(timeout):
            raise TimeoutError("predict request timed out in the scheduler")
        if request.error is not None:
            raise request.error
        return PredictOutcome(
            predictions=request.predictions,
            resolved_planes=request.resolved,
            degraded=request.degraded,
            escalations=request.escalations,
            seconds=request.finished_at - request.enqueued_at,
            cost=request.cost.to_dict(),
        )


class ModelRuntime:
    """One served snapshot: built network, reusable evaluator, cache hooks.

    Only the model's single worker thread calls :meth:`bounded` and
    :meth:`exact_many`, so the degraded-plane bookkeeping needs no lock;
    the underlying evaluator and plane cache are thread-safe regardless.

    Args:
        name: Serving name (what ``/v1/predict`` requests address).
        net: Built network matching the snapshot's architecture.
        archive: The PAS layout holding the snapshot (opened with
            ``degraded=True`` when lossy recovery should be permitted).
        snapshot_id: Snapshot key inside the archive.
        plane_cache: Shared :class:`~repro.serve.PlaneCache`; bounds and
            weights land there so concurrent models/requests share one
            retrieval.
        meta: Free-form description reported by ``/v1/models``.
    """

    def __init__(
        self,
        name: str,
        net: Network,
        archive: PlanArchive,
        snapshot_id: str,
        plane_cache=None,
        meta: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.net = net
        self.archive = archive
        self.snapshot_id = snapshot_id
        self.meta = dict(meta or {})
        self.evaluator = ProgressiveEvaluator(
            net, archive, snapshot_id, plane_cache=plane_cache
        )
        self._degraded_planes: set[int] = set()
        self._chain_ids = self._payload_chain(archive, snapshot_id)

    @staticmethod
    def _payload_chain(archive: PlanArchive, snapshot_id: str) -> set[str]:
        """Every payload id a retrieval of this snapshot may touch."""
        ids: set[str] = set()
        manifest = archive.manifest
        for matrix_id in archive._snapshots[snapshot_id]:
            current = matrix_id
            while current != ROOT and current not in ids:
                ids.add(current)
                current = manifest[current].parent
        return ids

    def _note_recovery(self, planes: int, events_before: int) -> None:
        """Record lossy recoveries that touched this snapshot's chains."""
        for event in self.archive.recovery.events[events_before:]:
            if not event.exact and event.matrix_id in self._chain_ids:
                self._degraded_planes.add(planes)

    def degraded_at(self, planes: int) -> bool:
        return planes in self._degraded_planes

    def bounded(
        self, x: np.ndarray, planes: int
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Interval pass at one budget: ``(determined, labels, degraded)``."""
        before = len(self.archive.recovery.events)
        determined, labels = self.evaluator.evaluate_bounded(x, planes)
        self._note_recovery(planes, before)
        return determined, labels, self.degraded_at(planes)

    def exact_many(
        self, batches: list[np.ndarray]
    ) -> tuple[list[np.ndarray], bool]:
        """Full-precision labels per batch via one coalesced forward pass."""
        before = len(self.archive.recovery.events)
        outputs = self.evaluator.forward_exact_many(batches)
        self._note_recovery(NUM_PLANES, before)
        labels = [np.argmax(out, axis=1) for out in outputs]
        return labels, self.degraded_at(NUM_PLANES)

    def info(self) -> dict:
        """``/v1/models`` row."""
        return {
            "name": self.name,
            "snapshot": self.snapshot_id,
            "input_shape": list(self.net.input_shape),
            "param_count": self.net.param_count(),
            **self.meta,
        }


class _ModelWorker(threading.Thread):
    """Single consumer of one model's request queue."""

    def __init__(
        self,
        runtime: ModelRuntime,
        config,
        registry: MetricsRegistry,
    ) -> None:
        super().__init__(name=f"serve-{runtime.name}", daemon=True)
        self.runtime = runtime
        self.config = config
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._halt = False
        self._outstanding = 0
        self._shed = registry.counter("serve.shed")
        self._completed = registry.counter("serve.completed")
        self._errors = registry.counter("serve.errors")
        self._escalations = registry.counter("serve.escalations")
        self._predictions = registry.counter("serve.predictions")
        self._degraded = registry.counter("serve.degraded_responses")
        self._depth = registry.gauge(f"serve.queue_depth.{runtime.name}")
        self._batch_rows = registry.histogram(
            "serve.batch_rows", BATCH_BUCKETS
        )
        self._batch_requests = registry.histogram(
            "serve.batch_requests", BATCH_BUCKETS
        )
        self._batch_seconds = registry.histogram("serve.batch_seconds")
        self._request_seconds = registry.histogram("serve.request_seconds")

    # -- producer side -------------------------------------------------------

    def submit(self, request: _Request) -> None:
        with self._cond:
            if self._halt:
                raise RuntimeError(
                    f"model {self.runtime.name!r} worker is stopped"
                )
            if len(self._queue) >= self.config.queue_limit:
                self._shed.inc()
                raise AdmissionError(
                    self.runtime.name, len(self._queue),
                    self.config.queue_limit,
                )
            self._queue.append(request)
            self._outstanding += 1
            self._depth.set(len(self._queue))
            self._cond.notify()

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def outstanding(self) -> int:
        with self._cond:
            return self._outstanding

    def stop(self) -> None:
        """Stop consuming; fail whatever is still queued."""
        with self._cond:
            self._halt = True
            dropped = list(self._queue)
            self._queue.clear()
            self._outstanding -= len(dropped)
            self._depth.set(0)
            self._cond.notify_all()
        for request in dropped:
            request.error = RuntimeError("server stopped before execution")
            request.event.set()
        if dropped:
            self._errors.inc(len(dropped))

    # -- consumer side -------------------------------------------------------

    def run(self) -> None:  # pragma: no cover - exercised via the public API
        while True:
            collected = self._collect()
            if collected is None:
                return
            bucket, planes = collected
            self._process(bucket, planes)

    def _collect(self) -> Optional[tuple[list[_Request], int]]:
        """Wait for work, then gather one (planes-homogeneous) batch.

        The batch window is anchored to the *oldest* request's enqueue
        time, so ``max_wait_ms`` bounds the latency batching may add to
        any request rather than stalling every batch for the full
        window.  Requests that already waited their share — notably
        escalated remainders re-queued at the front — close the window
        immediately.  Returns ``None`` when stopped and idle.
        """
        cfg = self.config
        with self._cond:
            while not self._queue:
                if self._halt:
                    return None
                self._cond.wait()
            target = self._queue[0].planes
            deadline = self._queue[0].enqueued_at + cfg.max_wait_ms / 1000.0
            bucket: list[_Request] = []
            rows = 0
            while True:
                kept: deque[_Request] = deque()
                while self._queue:
                    request = self._queue.popleft()
                    if request.planes == target and rows < cfg.max_batch:
                        bucket.append(request)
                        rows += int(request.pending.size)
                    else:
                        kept.append(request)
                self._queue = kept
                self._depth.set(len(self._queue))
                remaining = deadline - time.monotonic()
                if rows >= cfg.max_batch or remaining <= 0 or self._halt:
                    return bucket, target
                self._cond.wait(timeout=remaining)

    def _process(self, bucket: list[_Request], planes: int) -> None:
        runtime = self.runtime
        batches = [request.x[request.pending] for request in bucket]
        rows = sum(len(batch) for batch in batches)
        self._batch_rows.observe(rows)
        self._batch_requests.observe(len(bucket))
        now = time.monotonic()
        for request in bucket:
            request.cost.add(queue_wait_s=now - request.queued_since)
        # The worker thread inherits no context from the HTTP handlers:
        # adopt the first request's trace identity explicitly so the
        # batch span joins its distributed trace (coalesced requests from
        # other traces are noted as an attribute).
        lead = next((r for r in bucket if r.trace_id), None)
        try:
            with trace_span(
                "serve.batch",
                trace_id=lead.trace_id if lead else None,
                remote_parent=lead.parent_hex if lead else None,
                model=runtime.name,
                planes=planes,
                requests=len(bucket),
                rows=rows,
            ) as span:
                coalesced = {r.trace_id for r in bucket if r.trace_id}
                if len(coalesced) > 1:
                    span.set_attr("coalesced_traces", len(coalesced))
                with cost_context() as batch_cost:
                    if planes >= NUM_PLANES:
                        self._process_exact(bucket, batches, batch_cost)
                    else:
                        self._process_bounded(
                            bucket, batches, planes, batch_cost
                        )
            self._batch_seconds.observe(span.elapsed)
            # Released only now, with the batch span closed and every
            # counter written: a client that has its reply must find the
            # request in the next /metrics or /v1/trace it reads.
            done = [r for r in bucket if r.pending.size == 0]
            for request in done:
                request.event.set()
            with self._cond:
                self._outstanding -= len(done)
        except Exception as exc:  # noqa: BLE001 - fail the bucket, keep serving
            self._errors.inc(len(bucket))
            for request in bucket:
                request.error = exc
                request.event.set()
            with self._cond:
                self._outstanding -= len(bucket)

    def _process_exact(
        self,
        bucket: list[_Request],
        batches: list[np.ndarray],
        batch_cost: RequestCost,
    ) -> None:
        labels, degraded = self.runtime.exact_many(batches)
        for request, request_labels in zip(bucket, labels):
            request.predictions[request.pending] = request_labels
            request.resolved[request.pending] = NUM_PLANES
            request.pending = np.empty(0, dtype=np.int64)
            request.degraded |= degraded
            # Merge BEFORE event.set() (the release in _process): the waiting
            # handler thread must observe a fully-billed cost.
            request.cost.merge(batch_cost, shared=len(bucket))
            self._complete(request)

    def _process_bounded(
        self,
        bucket: list[_Request],
        batches: list[np.ndarray],
        planes: int,
        batch_cost: RequestCost,
    ) -> None:
        determined, labels, degraded = self.runtime.bounded(
            np.concatenate(batches, axis=0), planes
        )
        offsets = np.cumsum([len(batch) for batch in batches])[:-1]
        escalated: list[_Request] = []
        for request, det, lab in zip(
            bucket,
            np.split(determined, offsets),
            np.split(labels, offsets),
        ):
            done = request.pending[det]
            request.predictions[done] = lab[det]
            request.resolved[done] = planes
            request.pending = request.pending[~det]
            request.degraded |= degraded
            # Every participant is billed this batch's work (merge before
            # event.set() so the waiting handler sees a complete cost).
            request.cost.merge(batch_cost, shared=len(bucket))
            if request.pending.size == 0:
                self._complete(request)
            else:
                request.planes = planes + 1
                request.escalations += 1
                self._escalations.inc()
                escalated.append(request)
        if escalated:
            # Front of the queue: escalated remainders are the oldest
            # work, so they pre-empt fresh arrivals.
            with self._cond:
                now = time.monotonic()
                for request in reversed(escalated):
                    request.queued_since = now
                    self._queue.appendleft(request)
                self._depth.set(len(self._queue))
                self._cond.notify()

    def _complete(self, request: _Request) -> None:
        request.finished_at = time.monotonic()
        self._completed.inc()
        self._predictions.inc(len(request.x))
        if request.degraded:
            self._degraded.inc()
        self._request_seconds.observe(
            request.finished_at - request.enqueued_at
        )


class BatchScheduler:
    """Owns one worker + queue per registered model runtime.

    Args:
        config: The :class:`~repro.serve.ServeConfig` batching policy.
        registry: Metrics registry for the ``serve.*`` instruments
            (defaults to the process-global one).
    """

    def __init__(self, config, registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self._workers: dict[str, _ModelWorker] = {}
        self._requests = self.registry.counter("serve.requests")
        self._started = False
        self._draining = False
        # Guards lifecycle writes (_workers/_started/_draining); reads on
        # the hot submit path stay lockless, matching repro.obs's
        # locked-writes/lockless-reads contract.
        self._lock = threading.Lock()

    # -- registration / lifecycle --------------------------------------------

    def register(self, runtime: ModelRuntime) -> None:
        worker = _ModelWorker(runtime, self.config, self.registry)
        with self._lock:
            if runtime.name in self._workers:
                raise ValueError(
                    f"model {runtime.name!r} already registered"
                )
            self._workers[runtime.name] = worker
            started = self._started
        if started:
            worker.start()

    def models(self) -> list[str]:
        return sorted(self._workers)

    def runtime(self, model: str) -> ModelRuntime:
        return self._workers[model].runtime

    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            workers = list(self._workers.values())
        for worker in workers:
            worker.start()

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new work and wait for in-flight requests to finish.

        Returns True when every queue emptied within ``timeout``.
        """
        with self._lock:
            self._draining = True
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while self.outstanding() > 0:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return True

    def stop(self) -> None:
        """Stop all workers; queued-but-unstarted requests fail."""
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            worker.stop()
        for worker in workers:
            if worker.is_alive():
                worker.join(timeout=5.0)
        with self._lock:
            self._started = False

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        model: str,
        x: np.ndarray,
        start_planes: Optional[int] = None,
        exact: bool = False,
        trace: Optional[tuple[str, str]] = None,
    ) -> PredictTicket:
        """Queue a predict request; returns a waitable ticket.

        Args:
            trace: Optional ``(trace_id, parent_span_hex)`` pair carrying
                the submitting side's trace identity across the thread
                hop into the worker (the batch span adopts it).

        Raises:
            KeyError: unknown model.
            AdmissionError: queue full (shed) or server draining.
        """
        worker = self._workers[model]
        if self._draining:
            raise AdmissionError(model, worker.queue_depth(),
                                 self.config.queue_limit)
        x = np.asarray(x, dtype=np.float32)
        if exact:
            planes = NUM_PLANES
        else:
            planes = start_planes if start_planes is not None else (
                self.config.start_planes
            )
            planes = max(1, min(int(planes), NUM_PLANES))
        request = _Request(x, planes, trace=trace)
        self._requests.inc()
        if len(x) == 0:
            request.finished_at = request.enqueued_at
            request.event.set()
            return PredictTicket(request)
        worker.submit(request)
        return PredictTicket(request)

    # -- introspection -------------------------------------------------------

    def queue_depths(self) -> dict[str, int]:
        return {
            name: worker.queue_depth()
            for name, worker in self._workers.items()
        }

    def outstanding(self) -> int:
        return sum(w.outstanding() for w in self._workers.values())
