"""Request batching, admission control, and progressive escalation.

The serving data path.  Each served snapshot gets one bounded queue;
HTTP handler threads submit :class:`PredictTicket`\\ s and wait.  The
first waiter to find nobody leading the model leads it on its own
thread, taking every request queued at the head request's plane budget,
in queue order, up to ``max_batch`` rows, as one batched pass, until its
own request is answered.  No timer holds a batch open: a lone request on
an idle model runs at once, and the requests that arrive while one batch
computes form the next, so a burst is amortized into one DAG traversal.

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
        "escalations", "done", "error", "enqueued_at", "finished_at",
        "cost", "queued_since",
    )

    def __init__(self, x: np.ndarray, planes: int) -> None:
        n = len(x)
        self.x = x
        self.predictions = np.full(n, -1, dtype=np.int64)
        self.resolved = np.full(n, -1, dtype=np.int64)
        self.pending = np.arange(n)
        self.planes = planes
        self.degraded = False
        self.escalations = 0
        self.done = n == 0  # answered or failed; set under the condition
        self.error: Optional[BaseException] = None
        self.enqueued_at = time.monotonic()
        self.finished_at = self.enqueued_at
        self.cost = RequestCost()
        # Reset on every (re-)queue so queue-wait sums across escalations.
        self.queued_since = self.enqueued_at


class PredictTicket:
    """Caller-side handle on a submitted request."""

    def __init__(
        self, request: _Request, queue: Optional["_ModelWorker"]
    ) -> None:
        self._request = request
        self._queue = queue

    def done(self) -> bool:
        return self._request.done

    def wait(self, timeout: Optional[float] = None) -> PredictOutcome:
        """Block until the request completes, leading its model's batches
        while no other waiter does; re-raises batch errors.

        Raises:
            TimeoutError: the request was not answered within ``timeout``
                (a leader raises it once the batch it runs has ended).
        """
        request = self._request
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._queue is not None:
            self._queue.serve(request, deadline)
        if not request.done or (
            deadline is not None and request.finished_at > deadline
        ):
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

    Only the thread leading the model's queue calls :meth:`bounded`, one
    at a time; the evaluator and plane cache are thread-safe regardless.

    Args:
        name: Serving name (what ``/v1/predict`` requests address).
        net: Built network matching the snapshot's architecture.
        archive: The PAS layout holding the snapshot (opened with
            ``degraded=True`` when lossy recovery should be permitted).
        snapshot_id: Snapshot key inside the archive.
        plane_cache: The shared :class:`~repro.serve.PlaneCache` — the
            archive's own (see
            :class:`~repro.core.progressive.ProgressiveEvaluator`):
            planes and derived bounds land there so concurrent
            models/requests share one retrieval.
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
        self._chain_ids = self._payload_chain(archive, snapshot_id)

    @staticmethod
    def _payload_chain(archive: PlanArchive, snapshot_id: str) -> set[str]:
        """Every payload id a retrieval of this snapshot may touch."""
        ids: set[str] = set()
        for matrix_id in archive._snapshots[snapshot_id]:
            ids.update(e.matrix_id for e in archive.chain(matrix_id, stop=ids))
        return ids

    def bounded(
        self, x: np.ndarray, planes: int
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """One pass at one budget: ``(determined, labels, degraded)`` —
        :meth:`~repro.core.progressive.ProgressiveEvaluator.step`, plus
        whether this pass read a plane of this snapshot's chains through
        lossy recovery.  Recovered planes are never cached, so a pass
        after the plane is restored reads it exactly again."""
        planes = min(planes, NUM_PLANES)
        recovery = self.archive.recovery
        before = recovery.seq
        determined, labels = self.evaluator.step(x, planes)
        degraded = any(
            not event.exact and event.matrix_id in self._chain_ids
            for event in recovery.since(before)
        )
        return determined, labels, degraded

    def info(self) -> dict:
        """``/v1/models`` row."""
        return {
            "name": self.name,
            "snapshot": self.snapshot_id,
            "input_shape": list(self.net.input_shape),
            "param_count": self.net.param_count(),
            **self.meta,
        }


class _ModelWorker:
    """One model's request queue, led by at most one waiting thread at a
    time (``_leading``); the others wait on ``_cond``."""

    def __init__(
        self,
        runtime: ModelRuntime,
        config,
        registry: MetricsRegistry,
    ) -> None:
        self.runtime = runtime
        self.config = config
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._halt = False
        self._leading = False
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
                raise RuntimeError(f"model {self.runtime.name!r} is stopped")
            if len(self._queue) >= self.config.queue_limit:
                self._shed.inc()
                raise AdmissionError(
                    self.runtime.name, len(self._queue),
                    self.config.queue_limit,
                )
            self._queue.append(request)
            self._outstanding += 1
            self._depth.set(len(self._queue))

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def outstanding(self) -> int:
        with self._cond:
            return self._outstanding

    def stop(self) -> None:
        """Refuse new work; fail whatever is still queued."""
        with self._cond:
            self._halt = True
            dropped = list(self._queue)
            self._queue.clear()
            self._depth.set(0)
        if dropped:
            self._settle(dropped, RuntimeError("server stopped before execution"))

    # -- leader side ---------------------------------------------------------

    def serve(
        self, request: Optional[_Request], deadline: Optional[float]
    ) -> None:
        """Return once ``request`` is answered (with ``None``: once
        nothing is outstanding) or ``deadline`` has passed.

        While another thread leads, wait for it to answer or give up the
        lead.  Otherwise lead: run one batch after another on this
        thread, checking the deadline between batches, then give up the
        lead so that a waiter whose request is still queued takes it.
        """

        def settled() -> bool:
            return self._outstanding == 0 if request is None else request.done

        with self._cond:
            timeout = None if deadline is None else deadline - time.monotonic()
            if not self._cond.wait_for(
                lambda: settled() or not self._leading, timeout
            ) or settled():
                return
            self._leading = True
        try:
            while not settled() and (
                deadline is None or time.monotonic() < deadline
            ):
                collected = self._collect()
                if collected is None:
                    break
                self._process(*collected)
        finally:
            with self._cond:
                self._leading = False
                self._cond.notify_all()

    def _collect(self) -> Optional[tuple[list[_Request], int]]:
        """Take one batch from what is queued now.

        The batch is every queued request at the head request's plane
        budget, in queue order, admitted while its rows still fit in
        ``max_batch``.  The head is always admitted, so an oversized
        request runs alone; a request that does not fit keeps its queue
        position for the next batch.  Returns ``None`` when the queue is
        empty.
        """
        with self._cond:
            if not self._queue:
                return None
            target = self._queue[0].planes
            bucket: list[_Request] = []
            kept: deque[_Request] = deque()
            rows = 0
            for request in self._queue:
                size = int(request.pending.size)
                if request.planes == target and (
                    not bucket or rows + size <= self.config.max_batch
                ):
                    bucket.append(request)
                    rows += size
                else:
                    kept.append(request)
            self._queue = kept
            self._depth.set(len(self._queue))
            return bucket, target

    def _process(self, bucket: list[_Request], planes: int) -> None:
        runtime = self.runtime
        batches = [request.x[request.pending] for request in bucket]
        sizes = [len(batch) for batch in batches]
        rows = sum(sizes)
        self._batch_rows.observe(rows)
        self._batch_requests.observe(len(bucket))
        now = time.monotonic()
        for request in bucket:
            request.cost.add(queue_wait_s=now - request.queued_since)
        try:
            # On the leader's thread: the span nests under whatever span
            # that thread has open (its own serve.predict).
            with trace_span(
                "serve.batch",
                model=runtime.name,
                planes=planes,
                requests=len(bucket),
                rows=rows,
            ) as span:
                with cost_context() as batch_cost:
                    determined, labels, degraded = runtime.bounded(
                        np.concatenate(batches, axis=0), planes
                    )
                offsets = np.cumsum(sizes)[:-1]
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
                    # Every participant is billed this batch's work (merge
                    # before the release below, so the waiting handler
                    # sees a complete cost).
                    request.cost.merge(batch_cost, shared=len(bucket))
                    if request.pending.size == 0:
                        self._complete(request)
                    else:
                        request.planes = planes + 1
                        request.escalations += 1
                        self._escalations.inc()
                        escalated.append(request)
                if escalated:
                    # Front of the queue: escalated remainders are the
                    # oldest work, so they pre-empt fresh arrivals.
                    with self._cond:
                        now = time.monotonic()
                        for request in reversed(escalated):
                            request.queued_since = now
                            self._queue.appendleft(request)
                        self._depth.set(len(self._queue))
            self._batch_seconds.observe(span.elapsed)
            # Released only now, with the batch span closed and every
            # counter written: a client that has its reply must find the
            # request in the next /metrics or /v1/trace it reads.
            self._settle([r for r in bucket if r.pending.size == 0])
        except Exception as exc:  # noqa: BLE001 - fail the bucket, keep serving
            self._settle(bucket, exc)

    def _complete(self, request: _Request) -> None:
        request.finished_at = time.monotonic()
        self._completed.inc()
        self._predictions.inc(len(request.x))
        if request.degraded:
            self._degraded.inc()
        self._request_seconds.observe(
            request.finished_at - request.enqueued_at
        )

    def _settle(
        self, requests: list[_Request], error: Optional[Exception] = None
    ) -> None:
        """Mark ``requests`` answered (or failed with ``error``) and wake
        the threads waiting."""
        if error is not None:
            self._errors.inc(len(requests))
        now = time.monotonic()
        with self._cond:
            for request in requests:
                if error is not None:
                    request.error, request.finished_at = error, now
                request.done = True
            self._outstanding -= len(requests)
            self._cond.notify_all()


class BatchScheduler:
    """Owns one request queue per registered model runtime; the threads
    that wait on their tickets run the batches.

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
        self._draining = False
        # Guards lifecycle writes (_workers/_draining); reads on the hot
        # submit path stay lockless, matching repro.obs's
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

    def models(self) -> list[str]:
        return sorted(self._workers)

    def runtime(self, model: str) -> ModelRuntime:
        return self._workers[model].runtime

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new work and answer what is in flight, leading from
        this thread the queued requests nobody waits on.

        Returns True when nothing was outstanding within ``timeout``.
        """
        with self._lock:
            self._draining = True
            workers = list(self._workers.values())
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # A submit that passed the draining check before it was set
            # may land behind this pass; the next pass answers it.
            for worker in workers:
                worker.serve(None, deadline)
            if self.outstanding() == 0:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False

    def stop(self) -> None:
        """Refuse new work; queued requests fail."""
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            worker.stop()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        model: str,
        x: np.ndarray,
        start_planes: Optional[int] = None,
        exact: bool = False,
    ) -> PredictTicket:
        """Queue a predict request; returns a waitable ticket.

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
        request = _Request(x, planes)
        self._requests.inc()
        if request.done:  # no rows: nothing to batch
            return PredictTicket(request, None)
        worker.submit(request)
        return PredictTicket(request, worker)

    # -- introspection -------------------------------------------------------

    def queue_depths(self) -> dict[str, int]:
        return {
            name: worker.queue_depth()
            for name, worker in self._workers.items()
        }

    def outstanding(self) -> int:
        return sum(w.outstanding() for w in self._workers.values())
