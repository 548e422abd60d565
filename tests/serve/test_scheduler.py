"""BatchScheduler tests: coalescing, shedding, escalation, drain, stop."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis import locksan
from repro.core.segmentation import NUM_PLANES
from repro.dnn.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    AdmissionError,
    BatchScheduler,
    ModelRuntime,
    PlaneCache,
    ServeConfig,
)


@pytest.fixture
def runtime_setup(served_repo, registry):
    """A ModelRuntime over the committed fixture snapshot."""
    repo, net, version = served_repo
    archive = repo.archive_view()
    fresh = Network.from_spec(version.network).build(0)
    runtime = ModelRuntime(
        name="tiny",
        net=fresh,
        archive=archive,
        snapshot_id=version.snapshots[-1].key,
        plane_cache=PlaneCache(64 << 20, registry=registry),
    )
    return runtime, net


def make_scheduler(runtime, registry, **overrides) -> BatchScheduler:
    scheduler = BatchScheduler(ServeConfig(**overrides), registry=registry)
    scheduler.register(runtime)
    return scheduler


def run_queued(scheduler, submissions):
    """Submit every ``(x, kwargs)`` before anyone waits, so the batch
    split is decided by the dispatch rule alone; returns the outcomes."""
    tickets = [scheduler.submit("tiny", x, **kw) for x, kw in submissions]
    try:
        return [ticket.wait(timeout=30.0) for ticket in tickets]
    finally:
        scheduler.stop()


class TestBatching:
    def test_concurrent_requests_coalesce(
        self, runtime_setup, registry, digits
    ):
        runtime, trained = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        x = digits.x_test[:2]
        outcomes = run_queued(scheduler, [(x, {})] * 6)
        # Identical inputs escalate together, so every pass - the first
        # and each re-queued remainder - carries all six requests.
        coalesced = registry.histogram("serve.batch_requests")
        assert coalesced._min == coalesced._max == 6
        assert coalesced.count == 1 + outcomes[0].escalations
        for outcome in outcomes:
            np.testing.assert_array_equal(
                outcome.predictions, trained.predict(x)
            )

    def test_max_batch_splits_windows(self, runtime_setup, registry, digits):
        runtime, trained = runtime_setup
        scheduler = make_scheduler(runtime, registry, max_batch=4)
        x = digits.x_test[:3]  # 3 rows/request, max_batch 4 -> 1/batch
        outcomes = run_queued(scheduler, [(x, {})] * 6)
        rows = registry.histogram("serve.batch_rows")
        assert rows._max <= 4  # max_batch is a hard cap on rows
        for outcome in outcomes:
            np.testing.assert_array_equal(
                outcome.predictions, trained.predict(x)
            )

    def test_oversized_request_runs_alone(
        self, runtime_setup, registry, digits
    ):
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry, max_batch=4)
        run_queued(scheduler, [
            (digits.x_test[:6], {"exact": True}),
            (digits.x_test[:1], {"exact": True}),
        ])
        rows = registry.histogram("serve.batch_rows")
        assert (rows.count, rows._max, rows._min) == (2, 6, 1)

    def test_exact_and_progressive_share_full_budget_step(
        self, runtime_setup, registry, digits
    ):
        runtime, trained = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        x = digits.x_test[:4]
        outcomes = run_queued(scheduler, [
            (x, {"exact": True}),
            (x, {"start_planes": NUM_PLANES}),
        ])
        coalesced = registry.histogram("serve.batch_requests")
        assert (coalesced.count, coalesced._max) == (1, 2)
        for outcome in outcomes:
            assert (outcome.resolved_planes == NUM_PLANES).all()
            assert outcome.escalations == 0
            np.testing.assert_array_equal(
                outcome.predictions, trained.predict(x)
            )

    @pytest.mark.skipif(
        locksan.enabled(),
        reason="the sanitizer's bookkeeping on each lock taken between "
               "submit and the batch (milliseconds in all) is itself "
               "queue wait",
    )
    def test_idle_worker_dispatches_without_waiting(
        self, runtime_setup, registry, digits
    ):
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        try:
            waits = [
                scheduler.submit("tiny", digits.x_test[i:i + 1])
                .wait(timeout=30.0).cost["queue_wait_ms"]
                for i in range(20)
            ]
        finally:
            scheduler.stop()
        assert np.median(waits) < 1.0, waits

    def test_empty_input_completes_immediately(self, runtime_setup, registry):
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        # Nobody leads: an empty request must not need a batch.
        outcome = scheduler.submit(
            "tiny", np.empty((0, *runtime.net.input_shape), dtype=np.float32)
        ).wait(timeout=1.0)
        assert outcome.predictions.size == 0


class TestCorrectness:
    def test_progressive_matches_exact(self, runtime_setup, registry, digits):
        runtime, trained = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        try:
            x = digits.x_test[:24]
            outcome = scheduler.submit("tiny", x, start_planes=1).wait(30.0)
        finally:
            scheduler.stop()
        np.testing.assert_array_equal(outcome.predictions, trained.predict(x))
        assert outcome.resolved_planes.min() >= 1

    def test_escalation_from_lowest_plane(
        self, runtime_setup, registry, digits
    ):
        """Plane 1 alone rarely determines anything: requests escalate."""
        runtime, trained = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        try:
            x = digits.x_test[:24]
            outcome = scheduler.submit("tiny", x, start_planes=1).wait(30.0)
        finally:
            scheduler.stop()
        assert outcome.escalations >= 1
        assert int(outcome.resolved_planes.max()) > 1
        assert registry.counter("serve.escalations").value >= 1
        np.testing.assert_array_equal(outcome.predictions, trained.predict(x))

    def test_exact_bypasses_progressive(self, runtime_setup, registry, digits):
        runtime, trained = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        try:
            x = digits.x_test[:8]
            outcome = scheduler.submit("tiny", x, exact=True).wait(30.0)
        finally:
            scheduler.stop()
        assert (outcome.resolved_planes == NUM_PLANES).all()
        assert outcome.escalations == 0
        np.testing.assert_array_equal(outcome.predictions, trained.predict(x))

    def test_exact_pass_is_billed(self, runtime_setup, registry, digits):
        """The exact forward pass charges compute time like the interval
        pass does (it used to reply ``compute_ms == 0``)."""
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        [outcome] = run_queued(scheduler, [(digits.x_test[:4], {"exact": True})])
        assert outcome.cost["compute_ms"] > 0

    def test_mixed_plane_budgets_concurrently(
        self, runtime_setup, registry, digits
    ):
        runtime, trained = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        errors = []

        def hit(start_planes, exact):
            try:
                x = digits.x_test[:10]
                outcome = scheduler.submit(
                    "tiny", x, start_planes=start_planes, exact=exact
                ).wait(30.0)
                np.testing.assert_array_equal(
                    outcome.predictions, trained.predict(x)
                )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        try:
            threads = [
                threading.Thread(
                    target=hit, args=(1 + i % 3, i % 4 == 0)
                )
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            scheduler.stop()
        assert not errors, errors


class TestAdmissionControl:
    def test_sheds_when_queue_full(self, runtime_setup, registry, digits):
        runtime, _ = runtime_setup
        # Nobody waits: submissions stay queued, making the limit exact.
        scheduler = make_scheduler(runtime, registry, queue_limit=2)
        x = digits.x_test[:1]
        scheduler.submit("tiny", x)
        scheduler.submit("tiny", x)
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit("tiny", x)
        assert excinfo.value.limit == 2
        assert registry.counter("serve.shed").value == 1
        assert scheduler.queue_depths() == {"tiny": 2}
        scheduler.stop()

    def test_draining_rejects_submissions(
        self, runtime_setup, registry, digits
    ):
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        try:
            assert scheduler.drain(timeout=5.0)
            with pytest.raises(AdmissionError):
                scheduler.submit("tiny", digits.x_test[:1])
        finally:
            scheduler.stop()

    def test_unknown_model(self, runtime_setup, registry, digits):
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        with pytest.raises(KeyError):
            scheduler.submit("ghost", digits.x_test[:1])
        scheduler.stop()


class TestLifecycle:
    def test_drain_waits_for_outstanding(
        self, runtime_setup, registry, digits
    ):
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        tickets = [
            scheduler.submit("tiny", digits.x_test[:4], start_planes=1)
            for _ in range(4)
        ]
        assert scheduler.drain(timeout=30.0)
        assert scheduler.outstanding() == 0
        for ticket in tickets:
            ticket.wait(timeout=1.0)  # already done: must not block
        scheduler.stop()

    def test_stop_fails_queued_requests(self, runtime_setup, registry, digits):
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        # Nobody waits, so submissions are guaranteed still queued.
        tickets = [scheduler.submit("tiny", digits.x_test[:2]) for _ in range(3)]
        scheduler.stop()
        for ticket in tickets:
            with pytest.raises(RuntimeError, match="stopped"):
                ticket.wait(timeout=1.0)
        assert registry.counter("serve.errors").value == 3

    def test_submit_after_stop_raises(self, runtime_setup, registry, digits):
        runtime, _ = runtime_setup
        scheduler = make_scheduler(runtime, registry)
        scheduler.stop()
        with pytest.raises(RuntimeError):
            scheduler.submit("tiny", digits.x_test[:1])

    def test_worker_failure_propagates_to_ticket(
        self, runtime_setup, registry, digits
    ):
        runtime, _ = runtime_setup

        def boom(x, planes):
            raise OSError("archive unreadable")

        runtime.bounded = boom
        scheduler = make_scheduler(runtime, registry)
        try:
            ticket = scheduler.submit("tiny", digits.x_test[:2])
            with pytest.raises(OSError, match="archive unreadable"):
                ticket.wait(timeout=10.0)
            assert registry.counter("serve.errors").value == 1
            # The queue survives the failed bucket and stays
            # live for later (failing) work.
            ticket2 = scheduler.submit("tiny", digits.x_test[:2])
            with pytest.raises(OSError):
                ticket2.wait(timeout=10.0)
        finally:
            scheduler.stop()

    def test_ticket_timeout(self, runtime_setup, registry, digits):
        runtime, _ = runtime_setup

        def slow(x, planes):
            time.sleep(0.5)
            raise AssertionError("should have timed out first")

        runtime.bounded = slow
        scheduler = make_scheduler(runtime, registry)
        try:
            ticket = scheduler.submit("tiny", digits.x_test[:1])
            with pytest.raises(TimeoutError):
                ticket.wait(timeout=0.05)
        finally:
            scheduler.stop()


class TestLeaderFollower:
    """No scheduler thread: the threads that wait on tickets run the
    batches, one leader per model at a time."""

    def test_waiting_threads_coalesce(self, runtime_setup, registry, digits):
        """16 threads x 25 single-row requests, each submitting and
        waiting on its own thread: the requests that queue while one
        leader computes form the next leader's batch."""
        runtime, trained = runtime_setup
        scheduler = make_scheduler(runtime, registry, queue_limit=1024)
        expected = trained.predict(digits.x_test)
        errors = []

        def client(first):
            try:
                for i in range(first, first + 25):
                    row = i % len(digits.x_test)
                    outcome = scheduler.submit(
                        "tiny", digits.x_test[row:row + 1]
                    ).wait(30.0)
                    assert outcome.predictions.tolist() == [expected[row]]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(25 * n,))
            for n in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        scheduler.stop()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert registry.counter("serve.completed").value == 16 * 25
        assert registry.histogram("serve.batch_requests").mean >= 2

    def test_one_leader_per_model(self, served_repo, registry, digits):
        repo, trained, version = served_repo
        archive = repo.archive_view()
        scheduler = BatchScheduler(ServeConfig(), registry=registry)
        peaks = {}
        for name in ("a", "b"):
            runtime = ModelRuntime(
                name, Network.from_spec(version.network).build(0), archive,
                version.snapshots[-1].key,
            )
            scheduler.register(runtime)
            peaks[name] = self._count_entries(runtime)
        expected = trained.predict(digits.x_test[:4])
        errors = []

        def client(model):
            try:
                for _ in range(10):
                    outcome = scheduler.submit(
                        model, digits.x_test[:4]
                    ).wait(30.0)
                    np.testing.assert_array_equal(
                        outcome.predictions, expected
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=("ab"[i % 2],))
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter over often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        scheduler.stop()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert scheduler.outstanding() == 0
        assert registry.counter("serve.completed").value == 80
        assert {name: peak[1] for name, peak in peaks.items()} == {
            "a": 1, "b": 1
        }

    @staticmethod
    def _count_entries(runtime) -> list:
        """Wrap ``runtime.bounded``; returns ``[inside, most at once]``."""
        real = runtime.bounded
        counts = [0, 0]
        lock = threading.Lock()

        def bounded(x, planes):
            with lock:
                counts[0] += 1
                counts[1] = max(counts)
            try:
                time.sleep(0.002)  # widen the window a second leader needs
                return real(x, planes)
            finally:
                with lock:
                    counts[0] -= 1

        runtime.bounded = bounded
        return counts

    @pytest.mark.parametrize("answered_by", ["next-leader", "drain"])
    def test_abandoned_request_is_answered(
        self, runtime_setup, registry, digits, answered_by
    ):
        """A waiter times out while another thread leads; its request
        stays queued and the next leader, or drain, answers it."""
        runtime, trained = runtime_setup
        real = runtime.bounded
        entered, release = threading.Event(), threading.Event()

        def held(x, planes):
            entered.set()
            assert release.wait(10.0)
            return real(x, planes)

        runtime.bounded = held
        scheduler = make_scheduler(runtime, registry)
        x = digits.x_test[:3]
        leader = threading.Thread(
            target=scheduler.submit("tiny", x, exact=True).wait, args=(30.0,)
        )
        leader.start()
        assert entered.wait(10.0)
        abandoned = scheduler.submit("tiny", x, exact=True)
        with pytest.raises(TimeoutError):
            abandoned.wait(timeout=0.05)
        release.set()
        leader.join(timeout=30.0)
        assert not leader.is_alive()
        assert not abandoned.done()
        assert scheduler.outstanding() == 1
        if answered_by == "drain":
            assert scheduler.drain(timeout=30.0)
        else:
            scheduler.submit("tiny", x, exact=True).wait(30.0)
        assert abandoned.done()
        assert scheduler.outstanding() == 0
        np.testing.assert_array_equal(
            abandoned.wait(timeout=1.0).predictions, trained.predict(x)
        )
        scheduler.stop()
