"""The runtime lock sanitizer: deadlock detection without hanging,
Condition compatibility, metrics, and enable/disable hygiene."""

import sys
import threading
import time
import traceback

import pytest

from repro.analysis import locksan
from repro.obs.metrics import get_registry

with open(__file__) as _file:
    _SOURCE = _file.read().splitlines()


@pytest.fixture
def sanitized():
    locksan.enable()
    try:
        yield
    finally:
        locksan.disable()


class TestFactories:
    def test_enable_patches_and_disable_restores(self):
        raw = threading.Lock
        locksan.enable()
        try:
            assert locksan.enabled()
            assert threading.Lock is locksan.Lock
            assert threading.RLock is locksan.RLock
            assert threading.Condition is locksan.Condition
        finally:
            locksan.disable()
        assert not locksan.enabled()
        assert threading.Lock is raw

    def test_basic_lock_protocol(self, sanitized):
        lock = threading.Lock()
        assert lock.acquire()
        assert lock.locked()
        assert not lock.acquire(blocking=False)
        lock.release()
        assert not lock.locked()
        with lock:
            assert lock.locked()

    def test_rlock_reentry(self, sanitized):
        lock = threading.RLock()
        with lock:
            with lock:
                assert locksan.held_by_current_thread()
        assert locksan.held_by_current_thread() == []

    def test_condition_wait_notify_roundtrip(self, sanitized):
        cond = threading.Condition()
        ready = []

        def consumer():
            with cond:
                while not ready:
                    cond.wait(timeout=5)

        worker = threading.Thread(target=consumer)
        worker.start()
        time.sleep(0.05)
        with cond:
            ready.append(1)
            cond.notify_all()
        worker.join(timeout=5)
        assert not worker.is_alive()

    def test_condition_over_plain_lock(self, sanitized):
        cond = threading.Condition(threading.Lock())
        with cond:
            cond.notify_all()
        assert locksan.held_by_current_thread() == []


def _abba():
    """A true ABBA inversion: without the sanitizer both threads park
    forever.  Returns the DeadlockErrors raised and who finished."""
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    t1_has_a = threading.Event()
    t2_has_b = threading.Event()
    errors = []
    finished = []

    def thread_one():
        with lock_a:  # site: abba-1 holds A
            t1_has_a.set()
            t2_has_b.wait(5)
            try:
                with lock_b:  # parks: t2 holds B
                    pass
            except locksan.DeadlockError as exc:
                errors.append(exc)
        finished.append("t1")

    def thread_two():
        with lock_b:  # site: abba-2 holds B
            t2_has_b.set()
            t1_has_a.wait(5)
            time.sleep(0.2)  # let t1 park on B first
            try:
                with lock_a:  # completes the cycle -> must raise
                    pass
            except locksan.DeadlockError as exc:
                errors.append(exc)
        finished.append("t2")

    one = threading.Thread(target=thread_one, name="abba-1")
    two = threading.Thread(target=thread_two, name="abba-2")
    one.start()
    two.start()
    one.join(timeout=10)
    two.join(timeout=10)
    assert not one.is_alive() and not two.is_alive(), "deadlock hung"
    return errors, finished


def _formatted_at_acquire() -> str:
    """The acquisition stack as the sanitizer once captured it: a full
    ``traceback.extract_stack`` on every acquire, formatted at once —
    the oracle for the report's ``stacks`` text."""
    frames = [
        frame for frame in traceback.extract_stack(sys._getframe(1))
        if frame.filename != locksan._THIS_FILE
    ]
    return "".join(traceback.format_list(frames[-8:]))


class TestDeadlockDetection:
    def test_seeded_abba_deadlock_is_detected_not_hung(self, sanitized):
        """The satellite fixture: a true ABBA inversion.  Without the
        sanitizer both threads park forever; with it exactly one raises
        DeadlockError carrying both acquisition stacks, the other
        proceeds, and the test finishes."""
        errors, finished = _abba()
        assert sorted(finished) == ["t1", "t2"]
        assert len(errors) == 1
        error = errors[0]
        assert error.diagnostic.code == "CONC407"
        assert error.diagnostic.source == "locksan"
        # Both sides of the inversion appear, each with its stack.
        assert len(error.stacks) == 2
        holders = "\n".join(error.stacks)
        assert "abba-1" in holders and "abba-2" in holders
        message = str(error)
        assert "wait-for cycle" in message
        assert message.count("acquisition stack") == 2
        assert "thread_one" in message and "thread_two" in message

    def test_report_stacks_are_the_full_capture_formatted(
        self, sanitized, monkeypatch
    ):
        """Frames are kept unformatted until a report needs them; the
        report's text is what formatting at every acquire gave: both
        acquisition sites, by file, line, function and source line."""
        errors, _ = _abba()
        with monkeypatch.context() as patch:
            patch.setattr(locksan, "_acquire_stack", _formatted_at_acquire)
            patch.setattr(locksan, "_format_stack", lambda stack: stack)
            oracle, _ = _abba()
        assert len(errors) == len(oracle) == 1
        stacks = errors[0].stacks
        assert stacks == oracle[0].stacks
        sites = "".join(stacks.values())
        for function, site in (
            ("thread_one", "abba-1 holds A"), ("thread_two", "abba-2 holds B")
        ):
            line, source = next(
                (n, text.strip()) for n, text in enumerate(_SOURCE, start=1)
                if text.endswith(f"# site: {site}")
            )
            assert (
                f'  File "{__file__}", line {line}, in {function}\n'
                f"    {source}\n"
            ) in sites

    def test_self_deadlock_on_plain_lock(self, sanitized):
        lock = threading.Lock()
        lock.acquire()
        try:
            with pytest.raises(locksan.DeadlockError) as excinfo:
                lock.acquire(timeout=2)
            assert "non-reentrant re-acquire" in str(excinfo.value)
        finally:
            lock.release()

    def test_cycle_formed_after_parking_is_still_caught(self, sanitized):
        # t1 parks on B *before* t2 even tries A: only the poll-loop
        # re-check can see this cycle.
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        t1_parked = threading.Event()
        outcomes = []

        def thread_one():
            with lock_a:
                t1_parked.set()
                try:
                    with lock_b:
                        outcomes.append("t1-acquired")
                except locksan.DeadlockError:
                    outcomes.append("t1-deadlock")

        lock_b.acquire()  # main thread plays the part of t2
        one = threading.Thread(target=thread_one)
        one.start()
        t1_parked.wait(5)
        time.sleep(0.1)
        try:
            with pytest.raises(locksan.DeadlockError):
                lock_a.acquire(timeout=5)
        finally:
            lock_b.release()
        one.join(timeout=5)
        assert not one.is_alive()
        assert outcomes == ["t1-acquired"]

    def test_plain_contention_is_not_a_deadlock(self, sanitized):
        lock = threading.Lock()
        results = []

        def worker():
            with lock:
                results.append(threading.get_ident())

        with lock:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.2)  # all four park; no cycle exists
        for thread in threads:
            thread.join(timeout=5)
        assert len(results) == 4

    def test_timeout_returns_false_instead_of_raising(self, sanitized):
        lock = threading.Lock()
        lock.acquire()

        def try_it(out):
            out.append(lock.acquire(timeout=0.2))

        out = []
        worker = threading.Thread(target=try_it, args=(out,))
        worker.start()
        worker.join(timeout=5)
        lock.release()
        assert out == [False]


class TestObservability:
    def test_hold_and_wait_metrics_flow_into_obs(self, sanitized):
        registry = get_registry()
        acquires = registry.counter("locksan.acquires").value
        lock = threading.Lock()

        def worker():
            with lock:
                time.sleep(0.05)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert registry.counter("locksan.acquires").value > acquires
        assert registry.histogram("locksan.hold_seconds").count >= 3
        assert registry.histogram("locksan.wait_seconds").count >= 3
        assert registry.counter("locksan.contended").value >= 1

    def test_deadlocks_detected_counter(self, sanitized):
        registry = get_registry()
        before = registry.counter("locksan.deadlocks_detected").value
        lock = threading.Lock()
        lock.acquire()
        try:
            with pytest.raises(locksan.DeadlockError):
                lock.acquire(timeout=1)
        finally:
            lock.release()
        assert registry.counter("locksan.deadlocks_detected").value == (
            before + 1
        )

    def test_repr_names_creation_site(self, sanitized):
        lock = threading.Lock()
        assert "test_locksan.py" in repr(lock)
