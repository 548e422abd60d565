"""Runtime lock sanitizer: instrumented ``threading`` primitives.

The static pass (:mod:`repro.analysis.conc`) proves what it can from
the AST; this module covers the rest at runtime.  When enabled it
replaces ``threading.Lock`` / ``threading.RLock`` /
``threading.Condition`` with instrumented wrappers that

* record, per thread, the stack of every lock currently held and where
  it was acquired;
* detect wait-for cycles *at acquire time* — a thread about to block on
  a lock whose owner chain leads back to itself raises
  :class:`DeadlockError` (code ``CONC407``, with both acquisition
  stacks) instead of hanging the process;
* feed hold-time / wait-time histograms and contention counters into
  ``repro.obs`` (``locksan.hold_seconds``, ``locksan.wait_seconds``,
  ``locksan.acquires``, ``locksan.contended``,
  ``locksan.deadlocks_detected``).

Enable with ``REPRO_LOCKSAN=1`` in the environment (picked up at
``import repro`` time — CI runs the serve/obs suites this way) or
programmatically::

    from repro.analysis import locksan
    locksan.enable()       # instruments locks created from now on
    ...
    locksan.disable()      # restores the real factories

Only locks created *while enabled* are instrumented; module-level
singletons created at import time stay raw, which also keeps the
sanitizer's own bookkeeping re-entrancy-safe.  Cycle detection uses a
bounded poll (50 ms slices) so a cycle formed *after* a thread parked
is still caught on the next slice.  ``Condition`` wait/notify is fully
supported: the sanitizer delegates ``_release_save`` /
``_acquire_restore`` / ``_is_owned`` so bookkeeping follows the lock
through ``wait()``.
"""

from __future__ import annotations

import linecache
import sys
import threading
import time
import traceback
from typing import Optional

__all__ = [
    "Condition",
    "DeadlockError",
    "Lock",
    "RLock",
    "disable",
    "enable",
    "enabled",
    "held_by_current_thread",
]

# Real factories, captured before anything can patch them.
_real_lock = threading.Lock
_real_rlock = threading.RLock
_real_condition = threading.Condition

#: Poll slice for blocking acquires: an undetected cycle parks a thread
#: for at most this long before the next wait-for-graph check.
_POLL_S = 0.05

# -- sanitizer state (always guarded by the raw _state_mu) ----------------

_state_mu = _real_lock()
_owners: dict[int, dict[int, int]] = {}  # lock id -> thread id -> depth
_held: dict[int, list["_Hold"]] = {}     # thread id -> holds, acquire order
_waiting: dict[int, "_SanLock"] = {}     # thread id -> lock being awaited
_thread_names: dict[int, str] = {}
_enabled = False

# Re-entrancy guard: metric observation can itself touch (instrumented)
# registry locks; bookkeeping must not recurse into itself.
_reentry = threading.local()


class _Hold:
    __slots__ = ("lock", "stack", "since")

    def __init__(self, lock: "_SanLock", stack: list, since: float) -> None:
        self.lock = lock
        self.stack = stack
        self.since = since


class DeadlockError(RuntimeError):
    """A blocking acquire would complete a wait-for cycle.

    Attributes:
        cycle: The threads/locks on the cycle, in wait-for order, as
            ``(thread_name, lock_repr)`` pairs ending at the raiser.
        stacks: ``{description: formatted acquisition stack}`` for every
            lock on the cycle — both sides of an ABBA inversion appear.
        diagnostic: The finding as a shared
            :class:`~repro.analysis.diagnostics.Diagnostic` (``CONC407``,
            source ``locksan``).
    """

    def __init__(
        self, message: str, cycle: list, stacks: dict[str, str]
    ) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.stacks = stacks
        from repro.analysis.diagnostics import Diagnostic

        self.diagnostic = Diagnostic(
            "CONC407", "error", message.splitlines()[0], span=None,
            hint="acquire these locks in one global order everywhere",
            source="locksan",
        )


_THIS_FILE = __file__


def _outer_frames(limit: int):
    """The innermost ``limit`` frames outside this module, innermost
    first, as ``(filename, lineno, name)``: no source line is read."""
    frames = []
    frame = sys._getframe(1)
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        if code.co_filename != _THIS_FILE:
            frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return frames


def _caller_site() -> str:
    """``file:line`` of the first frame outside this module."""
    for filename, lineno, _name in _outer_frames(1):
        return f"{filename}:{lineno}"
    return "<unknown>"


def _acquire_stack() -> list:
    """Where a lock is being acquired: the innermost 8 frames outside
    this module, formatted only if a report needs them
    (:func:`_format_stack`)."""
    return _outer_frames(8)


def _format_stack(frames: list) -> str:
    """``traceback.format_list`` of captured frames, outermost first,
    with their source lines."""
    for filename in {filename for filename, _, _ in frames}:
        linecache.checkcache(filename)
    return "".join(traceback.format_list([
        traceback.FrameSummary(filename, lineno, name)
        for filename, lineno, name in reversed(frames)
    ]))


def _thread_name(ident: int) -> str:
    """Best-effort thread name, with NO side effects.

    ``threading.current_thread()`` is off-limits here: called from a
    thread not yet in ``threading._active`` (e.g. ``_bootstrap_inner``
    sets the started Event *before* registering) it constructs a
    ``_DummyThread``, which sets another Event, which re-enters the
    sanitizer.
    """
    thread = getattr(threading, "_active", {}).get(ident)
    return thread.name if thread is not None else f"thread-{ident}"


def _observe(kind: str, value: Optional[float] = None) -> None:
    """Record one sanitizer metric, guarding against recursion."""
    if getattr(_reentry, "active", False):
        return
    _reentry.active = True
    try:
        from repro.obs.metrics import counter, histogram

        if value is None:
            counter(f"locksan.{kind}").inc()
        else:
            histogram(f"locksan.{kind}").observe(value)
    except Exception:
        pass  # metrics must never break the locks themselves
    finally:
        _reentry.active = False


def _find_cycle(me: int, lock: "_SanLock") -> Optional[list]:
    """Wait-for path from ``lock`` back to ``me``; call with _state_mu held.

    Follows owner -> awaited-lock edges.  Returns the path as
    ``[(thread_id, lock), ...]`` (empty list = self-deadlock on a
    non-reentrant lock) or None when no cycle exists.
    """
    path: list = []
    current = lock
    seen = {id(lock)}
    while True:
        owners = _owners.get(id(current))
        if not owners:
            return None
        if me in owners:
            return path
        advanced = False
        for owner in owners:
            awaited = _waiting.get(owner)
            if awaited is not None and id(awaited) not in seen:
                seen.add(id(awaited))
                path.append((owner, awaited))
                current = awaited
                advanced = True
                break
        if not advanced:
            return None


def _cycle_error(me: int, lock: "_SanLock", path: list) -> DeadlockError:
    """Build the would-deadlock report; call with _state_mu held."""
    my_name = _thread_names.get(me, f"thread-{me}")
    lines = [
        f"would deadlock: {my_name} blocking on {lock!r} completes a "
        "wait-for cycle"
    ]
    stacks: dict[str, str] = {}

    def describe(thread_id: int) -> None:
        name = _thread_names.get(thread_id, f"thread-{thread_id}")
        for hold in _held.get(thread_id, []):
            key = f"{name} holds {hold.lock!r}"
            lines.append(f"  {key}")
            stacks[key] = _format_stack(hold.stack)

    describe(me)
    lines.append(f"  {my_name} wants {lock!r}")
    for thread_id, awaited in path:
        describe(thread_id)
        name = _thread_names.get(thread_id, f"thread-{thread_id}")
        lines.append(f"  {name} wants {awaited!r}")
    if not path:  # self-deadlock: non-reentrant lock re-acquired
        lines.append(
            f"  {my_name} already owns {lock!r} (non-reentrant re-acquire)"
        )
    for key, stack in stacks.items():
        lines.append(f"acquisition stack — {key}:")
        lines.append(stack.rstrip("\n"))
    return DeadlockError("\n".join(lines), [(me, lock)] + path, stacks)


class _SanLock:
    """Instrumented non-reentrant lock (``threading.Lock`` shape)."""

    _REENTRANT = False

    def __init__(self) -> None:
        self._inner = _real_lock()
        self._site = _caller_site()

    def __repr__(self) -> str:
        kind = "RLock" if self._REENTRANT else "Lock"
        return f"<locksan.{kind} created at {self._site}>"

    # -- bookkeeping ------------------------------------------------------

    def _note_acquired(self, me: int, stack: list) -> None:
        name = _thread_name(me)
        with _state_mu:
            _thread_names[me] = name
            depths = _owners.setdefault(id(self), {})
            depths[me] = depths.get(me, 0) + 1
            if depths[me] == 1:
                _held.setdefault(me, []).append(
                    _Hold(self, stack, time.monotonic())
                )

    def _note_released(self, me: int) -> None:
        held_for: Optional[float] = None
        with _state_mu:
            depths = _owners.get(id(self))
            if depths and me in depths:
                depths[me] -= 1
                if depths[me] <= 0:
                    del depths[me]
                    if not depths:
                        _owners.pop(id(self), None)
                    holds = _held.get(me, [])
                    for index in range(len(holds) - 1, -1, -1):
                        if holds[index].lock is self:
                            held_for = (
                                time.monotonic() - holds[index].since
                            )
                            del holds[index]
                            break
        if held_for is not None:
            _observe("hold_seconds", held_for)

    # -- lock protocol ----------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._REENTRANT:
            with _state_mu:
                owned = bool(_owners.get(id(self), {}).get(me))
            if owned:
                self._inner.acquire()  # re-entry: cannot block
                self._note_depth(me)
                return True
        if not blocking:
            got = self._inner.acquire(False)
            if got:
                self._note_acquired(me, _acquire_stack())
            else:
                _observe("contended")
            return got
        start = time.monotonic()
        # The cycle check and the waiting-registration are atomic under
        # _state_mu (so a thread that detects a cycle never appears as a
        # waiter to the other side), but metrics are observed outside it
        # — registry locks may themselves be instrumented.
        error: Optional[DeadlockError] = None
        with _state_mu:
            path = _find_cycle(me, self)
            if path is not None:
                error = _cycle_error(me, self, path)
            else:
                _waiting[me] = self
        if error is not None:
            _observe("deadlocks_detected")
            raise error
        contended = False
        try:
            while True:
                remaining = _POLL_S
                if timeout is not None and timeout >= 0:
                    remaining = min(
                        _POLL_S, timeout - (time.monotonic() - start)
                    )
                    if remaining <= 0:
                        _observe("contended")
                        return False
                got = self._inner.acquire(True, remaining)
                if got:
                    break
                contended = True
                with _state_mu:
                    path = _find_cycle(me, self)
                    if path is not None:
                        error = _cycle_error(me, self, path)
                if error is not None:
                    _observe("deadlocks_detected")
                    raise error
        finally:
            with _state_mu:
                _waiting.pop(me, None)
        self._note_acquired(me, _acquire_stack())
        _observe("acquires")
        waited = time.monotonic() - start
        _observe("wait_seconds", waited)
        if contended:
            _observe("contended")
        return True

    def _note_depth(self, me: int) -> None:
        with _state_mu:
            depths = _owners.setdefault(id(self), {})
            depths[me] = depths.get(me, 0) + 1

    def release(self) -> None:
        self._inner.release()
        self._note_released(threading.get_ident())

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class _SanRLock(_SanLock):
    """Instrumented reentrant lock (``threading.RLock`` shape).

    Also implements the private Condition hooks so a real
    ``threading.Condition`` wrapped around it keeps the sanitizer's
    bookkeeping consistent across ``wait()``.
    """

    _REENTRANT = True

    def __init__(self) -> None:
        super().__init__()
        self._inner = _real_rlock()

    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self):
        state = self._inner._release_save()
        me = threading.get_ident()
        with _state_mu:
            depths = _owners.get(id(self))
            if depths and depths.pop(me, None) is not None:
                if not depths:
                    _owners.pop(id(self), None)
                holds = _held.get(me, [])
                for index in range(len(holds) - 1, -1, -1):
                    if holds[index].lock is self:
                        del holds[index]
                        break
        return state

    def _acquire_restore(self, state) -> None:
        # Re-acquire after a Condition wait(): woken by notify, so a
        # cycle through this edge would need the notifier itself to be
        # deadlocked — covered by its own acquire checks.
        self._inner._acquire_restore(state)
        self._note_acquired(threading.get_ident(), _acquire_stack())


def Lock() -> _SanLock:
    """Factory: instrumented ``threading.Lock``."""
    return _SanLock()


def RLock() -> _SanRLock:
    """Factory: instrumented ``threading.RLock``."""
    return _SanRLock()


def Condition(lock=None):
    """Factory: real ``threading.Condition`` over an instrumented RLock."""
    return _real_condition(lock if lock is not None else RLock())


def held_by_current_thread() -> list[str]:
    """Repr of every instrumented lock this thread holds (debug aid)."""
    with _state_mu:
        return [
            repr(hold.lock)
            for hold in _held.get(threading.get_ident(), [])
        ]


def enabled() -> bool:
    return _enabled


def enable() -> None:
    """Patch ``threading``'s factories; instruments locks created later."""
    global _enabled
    with _state_mu:
        if _enabled:
            return
        threading.Lock = Lock
        threading.RLock = RLock
        threading.Condition = Condition
        _enabled = True


def disable() -> None:
    """Restore the real factories (already-created wrappers keep working)."""
    global _enabled
    with _state_mu:
        if not _enabled:
            return
        threading.Lock = _real_lock
        threading.RLock = _real_rlock
        threading.Condition = _real_condition
        _enabled = False
