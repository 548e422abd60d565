"""The static concurrency checker: every CONC code, inference rules,
pragmas, and the clean-tree guarantee over ``src/repro``."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.conc import check_file, check_paths
from repro.analysis.diagnostics import CODES

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def checked(tmp_path):
    def run(source, name="mod.py"):
        file = tmp_path / name
        file.write_text(textwrap.dedent(source))
        return check_file(file)

    return run


def codes(findings):
    return [d.code for d in findings]


class TestUnguardedWrite:
    def test_mixed_guarded_and_unguarded_is_an_error(self, checked):
        findings = checked(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def safe(self):
                    with self._lock:
                        self.total += 1

                def racy(self):
                    self.total += 1
            """
        )
        assert codes(findings) == ["CONC401"]
        finding = findings[0]
        assert finding.severity == "error"
        assert finding.span.line == 14  # the racy write, not the safe one
        assert "Counter.total" in finding.message
        assert "Counter._lock" in finding.message
        assert finding.source == "conc"

    def test_thread_owner_with_no_guard_at_all_is_a_warning(self, checked):
        findings = checked(
            """
            import threading

            class Server:
                def __init__(self):
                    self._thread = None

                def start(self):
                    self._thread = threading.Thread(target=self.run)
                    self._thread.start()

                def stop(self):
                    self._thread = None

                def run(self):
                    pass
            """
        )
        assert [(d.code, d.severity) for d in findings] == [
            ("CONC401", "warning"),
            ("CONC406", "warning"),  # daemonless thread rides along
        ]

    def test_single_method_attr_in_plain_class_is_not_flagged(self, checked):
        # No locks, no threads: nothing concurrent to protect.
        assert checked(
            """
            class Plain:
                def bump(self):
                    self.n = 1

                def read(self):
                    return self.n
            """
        ) == []

    def test_init_only_writes_are_exempt(self, checked):
        findings = checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._load()

                def _load(self):
                    self.config = {}

                def mutate(self):
                    with self._lock:
                        self.config["k"] = 1
            """
        )
        assert findings == []

    def test_private_helper_inherits_callers_lock(self, checked):
        # _store is only ever called with the lock held, so its write is
        # guarded even though the `with` is not lexically visible there.
        assert checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def set_a(self):
                    with self._lock:
                        self._store(1)

                def set_b(self):
                    with self._lock:
                        self._store(2)

                def _store(self, v):
                    self.value = v
            """
        ) == []

    def test_mutator_method_calls_count_as_writes(self, checked):
        findings = checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def safe(self, x):
                    with self._lock:
                        self.items.append(x)

                def racy(self, x):
                    self.items.append(x)
            """
        )
        assert codes(findings) == ["CONC401"]


class TestInconsistentGuard:
    def test_two_different_locks_is_an_error(self, checked):
        findings = checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.n = 0

                def one(self):
                    with self._a:
                        self.n += 1

                def two(self):
                    with self._b:
                        self.n += 2
            """
        )
        assert codes(findings) == ["CONC402"]
        assert "C._a" in findings[0].message
        assert "C._b" in findings[0].message

    def test_consistent_lock_plus_extra_is_fine(self, checked):
        # Both sites hold _a; one also holds _b.  Intersection non-empty.
        assert checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.n = 0

                def one(self):
                    with self._a:
                        self.n += 1

                def two(self):
                    with self._a:
                        with self._b:
                            self.n += 2
            """
        ) == []


class TestLockOrder:
    INVERTED = """
        import threading

        class C:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def ab(self):
                with self._a:
                    with self._b:
                        pass

            def ba(self):
                with self._b:
                    with self._a:
                        pass
        """

    def test_inversion_cycle_is_reported(self, checked):
        findings = checked(self.INVERTED)
        assert codes(findings) == ["CONC403"]
        assert findings[0].severity == "error"
        assert "C._a" in findings[0].message
        assert "C._b" in findings[0].message

    def test_consistent_order_is_clean(self, checked):
        assert checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def ab(self):
                    with self._a:
                        with self._b:
                            pass

                def also_ab(self):
                    with self._a:
                        with self._b:
                            pass
            """
        ) == []

    def test_cycle_spans_files(self, tmp_path):
        # One acquisition order per file; only the union has the cycle.
        one = tmp_path / "one.py"
        one.write_text(textwrap.dedent(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def ab(self):
                    with self._a:
                        with self._b:
                            pass
            """
        ))
        two = tmp_path / "two.py"
        two.write_text(textwrap.dedent(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def ba(self):
                    with self._b:
                        with self._a:
                            pass
            """
        ))
        assert check_file(one) == []
        assert check_file(two) == []
        assert codes(check_paths([tmp_path])) == ["CONC403"]

    def test_order_through_call_edges(self, checked):
        findings = checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def outer(self):
                    with self._a:
                        self._take_b()

                def _take_b(self):
                    with self._b:
                        pass

                def inverted(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        assert codes(findings) == ["CONC403"]


class TestDoubleAcquire:
    def test_nested_with_on_plain_lock(self, checked):
        findings = checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        assert codes(findings) == ["CONC404"]
        assert findings[0].severity == "error"

    def test_reacquire_through_a_call_edge(self, checked):
        findings = checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self._helper()

                def _helper(self):
                    with self._lock:
                        pass
            """
        )
        assert set(codes(findings)) == {"CONC404"}
        # both sides are anchored: the call site and the helper's acquire
        assert any("_helper" in d.message for d in findings) or any(
            "already held" in d.message for d in findings
        )

    def test_rlock_reentry_is_fine(self, checked):
        assert checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        ) == []


class TestBlockingUnderLock:
    def test_sleep_under_lock(self, checked):
        findings = checked(
            """
            import threading
            import time

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    with self._lock:
                        time.sleep(1)
            """
        )
        assert codes(findings) == ["CONC405"]
        assert findings[0].severity == "warning"
        assert "C._lock" in findings[0].message

    def test_chunk_retrieval_under_lock_via_private_helper(self, checked):
        findings = checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def query(self):
                    with self._lock:
                        return self._fetch()

                def _fetch(self):
                    return self.archive.recreate_matrix("m1")
            """
        )
        assert set(codes(findings)) == {"CONC405"}
        # reported at the locked call site, naming the chain
        site = [d for d in findings if d.span.line == 10]
        assert site and "_fetch" in site[0].message

    def test_condition_wait_on_held_condition_is_not_blocking(self, checked):
        assert checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._cond = threading.Condition()

                def consume(self):
                    with self._cond:
                        while not self.ready:
                            self._cond.wait()
            """
        ) == []

    def test_wait_with_timeout_is_not_flagged(self, checked):
        assert checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self, event):
                    with self._lock:
                        event.wait(timeout=0.1)
            """
        ) == []

    def test_queue_get_without_timeout(self, checked):
        findings = checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def pull(self, work_queue):
                    with self._lock:
                        return work_queue.get()
            """
        )
        assert codes(findings) == ["CONC405"]

    def test_blocking_outside_any_lock_is_fine(self, checked):
        assert checked(
            """
            import time

            class C:
                def idle(self):
                    time.sleep(1)
            """
        ) == []

    def test_closure_defined_under_lock_runs_later(self, checked):
        # The loader body executes in get_or_load, after the lock is
        # dropped — exactly the PlaneCache single-flight idiom.
        assert checked(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def cached(self):
                    def load():
                        return self.archive.recreate_matrix("m")
                    with self._lock:
                        self.loader = load
            """
        ) == []


class TestThreadDiscipline:
    def test_daemonless_unjoined_thread(self, checked):
        findings = checked(
            """
            import threading

            def go():
                worker = threading.Thread(target=print)
                worker.start()
            """
        )
        assert codes(findings) == ["CONC406"]
        assert findings[0].severity == "warning"

    def test_daemon_kwarg_is_fine(self, checked):
        assert checked(
            """
            import threading

            def go():
                threading.Thread(target=print, daemon=True).start()
            """
        ) == []

    def test_joined_threads_are_fine(self, checked):
        assert checked(
            """
            import threading

            def go():
                worker = threading.Thread(target=print)
                worker.start()
                worker.join()
            """
        ) == []

    def test_thread_subclass_without_daemon_flag(self, checked):
        findings = checked(
            """
            import threading

            class Worker(threading.Thread):
                def __init__(self):
                    super().__init__(name="w")

                def run(self):
                    pass
            """
        )
        assert codes(findings) == ["CONC406"]

    def test_thread_subclass_with_daemon_in_super_init(self, checked):
        assert checked(
            """
            import threading

            class Worker(threading.Thread):
                def __init__(self):
                    super().__init__(name="w", daemon=True)

                def run(self):
                    pass
            """
        ) == []


class TestPragmasAndPlumbing:
    def test_pragma_suppresses_one_code(self, checked):
        findings = checked(
            """
            import threading
            import time

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    with self._lock:
                        time.sleep(0)  # lint: ignore[CONC405]
            """
        )
        assert findings == []

    def test_pragma_with_other_code_does_not_suppress(self, checked):
        findings = checked(
            """
            import threading
            import time

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    with self._lock:
                        time.sleep(0)  # lint: ignore[CONC401]
            """
        )
        assert codes(findings) == ["CONC405"]

    def test_every_emitted_code_is_registered(self, checked):
        # Diagnostic.__post_init__ enforces registration; this documents
        # the acceptance criterion: >= 6 CONC codes in the table.
        conc_codes = [c for c in CODES if c.startswith("CONC")]
        assert len(conc_codes) >= 6

    def test_unparsable_file_yields_no_findings(self, checked):
        assert checked("def broken(:\n") == []

    def test_module_entrypoint_exits_zero_on_clean_tree(self, capsys):
        from repro.dlv.cli import main

        code = main(
            ["check", "--conc", str(REPO_ROOT / "src" / "repro" / "obs")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out


class TestCleanTree:
    def test_src_repro_is_conc_clean(self):
        """Acceptance: the shipped tree has no concurrency findings."""
        findings = check_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], "\n".join(
            f"{d.file}:{d.span.line}: {d.code} {d.message}" for d in findings
        )
