"""Regression tests for the CONC401 findings the concurrency checker
surfaced in the scheduler's lifecycle paths.

Before the fix, BatchScheduler._draining/_workers were written with no
guard.  These tests hammer the lifecycle from many threads and assert
exactly-once semantics.  The HTTP listeners' half of the same finding is
checked for both tiers in ``test_wire.py::TestLifecycle``.
"""

from __future__ import annotations

import threading

import pytest

from repro.dnn.network import Network
from repro.serve import BatchScheduler, ModelRuntime, PlaneCache, ServeConfig


@pytest.fixture
def runtime(served_repo, registry):
    repo, net, version = served_repo
    fresh = Network.from_spec(version.network).build(0)
    return ModelRuntime(
        name="tiny",
        net=fresh,
        archive=repo.archive_view(),
        snapshot_id=version.snapshots[-1].key,
        plane_cache=PlaneCache(64 << 20, registry=registry),
    )


class TestSchedulerLifecycle:
    def test_concurrent_register_rejects_duplicates_exactly_n_minus_1(
        self, served_repo, registry, hammer
    ):
        repo, net, version = served_repo
        scheduler = BatchScheduler(ServeConfig(), registry)
        archive = repo.archive_view()  # SQLite handles are thread-affine
        runtimes = [
            ModelRuntime(
                name="dup",
                net=Network.from_spec(version.network).build(0),
                archive=archive,
                snapshot_id=version.snapshots[-1].key,
            )
            for _ in range(6)
        ]
        pending = list(runtimes)
        take = threading.Lock()

        def register_one():
            with take:
                runtime = pending.pop()
            scheduler.register(runtime)

        errors = hammer(register_one, count=6)
        # Exactly one registration wins; every loser gets ValueError.
        assert len(errors) == 5
        assert all(isinstance(e, ValueError) for e in errors)
        assert scheduler.models() == ["dup"]

    def test_drain_flag_visible_to_submitters(self, runtime, registry):
        scheduler = BatchScheduler(ServeConfig(), registry)
        scheduler.register(runtime)
        try:
            assert scheduler.drain(timeout=5.0)
            assert scheduler.draining
        finally:
            scheduler.stop()
