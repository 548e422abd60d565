"""Fixtures for the serving-tier tests.

One committed tiny model per test repo; servers bind port 0 so tests
never collide.  Everything injects a private MetricsRegistry so counter
assertions are exact and independent of other tests.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import ModelServer, ServeConfig


@pytest.fixture
def served_repo(repo, trained_tiny):
    """A repository holding one committed trained tiny model."""
    net, _, _ = trained_tiny
    version = repo.commit(net, name="tiny", message="serving fixture")
    return repo, net, version


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def server(served_repo, registry):
    """A started server over the fixture repo."""
    repo, net, _ = served_repo
    model_server = ModelServer(
        repo,
        ServeConfig(drain_timeout_s=5.0),
        registry=registry,
    )
    with model_server:
        yield model_server, net


@pytest.fixture
def hammer():
    """``hammer(worker, count=8)``: run ``worker`` from ``count`` threads
    released at once; returns the exceptions they raised."""

    def run(worker, count=8):
        barrier = threading.Barrier(count)
        errors = []

        def call():
            barrier.wait(timeout=5)
            try:
                worker()
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        return errors

    return run
