"""Serving-tier benchmark: batched-progressive vs unbatched-exact.

The serving claim: coalescing concurrent requests into batched forward
passes and answering them progressively from cached byte-plane bounds
beats serving each request alone at full precision.  Two scheduler
regimes over the same committed model, hammered by the same concurrent
client pool of single-row requests (the batching-sensitive workload —
every unbatched request pays a full scheduler round plus DAG traversal
for one example):

* **unbatched-exact** — ``max_batch=1``, every request answered at full
  precision;
* **batched-progressive** — ``max_batch=16``, requests starting from
  two byte planes and escalating only ambiguous rows.

No timer holds a batch open: the worker takes whatever is queued when it
is free, so batches form from the backlog that builds while the previous
batch computes.  The benchmark reports the mean requests per batch of
the batched regime and asserts the pool keeps it at two or more.

The pool drives :class:`repro.serve.BatchScheduler` directly so the
measurement isolates the batching and progressive-evaluation machinery;
the HTTP transport around it is exercised end-to-end by tests/serve and
the CI serving job.  (In-process HTTP would put ~16 client threads and
16 handler threads behind one GIL and measure mostly that.)

Reports throughput and p50/p99 latency, and asserts the
batched-progressive regime wins on throughput with a warm plane cache.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.dlv.repository import Repository
from repro.dnn.network import Network
from repro.dnn.training import SGDConfig, Trainer
from repro.dnn.zoo import tiny_mlp
from repro.obs.metrics import MetricsRegistry
from repro.serve import BatchScheduler, ModelRuntime, PlaneCache, ServeConfig

MODEL = "digits-mlp"
CLIENT_THREADS = 16
REQUESTS_PER_THREAD = 25
# A dense model, not a conv net: plane-2 interval bounds determine most
# rows for a shallow MLP, whereas conv interval growth pushes
# everything to plane 3 and beyond.
HIDDEN = 48


@pytest.fixture(scope="module")
def served_model(tmp_path_factory, digits12):
    """A trained digits MLP committed into a throwaway repository."""
    net = tiny_mlp(
        input_shape=digits12.input_shape,
        num_classes=digits12.num_classes,
        hidden=HIDDEN,
        name=MODEL,
    ).build(0)
    Trainer(net, SGDConfig(epochs=3, base_lr=0.1, batch_size=32)).fit(
        digits12.x_train, digits12.y_train, digits12.x_test, digits12.y_test
    )
    repo = Repository.init(tmp_path_factory.mktemp("serving-repo"))
    version = repo.commit(net, name=MODEL, message="serving benchmark")
    yield repo, version, net, digits12
    repo.close()


def run_regime(served_model, config, **submit_kwargs):
    """Boot a fresh scheduler in one regime and hammer it.

    Returns (throughput_rps, latencies_s, cache_stats,
    mean_batch_requests) — the last over the measured window only."""
    repo, version, net, dataset = served_model
    x = dataset.x_test[:1]
    expected = net.predict(x)

    registry = MetricsRegistry()
    cache = PlaneCache(config.cache_bytes, registry=registry)
    runtime = ModelRuntime(
        MODEL,
        Network.from_spec(version.network).build(0),
        repo.archive_view(),
        version.snapshots[-1].key,
        cache,
    )
    scheduler = BatchScheduler(config, registry=registry)
    scheduler.register(runtime)
    scheduler.start()
    try:
        # One warmup request so neither regime pays cold PAS reads
        # inside the measured window.
        scheduler.submit(MODEL, x, **submit_kwargs).wait(30.0)
        batch_requests = registry.histogram("serve.batch_requests")
        batch_requests.reset()

        latencies: list[float] = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def client() -> None:
            for _ in range(REQUESTS_PER_THREAD):
                started = time.perf_counter()
                try:
                    outcome = scheduler.submit(
                        MODEL, x, **submit_kwargs
                    ).wait(30.0)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                elapsed = time.perf_counter() - started
                assert (outcome.predictions == expected).all()
                with lock:
                    latencies.append(elapsed)

        threads = [
            threading.Thread(target=client) for _ in range(CLIENT_THREADS)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        assert not errors, errors
        total = CLIENT_THREADS * REQUESTS_PER_THREAD
        assert len(latencies) == total
        return (total / wall, np.asarray(latencies), cache.stats(),
                batch_requests.mean)
    finally:
        scheduler.stop()


def test_serving_throughput(served_model, reporter):
    regimes = {
        "unbatched-exact": (
            ServeConfig(max_batch=1, queue_limit=1024),
            {"exact": True},
        ),
        "batched-progressive": (
            ServeConfig(max_batch=16, queue_limit=1024),
            {"start_planes": 2},
        ),
    }
    # Best-of-2 per regime: a descheduled worker thread mid-run skews a
    # single trial, and throughput ratios are what the assert checks.
    results = {
        name: max(
            (run_regime(served_model, config, **kwargs) for _ in range(2)),
            key=lambda outcome: outcome[0],
        )
        for name, (config, kwargs) in regimes.items()
    }

    reporter.line("Serving: batched-progressive vs unbatched-exact")
    reporter.line(
        f"{CLIENT_THREADS} client threads x {REQUESTS_PER_THREAD} "
        f"single-row requests"
    )
    reporter.line(
        f"{'regime':>20} | {'req/s':>8} | {'p50 ms':>8} | {'p99 ms':>8} | "
        f"{'cache hit%':>10} | {'req/batch':>9}"
    )
    reporter.line("-" * 80)
    for name, (throughput, latencies, cache_stats, per_batch) in (
        results.items()
    ):
        reporter.line(
            f"{name:>20} | {throughput:8.0f} | "
            f"{np.percentile(latencies, 50) * 1e3:8.2f} | "
            f"{np.percentile(latencies, 99) * 1e3:8.2f} | "
            f"{100 * cache_stats['hit_rate']:10.1f} | {per_batch:9.2f}"
        )

    fast, _, fast_cache, fast_per_batch = results["batched-progressive"]
    slow, _, _, _ = results["unbatched-exact"]
    reporter.line()
    reporter.line(f"speedup: {fast / slow:.2f}x")
    assert fast > slow, (
        f"batched-progressive ({fast:.0f} req/s) should outrun "
        f"unbatched-exact ({slow:.0f} req/s)"
    )
    assert fast_cache["hit_rate"] > 0, "warm plane cache expected"
    # The backlog alone must still coalesce requests.
    assert fast_per_batch >= 2, (
        f"batched-progressive averaged {fast_per_batch:.2f} requests per "
        f"batch under {CLIENT_THREADS} client threads"
    )
