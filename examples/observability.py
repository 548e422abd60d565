"""Observability walkthrough: metrics, spans, and the stats surface.

Archives a tiny model, reads it through the one weights cache (the
``PlaneCache`` behind a progressive evaluator), and shows the four ways
telemetry comes back out:

1. a request's bill: the blobs and bytes it read, per byte plane;
2. counters/gauges/histograms from the metrics registry;
3. nested trace spans exported as JSON;
4. the same numbers a user would see via ``dlv stats``.

Run:  PYTHONPATH=src python examples/observability.py
"""

import json

import numpy as np

from repro import obs
from repro.core.archival import minimum_spanning_tree
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph
from repro.dnn.zoo import tiny_mlp
from repro.serve import PlaneCache


def build_archive(store, net):
    """A model's weights archived as snapshot ``"snap"`` under an MST
    storage plan."""
    graph = MatrixStorageGraph()
    matrices = {}
    for layer, params in net.get_weights().items():
        for key, matrix in params.items():
            mid = f"{layer}.{key}"
            graph.add_matrix(MatrixRef(mid, "snap", matrix.nbytes))
            graph.add_materialization(mid, matrix.nbytes, 1.0)
            matrices[mid] = matrix
    return PlanArchive.build(store, matrices, minimum_spanning_tree(graph))


def main() -> None:
    # Instrumented components default to the process-global registry;
    # injecting instances keeps this example's numbers self-contained.
    registry = obs.MetricsRegistry()
    recorder = obs.TraceRecorder(capacity=256)
    previous = obs.set_recorder(recorder)

    net = tiny_mlp(hidden=32).build(seed=0)
    archive = build_archive(MemoryBackend("example", create=True).chunks, net)
    cache = PlaneCache(registry=registry)
    evaluator = ProgressiveEvaluator(net, archive, "snap", plane_cache=cache)
    x = np.random.default_rng(7).standard_normal(
        (16, *net.input_shape)
    ).astype(np.float32)

    # Cold pass (misses, chunkstore reads) on its own bill, then a warm
    # pass (all hits).
    with obs.cost_context() as bill:
        evaluator.exact_weights()
        evaluator.evaluate(x)
    cache.reset()  # measure the warm phase's hit rate on its own
    evaluator.exact_weights()
    evaluator.evaluate(x)

    print("== request bill (cold phase) ==")
    print(f"  {bill.chunks_fetched} blobs, {bill.bytes_read} bytes read; "
          f"stored bytes by plane: {dict(sorted(bill.by_plane.items()))}")

    print("\n== cache stats (warm phase) ==")
    for key, value in cache.stats().items():
        print(f"  {key:<14} {value}")

    print("\n== registry snapshot ==")
    snapshot = obs.dump_metrics(registry=registry)
    for name, value in snapshot["counters"].items():
        print(f"  {name:<28} {value}")

    # A custom span, carrying attributes, wrapping an instrumented call.
    with obs.trace_span("example.report", phase="export") as span:
        spans = json.loads(recorder.to_json())
    print(f"\n== traces ==\n  recorded {len(spans)} spans; "
          f"last custom span took {span.elapsed * 1e6:.1f} us")
    group = next(s for s in spans if s["name"] == "pas.snapshot")
    nested = [s for s in spans if s["parent_id"] == group["span_id"]]
    print(f"  group span 'pas.snapshot' elapsed={group['elapsed']:.6f}s "
          f"with {len(nested)} nested matrix retrievals")

    # Structured logging honours REPRO_LOG_LEVEL (try REPRO_LOG_LEVEL=INFO).
    obs.get_logger("example").info(
        "op=walkthrough hits=%d misses=%d",
        cache.stats()["hits"], cache.stats()["misses"],
    )

    obs.set_recorder(previous)
    print("\nDone. Run `dlv stats` (or `dlv stats --json`) in any dlv "
          "repository for the same counters over real storage.")


if __name__ == "__main__":
    main()
