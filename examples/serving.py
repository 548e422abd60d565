"""Serving managed models with batching and progressive escalation.

Run with: ``python examples/serving.py``

The serving tier closes the lifecycle loop: the same repository that
versions and archives a model can answer live prediction traffic from
it.  This example commits a small trained model into a throwaway DLV
repository, boots :class:`repro.serve.ModelServer` on it, and exercises
the three serving regimes through the HTTP client:

* a progressive request starting from one byte plane (escalates only
  the rows Lemma 4 leaves ambiguous),
* a request starting from two planes (usually resolves immediately),
* an exact full-precision request,

then fires a concurrent mixed-budget burst at the shared plane cache
(requests that queue while a batch computes share the next batch), and
shuts down with a graceful drain.
"""

import tempfile
import threading

import numpy as np

from repro.dlv.repository import Repository
from repro.dnn import SGDConfig, Trainer, synthetic_digits, tiny_mlp
from repro.serve import ModelServer, ServeClient, ServeConfig


def main() -> None:
    dataset = synthetic_digits(train_per_class=25, test_per_class=8)
    net = tiny_mlp(
        input_shape=dataset.input_shape,
        num_classes=dataset.num_classes,
        hidden=20,
        name="digits-mlp",
    ).build(seed=0)
    Trainer(net, SGDConfig(epochs=2, base_lr=0.1, batch_size=32)).fit(
        dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test
    )

    with tempfile.TemporaryDirectory() as scratch:
        repo = Repository.init(scratch)
        repo.commit(net, name="digits-mlp", message="serving example")

        config = ServeConfig(max_batch=16)
        with ModelServer(repo, config) as server:
            client = ServeClient(port=server.port)
            print(f"serving {client.models()[0]['name']} at {server.address}")

            x = dataset.x_test[:12]
            exact = net.predict(x)
            for label, kwargs in [
                ("start at 1 plane ", {"start_planes": 1}),
                ("start at 2 planes", {"start_planes": 2}),
                ("exact (4 planes) ", {"exact": True}),
            ]:
                result = client.predict("digits-mlp", x, **kwargs)
                assert (result.predictions == exact).all()
                print(
                    f"  {label}: resolved at planes "
                    f"{sorted(set(result.resolved_planes.tolist()))}, "
                    f"escalations={result.escalations}, "
                    f"latency={result.latency_ms:.1f} ms"
                )

            # A concurrent burst at mixed budgets: requests that queue at
            # one plane budget while a batch computes coalesce into the
            # next batched pass (no timer holds a batch open), and all of
            # them hit the now-warm shared plane cache.
            errors: list[Exception] = []

            def fire(start_planes: int) -> None:
                try:
                    burst = ServeClient(port=server.port).predict(
                        "digits-mlp", x, start_planes=start_planes
                    )
                    assert (burst.predictions == exact).all()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=fire, args=(1 + i % 2,))
                for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors

            metrics = client.metrics()
            cache = metrics["plane_cache"]
            batches = metrics["metrics"]["histograms"]["serve.batch_requests"]
            print(
                f"  burst of 12: plane-cache hit rate "
                f"{100 * cache['hit_rate']:.0f}% "
                f"({cache['hits']} hits / {cache['misses']} misses), "
                f"largest batch coalesced {int(batches['max'])} requests"
            )
        repo.close()
    print("server drained cleanly")


if __name__ == "__main__":
    main()
