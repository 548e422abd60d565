"""Progressive inference from segmented storage (Sec. IV-D).

Run with: ``python examples/progressive_inference.py``

PAS stores each float matrix as four byte planes.  This example archives
a trained LeNet, then answers a prediction query progressively: start
from the single high-order byte of every weight, propagate the resulting
weight intervals through the network, and only fetch more bytes for the
data points whose argmax Lemma 4 cannot yet determine.  The final answers
are guaranteed identical to full-precision evaluation.
"""

import numpy as np

from repro.core import (
    MatrixRef,
    MatrixStorageGraph,
    PlanArchive,
    ProgressiveEvaluator,
)
from repro.core.archival import minimum_spanning_tree
from repro.core.storage.memory import MemoryBackend
from repro.dnn import SGDConfig, Trainer, lenet, synthetic_digits


def main() -> None:
    dataset = synthetic_digits()
    net = lenet(
        input_shape=dataset.input_shape,
        num_classes=dataset.num_classes,
    ).build(seed=0)
    Trainer(net, SGDConfig(epochs=3, base_lr=0.05)).fit(
        dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test
    )

    # Archive the trained weights as byte-plane segments.
    graph = MatrixStorageGraph()
    matrices = {}
    for layer, params in net.get_weights().items():
        for key, matrix in params.items():
            matrix_id = f"{layer}.{key}"
            graph.add_matrix(MatrixRef(matrix_id, "snap", matrix.nbytes))
            graph.add_materialization(matrix_id, matrix.nbytes, 1.0)
            matrices[matrix_id] = matrix
    # An in-memory blob store: the chunks tier of an unregistered backend.
    store = MemoryBackend("example", create=True).chunks
    archive = PlanArchive.build(store, matrices, minimum_spanning_tree(graph))
    print(f"archived {len(matrices)} matrices, "
          f"{archive.total_size() / 1024:.1f} KiB stored\n")

    evaluator = ProgressiveEvaluator(net, archive, "snap")
    x = dataset.x_test

    # Truncated baseline: no guarantee, small error at low byte counts.
    exact = net.predict(x)
    print("truncated (no-guarantee) evaluation:")
    for planes in (1, 2, 3):
        predictions = evaluator.evaluate_at_planes(x, planes)
        error = float((predictions != exact).mean())
        print(f"  {planes} byte plane(s): error rate {error:.3f}")

    # Progressive evaluation: exact answers, partial reads.
    result = evaluator.evaluate(x, k=1)
    assert np.array_equal(result.predictions, exact)
    print("\nprogressive evaluation (guaranteed exact):")
    for planes in sorted(result.determined_fraction):
        fraction = result.determined_fraction[planes]
        print(f"  determined after {planes} plane(s): {fraction:6.1%}")
    print(f"  stored bytes actually read: {result.bytes_fraction:.1%}")
    print("  every prediction matches full precision: True")


if __name__ == "__main__":
    main()
