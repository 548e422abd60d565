"""Inspecting archived parameters without their low-order bytes.

Run with: ``python examples/storage_inspection.py``

Exploration queries — summary statistics, weight histograms, diffs — can be
answered from the high-order byte planes alone (end of Sec. IV-D).  This
example archives two related model versions with the low-order planes
offloaded to a second blob store standing in for remote storage, then
empties that store and runs segment-only inspection, which never needs
it.
"""

from repro.core import PlanArchive
from repro.core.archival import minimum_spanning_tree
from repro.core.inspect import (
    ascii_histogram,
    segment_compare,
    segment_histogram,
    segment_stats,
)
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import MatrixRef, MatrixStorageGraph
from repro.dnn import SGDConfig, Trainer, lenet, synthetic_digits


def main() -> None:
    dataset = synthetic_digits()
    base = lenet(
        input_shape=dataset.input_shape, num_classes=dataset.num_classes,
        name="lenet-base",
    ).build(0)
    Trainer(base, SGDConfig(epochs=2)).fit(dataset.x_train, dataset.y_train)

    finetuned = lenet(
        input_shape=dataset.input_shape, num_classes=dataset.num_classes,
        name="lenet-ft",
    ).build(0)
    finetuned.set_weights(base.get_weights())
    Trainer(finetuned, SGDConfig(epochs=1, base_lr=0.005)).fit(
        dataset.x_train, dataset.y_train
    )

    # Archive both versions' ip1 weights; low-order planes go remote.
    graph = MatrixStorageGraph()
    matrices = {
        "base/ip1.W": base["ip1"].params["W"],
        "ft/ip1.W": finetuned["ip1"].params["W"],
    }
    for mid, matrix in matrices.items():
        graph.add_matrix(MatrixRef(mid, mid.split("/")[0], matrix.nbytes))
        graph.add_materialization(mid, matrix.nbytes, 1.0)
    # Each tier is an in-memory blob store (an unregistered backend's
    # chunks tier); the second one stands in for remote storage.
    remote = MemoryBackend("remote", create=True).chunks
    archive = PlanArchive.build(
        MemoryBackend("local", create=True).chunks, matrices,
        minimum_spanning_tree(graph), low_order_store=remote, offload_from=2,
    )
    offloaded = remote.total_size()
    remote.delete_many(list(remote.addresses()))
    print(f"offloaded {offloaded} stored bytes of low-order planes, then "
          f"emptied the remote tier\n")

    print("segment-only statistics (2 high-order bytes per weight):")
    for mid in matrices:
        stats = segment_stats(archive, mid, planes=2)
        print(
            f"  {mid}: mean={stats['mean']:+.5f} std={stats['std']:.5f} "
            f"range=[{stats['min']:+.4f}, {stats['max']:+.4f}] "
            f"(elementwise error <= {stats['max_error']:.2e})"
        )

    print("\nweight histogram of base/ip1.W:")
    print(ascii_histogram(segment_histogram(archive, "base/ip1.W", bins=9)))

    report = segment_compare(archive, "ft/ip1.W", "base/ip1.W", planes=2)
    print(
        f"\ndlv-diff style comparison: relative L2 = "
        f"{report['relative_l2']:.4f}, max |diff| = {report['max_abs']:.5f}"
    )
    print("all of the above answered with the remote tier empty")


if __name__ == "__main__":
    main()
