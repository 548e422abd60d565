"""Quickstart: train a model, version it with DLV, query it back.

Run with: ``python examples/quickstart.py``

This walks the minimal ModelHub loop: build LeNet on a synthetic digits
task, train it with checkpointing, commit the artifacts into a DLV
repository, then explore the repository — list versions, describe the
model, re-evaluate it from archived weights.
"""

import tempfile
from pathlib import Path

from repro.dlv import Repository
from repro.dnn import SGDConfig, Trainer, lenet, synthetic_digits


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="modelhub-quickstart-"))
    print(f"working in {workdir}\n")

    # 1. A prediction task and a model from the zoo.
    dataset = synthetic_digits()
    net = lenet(
        input_shape=dataset.input_shape,
        num_classes=dataset.num_classes,
        name="lenet-quickstart",
    ).build(seed=0)
    print(f"model: {net.name}, {net.param_count()} parameters")

    # 2. Train with periodic snapshots (the artifacts PAS will archive).
    config = SGDConfig(epochs=3, base_lr=0.05, batch_size=32, snapshot_every=15)
    result = Trainer(net, config).fit(
        dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test
    )
    print(
        f"trained: accuracy={result.final_accuracy:.3f} "
        f"loss={result.final_loss:.3f} snapshots={len(result.snapshots)}"
    )

    # 3. Commit everything into a DLV repository.
    repo = Repository.init(str(workdir / "repo"))
    version = repo.commit(
        net,
        name="lenet-quickstart",
        message="first trained model",
        train_result=result,
        hyperparams=config.to_dict(),
    )
    print(f"committed: {version.ref}\n")

    # 4. Explore: list, describe, and evaluate from archived weights.
    for v in repo.list_versions():
        print(f"  version {v.ref}: {len(v.snapshots)} snapshots, "
              f"accuracy={v.metadata.get('final_accuracy'):.3f}")
    description = repo.describe(version)
    print(f"  layers: {', '.join(description['layers'])}")

    evaluation = repo.evaluate(version, dataset.x_test, dataset.y_test)
    print(f"  re-evaluated from archive: accuracy={evaluation['accuracy']:.3f}")

    # 5. Optimize parameter storage (dlv archive).
    report = repo.archive(alpha=2.0)
    saved = report["bytes_before"] - report["bytes_after"]
    print(
        f"  archived: {report['bytes_before']} -> {report['bytes_after']} "
        f"bytes ({saved} saved), constraints satisfied={report['satisfied']}"
    )
    repo.close()


if __name__ == "__main__":
    main()
