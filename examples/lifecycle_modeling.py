"""The modeling lifecycle with DQL: explore, slice, construct, evaluate.

Run with: ``python examples/lifecycle_modeling.py``

Reproduces the workflow of the paper's Queries 1-4: a modeler has several
AlexNet-style variants in a repository, filters them with ``select``,
extracts a reusable feature extractor with ``slice``, derives new
architectures with ``construct``, and tunes hyperparameters with
``evaluate ... vary ... keep``.
"""

import tempfile
from pathlib import Path

from repro.dlv import Repository
from repro.dnn import SGDConfig, Trainer, alexnet_mini, synthetic_digits
from repro.dql import DQLExecutor


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="modelhub-lifecycle-"))
    repo = Repository.init(str(workdir / "repo"))
    dataset = synthetic_digits(size=16)

    # Populate the repository with a family of model versions.
    print("training three alexnet-origin variants...")
    for seed in range(3):
        net = alexnet_mini(
            input_shape=dataset.input_shape,
            num_classes=dataset.num_classes,
            name=f"alexnet-origin{seed}",
        ).build(seed)
        config = SGDConfig(epochs=1, base_lr=0.03, seed=seed)
        result = Trainer(net, config).fit(
            dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test
        )
        repo.commit(
            net, name=f"alexnet-origin{seed}",
            train_result=result, hyperparams=config.to_dict(),
        )

    executor = DQLExecutor(repo)

    # Query 1 — select: filter versions by metadata + graph structure.
    q1 = executor.run(
        'select m1 where m1.name like "alexnet_%" and '
        'm1["conv[1,3,5]"].next has RELU()'
    )
    print(f"\nQuery 1 (select): {[v.name for v in q1.versions]}")

    # Query 2 — slice: a reusable sub-network from conv1 to fc7.
    q2 = executor.run(
        'slice m2 from m1 where m1.name like "alexnet-origin%" '
        'mutate m2.input = m1["conv1"] and m2.output = m1["fc7"]'
    )
    print(f"Query 2 (slice): {len(q2.networks)} feature extractors, "
          f"nodes {q2.networks[0].node_names()[:3]}...{q2.networks[0].output_name}")

    # Query 3 — construct: insert dropout after every conv followed by ReLU.
    executor.run(
        'construct m2 from m1 where m1.name like "alexnet-origin0" and '
        'm1["conv*($1)"].next has RELU() '
        'mutate m1["conv*($1)"].insert = DROPOUT("drop$1")',
        name="query3",
    )
    derived = executor.results["query3"].networks[0]
    inserted = [n for n in derived.node_names() if n.startswith("drop")]
    print(f"Query 3 (construct): derived {derived.name} with {inserted}")

    # Query 4 — evaluate: sweep hyperparameters, keep the best by loss.
    executor.register_config(
        "tuning", {
            "input_data": "synthetic-digits",
            "data_size": 16,
            "epochs": 1,
            "batch_size": 32,
        },
    )
    q4 = executor.run(
        'evaluate m from "query3" with config = "tuning" '
        "vary config.base_lr in [0.1, 0.03, 0.01] and "
        'config.net["conv*"].lr auto '
        'keep top(3, m["loss"], 15)'
    )
    print("Query 4 (evaluate): kept candidates")
    for row in q4.evaluations:
        print(
            f"  {row['model']}: loss={row['loss']:.3f} "
            f"accuracy={row['accuracy']:.3f} overrides={row['overrides']}"
        )
    repo.close()


if __name__ == "__main__":
    main()
