"""Model sharing through the ModelHub service (Sec. III-C).

Run with: ``python examples/model_sharing.py``

A modeler publishes a repository of trained models to a hub; a collaborator
searches the hub, pulls the repository, fine-tunes a model locally, and
publishes a new revision.
"""

import tempfile
from pathlib import Path

from repro.dlv import Repository
from repro.dnn import SGDConfig, Trainer, lenet, synthetic_digits
from repro.hub import HubClient


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="modelhub-sharing-"))
    dataset = synthetic_digits()

    # Modeler A: train and publish.
    repo_a = Repository.init(str(workdir / "alice"))
    net = lenet(
        input_shape=dataset.input_shape,
        num_classes=dataset.num_classes,
        name="lenet-digits",
    ).build(0)
    result = Trainer(net, SGDConfig(epochs=2)).fit(
        dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test
    )
    repo_a.commit(net, name="lenet-digits", train_result=result)

    hub = HubClient(workdir / "hub")
    record = hub.publish(
        repo_a, "digit-models", description="LeNet for synthetic digits"
    )
    print(f"alice published {record.name!r} revision {record.revision} "
          f"with models {record.model_names}")

    # Modeler B: discover, pull, fine-tune, re-publish.
    hits = hub.search("digit*")
    print(f"bob searched 'digit*': {[r.name for r in hits]}")
    repo_b = hub.pull_repository("digit-models", workdir / "bob")

    base = repo_b.resolve("lenet-digits")
    finetuned = repo_b.load_network(base)
    finetuned.name = "lenet-digits-ft"
    ft_result = Trainer(
        finetuned,
        SGDConfig(epochs=1, base_lr=0.01, lr_multipliers={"conv*": 0.0}),
    ).fit(dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test)
    repo_b.commit(
        finetuned, name="lenet-digits-ft", parent=base,
        message="fine-tune dense head", train_result=ft_result,
    )
    print(f"bob fine-tuned: accuracy {ft_result.final_accuracy:.3f} "
          f"(base {base.metadata['final_accuracy']:.3f})")

    record = hub.publish(repo_b, "digit-models", description="adds fine-tune")
    print(f"bob published revision {record.revision} "
          f"with models {record.model_names}")
    repo_a.close()
    repo_b.close()


if __name__ == "__main__":
    main()
