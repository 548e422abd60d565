"""End-to-end integration: the full ModelHub lifecycle story.

This test walks the workflow the paper's introduction describes: train a
model, commit it, explore it with DQL, derive and evaluate variants,
fine-tune, archive the repository's parameters under recreation
constraints, answer inference queries progressively, and share the result
through the hub.
"""

import numpy as np
import pytest

from repro.core.progressive import ProgressiveEvaluator
from repro.dlv.repository import Repository
from repro.dnn.data import synthetic_digits
from repro.dnn.training import SGDConfig, Trainer
from repro.dnn.zoo import lenet
from repro.dql.executor import DQLExecutor
from repro.hub.client import HubClient


@pytest.fixture(scope="module")
def story(tmp_path_factory):
    root = tmp_path_factory.mktemp("story")
    repo = Repository.init(str(root / "repo"))
    dataset = synthetic_digits(train_per_class=30, test_per_class=10)

    # 1. Train and commit a base model.
    net = lenet(
        input_shape=dataset.input_shape,
        num_classes=dataset.num_classes,
        name="lenet-base",
    ).build(0)
    config = SGDConfig(epochs=2, base_lr=0.05, snapshot_every=10)
    result = Trainer(net, config).fit(
        dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test
    )
    base = repo.commit(
        net, name="lenet-base", message="baseline",
        train_result=result, hyperparams=config.to_dict(),
    )

    # 2. Fine-tune a copy with a frozen feature extractor.
    ft_net = repo.load_network(base)
    ft_net.name = "lenet-ft"
    ft_config = SGDConfig(
        epochs=1, base_lr=0.01,
        lr_multipliers={"conv*": 0.0},
        snapshot_every=10,
    )
    ft_result = Trainer(ft_net, ft_config).fit(
        dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test
    )
    finetuned = repo.commit(
        ft_net, name="lenet-ft", message="freeze convs",
        parent=base, train_result=ft_result,
        hyperparams=ft_config.to_dict(),
    )
    return repo, dataset, base, finetuned, root


class TestLifecycle:
    def test_repository_state(self, story):
        repo, _, base, finetuned, _ = story
        assert len(repo.list_versions()) == 2
        assert repo.describe(finetuned)["parents"] == [base.id]

    def test_frozen_layers_identical_across_versions(self, story):
        repo, _, base, finetuned, _ = story
        base_weights = repo.get_snapshot_weights(base)
        ft_weights = repo.get_snapshot_weights(finetuned)
        np.testing.assert_array_equal(
            base_weights["conv1"]["W"], ft_weights["conv1"]["W"]
        )
        assert not np.array_equal(
            base_weights["ip2"]["W"], ft_weights["ip2"]["W"]
        )

    def test_dql_exploration_and_enumeration(self, story):
        repo, _, _, _, _ = story
        executor = DQLExecutor(repo)
        found = executor.run(
            'select m1 where m1.name like "lenet%" and '
            'm1["conv*"].next has POOL("MAX")'
        )
        assert len(found.versions) == 2

        executor.run(
            'construct m2 from m1 where m1.name like "lenet-base" '
            'mutate m1["relu1"].delete',
            name="variants",
        )
        executor.register_config(
            "cfg",
            {"input_data": "synthetic-digits", "epochs": 1,
             "base_lr": 0.05, "batch_size": 32},
        )
        evaluated = executor.run(
            'evaluate m from "variants" with config = "cfg" '
            'keep top(1, m["loss"], 6)'
        )
        assert len(evaluated.evaluations) == 1

    def test_archive_then_query(self, story):
        repo, dataset, base, finetuned, _ = story
        acc_before = repo.evaluate(
            finetuned, dataset.x_test, dataset.y_test
        )["accuracy"]
        report = repo.archive(alpha=2.0)
        assert report["satisfied"]
        acc_after = repo.evaluate(
            finetuned, dataset.x_test, dataset.y_test
        )["accuracy"]
        assert acc_after == pytest.approx(acc_before)

    def test_progressive_inference_from_repository(self, story):
        repo, dataset, base, _, _ = story
        version = repo.resolve(base)
        snapshot = version.snapshots[-1]
        archive = repo.archive_view()
        net = repo.load_network(version)
        evaluator = ProgressiveEvaluator(net, archive, snapshot.key)
        x = dataset.x_test[:40]
        result = evaluator.evaluate(x)
        np.testing.assert_array_equal(
            result.predictions, repo.load_network(version).predict(x)
        )

    def test_recreation_schemes_consistent(self, story):
        """The schemes price plans; they do not change what is read: a
        snapshot read is one plan whose members equal their
        one-at-a-time recreation."""
        repo, _, base, _, _ = story
        version = repo.resolve(base)
        archive = repo.archive_view()
        key = version.snapshots[-1].key
        snapshot = archive.recreate_snapshot(key)
        for mid, value in snapshot.matrices.items():
            np.testing.assert_array_equal(value, archive.recreate_matrix(mid))

    def test_residual_batchnorm_model_roundtrips(self, story):
        """DAG models with BatchNorm running stats survive commit/reload."""
        import numpy as np

        from repro.dnn.layers import Add, BatchNorm, Conv2D, Dense, Flatten
        from repro.dnn.layers import ReLU, Softmax
        from repro.dnn.network import Network
        from repro.dnn.training import SGDConfig, Trainer

        repo, dataset, *_ = story
        net = Network(dataset.input_shape, name="res-bn")
        net.add(Conv2D("conv0", filters=4, kernel=3, pad=1))
        net.add(BatchNorm("bn0"))
        net.add(ReLU("relu0"))
        net.add(Conv2D("conv1", filters=4, kernel=3, pad=1))
        net.add(Add("skip"), "conv1", extra_inputs=["relu0"])
        net.add(Flatten("flat"))
        net.add(Dense("fc", units=dataset.num_classes))
        net.add(Softmax("prob"))
        net.build(0)
        Trainer(net, SGDConfig(epochs=1, base_lr=0.05)).fit(
            dataset.x_train, dataset.y_train
        )
        version = repo.commit(net, name="res-bn", message="dag model")
        reloaded = repo.load_network(version)
        x = dataset.x_test[:16]
        np.testing.assert_allclose(
            reloaded.forward(x), net.forward(x), rtol=1e-5, atol=1e-6
        )

    def test_share_via_hub(self, story, tmp_path):
        repo, dataset, _, _, _ = story
        client = HubClient(tmp_path / "hub")
        record = client.publish(repo, "lenet-family", "integration story")
        assert {"lenet-base", "lenet-ft"} <= set(record.model_names)
        pulled = client.pull_repository("lenet-family", tmp_path / "pulled")
        evaluation = pulled.evaluate(
            "lenet-ft", dataset.x_test[:20], dataset.y_test[:20]
        )
        assert 0.0 <= evaluation["accuracy"] <= 1.0
        pulled.close()
