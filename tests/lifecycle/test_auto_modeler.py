"""Auto-modeler tests: a tiny SD repository with lineage and snapshots."""

import pytest

from repro.dnn.data import synthetic_faces
from repro.lifecycle.auto_modeler import AutoModeler, ModelerConfig, generate_sd


@pytest.fixture(scope="module")
def sd_repo(tmp_path_factory):
    """A miniature SD repository shared across tests in this module."""
    path = tmp_path_factory.mktemp("sd")
    config = ModelerConfig(
        num_versions=4,
        snapshots_per_version=3,
        base_epochs=1,
        finetune_epochs=1,
        model_scale=0.25,
        seed=3,
    )
    dataset = synthetic_faces(
        size=16, num_classes=5, train_per_class=10, test_per_class=3
    )
    return generate_sd(path / "repo", config, dataset)


class TestGeneration:
    def test_version_count(self, sd_repo):
        assert len(sd_repo.list_versions()) == 4

    def test_base_model_first(self, sd_repo):
        assert sd_repo.list_versions()[0].name == "sd-base"

    def test_lineage_connects_all_derived(self, sd_repo):
        edges = sd_repo.lineage_edges()
        derived = {d for _, d, _ in edges}
        version_ids = {v.id for v in sd_repo.list_versions()}
        assert derived == version_ids - {min(version_ids)}

    def test_snapshot_series_bounded(self, sd_repo):
        for version in sd_repo.list_versions():
            assert 1 <= len(version.snapshots) <= 3

    def test_metadata_recorded(self, sd_repo):
        for version in sd_repo.list_versions():
            assert "hyperparams" in version.metadata
            assert "final_accuracy" in version.metadata

    def test_versions_loadable_and_runnable(self, sd_repo):
        dataset = synthetic_faces(
            size=16, num_classes=5, train_per_class=2, test_per_class=2
        )
        for version in sd_repo.list_versions():
            net = sd_repo.load_network(version)
            preds = net.predict(dataset.x_test[:4])
            assert preds.shape == (4,)

    def test_idempotent_reopen(self, sd_repo):
        reopened = generate_sd(sd_repo.root)
        assert len(reopened.list_versions()) == 4


class TestStorageGraphFromSD:
    def test_graph_has_lineage_delta_edges(self, sd_repo):
        graph, _ = sd_repo.build_storage_graph()
        graph.validate_connected()
        delta_edges = [e for e in graph.edges if e.kind == "delta"]
        assert delta_edges

    def test_archive_round_trips(self, sd_repo):
        before = {
            v.id: sd_repo.get_snapshot_weights(v)
            for v in sd_repo.list_versions()
        }
        report = sd_repo.archive(alpha=2.5)
        assert report["satisfied"]
        import numpy as np

        for version_id, expected in before.items():
            actual = sd_repo.get_snapshot_weights(version_id)
            for layer in expected:
                for key in expected[layer]:
                    np.testing.assert_allclose(
                        actual[layer][key], expected[layer][key],
                        rtol=1e-5, atol=1e-6,
                    )


class TestModelerActions:
    def test_action_distribution_configurable(self, tmp_path):
        from repro.dlv.repository import Repository

        config = ModelerConfig(
            num_versions=3,
            snapshots_per_version=2,
            base_epochs=1,
            finetune_epochs=1,
            model_scale=0.25,
            seed=1,
            actions={"finetune-all": 1.0},
        )
        dataset = synthetic_faces(
            size=16, num_classes=4, train_per_class=6, test_per_class=2
        )
        repo = Repository.init(str(tmp_path / "r"))
        AutoModeler(repo, dataset=dataset, config=config).run()
        names = [v.name for v in repo.list_versions()]
        assert names[0] == "sd-base"
        assert all("finetune-all" in n for n in names[1:])
        repo.close()
