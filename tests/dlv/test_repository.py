"""Repository integration tests: the full DLV command surface as an API."""

import numpy as np
import pytest

from repro.core.storage_graph import RetrievalScheme
from repro.dlv.repository import Repository
from repro.dnn.training import SGDConfig, Trainer, accuracy
from repro.dnn.zoo import tiny_mlp


@pytest.fixture
def committed(repo, trained_tiny):
    net, result, config = trained_tiny
    version = repo.commit(
        net.clone(),
        name="tiny-base",
        message="initial",
        train_result=result,
        hyperparams=config.to_dict(),
    )
    return repo, version


class TestInitOpen:
    def test_init_creates_layout(self, tmp_path, trained_tiny):
        repo = Repository.init(str(tmp_path / "r"))
        dlv = tmp_path / "r" / ".dlv"
        assert (dlv / "catalog.db").exists()
        assert (dlv / "chunks").is_dir()
        assert repo.format == 4 and repo.backend.read_config()["format"] == 4
        repo.commit(trained_tiny[0].clone(), name="m")
        repo.close()
        # One commit: one pack per tier it wrote, no bucket directories.
        for tier in ("chunks", "replica"):
            (pack,) = (dlv / tier).iterdir()
            assert pack.name.startswith("pack-") and pack.suffix == ".pack"

    def test_double_init_rejected(self, tmp_path):
        Repository.init(str(tmp_path / "r")).close()
        with pytest.raises(FileExistsError):
            Repository.init(str(tmp_path / "r"))

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Repository.open(str(tmp_path / "nope"))

    def test_reopen_preserves_data(self, tmp_path, trained_tiny):
        net, result, _ = trained_tiny
        repo = Repository.init(str(tmp_path / "r"))
        repo.commit(net.clone(), name="m", train_result=result)
        repo.close()
        reopened = Repository.open(str(tmp_path / "r"))
        assert [v.name for v in reopened.list_versions()] == ["m"]
        reopened.close()


class TestCommit:
    def test_commit_records_everything(self, committed):
        repo, version = committed
        assert version.name == "tiny-base"
        assert version.metadata["param_count"] > 0
        assert version.metadata["final_accuracy"] > 0.3
        assert len(version.snapshots) >= 1
        assert repo.training_log(version)

    def test_commit_requires_built(self, repo):
        with pytest.raises(RuntimeError):
            repo.commit(tiny_mlp(), name="x")

    def test_commit_without_train_result_snapshots_weights(
        self, repo, trained_tiny
    ):
        net, _, _ = trained_tiny
        version = repo.commit(net.clone(), name="bare")
        assert len(version.snapshots) == 1

    def test_lossy_float_scheme_recorded_and_applied(self, repo, trained_tiny):
        net, _, _ = trained_tiny
        version = repo.commit(net.clone(), name="lossy", float_scheme="fixed8")
        assert version.snapshots[0].float_scheme == "fixed8"
        weights = repo.get_snapshot_weights(version)
        # fixed8 admits at most 256 distinct values per matrix.
        assert len(np.unique(weights["fc1"]["W"])) <= 256

    def test_resolve_by_name_id_ref(self, committed):
        repo, version = committed
        assert repo.resolve(version.id).id == version.id
        assert repo.resolve("tiny-base").id == version.id
        assert repo.resolve(version.ref).id == version.id
        with pytest.raises(KeyError):
            repo.resolve("ghost")


class TestExploration:
    def test_list_and_describe(self, committed):
        repo, version = committed
        assert [v.name for v in repo.list_versions()] == ["tiny-base"]
        desc = repo.describe(version)
        assert desc["name"] == "tiny-base"
        assert desc["num_snapshots"] == len(version.snapshots)
        assert "fc1:FULL" in desc["layers"]

    def test_lineage_via_copy(self, committed):
        repo, version = committed
        derived = repo.copy_version(version, "tiny-ft")
        edges = repo.lineage_edges()
        assert (version.id, derived.id) in {(b, d) for b, d, _ in edges}
        assert repo.describe(derived)["parents"] == [version.id]

    def test_staged_files_associated(self, committed, tmp_path):
        repo, _ = committed
        script = tmp_path / "train.sh"
        script.write_text("#!/bin/sh\necho train")
        repo.add_files([script])
        assert repo.staged_files()
        net = repo.load_network("tiny-base")
        version = repo.commit(net, name="with-files")
        assert "train.sh" in version.files
        assert repo.get_file(version.files["train.sh"]) == script.read_bytes()
        assert repo.staged_files() == []  # stage cleared


class TestWeightsRoundtrip:
    def test_load_network_reproduces_predictions(self, committed, digits):
        repo, version = committed
        original = repo.load_network(version)
        evaluation = repo.evaluate(version, digits.x_test, digits.y_test)
        assert evaluation["accuracy"] == pytest.approx(
            accuracy(original, digits.x_test, digits.y_test)
        )

    def test_snapshot_indexing(self, committed):
        repo, version = committed
        first = repo.get_snapshot_weights(version, 0)
        last = repo.get_snapshot_weights(version, -1)
        assert set(first) == set(last)

    def test_partial_plane_read_approximates(self, committed):
        repo, version = committed
        exact = repo.get_snapshot_weights(version)
        approx = repo.get_snapshot_weights(version, planes=2)
        for layer in exact:
            for key in exact[layer]:
                np.testing.assert_allclose(
                    approx[layer][key], exact[layer][key],
                    rtol=0.01, atol=1e-4,
                )


class TestArchive:
    def _repo_with_finetunes(self, repo, trained_tiny, digits):
        net, result, config = trained_tiny
        base = repo.commit(
            net.clone(), name="base", train_result=result,
        )
        # Two fine-tuned children: similar weights, delta-friendly.
        for i in range(2):
            child = repo.load_network(base)
            child.name = f"ft{i}"
            solver = SGDConfig(epochs=1, base_lr=0.005, seed=i)
            res = Trainer(child, solver).fit(
                digits.x_train, digits.y_train
            )
            repo.commit(
                child, name=f"ft{i}", parent=base, train_result=res
            )
        return base

    def test_archive_reduces_storage_and_preserves_weights(
        self, repo, trained_tiny, digits
    ):
        self._repo_with_finetunes(repo, trained_tiny, digits)
        before_weights = {
            v.id: repo.get_snapshot_weights(v) for v in repo.list_versions()
        }
        report = repo.archive(alpha=3.0)
        assert report["satisfied"]
        assert report["bytes_after"] <= report["bytes_before"]
        for version_id, expected in before_weights.items():
            actual = repo.get_snapshot_weights(version_id)
            for layer in expected:
                for key in expected[layer]:
                    np.testing.assert_array_equal(
                        actual[layer][key], expected[layer][key]
                    )

    def test_archive_report_fields(self, repo, trained_tiny, digits):
        self._repo_with_finetunes(repo, trained_tiny, digits)
        report = repo.archive(alpha=2.0, algorithm="pas-mt")
        assert report["algorithm"] == "pas-mt"
        assert report["scheme"] == RetrievalScheme.INDEPENDENT.value
        assert report["snapshot_costs"]

    def test_convert_snapshot_scheme_shrinks_storage(
        self, repo, trained_tiny
    ):
        net, result, _ = trained_tiny
        version = repo.commit(net.clone(), name="m", train_result=result)
        report = repo.convert_snapshot_scheme(version, 0, "fixed8")
        assert report["bytes_after"] < report["bytes_before"]
        refreshed = repo.resolve(version.id)
        assert refreshed.snapshots[0].float_scheme == "fixed8"
        # The converted snapshot decodes to at most 256 distinct values.
        weights = repo.get_snapshot_weights(version, 0)
        assert len(np.unique(weights["fc1"]["W"])) <= 256

    def test_convert_preserves_dependent_snapshots(
        self, repo, trained_tiny, digits
    ):
        """Converting a delta base must not corrupt matrices stored off it."""
        self._repo_with_finetunes(repo, trained_tiny, digits)
        repo.archive(alpha=4.0)  # creates delta chains
        versions = repo.list_versions()
        target = versions[0]
        expected = {
            v.id: repo.get_snapshot_weights(v) for v in versions
        }
        repo.convert_snapshot_scheme(target, -1, "fixed8")
        for version in versions:
            if version.id == target.id:
                continue
            actual = repo.get_snapshot_weights(version)
            for layer in expected[version.id]:
                for key in expected[version.id][layer]:
                    np.testing.assert_array_equal(
                        actual[layer][key], expected[version.id][layer][key]
                    )

    def test_gc_removes_orphans(self, committed):
        repo, _ = committed
        orphan = repo.store.put(b"orphan bytes")
        removed = repo.gc()
        assert removed >= 1
        assert orphan not in repo.store

    def test_storage_graph_structure(self, repo, trained_tiny, digits):
        self._repo_with_finetunes(repo, trained_tiny, digits)
        graph, matrices = repo.build_storage_graph()
        graph.validate_connected()
        assert graph.num_matrices() == len(matrices)
        # Delta edges exist (within-version chains or lineage links).
        delta_edges = [e for e in graph.edges if e.kind == "delta"]
        assert delta_edges
