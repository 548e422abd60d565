"""Repository maintenance tests: snapshot pruning and model export."""

import numpy as np
import pytest

from repro.dlv import wrapper
from repro.dlv.cli import main
from repro.dlv.fsck import run_fsck


@pytest.fixture
def snapshotted(repo, trained_lenet):
    """A version with a full checkpoint series (from the lenet fixture)."""
    net, result, config = trained_lenet
    version = repo.commit(
        net.clone(), name="many-snaps", train_result=result,
        hyperparams=config.to_dict(),
    )
    assert len(version.snapshots) >= 4
    return repo, version


class TestPrune:
    def test_prune_drops_and_keeps(self, snapshotted):
        repo, version = snapshotted
        total = len(version.snapshots)
        report = repo.prune_snapshots(version, keep_every=2, keep_last=1)
        assert report["dropped"]
        refreshed = repo.resolve(version.id)
        assert len(refreshed.snapshots) == total - len(report["dropped"])
        # The latest snapshot always survives.
        assert refreshed.snapshots[-1].index == version.snapshots[-1].index

    def test_pruned_weights_still_load(self, snapshotted, digits):
        repo, version = snapshotted
        before = repo.evaluate(version, digits.x_test, digits.y_test)
        repo.prune_snapshots(version, keep_every=3)
        after = repo.evaluate(version, digits.x_test, digits.y_test)
        assert after["accuracy"] == pytest.approx(before["accuracy"])

    def test_prune_after_archive_rebases_dependents(
        self, snapshotted, digits
    ):
        """Pruning a delta base must keep the rest recreatable."""
        repo, version = snapshotted
        repo.archive(alpha=4.0)  # introduce snapshot-chain deltas
        expected = repo.get_snapshot_weights(version, -1)
        repo.prune_snapshots(version, keep_every=4)
        report = run_fsck(repo)
        assert report.clean, report.to_dict()
        actual = repo.get_snapshot_weights(version, -1)
        for layer in expected:
            for key in expected[layer]:
                np.testing.assert_array_equal(
                    actual[layer][key], expected[layer][key]
                )

    def test_prune_frees_storage(self, snapshotted):
        repo, version = snapshotted
        before = repo.store.total_size()
        report = repo.prune_snapshots(version, keep_every=4)
        assert report["dropped"]
        assert repo.store.total_size() < before

    def test_invalid_parameters(self, snapshotted):
        repo, version = snapshotted
        with pytest.raises(ValueError):
            repo.prune_snapshots(version, keep_every=0)

    def test_nothing_to_drop_is_noop(self, snapshotted):
        repo, version = snapshotted
        report = repo.prune_snapshots(version, keep_every=1)
        assert report["dropped"] == []


class TestArchiveHistory:
    def test_archive_runs_recorded(self, snapshotted):
        repo, _ = snapshotted
        assert repo.archive_history() == []
        repo.archive(alpha=2.0)
        repo.archive(alpha=3.0, algorithm="pas-mt")
        history = repo.archive_history()
        assert len(history) == 2
        assert history[0]["alpha"] == 2.0
        assert history[1]["algorithm"] == "pas-mt"
        assert all("archived_at" in run for run in history)


class TestInspect:
    def test_inspect_matrix_stats(self, snapshotted):
        repo, version = snapshotted
        report = repo.inspect_matrix(version, "conv1", "W", planes=2)
        exact = repo.get_snapshot_weights(version)["conv1"]["W"]
        assert report["stats"]["mean"] == pytest.approx(
            float(exact.mean()), abs=1e-3
        )
        assert sum(report["histogram"]["counts"]) == exact.size

    def test_unknown_layer_raises(self, snapshotted):
        repo, version = snapshotted
        with pytest.raises(KeyError, match="no matrix"):
            repo.inspect_matrix(version, "ghost")

    def test_cli_inspect(self, snapshotted, capsys):
        repo, _ = snapshotted
        repo.close()
        code = main(
            ["--repo", str(repo.root), "inspect", "many-snaps",
             "--layer", "ip1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert '"mean"' in out
        assert "#" in out  # the ascii histogram


class TestExport:
    def test_export_roundtrips_through_wrapper(
        self, snapshotted, tmp_path, digits
    ):
        repo, version = snapshotted
        model_dir = repo.export_model_dir(version, tmp_path / "export")
        loaded = wrapper.load_network(model_dir)
        original = repo.load_network(version)
        x = digits.x_test[:10]
        np.testing.assert_allclose(
            loaded.forward(x), original.forward(x), rtol=1e-6
        )
        # Solver and log round-trip as well.
        solver = wrapper.load_solver(model_dir)
        assert solver is not None
        assert wrapper.load_log(model_dir)

    def test_export_then_recommit(self, snapshotted, tmp_path):
        """The export is a valid input for `dlv commit --model-dir`."""
        repo, version = snapshotted
        model_dir = repo.export_model_dir(version, tmp_path / "export")
        net = wrapper.load_network(model_dir)
        net.name = "reimported"
        reimported = repo.commit(net, name="reimported")
        assert reimported.id != version.id

    def test_cli_prune_and_export(self, snapshotted, tmp_path, capsys):
        repo, version = snapshotted
        repo.close()
        import json

        code = main(
            ["--repo", str(repo.root), "prune", "many-snaps",
             "--keep-every", "3"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and "kept" in out

        dest = tmp_path / "cli-export"
        code = main(
            ["--repo", str(repo.root), "export", "many-snaps", str(dest)]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (dest / "network.json").exists()
        assert (dest / "weights.npz").exists()
