"""Lineage traversal, and integrity verification through ``dlv fsck``
under failure injection."""

import json

import pytest

from repro.dlv.cli import main
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository


@pytest.fixture
def populated(repo, trained_tiny):
    net, result, _ = trained_tiny
    base = repo.commit(net.clone(), name="v-base", train_result=result)
    middle = repo.copy_version(base, "v-mid")
    leaf = repo.copy_version(middle, "v-leaf")
    return repo, base, middle, leaf


class TestLineageTraversal:
    def test_ancestors(self, populated):
        repo, base, middle, leaf = populated
        assert [v.id for v in repo.ancestors(leaf)] == [middle.id, base.id]
        assert repo.ancestors(base) == []

    def test_descendants(self, populated):
        repo, base, middle, leaf = populated
        assert [v.id for v in repo.descendants(base)] == [middle.id, leaf.id]
        assert repo.descendants(leaf) == []


class TestVerify:
    """Whole-repository integrity is ``dlv fsck``'s job: the corruptions
    below are caught by :func:`run_fsck` and fail ``dlv fsck``."""

    def test_clean_repository_is_ok(self, populated):
        repo, *_ = populated
        report = run_fsck(repo)
        assert report.clean
        assert report.findings == []
        assert report.payloads_checked > 0

    def test_detects_missing_chunk(self, populated):
        repo, *_ = populated
        payload = repo.catalog.all_payloads()[0]
        repo.store.delete(payload["chunks"][0])
        report = run_fsck(repo)
        assert not report.clean
        assert any(
            f.code == "F103" and f.matrix_id == payload["matrix_id"]
            for f in report.findings
        )

    def test_detects_shape_corruption(self, populated):
        repo, base, *_ = populated
        # Rewrite one matrix's recorded shape in the catalog.
        row = repo.catalog.get_matrices(base.id, 0)[0]
        repo.catalog._conn.execute(
            "UPDATE matrix SET shape = '[1, 1]' WHERE matrix_id = ?",
            (row["matrix_id"],),
        )
        repo.catalog.commit()
        report = run_fsck(repo)
        assert not report.clean
        # The corruption surfaces either as a decode failure (plane size vs
        # recorded count) or as a shape mismatch: both are F208.
        assert [
            f.matrix_id for f in report.findings if f.code == "F208"
        ] == [row["matrix_id"]]

    def test_detects_unparsable_network_spec(self, populated):
        repo, _base, middle, _leaf = populated
        repo.catalog._conn.execute(
            "UPDATE model_version SET network = '{}' WHERE id = ?",
            (middle.id,),
        )
        repo.catalog.commit()
        report = run_fsck(repo)
        assert not report.clean
        assert [f.code for f in report.findings] == ["F209"]
        assert middle.ref in report.findings[0].message

    def test_verify_after_archive(self, populated):
        """Delta-encoded repositories check clean too (chains recreate)."""
        repo, *_ = populated
        repo.archive(alpha=3.0)
        report = run_fsck(repo)
        assert report.clean and report.findings == [], report.to_dict()

    def test_cli_verify_exit_codes(self, populated, capsys):
        repo, *_ = populated
        repo.close()
        assert main(["--repo", str(repo.root), "fsck", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["clean"]
        # Corrupt and expect failure exit code.
        with Repository.open(str(repo.root)) as reopened:
            payload = reopened.catalog.all_payloads()[0]
            reopened.store.delete(payload["chunks"][0])
        assert main(["--repo", str(repo.root), "fsck", "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert not out["clean"]
        assert "F103" in {f["code"] for f in out["findings"]}
