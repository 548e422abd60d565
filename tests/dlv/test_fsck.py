"""Tests for ``dlv fsck``: detection, repair, and CLI exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dlv.cli import main as dlv_main
from repro.dlv.fsck import FSCK_CODES, run_fsck
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp


def _commit_tiny(repo, seed=0, name="m", message="v1", parent=None):
    net = tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=4, name=name
    ).build(seed)
    return repo.commit(net, name=name, message=message, parent=parent)


@pytest.fixture
def committed_repo(repo):
    _commit_tiny(repo)
    return repo


def test_code_table_is_consistent():
    for code, (severity, _description) in FSCK_CODES.items():
        assert code.startswith("F") and len(code) == 4
        assert severity in ("error", "warning", "info")


def test_clean_repo(committed_repo):
    report = run_fsck(committed_repo)
    assert report.clean
    assert report.findings == []
    assert report.chunks_checked > 0
    assert report.payloads_checked > 0
    data = report.to_dict()
    assert data["clean"] and data["summary"]["error"] == 0


def test_corrupt_blob_detected_and_repaired(committed_repo, corrupt_blob):
    repo = committed_repo
    payload = repo.catalog.all_payloads()[0]
    sha = payload["chunks"][3]  # low plane: repair must re-materialize
    corrupt_blob(repo, sha)

    report = run_fsck(repo)
    assert not report.clean
    assert any(f.code == "F101" and f.sha == sha for f in report.findings)

    report = run_fsck(repo, repair=True)
    assert report.clean
    assert repo.backend.quarantined() == [sha]
    # Post-repair audit is clean and weights still load.
    assert run_fsck(repo).clean
    assert repo.get_snapshot_weights(1)


def test_replicated_blob_restored_exactly(committed_repo, corrupt_blob):
    repo = committed_repo
    payload = repo.catalog.all_payloads()[0]
    sha = payload["chunks"][0]  # plane 0 is mirrored in the replica
    original = repo.store.get(sha)
    corrupt_blob(repo, sha)

    report = run_fsck(repo, repair=True)
    assert report.clean
    finding = next(f for f in report.findings if f.code == "F101")
    assert finding.repaired and "replica" in finding.repair
    assert repo.store.get(sha) == original


def test_missing_chunk_rematerialized(committed_repo):
    repo = committed_repo
    baseline = repo.get_snapshot_weights(1)
    payload = repo.catalog.all_payloads()[0]
    repo.store.delete(payload["chunks"][1])  # plane 1: replica has it

    report = run_fsck(repo)
    assert any(f.code == "F103" for f in report.findings)
    assert not report.clean

    report = run_fsck(repo, repair=True)
    assert report.clean
    recovered = repo.get_snapshot_weights(1)
    for layer, params in baseline.items():
        for key, value in params.items():
            np.testing.assert_array_equal(recovered[layer][key], value)


def test_orphan_chunk_is_info_and_swept(committed_repo):
    repo = committed_repo
    repo.store.put(b"nobody references me")
    report = run_fsck(repo)
    assert report.clean  # info-severity findings don't fail fsck
    assert any(f.code == "F303" for f in report.findings)
    report = run_fsck(repo, repair=True)
    assert not any(
        f.code == "F303" and not f.repaired for f in report.findings
    )
    assert run_fsck(repo).findings == []


def test_dangling_catalog_rows(committed_repo):
    repo = committed_repo
    repo.catalog._conn.execute(
        "INSERT INTO snapshot (version_id, idx, iteration, float_scheme, "
        "created_at) VALUES (999, 0, 0, 'float32', '')"
    )
    repo.catalog._conn.execute(
        "INSERT OR REPLACE INTO lineage (base, derived, message) "
        "VALUES (1, 888, 'ghost')"
    )
    repo.catalog._conn.commit()

    report = run_fsck(repo)
    codes = {f.code for f in report.findings}
    assert {"F201", "F207"} <= codes
    assert not report.clean

    report = run_fsck(repo, repair=True)
    assert report.clean
    assert run_fsck(repo).findings == []


def test_stale_tmp_reported_and_removed(committed_repo):
    repo = committed_repo
    if repo.backend.scheme != "local-fs":
        pytest.skip("tmp-file litter is a loose-file-layout concern")
    bucket = next(p for p in repo.store.root.iterdir() if p.is_dir())
    (bucket / "deadbeef.123.tmp").write_bytes(b"litter")
    report = run_fsck(repo)
    assert any(f.code == "F302" for f in report.findings)
    assert report.clean  # warning severity
    run_fsck(repo, repair=True)
    assert not list(repo.store.root.glob("*/*.tmp"))


def test_cli_fsck_exit_codes(tmp_path, capsys, corrupt_blob):
    root = tmp_path / "repo"
    repo = Repository.init(str(root))
    _commit_tiny(repo)
    payload = repo.catalog.all_payloads()[0]
    repo.close()

    assert dlv_main(["--repo", str(root), "fsck", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["clean"] is True

    store = Repository.open(str(root))
    corrupt_blob(store, payload["chunks"][3])
    store.close()

    assert dlv_main(["--repo", str(root), "fsck", "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["error"] >= 1

    assert dlv_main(["--repo", str(root), "fsck", "--repair"]) == 0
    assert "clean" in capsys.readouterr().out
    assert dlv_main(["--repo", str(root), "fsck"]) == 0


# -- dedup page tier (F401-F403) ---------------------------------------------------


def _perturbed_tiny(seed, name):
    net = tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=4, name=name
    ).build(0)
    rng = np.random.default_rng(seed)
    weights = net.get_weights()
    for params in weights.values():
        for arr in params.values():
            flat = arr.reshape(-1)
            idx = rng.choice(
                flat.size, size=max(1, flat.size // 16), replace=False
            )
            flat[idx] += rng.normal(0, 0.01, size=idx.size).astype(flat.dtype)
    net.set_weights(weights)
    return net


@pytest.fixture
def paged_repo(repo):
    """A repo whose dedup archive page-encoded at least one payload."""
    _commit_tiny(repo, name="base")
    repo.commit(_perturbed_tiny(7, "twin"), name="twin", message="v1")
    repo.archive(alpha=4.0, dedup=True)
    assert any(p["kind"] == "pages" for p in repo.catalog.all_payloads())
    return repo


def test_clean_paged_repo(paged_repo):
    report = run_fsck(paged_repo)
    assert report.clean
    assert report.findings == []
    assert report.pages_checked > 0
    assert report.to_dict()["pages_checked"] == report.pages_checked


def test_missing_page_rematerializes(paged_repo):
    from repro.dedup.pages import manifest_shas

    repo = paged_repo
    before = {
        v.name: repo.get_snapshot_weights(v.id) for v in repo.list_versions()
    }
    matrix_id, _plane, manifest = repo.catalog.all_page_manifests()[0]
    repo.pages.delete(next(iter(manifest_shas(manifest))))

    report = run_fsck(repo)
    assert not report.clean
    assert any(f.code == "F401" for f in report.findings)

    report = run_fsck(repo, repair=True)
    assert report.clean
    assert any(f.code == "F401" and f.repaired for f in report.findings)
    # The victim payload is re-materialized; the repo stays consistent.
    payload = repo.catalog.get_payload(matrix_id)
    assert payload["kind"] == "materialize"
    assert run_fsck(repo).findings == []
    # High-order planes replicate, so tiny payloads recover exactly.
    for version in repo.list_versions():
        after = repo.get_snapshot_weights(version.id)
        for layer, params in before[version.name].items():
            for key, value in params.items():
                assert after[layer][key].shape == value.shape


def test_corrupt_page_quarantined(paged_repo, corrupt_blob):
    from repro.dedup.pages import manifest_shas

    repo = paged_repo
    _mid, _plane, manifest = repo.catalog.all_page_manifests()[0]
    victim = next(iter(manifest_shas(manifest)))
    corrupt_blob(repo, victim, ns="pages")

    report = run_fsck(repo)
    assert any(f.code == "F401" for f in report.findings)

    report = run_fsck(repo, repair=True)
    assert report.clean
    assert any(victim in name for name in repo.backend.quarantined())
    assert run_fsck(repo).findings == []


def test_refcount_drift_rebuilt(paged_repo):
    repo = paged_repo
    sha = next(iter(repo.catalog.page_refcounts()))
    repo.catalog.bump_page_ref(sha, 3)

    report = run_fsck(repo)
    assert report.clean  # warning severity
    assert any(f.code == "F402" for f in report.findings)

    report = run_fsck(repo, repair=True)
    assert any(f.code == "F402" and f.repaired for f in report.findings)
    assert dict(repo.page_store().referenced_counts()) == (
        repo.catalog.page_refcounts()
    )
    assert run_fsck(repo).findings == []


def test_orphan_page_swept(paged_repo):
    repo = paged_repo
    repo.pages.put(b"orphaned page bytes" * 8)

    report = run_fsck(repo)
    assert report.clean  # info severity
    assert any(f.code == "F403" for f in report.findings)

    report = run_fsck(repo, repair=True)
    assert all(
        f.repaired for f in report.findings if f.code == "F403"
    )
    assert run_fsck(repo).findings == []


# -- replica tier: liveness and the mirror audit ---------------------------------------


def _paged_mirrors(repo):
    """Replica addresses the page manifests promise (planes 0-1)."""
    return [
        man["sha"]
        for _mid, plane, man in repo.catalog.all_page_manifests()
        if plane < repo.archive_view().replicate_planes
    ]


def test_orphan_chunk_repair_keeps_paged_plane_mirror(paged_repo):
    """A stale main-store chunk sharing a paged plane's digest is an
    orphan; the replica copy under that digest is the plane's mirror."""
    repo = paged_repo
    chunks = {sha for p in repo.catalog.all_payloads() for sha in p["chunks"]}
    mirror = next(sha for sha in _paged_mirrors(repo) if sha not in chunks)
    repo.store.put(repo.replica.get(mirror))

    report = run_fsck(repo, repair=True)
    assert any(
        f.code == "F303" and f.sha == mirror and f.repaired
        for f in report.findings
    )
    assert mirror not in repo.store
    assert mirror in repo.replica
    assert run_fsck(repo).findings == []


@pytest.mark.parametrize("paged", [False, True])
def test_missing_mirror_found_and_restored(paged_repo, paged):
    repo = paged_repo
    if paged:
        victim = _paged_mirrors(repo)[0]
    else:
        victim = next(
            p["chunks"][0] for p in repo.catalog.all_payloads() if p["chunks"]
        )
    original = repo.replica.get(victim)
    repo.replica.delete(victim)

    report = run_fsck(repo)
    assert report.clean  # warning severity
    # (matrices with equal plane content share one mirror)
    assert {(f.code, f.sha) for f in report.findings} == {("F104", victim)}

    report = run_fsck(repo, repair=True)
    assert [(f.code, f.repaired) for f in report.findings] == [("F104", True)]
    assert repo.replica.get(victim) == original
    assert run_fsck(repo).findings == []


def test_dangling_matrix_repair_releases_its_pages(paged_repo):
    """F202's repair goes through the page tier: manifests released,
    refcounts still equal to a recount, the pages collectable."""
    repo = paged_repo
    matrix_id = repo.catalog.all_page_manifests()[0][0]
    version_id = next(
        row["version_id"] for row in repo.catalog.get_matrices()
        if row["matrix_id"] == matrix_id
    )
    repo.catalog._conn.execute(
        "DELETE FROM snapshot WHERE version_id = ?", (version_id,)
    )
    repo.catalog._conn.commit()

    report = run_fsck(repo, repair=True)
    assert any(f.code == "F202" and f.repaired for f in report.findings)
    assert not any(f.code == "F402" for f in report.findings)
    assert repo.catalog.get_page_manifests(matrix_id) == {}
    assert dict(repo.page_store().referenced_counts()) == (
        repo.catalog.page_refcounts()
    )
    repo.gc()
    assert run_fsck(repo).findings == []
