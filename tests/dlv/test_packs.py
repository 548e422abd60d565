"""The packed local-fs layout seen through a repository.

A second handle reads, writes and collects through another handle's
commit and gc; the ``format`` integer refuses newer repositories and
upgrades format-1 ones; loose blobs are folded into one pack per tier
on every open, crash, race or no; and documents land whole or not at all.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.chunkstore import ChunkStore
from repro.core.storage.base import CONFIG_DOC, FORMAT
from repro.core.storage.localfs import LocalFSBackend
from repro.dlv.cli import main as dlv_main
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.faults import CrashSimulated, FaultPlan, FaultPoint, inject

TIERS = ("chunks", "replica", "pages")


def _chain(repo, count: int, seed: int = 0) -> dict[str, dict]:
    """Commit a lineage chain of ``count`` versions; their weights."""
    net = tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=8, name="m"
    ).build(seed)
    rng = np.random.default_rng(seed)
    parent = None
    committed = {}
    for step in range(count):
        net.set_weights({
            layer: {
                key: value + rng.normal(0, 0.01, value.shape).astype(value.dtype)
                for key, value in params.items()
            }
            for layer, params in net.get_weights().items()
        })
        name = f"m{seed}-{step}"
        parent = repo.commit(net, name=name, message=name, parent=parent)
        committed[name] = net.get_weights()
    return committed


def _weights_bytes(weights: dict) -> dict:
    return {
        (layer, key): (value.dtype.str, value.shape, value.tobytes())
        for layer, params in weights.items()
        for key, value in params.items()
    }


def _exports(repo, dest) -> dict[str, dict]:
    """``version -> file -> content`` of every version exported (arrays
    of ``weights.npz`` by their bytes: the archive's timestamps differ)."""
    out = {}
    for version in repo.list_versions():
        path = repo.export_model_dir(version, dest / version.name)
        files = {}
        for item in sorted(path.iterdir()):
            if item.suffix == ".npz":
                with np.load(item) as npz:
                    files[item.name] = {
                        k: (npz[k].dtype.str, npz[k].tobytes()) for k in npz
                    }
            else:
                files[item.name] = item.read_bytes()
        out[version.name] = files
    return out


def test_second_handle_reads_through_commit_and_gc(tmp_path):
    root = str(tmp_path / "r")
    first = Repository.init(root)
    committed = _chain(first, 3)
    second = Repository.open(root)
    for version in second.list_versions():  # index built, views read
        second.get_snapshot_weights(version.id)
    committed.update(_chain(first, 2, seed=1))
    first.archive(alpha=2.0)
    first.gc()
    for tier in TIERS:
        assert len(list((tmp_path / "r" / ".dlv" / tier).iterdir())) <= 1
    versions = second.list_versions()
    assert sorted(v.name for v in versions) == sorted(committed)
    for version in versions:
        assert _weights_bytes(second.get_snapshot_weights(version.id)) == (
            _weights_bytes(committed[version.name])
        )
    assert _exports(second, tmp_path / "second") == (
        _exports(first, tmp_path / "first")
    )
    first.close()
    second.close()


def test_second_handle_commits_and_gcs_after_a_gc_under_it(tmp_path):
    root = str(tmp_path / "r")
    first = Repository.init(root)
    committed = _chain(first, 3)
    second = Repository.open(root)
    held = set(second.store.addresses())  # index built before the gc
    chunks_of = {
        version.name: {
            sha
            for matrix in second.catalog.get_matrices(version.id)
            for sha in second.catalog.get_payload(matrix["matrix_id"])["chunks"]
        }
        for version in second.list_versions()
    }
    first.archive(alpha=2.0)  # its gc drops the materialized chunks
    gone = held - set(ChunkStore(tmp_path / "r" / ".dlv" / "chunks").addresses())
    assert gone
    # Re-commit a version whose chunks the archive swept.
    swept = next(name for name in sorted(committed) if chunks_of[name] & gone)

    net = tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=8, name="m"
    ).build(0)
    net.set_weights(committed[swept])
    committed["again"] = net.get_weights()
    second.commit(net, name="again", message="again")
    assert gone & {
        sha for payload in second.catalog.all_payloads()
        for sha in payload["chunks"]
    }  # the new commit re-puts blobs the other handle deleted
    second.gc()
    first.close()
    second.close()

    reopened = Repository.open(root)
    for version in reopened.list_versions():
        assert _weights_bytes(reopened.get_snapshot_weights(version.id)) == (
            _weights_bytes(committed[version.name])
        )
    assert run_fsck(reopened).clean
    reopened.close()


def test_fsck_quarantines_a_tiers_corrupt_blobs_in_one_rewrite(
    tmp_path, corrupt_blob, monkeypatch
):
    repo = Repository.init(str(tmp_path / "r"))
    _chain(repo, 1)
    repo.gc()  # one pack per tier
    victims = sorted({p["chunks"][3] for p in repo.catalog.all_payloads()})
    assert len(victims) > 1
    for sha in victims:
        corrupt_blob(repo, sha)
    rewrites = []
    real = ChunkStore._rewrite

    def spy(store, folded, drop):
        rewrites.append((store.root.name, len(folded), sorted(drop)))
        return real(store, folded, drop)

    monkeypatch.setattr(ChunkStore, "_rewrite", spy)
    assert run_fsck(repo, repair=True).clean
    assert [r for r in rewrites if r[2]] == [("chunks", 1, victims)]
    assert repo.backend.quarantined() == victims
    assert run_fsck(repo).clean
    repo.close()


def _to_format_1(dlv) -> int:
    """Rewrite a packed repository in the loose layout of format 1 and
    drop the config's ``format`` field; returns the blobs moved."""
    moved = 0
    for tier in TIERS:
        root = dlv / tier
        store = ChunkStore(root)
        for sha in store.addresses():
            (root / sha[:2]).mkdir(exist_ok=True)
            (root / sha[:2] / sha).write_bytes(store.read_stored(sha))
            moved += 1
        for pack in root.glob("pack-*.pack"):
            pack.unlink()
    config = json.loads((dlv / CONFIG_DOC).read_text())
    del config["format"]
    (dlv / CONFIG_DOC).write_text(json.dumps(config))
    return moved


def _format_1_repo(tmp_path):
    """A dedup-archived repository rewritten as format 1; its root and
    the exports of its versions."""
    root = tmp_path / "r"
    repo = Repository.init(str(root))
    _chain(repo, 3)
    repo.archive(alpha=2.0, dedup=True)
    before = _exports(repo, tmp_path / "before")
    repo.close()
    assert _to_format_1(root / ".dlv") > 0
    return root, before


def _assert_one_pack_per_tier(root) -> None:
    for tier in TIERS:
        entries = list((root / ".dlv" / tier).iterdir())
        assert [p.suffix for p in entries] == [".pack"], tier


def test_format_1_repository_upgrades_on_open_and_packs_on_gc(tmp_path):
    root, before = _format_1_repo(tmp_path)

    repo = Repository.open(str(root))
    assert repo.format == FORMAT == 4
    assert json.loads((root / ".dlv" / CONFIG_DOC).read_text())["format"] == 4
    _assert_one_pack_per_tier(root)
    assert _exports(repo, tmp_path / "folded") == before
    assert run_fsck(repo).clean

    repo.gc()
    _assert_one_pack_per_tier(root)
    assert _exports(repo, tmp_path / "packed") == before
    repo.close()


@pytest.mark.parametrize(
    "site, op",
    [
        ("chunkstore.fold.dirsync", 0),  # the first pack renamed, unsynced
        ("chunkstore.fold.unlink", 0),  # a pack landed, no loose blob gone
        ("chunkstore.fold.unlink", 5),  # some of a tier's loose blobs gone
        ("chunkstore.fold.dirsync", 3),  # two tiers folded, one loose
        ("repo.docs.write", 0),  # every tier folded, the format still 1
    ],
)
def test_format_1_fold_crash_then_reopen_leaves_packs_only(
    tmp_path, site, op
):
    root, before = _format_1_repo(tmp_path)
    plan = FaultPlan([FaultPoint(site=site, op=op, action="crash")])
    with inject(plan), pytest.raises(CrashSimulated):
        Repository.open(str(root))
    assert [f.site for f in plan.fired] == [site]

    repo = Repository.open(str(root))
    assert repo.format == FORMAT
    _assert_one_pack_per_tier(root)
    assert _exports(repo, tmp_path / "after") == before
    assert run_fsck(repo).clean
    repo.close()


def test_format_2_repository_with_loose_blobs_folds_on_open(tmp_path):
    """An older dlv upgraded format 1 by the config alone and left the
    loose blobs for gc; the next open folds them all the same."""
    root, before = _format_1_repo(tmp_path)
    config_path = root / ".dlv" / CONFIG_DOC
    config = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**config, "format": FORMAT}))

    repo = Repository.open(str(root))
    assert repo.format == FORMAT
    _assert_one_pack_per_tier(root)
    assert _exports(repo, tmp_path / "folded") == before
    assert run_fsck(repo).clean
    repo.close()


def test_format_1_fold_skips_blobs_a_concurrent_opener_folded(
    tmp_path, monkeypatch
):
    root, before = _format_1_repo(tmp_path)
    real = Path.read_bytes
    racing = []

    def read_bytes(path):
        if not racing and path.parent.parent.name in TIERS:
            racing.append(path)  # another opener folds every tier first
            Repository.open(str(root)).close()
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    repo = Repository.open(str(root))
    monkeypatch.undo()
    assert not racing[0].exists()
    _assert_one_pack_per_tier(root)
    assert _exports(repo, tmp_path / "after") == before
    assert run_fsck(repo).clean
    repo.close()


def test_failed_open_closes_the_backend(tmp_path, monkeypatch):
    root = str(tmp_path / "r")
    Repository.init(root).close()
    closed = []
    monkeypatch.setattr(
        LocalFSBackend, "open_format",
        lambda self: (_ for _ in ()).throw(OSError("disk full")),
    )
    monkeypatch.setattr(
        LocalFSBackend, "close", lambda self: closed.append(self)
    )
    with pytest.raises(OSError, match="disk full"):
        Repository.open(root)
    assert len(closed) == 1


def test_format_1_corrupt_loose_blob_opens_and_is_quarantined(tmp_path):
    root, _ = _format_1_repo(tmp_path)
    victim = next((root / ".dlv" / "chunks").glob("*/*"))
    victim.write_bytes(b"not a stored form")

    repo = Repository.open(str(root))
    _assert_one_pack_per_tier(root)
    assert any(f.sha == victim.name for f in run_fsck(repo).findings)
    assert run_fsck(repo, repair=True).clean
    assert repo.backend.quarantined() == [victim.name]
    assert run_fsck(repo).clean
    repo.close()


@pytest.mark.parametrize("backend", ["local-fs", "sqlite"])
def test_newer_format_is_refused_in_one_line(
    backend, make_repo_target, capsys
):
    target = make_repo_target(backend)
    repo = Repository.init(target)
    config = repo.backend.read_config()
    config["format"] = FORMAT + 1
    repo.backend.write_doc(CONFIG_DOC, json.dumps(config).encode())
    repo.close()
    assert dlv_main(["--repo", target, "list"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dlv: error: ") and err.count("\n") == 1
    assert f"format {FORMAT + 1}" in err


def test_fsck_json_reports_the_format(tmp_path, capsys):
    root = str(tmp_path / "r")
    Repository.init(root).close()
    assert dlv_main(["--repo", root, "fsck", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["format"] == FORMAT


def test_torn_archive_report_leaves_a_readable_history(tmp_path):
    root = str(tmp_path / "r")
    repo = Repository.init(root)
    committed = _chain(repo, 2)
    repo.archive(alpha=2.0)
    plan = FaultPlan([FaultPoint(site="repo.docs.write", action="torn", offset=9)])
    with inject(plan), pytest.raises(CrashSimulated):
        repo.archive(alpha=2.0)
    assert [f.action for f in plan.fired] == ["torn"]
    repo.close()

    reopened = Repository.open(root)
    assert len(reopened.archive_history()) == 1
    for version in reopened.list_versions():
        assert _weights_bytes(reopened.get_snapshot_weights(version.id)) == (
            _weights_bytes(committed[version.name])
        )
    report = run_fsck(reopened, repair=True)
    assert [f.code for f in report.findings] == ["F302"]
    assert run_fsck(reopened).findings == []
    reopened.close()
