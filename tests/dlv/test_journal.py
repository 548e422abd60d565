"""Tests for the write-ahead journal, replay, and commit durability."""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.core.chunkstore import ChunkStore
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.faults import CrashSimulated, FaultPlan, FaultPoint, inject

BACKENDS = ("local-fs", "sqlite", "memory")


def _net(seed=0):
    return tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=4, name="m"
    ).build(seed)


@pytest.fixture(params=["local-fs", "sqlite", "memory"])
def repo_target(request, make_repo_target):
    """An init/reopen target on every storage backend."""
    return make_repo_target(request.param)


def test_journal_record_retire_roundtrip(make_repo_target):
    for backend in BACKENDS:
        repo = Repository.init(make_repo_target(backend))
        journal = repo.journal
        entry = journal.record("commit", chunks=["aa", "bb"], files=[])
        [pending] = journal.pending()
        assert pending.txid == entry.txid, backend
        assert pending.op == "commit"
        assert pending.data["chunks"] == ["aa", "bb"]
        journal.retire(entry)
        assert journal.pending() == []
        journal.retire(entry)  # retiring twice is harmless
        # An intent commits on its own: never inside a catalog transaction.
        with pytest.raises(RuntimeError, match="independently"):
            with repo.catalog.transaction():
                journal.record("archive")
        assert journal.pending() == []
        repo.close()


def test_torn_journal_entry_has_no_data(make_repo_target):
    for backend in BACKENDS:
        repo = Repository.init(make_repo_target(backend))
        repo.journal.write_raw("deadbeef", b'{"txid": "deadbe')
        plan = FaultPlan([FaultPoint(site="journal.write", action="torn", offset=7)])
        with inject(plan), pytest.raises(CrashSimulated):
            repo.journal.record("commit", chunks=["aa"], files=[])
        entries = repo.journal.pending()
        assert len(entries) == 2, backend
        assert entries[0].txid == "deadbeef"
        assert all(e.data is None and e.op is None for e in entries)
        repo.close()


def test_replay_rolls_back_unmarked_commit(repo_target):
    repo = Repository.init(repo_target)
    repo.commit(_net(0), name="m", message="v1")
    # Fabricate the stored state of a commit that died after landing its
    # chunks but before the catalog transaction: orphan chunks + intent.
    orphan = repo.store.put(b"orphaned plane bytes")
    repo.journal.record("commit", name="ghost", chunks=[orphan], files=[])
    repo.close()

    repo = Repository.open(repo_target)
    assert repo.last_replay["rolled_back"] == 1
    assert repo.last_replay["swept_chunks"] == 1
    assert orphan not in repo.store
    assert [v.message for v in repo.list_versions()] == ["v1"]
    repo.close()


def test_replay_keeps_chunks_the_catalog_references(repo_target):
    repo = Repository.init(repo_target)
    repo.commit(_net(0), name="m", message="v1")
    referenced = repo.catalog.all_payloads()[0]["chunks"][0]
    # An intent listing an already-referenced chunk (e.g. dedup with a
    # prior commit) must NOT sweep it.
    repo.journal.record("commit", name="ghost", chunks=[referenced], files=[])
    repo.close()
    repo = Repository.open(repo_target)
    assert referenced in repo.store
    assert repo.get_snapshot_weights(1)
    repo.close()


def test_replay_discards_torn_intent(repo_target):
    repo = Repository.init(repo_target)
    repo.commit(_net(0), name="m", message="v1")
    repo.journal.write_raw("ffff", b'{"broken')
    repo.close()
    repo = Repository.open(repo_target)
    assert repo.journal.pending() == []
    assert repo.last_replay["retired"] == 1
    repo.close()


def test_successful_commit_leaves_no_journal(repo_target):
    repo = Repository.init(repo_target)
    seen = []
    real = repo.catalog.transaction

    @contextlib.contextmanager
    def transaction():
        with real():
            seen.append(len(repo.journal.pending()))
            yield
            seen.append(len(repo.journal.pending()))

    repo.catalog.transaction = transaction
    repo.commit(_net(0), name="m", message="v1")
    # The intent was pending when the commit's one transaction began,
    # and that transaction retired it: nothing is left to replay.
    assert seen == [1, 0]
    assert repo.journal.pending() == []
    assert not repo.catalog._conn.execute(
        "SELECT 1 FROM sqlite_master WHERE name = 'commit_marker'"
    ).fetchone()
    repo.close()


def test_replay_sweeps_a_rolled_back_commits_files(repo_target, tmp_path):
    kept, doomed = tmp_path / "kept.txt", tmp_path / "doomed.txt"
    kept.write_text("kept by v1")
    doomed.write_text("only the crashed commit names me")
    repo = Repository.init(repo_target)
    repo.add_files([kept])
    v1 = repo.commit(_net(0), name="m", message="v1")
    repo.add_files([kept, doomed])
    plan = FaultPlan([FaultPoint(site="catalog.commit", action="crash")])
    with inject(plan), pytest.raises(CrashSimulated):
        repo.commit(_net(1), name="m", message="v2")
    shas = {repo.files.address(p.read_bytes()): p for p in (kept, doomed)}
    assert set(shas) <= set(repo.files.addresses())  # landed, uncommitted
    repo.close()

    repo = Repository.open(repo_target)
    assert repo.last_replay["rolled_back"] == 1
    assert repo.last_replay["swept_files"] == 1
    assert list(repo.files.addresses()) == [v1.files["kept.txt"]]
    assert repo.get_file(v1.files["kept.txt"]) == kept.read_bytes()
    repo.close()


def test_commit_names_missing_staged_file(repo_target, tmp_path):
    repo = Repository.init(repo_target)
    doomed = tmp_path / "notes.txt"
    doomed.write_text("about to vanish")
    repo.add_files([doomed])
    doomed.unlink()
    with pytest.raises(FileNotFoundError, match="notes.txt"):
        repo.commit(_net(0), name="m", message="v1")
    # Nothing landed: the failure happened before any write.
    assert repo.list_versions() == []
    assert list(repo.store.addresses()) == []
    repo.close()


def test_chunkstore_sweeps_stale_tmps_on_open(tmp_path):
    store = ChunkStore(tmp_path / "chunks")
    sha = store.put(b"payload")
    (store.root / "pack-9999-0.tmp").write_bytes(b"partial")
    assert store.sweep_stale_tmps() == 1
    # ... and a fresh open sweeps automatically.
    (store.root / "pack-9999-1.tmp").write_bytes(b"partial")
    reopened = ChunkStore(tmp_path / "chunks")
    assert not list(reopened.root.glob("*.tmp"))
    assert sha in reopened


def test_chunkstore_tmp_names_are_unique(tmp_path):
    """Two writers of the same content must never share a tmp path."""
    import repro.core.chunkstore as cs

    a = next(cs._tmp_counter)
    b = next(cs._tmp_counter)
    assert a != b
    store = ChunkStore(tmp_path / "chunks")
    assert store.put(b"x") == store.put(b"x")  # idempotent dedup


def test_stats_surface_journal_counters(tmp_path, capsys):
    """`dlv stats` shows journal replay activity (the obs wiring)."""
    from repro.dlv.cli import main as dlv_main
    from repro.obs.metrics import counter

    repo = Repository.init(str(tmp_path / "repo"))
    repo.commit(_net(0), name="m", message="v1")
    orphan = repo.store.put(b"orphan")
    repo.journal.record("commit", chunks=[orphan], files=[])
    repo.close()
    before = counter("journal.rollbacks").value
    Repository.open(str(tmp_path / "repo")).close()  # replay happens here
    assert counter("journal.rollbacks").value == before + 1
    code = dlv_main(["--repo", str(tmp_path / "repo"), "stats", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["metrics"]["counters"].get("journal.rollbacks", 0) >= 1
