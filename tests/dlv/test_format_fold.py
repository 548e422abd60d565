"""Format 2 repositories fold into format 3 on open.

Format 2 kept associated files outside the blob tiers (raw
``files/<sha>`` on local-fs, a ``store_file`` table on sqlite), kept
local-fs intents as ``journal/<txid>.json`` files, and told a finished
commit's pending intent apart by a ``commit_marker`` row.  The layouts
are rebuilt here by hand from a format-3 repository, with two pending
commit intents each: one for a commit that never reached the catalog
(its orphans must be swept) and one for a commit whose marker row
exists (none of its blobs or files may be swept).
"""

from __future__ import annotations

import json
import sqlite3
import uuid
import zlib

import pytest

from repro.core.storage.base import CONFIG_DOC, FORMAT
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from tests.dlv.test_packs import _chain, _exports


def _files_repo(target, tmp_path):
    """Two versions with associated files, archived with ``--dedup``;
    returns the repo (open), the exports and ``sha -> content``."""
    repo = Repository.init(target)
    notes = tmp_path / "notes.txt"
    notes.write_text("shared by both versions")
    script = tmp_path / "train.sh"
    script.write_text("#!/bin/sh\necho v2\n")
    repo.add_files([notes])
    _chain(repo, 1)
    repo.add_files([notes, script])
    _chain(repo, 1, seed=1)
    repo.archive(alpha=2.0, dedup=True)
    files = {
        sha: repo.get_file(sha)
        for version in repo.list_versions()
        for sha in version.files.values()
    }
    assert len(files) == 2
    return repo, _exports(repo, tmp_path / "before"), files


def _intents(repo):
    """A dead commit's intent with its landed orphans, and a finished
    commit's intent with its marker: ``(dead, finished, orphans)``."""
    orphan_chunk = repo.store.put(b"plane bytes of a commit that died")
    finished = repo.list_versions()[-1]
    chunks = sorted({
        sha
        for matrix in repo.catalog.get_matrices(finished.id)
        for sha in repo.catalog.get_payload(matrix["matrix_id"])["chunks"]
    })
    orphan_file = b"a file only the dead commit staged"
    dead = {
        "txid": uuid.uuid4().hex, "op": "commit", "name": "dead",
        "chunks": [orphan_chunk], "files": [repo.files.address(orphan_file)],
    }
    done = {
        "txid": uuid.uuid4().hex, "op": "commit", "name": finished.name,
        "chunks": chunks, "files": sorted(finished.files.values()),
    }
    return dead, done, (orphan_chunk, orphan_file)


def _add_marker(conn, txid) -> None:
    conn.execute(
        "CREATE TABLE commit_marker (txid TEXT PRIMARY KEY, "
        "version_id INTEGER NOT NULL, created_at TEXT NOT NULL DEFAULT '')"
    )
    conn.execute("INSERT INTO commit_marker VALUES (?, 2, '')", (txid,))
    conn.commit()


def _assert_folded(repo, tmp_path, before, files, orphans) -> None:
    orphan_chunk, orphan_file = orphans
    assert repo.format == FORMAT == 3
    assert repo.backend.read_config()["format"] == 3
    assert repo.last_replay["rolled_back"] == 2
    assert repo.last_replay["swept_chunks"] == 1
    assert repo.last_replay["swept_files"] == 1
    assert orphan_chunk not in repo.store
    assert repo.files.address(orphan_file) not in repo.files
    assert repo.journal.pending() == []
    assert sorted(repo.files.addresses()) == sorted(files)
    for sha, content in files.items():
        assert repo.get_file(sha) == content
    assert _exports(repo, tmp_path / "after") == before
    assert run_fsck(repo).findings == []


def test_local_fs_format_2_folds_files_and_intents(tmp_path):
    root = tmp_path / "r"
    repo, before, files = _files_repo(str(root), tmp_path)
    dead, done, orphans = _intents(repo)
    repo.close()

    # Rebuild format 2: raw associated files (and the dead commit's
    # orphan), intent files, the marker row, the config's format.
    dlv = root / ".dlv"
    for pack in (dlv / "files").iterdir():
        pack.unlink()
    for sha, content in files.items():
        (dlv / "files" / sha).write_bytes(content)
    orphan_file = orphans[1]
    (dlv / "files" / dead["files"][0]).write_bytes(orphan_file)
    (dlv / "journal").mkdir()
    for intent in (dead, done):
        (dlv / "journal" / f"{intent['txid']}.json").write_text(
            json.dumps(intent)
        )
    conn = sqlite3.connect(dlv / "catalog.db")
    conn.execute("DROP TABLE store_journal")
    _add_marker(conn, done["txid"])
    conn.close()
    config = json.loads((dlv / CONFIG_DOC).read_text())
    (dlv / CONFIG_DOC).write_text(json.dumps({**config, "format": 2}))

    repo = Repository.open(str(root))
    assert not (dlv / "journal").exists()
    assert [p.suffix for p in (dlv / "files").iterdir()] == [".pack"]
    _assert_folded(repo, tmp_path, before, files, orphans)
    repo.close()


@pytest.mark.parametrize("site", ["chunkstore.fold.unlink", "journal.fold.unlink"])
def test_local_fs_fold_crash_then_reopen_folds_again(tmp_path, site):
    from repro.faults import CrashSimulated, FaultPlan, FaultPoint, inject

    root = tmp_path / "r"
    repo, before, files = _files_repo(str(root), tmp_path)
    repo.close()
    dlv = root / ".dlv"
    for pack in (dlv / "files").iterdir():
        pack.unlink()
    for sha, content in files.items():
        (dlv / "files" / sha).write_bytes(content)
    (dlv / "journal").mkdir()
    intent = {"txid": uuid.uuid4().hex, "op": "archive"}
    (dlv / "journal" / f"{intent['txid']}.json").write_text(json.dumps(intent))
    config = json.loads((dlv / CONFIG_DOC).read_text())
    (dlv / CONFIG_DOC).write_text(json.dumps({**config, "format": 2}))

    plan = FaultPlan([FaultPoint(site=site, action="crash")])
    with inject(plan), pytest.raises(CrashSimulated):
        Repository.open(str(root))
    assert json.loads((dlv / CONFIG_DOC).read_text())["format"] == 2

    repo = Repository.open(str(root))
    assert repo.last_replay["retired"] == 1
    assert not (dlv / "journal").exists()
    assert sorted(repo.files.addresses()) == sorted(files)
    assert _exports(repo, tmp_path / "after") == before
    assert run_fsck(repo).findings == []
    repo.close()


def test_sqlite_format_2_folds_file_rows(tmp_path):
    db = tmp_path / "r.db"
    repo, before, files = _files_repo(f"sqlite://{db}", tmp_path)
    dead, done, orphans = _intents(repo)
    for intent in (dead, done):
        repo.journal.write_raw(intent["txid"], json.dumps(intent).encode())
    repo.close()

    # Rebuild format 2: file rows (raw bytes) outside the blob tiers,
    # the dead commit's orphan among them, the marker row, the format.
    conn = sqlite3.connect(db)
    conn.execute(
        "CREATE TABLE store_file (sha TEXT NOT NULL PRIMARY KEY, "
        "data BLOB NOT NULL)"
    )
    rows = conn.execute(
        "SELECT sha, data FROM store_blob WHERE ns = 'files'"
    ).fetchall()
    conn.executemany(
        "INSERT INTO store_file VALUES (?, ?)",
        [(sha, zlib.decompress(data)) for sha, data in rows]
        + [(dead["files"][0], orphans[1])],
    )
    conn.execute("DELETE FROM store_blob WHERE ns = 'files'")
    _add_marker(conn, done["txid"])
    (config,) = conn.execute(
        "SELECT data FROM store_doc WHERE name = ?", (CONFIG_DOC,)
    ).fetchone()
    conn.execute(
        "UPDATE store_doc SET data = ? WHERE name = ?",
        (json.dumps({**json.loads(config), "format": 2}).encode(), CONFIG_DOC),
    )
    conn.commit()
    conn.close()

    repo = Repository.open(f"sqlite://{db}")
    tables = {
        row[0] for row in repo.catalog._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    assert not tables & {"store_file", "commit_marker"}
    _assert_folded(repo, tmp_path, before, files, orphans)
    repo.close()
