"""Older repositories fold into the current format on open.

Format 2 kept associated files outside the blob tiers (raw
``files/<sha>`` on local-fs, a ``store_file`` table on sqlite), kept
local-fs intents as ``journal/<txid>.json`` files, and told a finished
commit's pending intent apart by a ``commit_marker`` row.  The layouts
are rebuilt here by hand from a current repository, with two pending
commit intents each: one for a commit that never reached the catalog
(its orphans must be swept) and one for a commit whose marker row
exists (none of its blobs or files may be swept).

Format 3 mirrored a paged plane of planes 0-1 whole, under its
manifest's plane digest; format 4 mirrors its page blobs instead, each
under its own address, and the open that upgrades copies them once.
"""

from __future__ import annotations

import json
import os
import sqlite3
import uuid
import zlib

import pytest

from repro.core.storage.base import CONFIG_DOC, FORMAT
from repro.dedup.pages import manifest_shas
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.faults import CrashSimulated, FaultPlan, FaultPoint, inject
from tests.dedup.test_dedup import _commit_family
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
    assert repo.format == FORMAT == 4
    assert repo.backend.read_config()["format"] == 4
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


# -- format 3: whole-plane mirrors of paged planes -----------------------------


def _page_mirrors(repo) -> set[str]:
    """The page blobs planes 0-1 of the page manifests reference."""
    mirrored = repo.archive_view().replicate_planes
    return {
        sha
        for _matrix, plane, man in repo.catalog.all_page_manifests()
        if plane < mirrored
        for sha in manifest_shas(man)
    }


def _format_3_repo(target, tmp_path):
    """A dedup-archived family rebuilt as format 3 left it: its paged
    planes 0-1 mirrored whole, none of their pages mirrored.  Returns
    the exports, the whole-plane mirrors and the page mirrors."""
    repo = Repository.init(target)
    _commit_family(repo, n=4)  # planes of several pages
    repo.archive(alpha=4.0, dedup=True)
    repo.gc()
    before = _exports(repo, tmp_path / "before")
    archive = repo.archive_view()
    chunks, _replica, _pages, _files = repo.live_addresses()
    planes = {}
    for entry in archive.manifest.values():
        if entry.kind == "pages":
            for index in range(archive.replicate_planes):
                data = archive._read_plane(entry, index)[0]
                planes[archive.plane_address(entry, index)] = data
    pages = _page_mirrors(repo)
    assert pages - chunks - planes.keys()
    assert repo.replica.delete_many(pages - chunks - planes.keys())
    repo.replica.put_many(planes.values())
    config = repo.backend.read_config()
    repo.backend.write_doc(
        CONFIG_DOC, json.dumps({**config, "format": 3}).encode()
    )
    repo.close()
    return before, set(planes) - pages - chunks, pages


def _replica_state(repo):
    """What a write to the replica would change: its addresses and
    bytes, and on local-fs its pack files."""
    listing = (
        sorted(os.listdir(repo.dlv_dir / "replica")) if repo.dlv_dir else None
    )
    return sorted(repo.replica.addresses()), repo.replica.total_size(), listing


@pytest.mark.parametrize("backend", ["local-fs", "sqlite"])
@pytest.mark.parametrize("crash", [False, True])
def test_format_3_mirrors_page_blobs_on_open(
    make_repo_target, tmp_path, backend, crash
):
    target = make_repo_target(backend)
    before, whole, pages = _format_3_repo(target, tmp_path)
    assert whole
    if crash:  # inside the step: its replica write dies, nothing lands
        plan = FaultPlan(
            [FaultPoint(site="chunkstore.put.write", action="crash")]
        )
        with inject(plan), pytest.raises(CrashSimulated):
            Repository.open(target)
        assert [f.site for f in plan.fired] == ["chunkstore.put.write"]

    repo = Repository.open(target)
    assert repo.format == 4 and repo.backend.read_config()["format"] == 4
    assert pages <= set(repo.replica.addresses())
    assert whole <= set(repo.replica.addresses())  # orphans until gc
    state = _replica_state(repo)
    repo.close()

    repo = Repository.open(target)  # the step ran once
    assert _replica_state(repo) == state
    repo.gc()
    assert not whole & set(repo.replica.addresses())
    assert set(repo.replica.addresses()) == repo.live_addresses()[1]
    assert run_fsck(repo).findings == []
    assert _exports(repo, tmp_path / "after") == before
    repo.close()
