"""The replica tier mirrors blobs, not planes.

Every blob that planes 0-1 of a live payload reference — the chunk of a
chunk-stored plane, each base and patch page of a paged one — has a
second copy in the replica under its own address, and nothing else is
kept there.  So recovery is one rule for every blob: a blob that fails
in its tier is read from the replica at the same address, and ``fsck
--repair`` copies it back, without re-materializing anything.
"""

from __future__ import annotations

import pytest

from repro.dedup.pages import manifest_shas
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.obs.metrics import counter
from tests.conftest import STORE_BACKENDS
from tests.dedup.test_dedup import _commit_family


@pytest.fixture(params=STORE_BACKENDS)
def family(request, make_repo_target):
    """Four unrelated near-twins archived with ``--dedup`` and collected:
    planes of two pages, shared plane-0 bases, plane-1 patches."""
    repo = Repository.init(make_repo_target(request.param))
    _commit_family(repo, n=4)
    repo.archive(alpha=4.0, dedup=True)
    repo.gc()
    yield repo
    repo.close()


def _mirrored(repo) -> dict[str, set[str]]:
    """``address -> matrices`` of every blob planes 0-1 reference."""
    mirrored = repo.archive_view().replicate_planes
    holders: dict[str, set[str]] = {}
    for payload in repo.catalog.all_payloads():
        for sha in payload["chunks"][:mirrored]:
            holders.setdefault(sha, set()).add(payload["matrix_id"])
    for matrix_id, plane, man in repo.catalog.all_page_manifests():
        if plane < mirrored:
            for sha in manifest_shas(man):
                holders.setdefault(sha, set()).add(matrix_id)
    return holders


def _weights(repo) -> dict:
    return {
        (version.name, layer, key): value.tobytes()
        for version in repo.list_versions()
        for layer, params in repo.get_snapshot_weights(version.id).items()
        for key, value in params.items()
    }


def _victim(repo, blob: str) -> tuple[str, str]:
    """``(tier, address)`` of one blob of planes 0-1: a chunk, the base
    page of plane 0 the most paged matrices share, or a plane-1 patch."""
    mirrored = repo.archive_view().replicate_planes
    if blob == "chunk":
        payload = next(
            p for p in repo.catalog.all_payloads() if p["kind"] != "pages"
        )
        return "chunks", payload["chunks"][mirrored - 1]
    holders: dict[str, set[str]] = {}
    for matrix_id, plane, man in repo.catalog.all_page_manifests():
        for base, patch in man["pages"]:
            if blob == "base" and plane == 0:
                holders.setdefault(base, set()).add(matrix_id)
            elif blob == "patch" and plane == 1 and patch:
                holders.setdefault(patch, set()).add(matrix_id)
    return "pages", max(holders, key=lambda sha: (len(holders[sha]), sha))


def test_replica_holds_exactly_the_mirrored_blobs(family):
    repo = family
    assert set(repo.replica.addresses()) == set(_mirrored(repo))
    # No whole-plane copy of a paged plane of several pages.
    planes = {
        man["sha"] for _m, _plane, man in repo.catalog.all_page_manifests()
        if len(man["pages"]) > 1
    }
    assert planes and not planes & set(repo.replica.addresses())


@pytest.mark.parametrize("damage", ["lost", "corrupt"])
@pytest.mark.parametrize("blob", ["chunk", "base", "patch"])
def test_lost_blob_reads_exact_and_is_restored_as_it_was(
    family, corrupt_blob, blob, damage
):
    """Any one blob of planes 0-1 read from the replica at its own
    address, exactly; ``fsck --repair`` copies it back and rewrites no
    payload."""
    repo = family
    before = _weights(repo)
    kinds = {p["matrix_id"]: p["kind"] for p in repo.catalog.all_payloads()}
    tier, sha = _victim(repo, blob)
    store = repo.store if tier == "chunks" else repo.pages
    original = store.get(sha)
    if damage == "lost":
        assert store.delete(sha)
    else:
        corrupt_blob(repo, sha, ns=tier)

    archive = repo.archive_view()
    for snapshot in archive._snapshots:
        archive.recreate_snapshot(snapshot)
    assert archive.recovery and not archive.recovery.degraded
    assert {(e.sha, e.action) for e in archive.recovery.events} == {
        (sha, "replica")
    }
    assert _weights(repo) == before

    rematerialized = counter("fsck.rematerialized").value
    report = run_fsck(repo, repair=True)
    assert report.clean
    repairs = [f for f in report.findings if f.sha == sha]
    assert repairs and all(
        f.repair == "restored from replica" for f in repairs
    )
    assert counter("fsck.rematerialized").value == rematerialized
    assert store.get(sha) == original
    assert {
        p["matrix_id"]: p["kind"] for p in repo.catalog.all_payloads()
    } == kinds
    assert _weights(repo) == before
    assert run_fsck(repo).findings == []


def test_shared_base_page_is_restored_from_replica(family, corrupt_blob):
    """A corrupt plane-0 base page that several paged matrices share is
    restored from its replica copy: every holder stays paged and reads
    back bit-exact."""
    repo = family
    before = _weights(repo)
    _tier, base = _victim(repo, "base")
    holders = {
        matrix_id for matrix_id, plane, man in repo.catalog.all_page_manifests()
        if plane == 0 and any(b == base for b, _patch in man["pages"])
    }
    assert len(holders) > 1
    page = repo.pages.get(base)
    corrupt_blob(repo, base, ns="pages")

    report = run_fsck(repo, repair=True)
    assert report.clean
    finding = next(f for f in report.findings if f.code == "F401")
    assert finding.repaired and finding.repair == "restored from replica"
    assert repo.pages.get(base) == page
    for matrix_id in holders:
        assert repo.catalog.get_payload(matrix_id)["kind"] == "pages"
    assert _weights(repo) == before
    assert run_fsck(repo).findings == []


def test_lost_patch_page_of_plane_1_reads_exact(family):
    repo = family
    _tier, patch = _victim(repo, "patch")
    archive = repo.archive_view()
    entry, index = next(
        (entry, index) for entry in archive.manifest.values()
        if entry.kind == "pages"
        for index, man in entry.pages.items()
        if index == 1 and any(p == patch for _base, p in man["pages"])
    )
    intact = archive._read_plane(entry, index)
    assert repo.pages.delete(patch)

    assert archive._fetch_plane(entry, index) == intact
    (event,) = archive.recovery.events
    assert (event.sha, event.plane, event.action, event.exact) == (
        patch, 1, "replica", True
    )
