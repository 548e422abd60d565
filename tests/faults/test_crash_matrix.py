"""Crash-matrix property tests: crash at EVERY instrumented op.

The protocol's whole claim is that no crash point loses committed data or
leaves an inconsistent repository.  So: measure how many instrumented
filesystem operations a scenario performs, then replay it once per op
index with a simulated hard crash at that index, reopen the repository
(journal replay), and assert the invariants:

* every plane the writer mirrors still has its replica copy, and page
  refcounts equal a recount from the manifests — before any repair;
* fsck is clean (or repairs to clean);
* every version the catalog lists has loadable weights — a commit is
  either fully present or fully absent;
* the weights of every version the scenario does not rewrite are
  byte-identical to before.

Seven verbs run through the matrix: commit, archive, archive --dedup,
convert, prune, ``fsck --repair`` re-materialization, and a commit that
shares plane content with page-encoded matrices.
"""

from __future__ import annotations

import shutil
import uuid
from pathlib import Path

import numpy as np
import pytest

from repro.core.storage import memory as memstore
from repro.dedup.pages import manifest_shas
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.dnn.training import SGDConfig, Trainer
from repro.dnn.zoo import tiny_mlp
from repro.faults import CrashSimulated, FaultPlan, inject

BACKENDS = ("local-fs", "sqlite", "memory")


def _tiny_net(seed: int):
    return tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=4, name="crashy"
    ).build(seed)


def _base_target(backend, base):
    if backend == "local-fs":
        return str(base / "base")
    if backend == "sqlite":
        return f"sqlite://{base / 'base.db'}"
    return f"mem://crash-base-{uuid.uuid4().hex}"


def _latest_weights(repo, *version_ids):
    return {vid: repo.get_snapshot_weights(vid) for vid in version_ids}


@pytest.fixture(scope="module", params=BACKENDS)
def base_repo(request, tmp_path_factory):
    """A one-version repository, committed once and cloned per scenario."""
    target = _base_target(request.param, tmp_path_factory.mktemp("crash-matrix"))
    repo = Repository.init(target)
    repo.commit(_tiny_net(0), name="m", message="v1")
    baseline = _latest_weights(repo, 1)
    repo.close()
    yield target, baseline
    _discard(target)


def _clone(base_target, dest):
    """Copy the base repository; returns a fresh reopen target."""
    if base_target.startswith("mem://"):
        name = f"crash-clone-{uuid.uuid4().hex}"
        memstore.clone(base_target[len("mem://"):], name)
        return f"mem://{name}"
    if base_target.startswith("sqlite://"):
        db = Path(dest).with_suffix(".db")
        shutil.copy2(base_target[len("sqlite://"):], db)
        return f"sqlite://{db}"
    shutil.copytree(base_target, dest)
    return str(dest)


def _discard(target):
    """Free a scenario clone (only memory repos need explicit teardown)."""
    if target.startswith("mem://"):
        memstore.drop(target[len("mem://"):])


def _assert_consistent(root, baseline):
    """Reopen after a crash and check every crash-safety invariant."""
    repo = Repository.open(root)
    try:
        # Before fsck gets a chance to heal anything: every replicated
        # plane has its mirror, and refcounts equal a recount.
        mirrored = repo.archive_view().replicate_planes
        for payload in repo.catalog.all_payloads():
            for sha in payload["chunks"][:mirrored]:
                assert sha in repo.replica, (payload["matrix_id"], sha)
        for matrix_id, plane, man in repo.catalog.all_page_manifests():
            if plane < mirrored:
                assert man["sha"] in repo.replica, (matrix_id, plane)
        assert dict(repo.page_store().referenced_counts()) == (
            repo.catalog.page_refcounts()
        )
        report = run_fsck(repo)
        if not report.clean:
            report = run_fsck(repo, repair=True)
        assert report.clean, [f.to_dict() for f in report.findings]
        # Every version the catalog lists must be fully usable.
        versions = repo.list_versions()
        assert versions, "pre-existing version disappeared"
        for version in versions:
            weights = repo.get_snapshot_weights(version.id)
            assert weights
        # What the scenario does not rewrite is bit-identical to before.
        for version_id, weights in baseline.items():
            recovered = repo.get_snapshot_weights(version_id)
            for layer, params in weights.items():
                for key, value in params.items():
                    np.testing.assert_array_equal(recovered[layer][key], value)
        return len(versions)
    finally:
        repo.close()


def _measure_ops(base_root, tmp_path, scenario) -> int:
    root = _clone(base_root, tmp_path / "measure")
    repo = Repository.open(root)
    plan = FaultPlan()  # counts ops, never faults
    with inject(plan):
        scenario(repo)
    repo.close()
    _discard(root)
    assert plan.ops > 0, "scenario exercised no instrumented ops"
    return plan.ops


def _commit_scenario(repo):
    repo.commit(_tiny_net(2), name="m", message="v2")


def _archive_scenario(repo):
    repo.archive(alpha=4.0)


def _run_matrix(base_repo, tmp_path, scenario, label):
    base_root, baseline = base_repo
    total_ops = _measure_ops(base_root, tmp_path, scenario)
    outcomes = set()
    for n in range(total_ops):
        root = _clone(base_root, tmp_path / f"{label}-{n}")
        repo = Repository.open(root)
        plan = FaultPlan.crash_at_op(n)
        try:
            with inject(plan):
                scenario(repo)
        except CrashSimulated:
            pass
        finally:
            repo.close()
        assert plan.crashed, f"crash at op {n} never fired"
        outcomes.add(_assert_consistent(root, baseline))
        _discard(root)
    return total_ops, outcomes


def test_commit_crash_matrix(base_repo, tmp_path):
    total_ops, outcomes = _run_matrix(
        base_repo, tmp_path, _commit_scenario, "commit"
    )
    # Early crashes roll the commit back (1 version); a crash after the
    # catalog marker but before journal cleanup keeps it (2 versions).
    assert outcomes <= {1, 2}, outcomes
    assert 1 in outcomes, "no crash point ever rolled the commit back"
    assert total_ops > 10


def test_archive_crash_matrix(base_repo, tmp_path):
    _, outcomes = _run_matrix(
        base_repo, tmp_path, _archive_scenario, "archive"
    )
    # Archival never changes the version count; it must just survive.
    assert outcomes == {1}


def test_crash_after_marker_keeps_commit(base_repo, tmp_path):
    """The marker is the commit point: a post-marker crash keeps v2."""
    base_root, baseline = base_repo
    total_ops = _measure_ops(base_root, tmp_path, _commit_scenario)
    root = _clone(base_root, tmp_path / "post-marker")
    repo = Repository.open(root)
    plan = FaultPlan.crash_at_op(total_ops - 1)  # journal retire
    try:
        with inject(plan):
            _commit_scenario(repo)
    except CrashSimulated:
        pass
    finally:
        repo.close()
    repo = Repository.open(root)
    try:
        assert repo.last_replay["retired"] >= 1
        names = [v.message for v in repo.list_versions()]
        assert names == ["v1", "v2"]
        assert repo.get_snapshot_weights(2)
    finally:
        repo.close()


# -- dedup archive ------------------------------------------------------------------


def _perturbed_net(seed: int):
    """A near-identical sibling of ``_tiny_net(0)`` (page-dedup bait)."""
    net = _tiny_net(0)
    rng = np.random.default_rng(seed)
    weights = net.get_weights()
    for params in weights.values():
        for arr in params.values():
            flat = arr.reshape(-1)
            idx = rng.choice(flat.size, size=max(1, flat.size // 16),
                             replace=False)
            flat[idx] += rng.normal(0, 0.01, size=idx.size).astype(flat.dtype)
    net.set_weights(weights)
    return net


@pytest.fixture(scope="module", params=BACKENDS)
def dedup_base_repo(request, tmp_path_factory):
    """Two near-identical versions, so a dedup archive pages at least one."""
    target = _base_target(request.param, tmp_path_factory.mktemp("crash-dedup"))
    repo = Repository.init(target)
    repo.commit(_tiny_net(0), name="m", message="v1")
    repo.commit(_perturbed_net(5), name="m2", message="v2")
    baseline = _latest_weights(repo, 1, 2)
    repo.close()
    yield target, baseline
    _discard(target)


def _dedup_archive_scenario(repo):
    repo.archive(alpha=4.0, dedup=True)


def test_dedup_archive_crash_matrix(dedup_base_repo, tmp_path):
    """Page blobs, manifests, and refcounts survive a crash at every op."""
    _, outcomes = _run_matrix(
        dedup_base_repo, tmp_path, _dedup_archive_scenario, "dedup"
    )
    # A dedup archive never changes the version count.
    assert outcomes == {2}


def test_dedup_archive_pages_and_refcounts_consistent(dedup_base_repo, tmp_path):
    """Sanity: the scenario actually pages payloads, and a completed run
    leaves refcounts exactly matching the manifests."""
    base_root, _baseline = dedup_base_repo
    root = _clone(base_root, tmp_path / "dedup-complete")
    repo = Repository.open(root)
    try:
        repo.archive(alpha=4.0, dedup=True)
        kinds = {p["kind"] for p in repo.catalog.all_payloads()}
        assert "pages" in kinds, kinds
        assert dict(repo.page_store().referenced_counts()) == (
            repo.catalog.page_refcounts()
        )
        report = run_fsck(repo)
        assert report.clean, [f.to_dict() for f in report.findings]
    finally:
        repo.close()
    _discard(root)


# -- over an already page-encoded repository ----------------------------------------


@pytest.fixture(scope="module")
def paged_base_repo(dedup_base_repo, tmp_path_factory):
    """``dedup_base_repo`` after its dedup archive: paged matrices exist."""
    base_root, baseline = dedup_base_repo
    target = _clone(base_root, tmp_path_factory.mktemp("crash-paged") / "base")
    repo = Repository.open(target)
    repo.archive(alpha=4.0, dedup=True)
    assert repo.catalog.all_page_manifests()
    repo.close()
    yield target, baseline
    _discard(target)


def _paged_version_net(repo):
    """The committed model whose matrices the dedup archive page-encoded."""
    paged = {m.split("/")[0] for m, _p, _man in repo.catalog.all_page_manifests()}
    return _tiny_net(0) if "v1" in paged else _perturbed_net(5)


def _sharing_commit_scenario(repo):
    # Identical content to a page-encoded version: the commit's journaled
    # chunk addresses equal the plane digests that version's page
    # manifests keep alive in the replica tier.
    repo.commit(_paged_version_net(repo), name="again", message="v3")


def test_sharing_commit_crash_matrix(paged_base_repo, tmp_path):
    """Rolling the commit back must not take live replica mirrors along."""
    _, outcomes = _run_matrix(
        paged_base_repo, tmp_path, _sharing_commit_scenario, "sharing"
    )
    assert outcomes == {2, 3}, outcomes


def _fsck_rematerialize_scenario(repo):
    # Lose a page only replicated planes reference: the repair must
    # re-materialize the payload, and the whole-plane mirror makes it exact.
    by_sha: dict[str, set[int]] = {}
    for _mid, plane, man in repo.catalog.all_page_manifests():
        for sha in manifest_shas(man):
            by_sha.setdefault(sha, set()).add(plane)
    mirrored = repo.archive_view().replicate_planes
    repo.pages.delete(min(
        sha for sha, planes in by_sha.items() if max(planes) < mirrored
    ))
    report = run_fsck(repo, repair=True)
    assert any(f.code == "F401" and f.repaired for f in report.findings)


def test_fsck_rematerialize_crash_matrix(paged_base_repo, tmp_path):
    _, outcomes = _run_matrix(
        paged_base_repo, tmp_path, _fsck_rematerialize_scenario, "fsck"
    )
    assert outcomes == {2}


# -- convert / prune over an archived lineage -----------------------------------------


@pytest.fixture(scope="module", params=BACKENDS)
def lineage_base_repo(request, tmp_path_factory):
    """v1 (four training snapshots) <- v2 <- v3, archived into delta chains."""
    target = _base_target(request.param, tmp_path_factory.mktemp("crash-lineage"))
    repo = Repository.init(target)
    net = _tiny_net(0)
    rng = np.random.default_rng(0)
    result = Trainer(
        net, SGDConfig(epochs=2, batch_size=8, snapshot_every=2)
    ).fit(
        rng.standard_normal((24, 1, 4, 4)).astype(np.float32),
        rng.integers(0, 3, 24),
    )
    assert len(result.snapshots) >= 4
    repo.commit(net, name="m", message="v1", train_result=result)
    repo.commit(_perturbed_net(5), name="m2", message="v2", parent=1)
    repo.commit(_perturbed_net(6), name="m3", message="v3", parent=2)
    repo.archive(alpha=4.0)
    parents = {p["parent"].rsplit("/", 1)[0] for p in repo.catalog.all_payloads()}
    assert {"v1/s1", "v2/s0"} <= parents  # both verbs must rebase a dependent
    baseline = _latest_weights(repo, 1, 2, 3)
    repo.close()
    yield target, baseline
    _discard(target)


def _convert_scenario(repo):
    repo.convert_snapshot_scheme(2, -1, "fixed8")


def test_convert_crash_matrix(lineage_base_repo, tmp_path):
    """Before or after, never between — and v2's delta neighbours stay exact."""
    base_root, baseline = lineage_base_repo
    untouched = {vid: w for vid, w in baseline.items() if vid != 2}
    _, outcomes = _run_matrix(
        (base_root, untouched), tmp_path, _convert_scenario, "convert"
    )
    assert outcomes == {3}


def _prune_scenario(repo):
    # Drops s1, which the archive made s2's delta base: s2 is rebased.
    assert repo.prune_snapshots(1, keep_every=2)["dropped"] == [1]


def test_prune_crash_matrix(lineage_base_repo, tmp_path):
    """Latest snapshots survive a crash at every op of a prune."""
    _, outcomes = _run_matrix(
        lineage_base_repo, tmp_path, _prune_scenario, "prune"
    )
    assert outcomes == {3}
