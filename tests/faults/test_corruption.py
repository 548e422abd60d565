"""Silent-corruption tests: bit flips must never make a snapshot unreadable.

An archived repository stores most matrices as delta chains — one corrupt
blob would classically poison every descendant.  The replica tier (exact
copies of planes 0-1) and zero-fill degradation (planes >= 1) are the
designed-in redundancy; these tests flip real bits on disk and assert
retrieval survives, exactly and approximately respectively, with the
recovery visible in the ``repro.obs`` counters that ``dlv stats`` prints.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn.zoo import tiny_mlp
from repro.faults import FaultPlan, FaultPoint, inject
from repro.obs.metrics import counter


@pytest.fixture
def archived_repo(repo):
    """Two related versions with *different* weights, archived so real
    (nonzero) delta chains exist — identical weights would dedup every
    delta plane into one replicated zero blob and hide the low-plane
    degradation path."""
    net = tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=4, name="m"
    ).build(0)
    v1 = repo.commit(net, name="m", message="v1")
    rng = np.random.default_rng(7)
    finetuned = {
        layer: {
            key: value + rng.normal(0, 0.01, value.shape).astype(value.dtype)
            for key, value in params.items()
        }
        for layer, params in net.get_weights().items()
    }
    net.set_weights(finetuned)
    repo.commit(net, name="m-ft", message="fork", parent=v1)
    repo.archive(alpha=2.0)
    return repo


def _delta_payload(repo):
    deltas = [
        p for p in repo.catalog.all_payloads() if p["kind"] != "materialize"
    ]
    assert deltas, "archive produced no delta chains"
    return deltas[0]


def test_corrupt_high_plane_recovers_exactly(archived_repo, corrupt_blob):
    repo = archived_repo
    payload = _delta_payload(repo)
    baseline = repo.archive_view().recreate_matrix(payload["matrix_id"])
    corrupt_blob(repo, payload["chunks"][0], xor=0x10)  # plane 0 is replicated

    before = counter("recovery.replica_reads").value
    archive = repo.archive_view()
    value = archive.recreate_matrix(payload["matrix_id"])
    np.testing.assert_array_equal(value, baseline)
    assert counter("recovery.replica_reads").value > before
    assert archive.recovery and not archive.recovery.degraded
    event = archive.recovery.events[0]
    assert event.action == "replica" and event.exact


def test_corrupt_high_plane_bounds_recover_from_replica(
    archived_repo, corrupt_blob
):
    """``matrix_bounds`` takes the same replica fallback as full reads: a
    corrupt plane-0 chunk must not fail every progressive request."""
    repo = archived_repo
    payload = _delta_payload(repo)
    exact = repo.archive_view().recreate_matrix(payload["matrix_id"])
    corrupt_blob(repo, payload["chunks"][0], xor=0x10)

    archive = repo.archive_view()
    lo, hi = archive.matrix_bounds(payload["matrix_id"], 2)
    # Bounds compose in float64 while the exact value is a float32 sum.
    slack = 1e-6 * np.abs(exact).max()
    assert np.all(lo - slack <= exact) and np.all(exact <= hi + slack)
    assert [e.action for e in archive.recovery.events] == ["replica"]


def test_corrupt_low_plane_degrades_gracefully(archived_repo, corrupt_blob):
    repo = archived_repo
    # Not replicated: only zero-fill saves it.
    low_plane = repo.archive_view().replicate_planes + 1
    payload = next(
        p
        for p in repo.catalog.all_payloads()
        if p["kind"] != "materialize"
        and p["chunks"][low_plane] not in repo.replica
    )
    baseline = repo.archive_view().recreate_matrix(payload["matrix_id"])
    corrupt_blob(repo, payload["chunks"][low_plane], xor=0x10)

    before = counter("recovery.degraded_planes").value
    archive = repo.archive_view()
    value = archive.recreate_matrix(payload["matrix_id"])
    # Low-order mantissa plane lost: approximate but close, never garbage.
    np.testing.assert_allclose(value, baseline, atol=1e-3)
    assert counter("recovery.degraded_planes").value > before
    assert archive.recovery.degraded


def test_every_snapshot_survives_single_blob_corruption(archived_repo, corrupt_blob):
    """The acceptance criterion: flip ONE non-root blob; all snapshots load."""
    repo = archived_repo
    payload = _delta_payload(repo)
    corrupt_blob(repo, payload["chunks"][1], xor=0x10)
    for version in repo.list_versions():
        weights = repo.get_snapshot_weights(version.id)
        assert weights, f"{version.ref} became unreadable"


def test_bitflip_fault_at_write_time_is_caught_later(repo):
    """A bitflip injected during the chunk write is latent corruption."""
    net = tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=4, name="m"
    ).build(0)
    plan = FaultPlan(
        [FaultPoint(site="chunkstore.put.write", op=2, action="bitflip", bit=13)]
    )
    with inject(plan):
        repo.commit(net, name="m", message="v1")
    assert [f.action for f in plan.fired] == ["bitflip"]
    corrupt = [
        sha for sha in repo.store.addresses()
        if not repo.store.verify_blob(sha)
    ]
    assert len(corrupt) == 1
    # ... and retrieval still serves every snapshot (replica or zero-fill).
    weights = repo.get_snapshot_weights(1)
    assert weights
