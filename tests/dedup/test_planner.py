"""The page planner's in-memory sketch index and its compression floor.

The similarity index over stored base pages is rebuilt from the page
manifests on every archive run; a page is compressed only when its best
patch has not already won against :func:`stored_size_floor`.  Neither
may change a plan, a page or a stored byte.
"""

from __future__ import annotations

import sqlite3
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import chunkstore
from repro.core.chunkstore import BlobCodec
from repro.core.segmentation import segment_planes
from repro.core.storage import memory as memstore
from repro.dedup import DedupEstimator, manifest_shas
from repro.dedup import store as page_store_module
from repro.dedup.pages import ONE_BLOCK_BYTES, stored_size_floor
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from tests.conftest import STORE_BACKENDS
from tests.dedup.test_dedup import (
    PINNED_DEDUP_RUNS,
    _layout_digest,
    _perturb,
)

# ---------------------------------------------------------------------------
# the floor


def _pages(draw_len):
    """Strategy: the page shapes the planner meets, at ``draw_len``."""

    def random_page(n, seed):
        return np.random.default_rng(seed).integers(
            0, 256, n, dtype=np.uint8).tobytes()

    def sparse_xor(n, seed):
        rng = np.random.default_rng(seed)
        out = np.zeros(n, np.uint8)
        hits = rng.choice(n, size=max(1, n // 50), replace=False)
        out[hits] = rng.integers(1, 256, hits.size, dtype=np.uint8)
        return out.tobytes()

    def run_heavy(n, seed):
        rng = np.random.default_rng(seed)
        runs = rng.integers(0, 4, n // 8 + 1, dtype=np.uint8)
        return np.repeat(runs, rng.integers(1, 16, runs.size))[:n].tobytes()

    def constant(n, seed):
        return bytes([seed % 256]) * n

    kinds = st.sampled_from([random_page, sparse_xor, run_heavy, constant])
    return st.builds(
        lambda kind, n, seed: (kind(n, seed) + bytes(n))[:n],
        kinds, draw_len, st.integers(0, 2**32 - 1),
    )


@settings(max_examples=300, deadline=None)
@given(_pages(st.integers(1, ONE_BLOCK_BYTES - 1)))
def test_floor_never_exceeds_the_stored_size(page):
    floor = stored_size_floor(page)
    assert 6 <= floor <= BlobCodec().stored_size_of(page)


@pytest.mark.parametrize("value", [0, 7, 255])
def test_floor_of_one_byte_pages(value):
    page = bytes([value])
    assert 6 <= stored_size_floor(page) <= BlobCodec().stored_size_of(page)


@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 4096, ONE_BLOCK_BYTES - 1])
def test_floor_at_the_block_edges(n):
    for page in (bytes(n), np.random.default_rng(n).integers(
            0, 256, n, dtype=np.uint8).tobytes()):
        assert stored_size_floor(page) <= BlobCodec().stored_size_of(page)


@settings(max_examples=25, deadline=None)
@given(_pages(st.integers(ONE_BLOCK_BYTES, 3 * ONE_BLOCK_BYTES)))
def test_no_floor_from_one_block_up(page):
    assert stored_size_floor(page) == 0


def test_floor_is_the_entropy_of_the_run_heads():
    # Four runs, heads a, b, a, c: 4 log2 4 - 2 log2 2 = 6 bits -> 0 bytes.
    assert stored_size_floor(b"aaabbbaaccc") == 6
    # 255 single-byte runs, all heads distinct: 255 log2 255 = 2038.6 bits.
    assert stored_size_floor(bytes(range(255))) == 6 + 254


# ---------------------------------------------------------------------------
# same plans with and without the floor shortcut


def _chains(chains=2, steps=3, hidden=64, frac=0.03):
    """The ``lifecycle`` mix: lineage chains of 3%-nudged siblings."""
    base = tiny_mlp(hidden=hidden).build(seed=5)
    rng_seed = 100
    out = []
    for _chain in range(chains):
        net = base
        for _step in range(steps):
            rng_seed += 1
            net = _perturb(net, rng_seed, frac)
            out.append(net)
    return out


def _planned(repo, matrices):
    """Manifests and stored bytes a dry run plans, plus codec encodes."""
    encodes = []
    original = BlobCodec._encode

    def counting(self, data):
        encodes.append(len(data))
        return original(self, data)

    plans = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BlobCodec, "_encode", counting)
        with chunkstore.write_batch():
            dry = repo.page_store().dry_run()
            for matrix in matrices:
                for plane in segment_planes(matrix):
                    plans.append(dry.plan_plane(plane))
            counts = dict(dry._pending_counts)
    return plans, len(encodes), counts


@pytest.mark.parametrize("prepopulated", [False, True])
def test_floor_shortcut_changes_no_decision(make_repo_target, prepopulated):
    """On the ``lifecycle`` page mix, every page is patched (against the
    same base, with the same patch) or stored exactly as when every page
    is compressed — on an empty page tier and on one an earlier
    ``archive --dedup`` filled."""
    nets = _chains()
    repo = Repository.init(make_repo_target("memory"))
    if prepopulated:
        for i, net in enumerate(nets[:3]):
            repo.commit(net, name=f"early-{i}", message="m")
        repo.archive(alpha=4.0, dedup=True)
        nets = nets[3:]
    matrices = [
        arr for net in nets
        for params in net.get_weights().values() for arr in params.values()
    ]
    with_floor, encodes, counts = _planned(repo, matrices)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(page_store_module, "stored_size_floor", lambda page: 0)
        without, encodes_all, counts_all = _planned(repo, matrices)
    assert with_floor == without
    assert counts["pages_patched"] == counts_all["pages_patched"] > 0
    assert encodes < encodes_all  # the shortcut spared some compressions
    # Counted against the floor, the saving is a lower bound.
    assert 0 < counts["bytes_saved"] <= counts_all["bytes_saved"]
    repo.close()


def test_a_patch_the_floor_cannot_settle_is_judged_on_the_page_size(
    make_repo_target,
):
    """A patch above half the page's stored size loses, even when it is
    below the page's floor; one within half the floor wins."""
    rng = np.random.default_rng(7)
    base = rng.integers(0, 256, 1024, dtype=np.uint8)
    dense = base.copy()  # 20 of 32 bands rewritten, 12 still vote
    dense[:640] = rng.integers(0, 256, 640, dtype=np.uint8)
    sparse = base.copy()
    sparse[::97] ^= 0x5A
    codec = BlobCodec()
    repo = Repository.init(make_repo_target("memory"))
    dry = repo.page_store().dry_run()
    dry.plan_plane(base.tobytes())
    for page, wins in ((dense.tobytes(), False), (sparse.tobytes(), True)):
        patch = codec.stored_size_of(bytes(np.frombuffer(page, np.uint8) ^ base))
        floor, size = stored_size_floor(page), codec.stored_size_of(page)
        if wins:
            assert patch <= floor // 2
        else:
            assert size // 2 < patch <= floor
        (base_sha, patch_sha), = dry.plan_plane(page)[0]["pages"]
        assert (patch_sha is not None) == wins
    repo.close()


# ---------------------------------------------------------------------------
# catalogs written with a stored sketch index


_OLD_SKETCH_TABLE = """
CREATE TABLE page_sketch (
    sketch      TEXT NOT NULL,
    sha         TEXT NOT NULL,
    PRIMARY KEY (sketch, sha)
);
CREATE INDEX idx_page_sketch_sha ON page_sketch(sha);
"""


def _old_sketch_rows(repo) -> list[tuple[str, str]]:
    """The ``(band:crc, sha)`` rows an older dlv kept per base page."""
    rows = []
    bases = {
        base for _m, _p, man in repo.catalog.all_page_manifests()
        for base, _patch in man["pages"]
    }
    for sha in sorted(bases):
        page = repo.pages.get(sha)
        width = max(1, -(-len(page) // 32))
        rows.extend(
            (f"{i}:{zlib.crc32(page[off:off + width]):08x}", sha)
            for i, off in enumerate(range(0, len(page), width))
        )
    return rows


def _write_old_sketches(conn, rows) -> None:
    conn.executescript(_OLD_SKETCH_TABLE)
    conn.executemany("INSERT INTO page_sketch VALUES (?, ?)", rows)
    conn.commit()


def _reopen_with_old_sketches(make_repo_target, target, backend, repo):
    """Close ``repo`` after giving its catalog an older dlv's sketch
    rows, and open it again as this code does."""
    rows = _old_sketch_rows(repo)
    assert rows
    if backend == "memory":
        # A memory catalog runs its schema when a backend attaches to
        # it: a snapshot under a new name is that reopening.
        _write_old_sketches(repo.catalog._conn, rows)
        copy = make_repo_target("memory", "reopened")
        memstore.clone(target[len("mem://"):], copy[len("mem://"):])
        repo.close()
        return Repository.open(copy)
    repo.close()
    db = (
        target[len("sqlite://"):] if backend == "sqlite"
        else f"{target}/.dlv/catalog.db"
    )
    conn = sqlite3.connect(db)
    _write_old_sketches(conn, rows)
    conn.close()
    return Repository.open(target)


def _tables(repo) -> set[str]:
    return {
        row[0] for row in repo.catalog._conn.execute(
            "SELECT name FROM sqlite_master WHERE type IN ('table', 'index')"
        )
    }


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_catalog_with_sketch_rows_opens_and_rearchives_as_before(
    make_repo_target, backend
):
    """An older dlv stored the sketch index in a ``page_sketch`` table.
    Opening its catalog drops the table and changes nothing else, and
    the next ``archive --dedup`` stores what that dlv stored (the second
    run pinned in ``test_dedup_archive_output_is_pinned``)."""
    target = make_repo_target(backend)
    repo = Repository.init(target)
    base = tiny_mlp(hidden=32).build(seed=0)
    for i in range(4):
        net = _perturb(base, i)
        net.name = f"fam-{i}"
        repo.commit(net, name=f"fam-{i}", message="variant")
    repo.archive(alpha=4.0, dedup=True)
    stats = repo.dedup_stats()

    repo = _reopen_with_old_sketches(make_repo_target, target, backend, repo)
    tables = _tables(repo)
    assert "page_sketch" not in tables and "idx_page_sketch_sha" not in tables
    assert "page_payload" in tables
    assert repo.dedup_stats() == stats
    assert run_fsck(repo).findings == []

    late = _perturb(base, 11)
    late.name = "late"
    repo.commit(late, name="late", message="variant")
    report = repo.archive(alpha=4.0, dedup=True)
    assert (report["bytes_after"], _layout_digest(repo)) == PINNED_DEDUP_RUNS[1]
    assert "page_sketch" not in _tables(repo)
    repo.close()


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_lost_and_corrupt_bases_are_left_out_of_the_index(
    make_repo_target, backend, corrupt_blob
):
    """No patch can be made against a base that cannot be read: the
    rebuilt index holds every other base, and the archive completes."""
    repo = Repository.init(make_repo_target(backend))
    base = tiny_mlp(hidden=32).build(seed=0)
    for i in range(3):
        net = _perturb(base, i)
        repo.commit(net, name=f"fam-{i}", message="variant")
    repo.archive(alpha=4.0, dedup=True)
    manifests = repo.catalog.all_page_manifests()
    bases = list(dict.fromkeys(
        base_sha for _m, _p, man in manifests for base_sha, _ in man["pages"]
    ))
    patches = {sha for _m, _p, man in manifests for _b, sha in man["pages"]}
    lost, corrupt = [sha for sha in bases if sha not in patches][:2]
    assert repo.pages.delete(lost)
    corrupt_blob(repo, corrupt, ns="pages")

    store = repo.page_store()
    sibling = _perturb(base, 1, frac=0.01)
    matrices = [
        arr for params in sibling.get_weights().values()
        for arr in params.values()
    ]
    estimator = DedupEstimator(store)
    for matrix in matrices:
        estimator.matrix_cost(matrix)
    facts = store._facts
    assert set(facts.bases) == set(bases) - {lost, corrupt}
    indexed = {sha for bucket in facts.index._buckets.values() for sha in bucket}
    assert indexed == set(facts.bases)

    repo.commit(sibling, name="sibling", message="variant")
    report = repo.archive(alpha=4.0, dedup=True)
    assert report["satisfied"]
    for _m, _p, man in repo.catalog.all_page_manifests():
        assert all(sha in repo.pages for sha in manifest_shas(man))
    repo.close()


def _paged_family(repo):
    """Three perturbed siblings archived with ``--dedup``; the base
    pages the manifests name that no manifest uses as a patch."""
    base = tiny_mlp(hidden=32).build(seed=0)
    for i in range(3):
        repo.commit(_perturb(base, i), name=f"fam-{i}", message="variant")
    repo.archive(alpha=4.0, dedup=True)
    manifests = repo.catalog.all_page_manifests()
    patches = {sha for _m, _p, man in manifests for _b, sha in man["pages"]}
    return base, list(dict.fromkeys(
        base_sha for _m, _p, man in manifests for base_sha, _ in man["pages"]
        if base_sha not in patches
    ))


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_a_corrupt_stored_base_is_stored_again(
    make_repo_target, backend, corrupt_blob
):
    """A page whose stored base the index could not read is no exact
    hit: the planner stores it again, and the flush replaces the bad
    stored form (a put alone keeps what an address holds)."""
    repo = Repository.init(make_repo_target(backend))
    _base, bases = _paged_family(repo)
    victim = bases[0]
    page = repo.pages.get(victim)
    corrupt_blob(repo, victim, ns="pages")
    store = repo.page_store()
    with chunkstore.write_batch(), repo.catalog.transaction():
        manifest = store.encode_plane(page)
        store.flush()
    assert manifest["pages"] == [[victim, None]]
    assert repo.pages.verify_blob(victim)
    repo.close()


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_archive_over_a_corrupt_base_leaves_fsck_clean(
    make_repo_target, backend, corrupt_blob
):
    """End to end: no manifest is left naming a corrupt page after the
    next ``archive --dedup``."""
    repo = Repository.init(make_repo_target(backend))
    base, bases = _paged_family(repo)
    victim = bases[0]
    corrupt_blob(repo, victim, ns="pages")

    repo.commit(_perturb(base, 1, frac=0.01), name="sibling", message="variant")
    repo.archive(alpha=4.0, dedup=True)
    assert victim not in repo.pages or repo.pages.verify_blob(victim)
    assert run_fsck(repo).findings == []
    repo.close()


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_archive_over_a_corrupt_patch_leaves_fsck_clean(
    make_repo_target, backend, corrupt_blob
):
    """A stored patch is read back before a manifest reuses it: one that
    fails is stored again, so the next ``archive --dedup`` leaves no
    manifest naming a corrupt patch and every version exports exactly."""
    repo = Repository.init(make_repo_target(backend))
    base = tiny_mlp(hidden=32).build(seed=0)
    nets = {f"fam-{i}": _perturb(base, i) for i in range(3)}
    for name, net in nets.items():
        repo.commit(net, name=name, message="variant")
    repo.archive(alpha=4.0, dedup=True)
    victim = next(
        patch for _m, _p, man in repo.catalog.all_page_manifests()
        for _base, patch in man["pages"] if patch
    )
    corrupt_blob(repo, victim, ns="pages")

    nets["sibling"] = _perturb(base, 1, frac=0.01)
    repo.commit(nets["sibling"], name="sibling", message="variant")
    repo.archive(alpha=4.0, dedup=True)
    assert repo.pages.verify_blob(victim)
    assert run_fsck(repo).findings == []
    for name, net in nets.items():
        exported = repo.get_snapshot_weights(name)
        for layer, params in net.get_weights().items():
            for key, value in params.items():
                assert exported[layer][key].tobytes() == value.tobytes()
    repo.close()
