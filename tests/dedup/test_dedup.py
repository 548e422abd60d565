"""Cross-model page-level dedup: encoding, archival, serving, CLI."""

from __future__ import annotations

import hashlib
import json
import sqlite3

import numpy as np
import pytest

from repro.core.segmentation import segment_planes
from repro.dedup import (
    DedupEstimator,
    PageStore,
    SketchIndex,
    decode_plane,
    manifest_shas,
    page_digest,
    sketch_keys,
    split_pages,
    xor_bytes,
)
from repro.core.progressive import ProgressiveEvaluator
from repro.dlv.cli import main as dlv_main
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.obs.cost import cost_context
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import PlaneCache
from tests.conftest import STORE_BACKENDS

# ---------------------------------------------------------------------------
# family helpers


def _perturb(net, seed, frac=0.05):
    """A sparse random perturbation of a model — a fine-tuned sibling."""
    clone = net.clone()
    rng = np.random.default_rng(seed)
    weights = clone.get_weights()
    for params in weights.values():
        for arr in params.values():
            flat = arr.reshape(-1)
            k = max(1, int(frac * flat.size))
            idx = rng.choice(flat.size, size=k, replace=False)
            flat[idx] += rng.normal(0, 0.01, size=k).astype(flat.dtype)
    clone.set_weights(weights)
    return clone


def _commit_family(repo, n=4, hidden=32, frac=0.05):
    """Commit ``n`` perturbed variants WITHOUT lineage edges."""
    base = tiny_mlp(hidden=hidden).build(seed=0)
    nets = []
    for i in range(n):
        net = _perturb(base, i, frac)
        net.name = f"fam-{i}"
        repo.commit(net, name=f"fam-{i}", message="variant")
        nets.append(net)
    return nets


# ---------------------------------------------------------------------------
# page primitives


class TestPages:
    def test_split_pages_covers_data(self):
        data = bytes(range(256)) * 10
        pages = split_pages(data, 300)
        assert b"".join(pages) == data
        assert all(len(p) == 300 for p in pages[:-1])

    def test_split_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            split_pages(b"abc", 0)

    def test_xor_bytes_is_self_inverse(self):
        a, b = b"hello world pages", b"hello xorld pages"
        patch = xor_bytes(a, b)
        assert xor_bytes(patch, b) == a

    def test_xor_bytes_first_arg_length_governs(self):
        assert len(xor_bytes(b"abcdef", b"ab")) == 6
        assert len(xor_bytes(b"ab", b"abcdef")) == 2

    def test_sketch_keys_mostly_agree_on_sparse_diff(self):
        rng = np.random.default_rng(0)
        page = rng.integers(0, 256, size=1024, dtype=np.uint8).tobytes()
        near = bytearray(page)
        near[100] ^= 0xFF
        shared = set(sketch_keys(page)) & set(sketch_keys(bytes(near)))
        assert len(shared) >= 30  # 32 bands, one touched

    def test_decode_plane_roundtrip_with_patches(self):
        base = bytes(range(256)) * 4
        variant = bytearray(base)
        variant[17] ^= 0x10
        variant = bytes(variant)
        blobs = {page_digest(base): base}
        patch = xor_bytes(variant, base)
        blobs[page_digest(patch)] = patch
        manifest = {
            "psize": 1024,
            "nbytes": len(variant),
            "sha": page_digest(variant),
            "pages": [[page_digest(base), page_digest(patch)]],
        }
        assert decode_plane(manifest, blobs.__getitem__).assemble() == variant

    def test_decode_plane_zero_fills_when_missing_ok(self):
        manifest = {
            "psize": 4,
            "nbytes": 8,
            "sha": "x",
            "pages": [["gone", None], ["gone2", None]],
        }
        out = decode_plane(
            manifest, {}.__getitem__, missing_ok=True
        ).assemble()
        assert out == b"\x00" * 8
        with pytest.raises(KeyError):
            decode_plane(manifest, {}.__getitem__)

    @pytest.mark.parametrize("lost", ["base", "patch"])
    def test_decode_plane_reports_the_page_that_failed(self, lost):
        """A page whose base or patch is lost zero-fills; only that page
        does, and the page after it is read."""
        base, other = bytes(range(4)), bytes(range(4, 8))
        patch = xor_bytes(b"\x09\x08\x07\x06", base)
        blobs = {"B": base, "P": patch, "O": other}
        gone = {"base": "B", "patch": "P"}[lost]
        del blobs[gone]
        manifest = {
            "psize": 4, "nbytes": 8, "sha": "x",
            "pages": [["B", "P"], ["O", None]],
        }
        out = decode_plane(
            manifest, blobs.__getitem__, missing_ok=True
        ).assemble()
        assert out == b"\x00" * 4 + other


class TestSketchIndex:
    def test_votes_rank_by_matching_bands(self):
        index = SketchIndex()
        rng = np.random.default_rng(1)
        base = rng.integers(0, 256, size=1024, dtype=np.uint8).tobytes()
        other = rng.integers(0, 256, size=1024, dtype=np.uint8).tobytes()
        index.add("base", sketch_keys(base))
        index.add("other", sketch_keys(other))
        near = bytearray(base)
        near[3] ^= 1
        votes = index.votes(sketch_keys(bytes(near)))
        assert votes["base"] > votes.get("other", 0)


class TestEstimator:
    """Absolute prices; that they equal what the encoder stores is the
    estimator-vs-encoder oracle below."""

    @pytest.fixture
    def est(self, make_repo_target):
        repo = Repository.init(make_repo_target("memory"))
        yield DedupEstimator(repo.page_store())
        repo.close()

    def test_duplicate_plane_costs_nothing(self, est):
        value = np.random.default_rng(2).normal(size=(64, 64)).astype(np.float32)
        assert est.matrix_cost(value) > 0
        assert est.matrix_cost(value) == 0

    def test_near_duplicate_priced_as_patch(self, est):
        value = np.random.default_rng(3).normal(size=(64, 64)).astype(np.float32)
        near = value.copy()
        near[5, 7] += 1e-3
        full = est.matrix_cost(value)
        assert 0 < est.matrix_cost(near) < full / 4


@pytest.mark.parametrize("backend", STORE_BACKENDS)
@pytest.mark.parametrize("prepopulated", [False, True])
def test_estimator_prices_what_the_encoder_stores(
    make_repo_target, backend, prepopulated
):
    """Oracle: fed the same matrices in the same order, the estimator's
    price for each is the growth of the page tier when the encoder
    stores it — on an empty store and on one an earlier ``archive
    --dedup`` populated (stored base pages, indexed again by the run).

    The encoder buffers until ``flush()``, so each matrix's growth is
    read after the flush: the stored bytes of the blobs its manifests
    reference that neither the store before nor an earlier matrix
    held; together they are the whole growth of the tier."""
    repo = Repository.init(make_repo_target(backend))
    base = tiny_mlp(hidden=32).build(seed=0)
    if prepopulated:
        _commit_family(repo, n=3)
        repo.archive(alpha=4.0, dedup=True)
        assert repo.pages.total_size() > 0
    unrelated = tiny_mlp(hidden=32).build(seed=9)
    sequence = [
        arr
        for net in (_perturb(base, 0), _perturb(base, 7), unrelated,
                    _perturb(base, 7))  # shared, near, new, exact repeat
        for params in net.get_weights().values()
        for arr in params.values()
    ]
    before = repo.pages.total_size()
    estimator = DedupEstimator(repo.page_store())
    priced = [estimator.matrix_cost(matrix) for matrix in sequence]
    assert repo.pages.total_size() == before  # a dry run stores nothing

    encoder = repo.page_store()
    referenced = [
        {sha for plane in segment_planes(matrix)
         for sha in manifest_shas(encoder.encode_plane(plane))}
        for matrix in sequence
    ]
    assert repo.pages.total_size() == before  # nothing lands before flush
    held = set(repo.pages.addresses())
    with repo.catalog.transaction():
        encoder.flush()
    stored = []
    for shas in referenced:
        stored.append(sum(repo.pages.stored_size(s) for s in shas - held))
        held |= shas
    assert priced == stored
    assert sum(stored) == repo.pages.total_size() - before
    assert sum(priced[-4:]) == 0 < sum(priced)
    if prepopulated:
        # Siblings of the archived family patch against its stored pages.
        empty = Repository.init(make_repo_target(backend, "empty"))
        fresh = DedupEstimator(empty.page_store())
        assert sum(priced) < sum(fresh.matrix_cost(m) for m in sequence)
        empty.close()
    repo.close()


#: ``(bytes_after, layout digest)`` of two ``archive --dedup`` runs over
#: the seeded family below — the first on a fresh repository, the second
#: after one more sibling, against the persistent sketch index.  Taken
#: with ``Z_RLE`` stored forms; with deflate's default strategy the same
#: code writes what the planner wrote before its write batch existed,
#: ``(21540, 8926db8a…)`` and ``(22403, d9a42be9…)``.
PINNED_DEDUP_RUNS = (
    (20917, "d6338816cec6b00ef78af9a72dda48bb27af325a90a1bc92f0b74d3b064af846"),
    (21797, "f34778f0c2bc2a57ae3cf784b0da35f5e03a29a9dab2df02e3eb47af98a2712f"),
)


def _layout_digest(repo) -> str:
    """Digest of every page manifest and payload row: plans and pages."""
    payloads = sorted(
        [p["matrix_id"], p["parent"], p["kind"], p["chunks"]]
        for p in repo.catalog.all_payloads()
    )
    blob = json.dumps(
        [repo.catalog.all_page_manifests(), payloads], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_dedup_archive_output_is_pinned(make_repo_target, backend):
    """Batching the writes changed no plan, page or stored byte."""
    repo = Repository.init(make_repo_target(backend))
    base = tiny_mlp(hidden=32).build(seed=0)
    for i in range(4):
        net = _perturb(base, i)
        net.name = f"fam-{i}"
        repo.commit(net, name=f"fam-{i}", message="variant")
    runs = [repo.archive(alpha=4.0, dedup=True)["bytes_after"]]
    digests = [_layout_digest(repo)]
    assert "pages" in {p["kind"] for p in repo.catalog.all_payloads()}
    late = _perturb(base, 11)
    late.name = "late"
    repo.commit(late, name="late", message="variant")
    runs.append(repo.archive(alpha=4.0, dedup=True)["bytes_after"])
    digests.append(_layout_digest(repo))
    assert tuple(zip(runs, digests)) == PINNED_DEDUP_RUNS
    repo.close()


# ---------------------------------------------------------------------------
# archival integration (all three backends)


@pytest.mark.parametrize("backend", STORE_BACKENDS)
class TestDedupArchive:
    def test_dedup_archive_roundtrips_exactly(self, make_repo_target, backend):
        repo = Repository.init(make_repo_target(backend))
        nets = _commit_family(repo, n=4)
        report = repo.archive(alpha=4.0, dedup=True)
        assert report["dedup"] is True
        assert report["page_bytes"] > 0
        for i, net in enumerate(nets):
            got = repo.get_snapshot_weights(f"fam-{i}")
            for layer, params in net.get_weights().items():
                for param, arr in params.items():
                    assert np.array_equal(got[layer][param], arr)
        assert run_fsck(repo).clean
        repo.close()

    def test_dedup_beats_independent_storage(self, make_repo_target, backend):
        plain = Repository.init(make_repo_target(backend, "plain"))
        _commit_family(plain, n=4)
        off = plain.archive(alpha=4.0)["bytes_after"]
        plain.close()

        deduped = Repository.init(make_repo_target(backend, "dedup"))
        _commit_family(deduped, n=4)
        on = deduped.archive(alpha=4.0, dedup=True)["bytes_after"]
        stats = deduped.dedup_stats()
        deduped.close()
        assert on < off
        assert stats["page_matrices"] > 0
        assert stats["bytes_saved"] > 0

    def test_rearchive_without_dedup_releases_pages(
        self, make_repo_target, backend
    ):
        repo = Repository.init(make_repo_target(backend))
        _commit_family(repo, n=3)
        repo.archive(alpha=4.0, dedup=True)
        assert repo.pages.total_size() > 0
        repo.archive(alpha=4.0)
        assert repo.pages.total_size() == 0
        assert repo.catalog.all_page_manifests() == []
        assert repo.dedup_stats()["page_references"] == 0
        assert run_fsck(repo).clean
        repo.close()

    def test_refcounts_match_manifests_after_archive(
        self, make_repo_target, backend
    ):
        repo = Repository.init(make_repo_target(backend))
        _commit_family(repo, n=3)
        repo.archive(alpha=4.0, dedup=True)
        # The stats count references from the manifests, and every
        # referenced page blob exists.
        references = [
            sha
            for _m, _p, man in repo.catalog.all_page_manifests()
            for sha in manifest_shas(man)
        ]
        assert all(sha in repo.pages for sha in references)
        stats = repo.dedup_stats()
        assert stats["page_references"] == len(references)
        assert stats["unique_pages"] == len(set(references))
        repo.close()


def test_prune_and_convert_release_page_manifests(repo, trained_lenet):
    net, result, config = trained_lenet
    version = repo.commit(
        net.clone(), name="many-snaps", train_result=result,
        hyperparams=config.to_dict(),
    )
    assert len(version.snapshots) >= 4
    repo.commit(_perturb(net, 1), name="sibling", message="fine-tune")
    repo.archive(alpha=4.0, dedup=True)
    assert repo.catalog.all_page_manifests()

    report = repo.prune_snapshots(version, keep_every=4)
    assert report["dropped"]
    _assert_manifest_pages_stored(repo)

    repo.convert_snapshot_scheme(version, -1, "fixed8")
    _assert_manifest_pages_stored(repo)
    assert run_fsck(repo).clean


@pytest.mark.parametrize("backend", ["local-fs", "sqlite"])
def test_stale_page_ref_table_of_an_older_catalog_is_dropped(
    make_repo_target, backend
):
    """An older dlv kept per-page refcounts in a ``page_ref`` table;
    opening its catalog drops the table and changes nothing else."""
    target = make_repo_target(backend)
    repo = Repository.init(target)
    _commit_family(repo, n=3)
    repo.archive(alpha=4.0, dedup=True)
    stats = repo.dedup_stats()
    shas = sorted({
        sha for _m, _p, man in repo.catalog.all_page_manifests()
        for sha in manifest_shas(man)
    })
    repo.close()

    db = (
        target[len("sqlite://"):] if backend == "sqlite"
        else f"{target}/.dlv/catalog.db"
    )
    conn = sqlite3.connect(db)
    conn.execute(
        "CREATE TABLE page_ref (sha TEXT PRIMARY KEY, "
        "refcount INTEGER NOT NULL DEFAULT 0)"
    )
    conn.executemany(  # drifted counts and a page long gone
        "INSERT INTO page_ref (sha, refcount) VALUES (?, ?)",
        [(sha, 7) for sha in shas[:3]] + [("0" * 64, 2)],
    )
    conn.commit()
    conn.close()

    repo = Repository.open(target)
    tables = {
        row[0] for row in repo.catalog._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    assert "page_ref" not in tables and "page_payload" in tables
    assert repo.dedup_stats() == stats
    assert run_fsck(repo).findings == []
    repo.close()


def _assert_manifest_pages_stored(repo):
    """Only live matrices keep manifests, and their pages are stored."""
    live = {row["matrix_id"] for row in repo.catalog.get_matrices()}
    for matrix_id, plane, man in repo.catalog.all_page_manifests():
        assert matrix_id in live, matrix_id
        for sha in manifest_shas(man):
            assert sha in repo.pages, (matrix_id, plane, sha)


# ---------------------------------------------------------------------------
# cost parity & read-only invariants


def test_paged_reads_bill_like_direct_reads(make_repo_target):
    repo = Repository.init(make_repo_target("sqlite"))
    _commit_family(repo, n=3)

    with cost_context() as direct:
        repo.get_snapshot_weights("fam-1")
    repo.archive(alpha=4.0, dedup=True)
    with cost_context() as paged:
        repo.get_snapshot_weights("fam-1")

    assert paged.planes_fetched == direct.planes_fetched
    assert paged.bytes_read > 0
    assert sum(paged.by_plane.values()) > 0
    repo.close()


def _archived_family(make_repo_target, backend: str = "sqlite"):
    repo = Repository.init(make_repo_target(backend))
    _commit_family(repo, n=4)
    repo.archive(alpha=4.0, dedup=True)
    return repo


def _private_cache() -> PlaneCache:
    """A cache whose counters no other test shares."""
    return PlaneCache(8 << 20, registry=MetricsRegistry())


def test_cold_bounded_request_bills_golden_numbers(make_repo_target):
    """One ``get_many`` per missed plane bills what a ``get`` per page
    did.  Taken with ``Z_RLE`` stored forms, which change the plan; with
    deflate's default strategy the same code bills the numbers taken
    before reads were batched: ``(4388, 8, 4, {0: 1101})`` and
    ``(4388, 8, 8, {0: 1101, 1: 2797})``."""
    repo = _archived_family(make_repo_target)
    version = repo.resolve("fam-2")
    net = repo.load_network(version, 0)
    evaluator = ProgressiveEvaluator(
        net, repo.archive_view(plane_cache=_private_cache()),
        version.snapshots[0].key,
    )
    x = np.random.default_rng(0).standard_normal(
        (8,) + net.input_shape
    ).astype(np.float32)
    bills = []
    for planes in (1, 2):
        with cost_context() as bill:
            evaluator.evaluate_bounded(x, planes)
        bills.append((
            bill.bytes_read, bill.chunks_fetched, bill.planes_fetched,
            bill.by_plane,
        ))
    assert bills == [
        (4260, 7, 4, {0: 897}),
        (4388, 8, 8, {0: 897, 1: 2736}),
    ]
    repo.close()


def test_one_read_statement_per_missed_paged_plane(make_repo_target):
    repo = _archived_family(make_repo_target)
    archive = repo.archive_view(plane_cache=_private_cache())
    paged = [e for e in archive.manifest.values() if e.kind == "pages"]
    assert paged
    misses = {
        archive.plane_address(entry, i) for entry in paged for i in range(4)
    }
    statements: list[str] = []
    # The owning thread reads through the writer connection.
    conn = repo.backend._writer
    conn.set_trace_callback(statements.append)
    try:
        for entry in paged:
            archive.recreate_matrix(entry.matrix_id)
    finally:
        conn.set_trace_callback(None)
    reads = [sql for sql in statements if "FROM store_blob" in sql]
    assert len(reads) == len(misses)
    assert all(" IN (" in sql for sql in reads)
    repo.close()


@pytest.mark.parametrize("backend", ["local-fs", "sqlite"])
@pytest.mark.parametrize("lost", ["base", "patch"])
def test_lost_page_is_reported_under_its_own_address(
    make_repo_target, backend, lost
):
    """A lost page of a patched pair takes the recovery path: the event
    names the blob that is gone, and only its page zero-fills."""
    repo = _archived_family(make_repo_target, backend)
    archive = repo.archive_view()
    entry, index, pages = next(
        (entry, index, manifest["pages"])
        for entry in archive.manifest.values() if entry.kind == "pages"
        for index, manifest in sorted(entry.pages.items())
        if index >= archive.replicate_planes
        and any(patch for _base, patch in manifest["pages"])
    )
    intact, _nbytes = archive._read_plane(entry, index)
    base, patch = next(pair for pair in pages if pair[1])
    gone = base if lost == "base" else patch
    assert repo.pages.delete(gone)

    data, _nbytes = archive._fetch_plane(entry, index)
    events = archive.recovery.events
    assert {(e.sha, e.action) for e in events} == {(gone, "zero-fill")}
    psize = entry.pages[index]["psize"]
    for i, pair in enumerate(pages):
        page = slice(i * psize, (i + 1) * psize)
        want = bytes(len(intact[page])) if gone in pair else intact[page]
        assert data[page] == want
    repo.close()


def _cache_charge(archive, planes) -> int:
    """What caching these ``(entry, index)`` planes charges, recounted
    from the stored blobs: a chunk plane 1 B per weight; a paged plane 5
    B per nonzero patch byte (offset and value) while that is less than
    1 B per weight, else 1 B per weight; and each distinct base page of
    the paged planes kept so, once."""
    blobs = archive.page_store.blobs
    total, bases = 0, {}
    for entry, index in planes:
        weights = int(np.prod(entry.shape))
        if entry.kind != "pages":
            total += weights
            continue
        pairs = entry.pages[index]["pages"]
        nonzero = sum(
            np.count_nonzero(np.frombuffer(blobs.get(patch), np.uint8))
            for _base, patch in pairs if patch
        )
        if 5 * nonzero < weights:
            total += 5 * nonzero
            bases.update((base, len(blobs.get(base))) for base, _ in pairs)
        else:
            total += weights
    return total + sum(bases.values())


def _first_loaded(archive, planes) -> dict:
    """``address -> (entry, index)``: the first of ``planes`` read under
    each plane address, which is the one a cache filled in this order
    holds (equal planes of two payloads may be stored differently)."""
    loaded: dict = {}
    for entry, index in planes:
        loaded.setdefault(archive.plane_address(entry, index), (entry, index))
    return loaded


def test_page_cache_shares_entries_across_models(make_repo_target):
    repo = Repository.init(make_repo_target("sqlite"))
    _commit_family(repo, n=3, frac=0.03)
    repo.archive(alpha=4.0, dedup=True)

    cache = PlaneCache(8 * 1024 * 1024)
    archive = repo.archive_view(plane_cache=cache)
    snaps = sorted(
        {f"v{r['version_id']}/s{r['snapshot_idx']}"
         for r in repo.catalog.get_matrices()}
    )
    # Planes are cached under the digest their page manifest records: a
    # plane equal across siblings (the unperturbed bytes of a family) is
    # one entry, hit when serving the next member.
    members = [m for snap in snaps for m in archive._snapshots[snap]]
    entries = [archive.manifest[m] for m in members]
    assert {e.kind for e in entries} & {"pages"}
    loaded = _first_loaded(archive, [(e, i) for e in entries for i in range(4)])
    for snap in snaps:
        archive.recreate_snapshot(snap)
    cold = cache.stats()
    assert cold["misses"] == len(loaded) == cold["entries"]
    assert cold["hits"] == 4 * len(entries) - len(loaded) > 0
    # Each plane's own form, plus each distinct base page once.
    assert cold["cached_bytes"] == _cache_charge(archive, loaded.values())
    assert 0 < cold["shared_bytes"] < cold["cached_bytes"]
    # A warm pass over the family reads nothing: every plane is a hit.
    for snap in snaps:
        archive.recreate_snapshot(snap)
    warm = cache.stats()
    assert warm["misses"] == cold["misses"]
    assert warm["hits"] == cold["hits"] + 4 * len(entries)
    repo.close()


def _planes(archive, kind=None) -> list:
    """Every ``(entry, plane index)`` of the archive, paged first."""
    entries = sorted(
        archive.manifest.values(),
        key=lambda e: (e.kind != "pages", e.matrix_id),
    )
    return [
        (entry, i) for entry in entries for i in range(4)
        if kind is None or entry.kind == kind
    ]


def _shared_base(archive, min_plane: int = 0):
    """A base page that paged planes of two members share, at plane
    ``min_plane`` or deeper: ``(sha, [(entry, index), ...])``, one plane
    per address."""
    holders: dict[str, list] = {}
    for entry, index in _planes(archive, "pages"):
        if index < min_plane:
            continue
        for base in {base for base, _ in entry.pages[index]["pages"]}:
            holders.setdefault(base, []).append((entry, index))
    for sha, planes in holders.items():
        planes = list(_first_loaded(archive, planes).values())
        if len({entry.matrix_id for entry, _ in planes}) >= 2:
            return sha, planes
    raise AssertionError("the family shares no base page")


@pytest.mark.parametrize("backend", STORE_BACKENDS)
class TestPageFormCache:
    """A paged plane is cached as its shared base pages plus a sparse
    patch: it reads as stored, each base page is charged once, and a
    lost base caches nothing."""

    def test_every_plane_reads_as_stored(self, make_repo_target, backend):
        """Cold, warm and under eviction pressure, through the cache
        each plane is ``_read_plane``'s bytes and bills its stored size
        (also on a hit another payload loaded), and the charge is the
        recount of what is cached, within the budget."""
        repo = _archived_family(make_repo_target, backend)
        archive = repo.archive_view()
        planes = _planes(archive)
        stored = {  # address -> bytes (equal planes share an address)
            archive.plane_address(e, i): archive._read_plane(e, i)[0]
            for e, i in planes
        }
        sizes = {  # what each payload's own read of a plane bills
            (e.matrix_id, i): archive._read_plane(e, i)[1] for e, i in planes
        }
        everything = _cache_charge(
            archive, _first_loaded(archive, planes).values()
        )
        for budget in (8 << 20, everything // 3):
            cache = PlaneCache(budget, registry=MetricsRegistry())
            archive.plane_cache = cache
            held = {}  # address -> the (entry, index) whose read is cached
            for entry, index in planes + planes[::-1] + planes:
                address = archive.plane_address(entry, index)
                if ("plane", address) not in cache:
                    held[address] = entry, index
                data, nbytes = archive._fetch_plane(entry, index)
                assert data == stored[address]
                assert nbytes == sizes[entry.matrix_id, index]
                cached = [held[key[1]] for key in cache.keys()]
                assert cache.cached_bytes == _cache_charge(archive, cached)
                assert cache.cached_bytes <= budget
            assert not archive.recovery
            if budget < everything:
                assert cache.evictions > 0
            else:
                assert cache.misses == len(stored)
                assert cache.cached_bytes == everything
        repo.close()

    def test_shared_base_is_charged_once_and_freed_with_its_last_holder(
        self, make_repo_target, backend
    ):
        repo = _archived_family(make_repo_target, backend)
        cache = PlaneCache(8 << 20, registry=MetricsRegistry())
        archive = repo.archive_view(plane_cache=cache)
        base, holders = _shared_base(archive)
        for count, (entry, index) in enumerate(holders, start=1):
            archive._fetch_plane(entry, index)
            assert cache.cached_bytes == _cache_charge(archive, holders[:count])
            assert base in cache.held([base])
        assert cache.cached_bytes < sum(  # the base is charged once
            _cache_charge(archive, [plane]) for plane in holders
        )
        while holders:
            entry, index = holders.pop()
            assert cache.invalidate(("plane", archive.plane_address(entry, index)))
            assert cache.cached_bytes == _cache_charge(archive, holders)
            assert (base in cache.held([base])) == bool(holders)
        assert (cache.cached_bytes, cache.stats()["shared_bytes"]) == (0, 0)
        repo.close()

    def test_lost_shared_base_caches_nothing_until_restored(
        self, make_repo_target, backend
    ):
        """Both members sharing a lost base read degraded and uncached
        (the base is past the mirrored planes); restored, both read
        exact and are cached."""
        repo = _archived_family(make_repo_target, backend)
        cache = PlaneCache(8 << 20, registry=MetricsRegistry())
        archive = repo.archive_view(plane_cache=cache)
        base, holders = _shared_base(archive, archive.replicate_planes)
        stored = {
            (entry.matrix_id, index): archive._read_plane(entry, index)
            for entry, index in holders
        }
        page = archive.page_store.blobs.get(base)
        assert repo.pages.delete(base)
        for entry, index in holders:
            data, _nbytes = archive._fetch_plane(entry, index)
            assert data != stored[entry.matrix_id, index][0]
        lost = {(e.matrix_id, e.sha, e.action) for e in archive.recovery.events}
        assert lost == {
            (entry.matrix_id, base, "zero-fill") for entry, _ in holders
        }
        assert archive.recovery.degraded
        assert (len(cache), cache.cached_bytes, cache.held([base])) == (
            0, 0, {}
        )

        assert repo.pages.put(page) == base
        seq = archive.recovery.seq
        for entry, index in holders:
            assert archive._fetch_plane(entry, index) == (
                stored[entry.matrix_id, index]
            )
        assert archive.recovery.seq == seq
        assert all(
            ("plane", archive.plane_address(e, i)) in cache for e, i in holders
        )
        assert cache.cached_bytes == _cache_charge(archive, holders)
        assert base in cache.held([base])
        repo.close()


# ---------------------------------------------------------------------------
# metrics & CLI


def test_dedup_metrics_emitted(make_repo_target):
    from repro import obs

    obs.reset_metrics()
    repo = Repository.init(make_repo_target("memory"))
    _commit_family(repo, n=3)
    repo.archive(alpha=4.0, dedup=True)
    counters = obs.dump_metrics()["counters"]
    assert counters.get("dedup.pages_referenced", 0) > 0
    assert counters.get("dedup.pages_stored", 0) > 0
    assert counters.get("dedup.index_probes", 0) > 0
    shared = counters.get("dedup.pages_shared", 0)
    patched = counters.get("dedup.pages_patched", 0)
    assert shared + patched > 0
    assert counters.get("dedup.bytes_saved", 0) > 0
    repo.close()


def test_cli_dedup_stats_and_archive(tmp_path, capsys):
    target = str(tmp_path / "repo")
    repo = Repository.init(target)
    _commit_family(repo, n=3)
    repo.close()

    assert dlv_main(
        ["--repo", target, "archive", "--dedup", "--alpha", "4.0"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dedup"] is True and report["page_bytes"] > 0

    assert dlv_main(
        ["--repo", target, "stats", "--json", "--no-retrieval"]
    ) == 0
    stats = json.loads(capsys.readouterr().out)["dedup"]
    assert stats["page_matrices"] > 0
    assert stats["bytes_saved"] >= 0

    assert dlv_main(["--repo", target, "stats", "--no-retrieval"]) == 0
    assert "paged matrices" in capsys.readouterr().out
