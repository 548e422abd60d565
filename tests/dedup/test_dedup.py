"""Cross-model page-level dedup: encoding, archival, serving, CLI."""

from __future__ import annotations

import json

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
from repro.dlv.cli import main as dlv_main
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.obs.cost import cost_context
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
        assert decode_plane(manifest, blobs.__getitem__) == variant

    def test_decode_plane_zero_fills_when_missing_ok(self):
        manifest = {
            "psize": 4,
            "nbytes": 8,
            "sha": "x",
            "pages": [["gone", None], ["gone2", None]],
        }
        lost = []
        out = decode_plane(
            {**manifest},
            {}.__getitem__,
            missing_ok=True,
            on_missing=lambda sha, exc: lost.append(sha),
        )
        assert out == b"\x00" * 8
        assert lost == ["gone", "gone2"]
        with pytest.raises(KeyError):
            decode_plane(manifest, {}.__getitem__)


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
    --dedup`` populated (persistent sketch index, stored base pages)."""
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
    stored = []
    for matrix in sequence:
        for plane in segment_planes(matrix):
            encoder.encode_plane(plane)
        stored.append(repo.pages.total_size() - before)
        before = repo.pages.total_size()
    assert priced == stored
    assert sum(priced[-4:]) == 0 < sum(priced)
    if prepopulated:
        # Siblings of the archived family patch against its stored pages.
        empty = Repository.init(make_repo_target(backend, "empty"))
        fresh = DedupEstimator(empty.page_store())
        assert sum(priced) < sum(fresh.matrix_cost(m) for m in sequence)
        empty.close()
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
        assert repo.catalog.page_refcounts() == {}
        assert run_fsck(repo).clean
        repo.close()

    def test_refcounts_match_manifests_after_archive(
        self, make_repo_target, backend
    ):
        repo = Repository.init(make_repo_target(backend))
        _commit_family(repo, n=3)
        repo.archive(alpha=4.0, dedup=True)
        pstore = repo.page_store()
        assert dict(pstore.referenced_counts()) == repo.catalog.page_refcounts()
        # Every referenced page blob exists.
        for _m, _p, man in repo.catalog.all_page_manifests():
            for sha in manifest_shas(man):
                assert sha in repo.pages
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
    assert dict(repo.page_store().referenced_counts()) == (
        repo.catalog.page_refcounts()
    )

    repo.convert_snapshot_scheme(version, -1, "fixed8")
    assert dict(repo.page_store().referenced_counts()) == (
        repo.catalog.page_refcounts()
    )
    assert run_fsck(repo).clean


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
    # The first family member archives as the page-base donor (often
    # materialized); its siblings page-encode and share bases, so pages
    # cached serving one sibling hit when serving the next.
    for snap in snaps:
        archive.recreate_snapshot(snap)
    warm = cache.stats()
    assert warm["misses"] > 0  # paged reads went through the cache
    assert warm["hits"] > 0  # ...and siblings shared cached pages
    assert warm["hit_rate"] > 0
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
