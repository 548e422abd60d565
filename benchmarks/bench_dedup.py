"""Cross-model page dedup: bytes/model and serve-cache hit rate.

A fine-tuned model family is the page store's home turf: ``N`` variants
of one base model, each perturbing a sparse random subset of weights —
siblings with *no recorded lineage*, so PAS delta encoding has no edge
to exploit and every variant would otherwise materialize in full.  The
benchmark archives the same family with dedup off and on and reports:

* stored bytes per model (the ISSUE's headline: >= 3x reduction at
  family scale), and
* the shared :class:`~repro.serve.cache.PlaneCache` when serving
  several family members through one cache — each plane is one entry,
  read once and hit on every later request; a paged plane is held as
  its sparse patch over base pages the family shares, each charged
  once.

``REPRO_BENCH_DEDUP_FAMILY`` (default 50) sets the family size; CI's
smoke run uses a small family, the full run reproduces the headline.
"""

from __future__ import annotations

import os
import uuid

import numpy as np

from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.serve.cache import PlaneCache

FAMILY = int(os.environ.get("REPRO_BENCH_DEDUP_FAMILY", "50"))

#: Fraction of each weight matrix a variant perturbs (sparse fine-tune).
PERTURB_FRAC = 0.03


def _family(n: int):
    """``n`` sparse perturbations of one base MLP (no lineage edges)."""
    base = tiny_mlp(hidden=256, name="fam-base").build(seed=0)
    nets = []
    for i in range(n):
        clone = base.clone()
        rng = np.random.default_rng(1000 + i)
        weights = clone.get_weights()
        for params in weights.values():
            for arr in params.values():
                flat = arr.reshape(-1)
                k = max(1, int(PERTURB_FRAC * flat.size))
                idx = rng.choice(flat.size, size=k, replace=False)
                flat[idx] += rng.normal(0, 0.01, size=k).astype(flat.dtype)
        clone.set_weights(weights)
        clone.name = f"fam-{i}"
        nets.append(clone)
    return nets


def _populate(nets):
    repo = Repository.init(f"mem://bench-dedup-{uuid.uuid4().hex}")
    for net in nets:
        repo.commit(net, name=net.name, message="variant")
    return repo


def test_dedup_bytes_per_model(reporter):
    nets = _family(FAMILY)

    plain = _populate(nets)
    off = plain.archive(alpha=4.0)["bytes_after"]
    plain.close()

    deduped = _populate(nets)
    on = deduped.archive(alpha=4.0, dedup=True)["bytes_after"]
    stats = deduped.dedup_stats()

    ratio = off / on if on else float("inf")
    reporter.line(f"family of {FAMILY} fine-tuned variants "
                  f"({PERTURB_FRAC:.0%} weights perturbed each)")
    reporter.line()
    reporter.line(f"{'mode':<12} {'stored':>12} {'bytes/model':>12}")
    reporter.line(f"{'dedup off':<12} {off:>12} {off // FAMILY:>12}")
    reporter.line(f"{'dedup on':<12} {on:>12} {on // FAMILY:>12}")
    reporter.line()
    reporter.line(f"reduction: {ratio:.2f}x")
    reporter.line(
        "pages: {unique} unique / {refs} refs, saved {saved} bytes".format(
            unique=stats["unique_pages"],
            refs=stats["page_references"],
            saved=stats["bytes_saved"],
        )
    )

    assert on < off
    if FAMILY >= 20:
        assert ratio >= 3.0, f"dedup reduction {ratio:.2f}x below target"

    # Dedup'd reads stay exact.
    got = deduped.get_snapshot_weights("fam-1")
    for layer, params in nets[1].get_weights().items():
        for key, value in params.items():
            np.testing.assert_array_equal(got[layer][key], value)
    deduped.close()


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


def test_dedup_serve_cache_hit_rate(reporter):
    serve_n = min(FAMILY, 8)
    nets = _family(max(serve_n, 3))
    repo = _populate(nets)
    repo.archive(alpha=4.0, dedup=True)

    cache = PlaneCache(64 << 20)
    archive = repo.archive_view(plane_cache=cache)
    snapshots = sorted(
        {
            f"v{row['version_id']}/s{row['snapshot_idx']}"
            for row in repo.catalog.get_matrices()
        }
    )[:serve_n]
    members = [m for snap in snapshots for m in archive._snapshots[snap]]
    planes = {}  # plane address -> the first (entry, index) read under it
    for m in members:
        for i in range(4):
            entry = archive.manifest[m]
            planes.setdefault(archive.plane_address(entry, i), (entry, i))
    reporter.line(f"serving {len(snapshots)} family members twice "
                  "through one PlaneCache")
    reporter.line()
    reporter.line(f"{'round':>6} {'members':>8} {'hits':>8} {'misses':>8} "
                  f"{'hit rate':>9}")
    rounds = []
    for round_ in (1, 2):
        for i, snapshot in enumerate(snapshots, start=1):
            archive.recreate_snapshot(snapshot)
            stats = cache.stats()
            reporter.line(
                f"{round_:>6} {i:>8} {stats['hits']:>8} {stats['misses']:>8} "
                f"{stats['hit_rate']:>8.1%}"
            )
        rounds.append(cache.stats())
    cold, final = rounds
    reporter.line()
    assembled = sum(int(np.prod(e.shape)) for e, _ in planes.values())
    reporter.line(f"final hit rate: {final['hit_rate']:.1%} "
                  f"({final['cached_bytes']} cached bytes, "
                  f"{final['shared_bytes']} of them shared base pages; "
                  f"{assembled} assembled; {len(planes)} planes)")

    # Each distinct plane is read once and cached once, at its exact
    # charge; the warm round re-reads nothing.
    assert cold["misses"] == cold["entries"] == len(planes)
    assert cold["cached_bytes"] == _cache_charge(archive, planes.values())
    assert final["misses"] == cold["misses"]
    assert final["hits"] == cold["hits"] + 4 * len(members)
    assert final["hit_rate"] >= 0.5
    repo.close()
