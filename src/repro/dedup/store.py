"""Refcounted, similarity-indexed page store over a blob namespace.

:class:`PageStore` binds the dedup encoding of :mod:`repro.dedup.pages`
to a repository: page blobs land in the backend's ``pages`` blob
namespace, while manifests, refcounts, and sketch rows live in the
catalog so they commit atomically with the payload rewrite of an
archive run.

Write protocol (crash-safe on all three backends):

1. ``encode_plane`` puts page/patch blobs immediately — they are
   content-addressed and idempotent, so a crash strands at worst
   unreferenced blobs (swept by ``gc`` / fsck ``F403``) — and *buffers*
   every catalog mutation (refcount bumps, sketch rows).
2. The caller opens ``catalog.transaction()``, writes the payload and
   page manifests, and calls :meth:`flush` so refcounts and sketches
   commit in the same transaction.  On the SQLite/memory backends the
   blob writes join that transaction too; on local-fs the journal's
   archive intent covers the window.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro.obs.metrics import counter

from repro.dedup.index import SketchIndex
from repro.dedup.pages import (
    DEFAULT_PAGE_SIZE,
    DEFAULT_PATCH_MAX_RATIO,
    DEFAULT_PROBE_LIMIT,
    manifest_shas,
    page_digest,
    sketch_keys,
    split_pages,
    xor_bytes,
)


class _BufferedBlobs:
    """Write-buffering view of a blob store, for dry runs.

    ``put`` keeps the bytes in memory, so a later page of the same dry
    run can share or patch against them exactly as it would once they
    were stored; reads fall through to the wrapped store, whose address
    set is listed once up front.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.stored_size_of = inner.stored_size_of
        self._stored = set(inner.addresses())
        self._buffered: dict[str, bytes] = {}

    def put(self, data: bytes) -> str:
        sha = page_digest(data)
        self._buffered[sha] = data
        return sha

    def get(self, sha: str) -> bytes:
        data = self._buffered.get(sha)
        return data if data is not None else self.inner.get(sha)

    def __contains__(self, sha: str) -> bool:
        return sha in self._buffered or sha in self._stored


class PageStore:
    """Page-granular dedup encoder/decoder bound to one repository.

    Args:
        blobs: The backend's ``pages`` blob store.
        catalog: The repository catalog (manifests, refcounts, sketches).
        page_size: Page granularity in bytes.
    """

    def __init__(
        self, blobs, catalog, *, page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        self.blobs = blobs
        self.catalog = catalog
        self.page_size = page_size
        self._pending_refs: Counter = Counter()
        self._pending_sketches: list[tuple[str, str]] = []
        self._pending_counts: Counter = Counter()
        self._pending_shared: Counter = Counter()
        self._run_index = SketchIndex()
        # Does the catalog hold sketch rows at all?  Asked on the first
        # probe (rows only appear at flush): a first archive skips the
        # per-page query, and read-only views never ask.
        self._persistent_index: Optional[bool] = None

    def dry_run(self) -> "PageStore":
        """A twin over a write-buffering view of the same blobs and the
        same persistent index: whatever it plans, this store would plan
        too, and nothing it does outlives it (it is never flushed)."""
        return PageStore(
            _BufferedBlobs(self.blobs), self.catalog, page_size=self.page_size
        )

    # -- encoding -----------------------------------------------------------

    def encode_plane(self, data: bytes) -> dict:
        """Page-encode one plane's bytes; returns the plane manifest.

        Blob writes happen immediately; catalog effects are buffered
        until :meth:`flush` (see module docs for the crash protocol).
        """
        return self.plan_plane(data)[0]

    def plan_plane(self, data: bytes) -> tuple[dict, int]:
        """The page planner: ``(plane manifest, stored bytes added)``.

        Per page: an exact hit shares the stored page; else the cheapest
        patch within budget among the top-voted sketch candidates; else
        the page becomes a new base with sketch rows.  Sizes are asked
        of the blob codec, so the second value *is* the growth of
        ``blobs.total_size()`` this call causes.
        """
        pages_meta: list[list[Optional[str]]] = []
        added = 0
        count = self._pending_counts
        for page in split_pages(data, self.page_size):
            sha = page_digest(page)
            count["pages_referenced"] += 1
            if sha in self.blobs:
                self._pending_shared[sha] += 1
                self._pending_refs[sha] += 1
                pages_meta.append([sha, None])
                continue
            raw_c = self.blobs.stored_size_of(page)
            keys = sketch_keys(page)
            base_sha, patch, patch_c = self._probe(page, keys, raw_c)
            if base_sha is not None:
                if page_digest(patch) in self.blobs:
                    patch_c = 0  # the same patch bytes are already stored
                patch_sha = self.blobs.put(patch)
                count["pages_patched"] += 1
                count["bytes_stored"] += patch_c
                count["bytes_saved"] += raw_c - patch_c
                added += patch_c
                self._pending_refs[base_sha] += 1
                self._pending_refs[patch_sha] += 1
                pages_meta.append([base_sha, patch_sha])
            else:
                self.blobs.put(page)
                count["pages_stored"] += 1
                count["bytes_stored"] += raw_c
                added += raw_c
                self._run_index.add(sha, keys)
                self._pending_sketches.extend((key, sha) for key in keys)
                self._pending_refs[sha] += 1
                pages_meta.append([sha, None])
        manifest = {
            "psize": self.page_size,
            "nbytes": len(data),
            "sha": page_digest(data),
            "pages": pages_meta,
        }
        return manifest, added

    def _probe(
        self, page: bytes, keys: list[str], raw_compressed: int
    ) -> tuple[Optional[str], Optional[bytes], int]:
        """The base page this one patches best against, the patch and its
        stored size — or ``(None, None, 0)``.

        Candidates come from the persistent sketch index (previous
        archive runs) merged with the in-run overlay, ranked by band
        votes; the best acceptable patch wins.
        """
        self._pending_counts["index_probes"] += 1
        votes = self._run_index.votes(keys)
        if self._persistent_index is None:
            self._persistent_index = self.catalog.has_page_sketches()
        if self._persistent_index:
            for cand_sha in self.catalog.sketch_candidates(
                keys, DEFAULT_PROBE_LIMIT
            ):
                votes[cand_sha] += 1
        budget = max(0, int(DEFAULT_PATCH_MAX_RATIO * raw_compressed))
        best: tuple[Optional[str], Optional[bytes], int] = (None, None, 0)
        for cand_sha, _ in votes.most_common(DEFAULT_PROBE_LIMIT):
            try:
                base = self.blobs.get(cand_sha)
            except (KeyError, ValueError):
                continue
            patch = xor_bytes(page, base)
            patch_c = self.blobs.stored_size_of(patch)
            if patch_c <= budget and (best[0] is None or patch_c < best[2]):
                best = (cand_sha, patch, patch_c)
        if best[0] is not None:
            self._pending_counts["index_hits"] += 1
        return best

    def flush(self) -> None:
        """Apply buffered refcounts and sketch rows to the catalog, and
        the run's ``dedup.*`` counts to the metrics registry.

        The caller must hold ``catalog.transaction()`` so these rows
        commit atomically with the manifests that justify them.
        """
        for sha, delta in self._pending_refs.items():
            self.catalog.bump_page_ref(sha, delta)
        for key, sha in self._pending_sketches:
            self.catalog.add_page_sketch(key, sha)
        self._pending_counts.update(
            pages_shared=sum(self._pending_shared.values()),
            bytes_saved=sum(
                n * self.blobs.stored_size(sha)
                for sha, n in self._pending_shared.items()
            ),
        )
        for name, n in self._pending_counts.items():
            counter(f"dedup.{name}").inc(n)
        self._persistent_index = None
        for pending in (self._pending_refs, self._pending_sketches,
                        self._pending_counts, self._pending_shared):
            pending.clear()

    # -- maintenance --------------------------------------------------------

    def referenced_counts(self) -> Counter:
        """True per-sha reference counts recomputed from all manifests."""
        counts: Counter = Counter()
        for _matrix_id, _plane, manifest in self.catalog.all_page_manifests():
            for sha in manifest_shas(manifest):
                counts[sha] += 1
        return counts

    def sweep_orphans(self, live: Iterable[str]) -> list[str]:
        """Delete page blobs (and their index rows) outside ``live``."""
        live = set(live)
        swept = [sha for sha in list(self.blobs.addresses()) if sha not in live]
        for sha in swept:
            self.blobs.delete(sha)
        if swept:
            self.catalog.forget_pages(swept)
            counter("dedup.pages_swept").inc(len(swept))
        return swept

    def stats(self) -> dict:
        """Family-wide dedup accounting for ``dlv stats``."""
        refcounts = self.catalog.page_refcounts()
        matrices: set[str] = set()
        logical = 0
        for matrix_id, _plane, manifest in self.catalog.all_page_manifests():
            matrices.add(matrix_id)
            logical += int(manifest["nbytes"])
        stored = self.blobs.total_size()
        referenced_stored = 0
        for sha, count in refcounts.items():
            try:
                referenced_stored += count * self.blobs.stored_size(sha)
            except KeyError:
                continue
        return {
            "page_matrices": len(matrices),
            "unique_pages": len(refcounts),
            "page_references": sum(refcounts.values()),
            "logical_bytes": logical,
            "stored_bytes": stored,
            "bytes_saved": max(0, referenced_stored - stored),
        }


__all__ = ["PageStore"]
