"""Similarity-indexed page store over a blob namespace.

:class:`PageStore` binds the dedup encoding of :mod:`repro.dedup.pages`
to a repository: page blobs land in the backend's ``pages`` blob
namespace, while manifests and sketch rows live in the catalog so they
commit atomically with the payload rewrite of an archive run.  The
manifests are the one record of the pages: which are live
(:meth:`~repro.dlv.repository.Repository.live_addresses`) and how often
each is referenced (:meth:`PageStore.stats`).

Write protocol (crash-safe on all three backends):

1. ``encode_plane`` plans and writes nothing: new page and patch blobs
   wait in the store's write buffer, and the sketch rows of new base
   pages are buffered beside them.
2. The caller opens ``catalog.transaction()``, writes the payload and
   page manifests, and calls :meth:`PageStore.flush`, which lands the
   buffered blobs with one ``put_many`` and the sketch rows with one
   ``executemany``, both before the transaction commits.  On the
   SQLite/memory backends the blob rows join that transaction; on
   local-fs the batch lands as one pack, fsynced and renamed with its
   directory fsynced, before the catalog commits.  A crash before the
   commit strands at worst unreferenced blobs, which ``gc`` (run by the
   journal replay of the archive intent) and fsck ``F403`` sweep.

A dry run (:meth:`PageStore.dry_run`, what
:class:`~repro.dedup.index.DedupEstimator` prices with) is the same
planner with a buffer of its own that is never flushed.  It shares with
the store it was made from the facts that depend on content alone —
the addresses the tier held when planning began, page digests, sketch
keys, persistent-index candidates and each (page, base) patch's
address and stored size — so the real run re-derives none of them.
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


class _PlanFacts:
    """What a store and its dry runs learn about content while planning.

    Valid until the store flushes: nothing lands in the page tier or
    the sketch index before then, so every entry stays true.
    """

    def __init__(self) -> None:
        #: Page-tier addresses when planning began (listed once).
        self.stored: Optional[set[str]] = None
        #: Whether the catalog holds any sketch rows (asked once).
        self.persistent: Optional[bool] = None
        self.page_shas: dict[str, list[str]] = {}  # plane sha -> pages
        self.keys: dict[str, list[str]] = {}  # page sha -> sketch keys
        self.candidates: dict[str, list[str]] = {}  # page sha -> index hits
        #: (page sha, base sha) -> (patch sha, patch stored size).
        self.patches: dict[tuple[str, str], tuple[str, int]] = {}


class PageStore:
    """Page-granular dedup encoder/decoder bound to one repository.

    Args:
        blobs: The backend's ``pages`` blob store.
        catalog: The repository catalog (manifests, sketches).
        page_size: Page granularity in bytes.
    """

    def __init__(
        self, blobs, catalog, *, page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        self.blobs = blobs
        self.catalog = catalog
        self.page_size = page_size
        self._buffer: dict[str, bytes] = {}
        self._pending_sketches: list[tuple[str, str]] = []
        self._pending_counts: Counter = Counter()
        self._pending_shared: Counter = Counter()
        self._run_index = SketchIndex()
        self._facts = _PlanFacts()

    def dry_run(self) -> "PageStore":
        """A twin over the same blobs, index and plan facts: whatever it
        plans, this store would plan too, and nothing it does outlives
        it (it is never flushed)."""
        twin = PageStore(self.blobs, self.catalog, page_size=self.page_size)
        twin._facts = self._facts
        return twin

    # -- encoding -----------------------------------------------------------

    def encode_plane(self, data: bytes) -> dict:
        """Page-encode one plane's bytes; returns the plane manifest.

        Blob writes and catalog effects are buffered until
        :meth:`flush` (see module docs for the crash protocol).
        """
        return self.plan_plane(data)[0]

    def plan_plane(self, data: bytes) -> tuple[dict, int]:
        """The page planner: ``(plane manifest, stored bytes added)``.

        Per page: an exact hit shares the stored page; else the cheapest
        patch within budget among the top-voted sketch candidates; else
        the page becomes a new base with sketch rows.  Sizes are asked
        of the blob codec, so the second value *is* the growth of
        ``blobs.total_size()`` flushing this plan causes.
        """
        facts = self._facts
        plane_sha = page_digest(data)
        pages = split_pages(data, self.page_size)
        shas = facts.page_shas.get(plane_sha)
        if shas is None:
            shas = facts.page_shas[plane_sha] = [page_digest(p) for p in pages]
        pages_meta: list[list[Optional[str]]] = []
        added = 0
        count = self._pending_counts
        for page, sha in zip(pages, shas):
            count["pages_referenced"] += 1
            if self._holds(sha):
                self._pending_shared[sha] += 1
                pages_meta.append([sha, None])
                continue
            raw_c = self.blobs.stored_size_of(page)
            keys = facts.keys.get(sha)
            if keys is None:
                keys = facts.keys[sha] = sketch_keys(page)
            base_sha, patch_sha, patch_c = self._probe(page, sha, keys, raw_c)
            if base_sha is not None:
                if self._holds(patch_sha):
                    patch_c = 0  # the same patch bytes are already stored
                else:
                    self._buffer[patch_sha] = xor_bytes(
                        page, self._read(base_sha)
                    )
                count["pages_patched"] += 1
                count["bytes_stored"] += patch_c
                count["bytes_saved"] += raw_c - patch_c
                added += patch_c
                pages_meta.append([base_sha, patch_sha])
            else:
                self._buffer[sha] = page
                count["pages_stored"] += 1
                count["bytes_stored"] += raw_c
                added += raw_c
                self._run_index.add(sha, keys)
                self._pending_sketches.extend((key, sha) for key in keys)
                pages_meta.append([sha, None])
        manifest = {
            "psize": self.page_size,
            "nbytes": len(data),
            "sha": plane_sha,
            "pages": pages_meta,
        }
        return manifest, added

    def _holds(self, sha: str) -> bool:
        """Whether ``sha`` is stored, or buffered by this run."""
        if sha in self._buffer:
            return True
        if self._facts.stored is None:
            self._facts.stored = set(self.blobs.addresses())
        return sha in self._facts.stored

    def _read(self, sha: str) -> bytes:
        data = self._buffer.get(sha)
        return data if data is not None else self.blobs.get(sha)

    def _probe(
        self, page: bytes, sha: str, keys: list[str], raw_compressed: int
    ) -> tuple[Optional[str], Optional[str], int]:
        """The base page this one patches best against, the patch's
        address and its stored size — or ``(None, None, 0)``.

        Candidates come from the persistent sketch index (previous
        archive runs) merged with the in-run overlay, ranked by band
        votes; the best acceptable patch wins.
        """
        facts = self._facts
        self._pending_counts["index_probes"] += 1
        votes = self._run_index.votes(keys)
        if facts.persistent is None:
            facts.persistent = self.catalog.has_page_sketches()
        if facts.persistent:
            candidates = facts.candidates.get(sha)
            if candidates is None:
                candidates = facts.candidates[sha] = (
                    self.catalog.sketch_candidates(keys, DEFAULT_PROBE_LIMIT)
                )
            for cand_sha in candidates:
                votes[cand_sha] += 1
        budget = max(0, int(DEFAULT_PATCH_MAX_RATIO * raw_compressed))
        best: tuple[Optional[str], Optional[str], int] = (None, None, 0)
        for cand_sha, _ in votes.most_common(DEFAULT_PROBE_LIMIT):
            patch = facts.patches.get((sha, cand_sha))
            if patch is None:
                try:
                    base = self._read(cand_sha)
                except (KeyError, ValueError):
                    continue
                data = xor_bytes(page, base)
                patch = facts.patches[(sha, cand_sha)] = (
                    page_digest(data), self.blobs.stored_size_of(data)
                )
            patch_sha, patch_c = patch
            if patch_c <= budget and (best[0] is None or patch_c < best[2]):
                best = (cand_sha, patch_sha, patch_c)
        if best[0] is not None:
            self._pending_counts["index_hits"] += 1
        return best

    def flush(self) -> None:
        """Land the buffered blobs, the buffered sketch rows in the
        catalog, and the run's ``dedup.*`` counts in the metrics
        registry.

        The caller must hold ``catalog.transaction()`` so these rows
        commit atomically with the manifests that justify them.
        """
        self.blobs.put_many(self._buffer.values())
        self.catalog.add_page_sketches(self._pending_sketches)
        self._pending_counts.update(
            pages_shared=sum(self._pending_shared.values()),
            bytes_saved=sum(
                n * self.blobs.stored_size(sha)
                for sha, n in self._pending_shared.items()
            ),
        )
        for name, n in self._pending_counts.items():
            counter(f"dedup.{name}").inc(n)
        self._facts = _PlanFacts()
        for pending in (self._buffer, self._pending_sketches,
                        self._pending_counts, self._pending_shared):
            pending.clear()

    # -- maintenance --------------------------------------------------------

    def sweep_orphans(self, live: Iterable[str]) -> list[str]:
        """Delete page blobs (and their index rows) outside ``live``."""
        live = set(live)
        swept = [sha for sha in self.blobs.addresses() if sha not in live]
        self.blobs.delete_many(swept)
        if swept:
            self.catalog.forget_pages(swept)
            counter("dedup.pages_swept").inc(len(swept))
        return swept

    def stats(self) -> dict:
        """Family-wide dedup accounting for ``dlv stats``, counted from
        the manifests."""
        references: Counter = Counter()
        matrices: set[str] = set()
        logical = 0
        for matrix_id, _plane, manifest in self.catalog.all_page_manifests():
            matrices.add(matrix_id)
            logical += int(manifest["nbytes"])
            references.update(manifest_shas(manifest))
        stored = self.blobs.total_size()
        referenced_stored = 0
        for sha, count in references.items():
            try:
                referenced_stored += count * self.blobs.stored_size(sha)
            except KeyError:
                continue
        return {
            "page_matrices": len(matrices),
            "unique_pages": len(references),
            "page_references": sum(references.values()),
            "logical_bytes": logical,
            "stored_bytes": stored,
            "bytes_saved": max(0, referenced_stored - stored),
        }


__all__ = ["PageStore"]
