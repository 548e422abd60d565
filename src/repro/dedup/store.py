"""Similarity-indexed page store over a blob namespace.

:class:`PageStore` binds the dedup encoding of :mod:`repro.dedup.pages`
to a repository: page blobs land in the backend's ``pages`` blob
namespace, while manifests live in the catalog so they commit
atomically with the payload rewrite of an archive run.  The manifests
are the one record of the pages: which are live
(:meth:`~repro.dlv.repository.Repository.live_addresses`), how often
each is referenced (:meth:`PageStore.stats`) and which are bases the
next run may patch against — the sketch index is rebuilt from them in
memory on each run's first probe (:mod:`repro.dedup.index`), and never
stored.

Write protocol (crash-safe on all three backends):

1. ``encode_plane`` plans and writes nothing: new page and patch blobs
   wait in the store's write buffer.
2. The caller opens ``catalog.transaction()``, writes the payload and
   page manifests, and calls :meth:`PageStore.flush`, which lands the
   buffered blobs with one ``put_many`` before the transaction commits.
   On the SQLite/memory backends the blob rows join that transaction;
   on local-fs the batch lands as one pack, fsynced and renamed with
   its directory fsynced, before the catalog commits.  A crash before
   the commit strands at worst unreferenced blobs, which ``gc`` (run by
   the journal replay of the archive intent) and fsck ``F403`` sweep.

A dry run (:meth:`PageStore.dry_run`, what
:class:`~repro.dedup.index.DedupEstimator` prices with) is the same
planner with a buffer of its own that is never flushed.  It shares with
the store it was made from the facts that depend on content alone —
the addresses the tier held when planning began, the sketch index of
its stored bases, page digests, sketch keys and each (page, base)
patch's bytes, address and stored size — so the real run re-derives
none of them.
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
    stored_size_floor,
    xor_bytes,
)


class _PlanFacts:
    """What a store and its dry runs learn about content while planning.

    Valid until the store flushes: nothing lands in the page tier
    before then, so every entry stays true.
    """

    def __init__(self) -> None:
        #: Page-tier addresses when planning began (listed once).
        self.stored: Optional[set[str]] = None
        #: The stored base pages the manifests name, and their sketch
        #: index (both read and built on the first probe).
        self.bases: dict[str, bytes] = {}
        self.index: Optional[SketchIndex] = None
        #: Bases the manifests name, and other stored forms a manifest
        #: was about to reuse, that could not be read (lost or corrupt):
        #: not held, so a page or patch that is one is stored again.
        self.unreadable: set[str] = set()
        #: Stored forms read back this run: the bases the index build
        #: read, and any other a manifest was about to reuse.
        self.verified: set[str] = set()
        self.page_shas: dict[str, list[str]] = {}  # plane sha -> pages
        self.keys: dict[str, list[int]] = {}  # page sha -> sketch keys
        self.floors: dict[str, int] = {}  # page sha -> stored_size_floor
        self.top: dict[str, list[str]] = {}  # page sha -> _stored_top
        #: (page sha, base sha) -> (patch sha, patch stored size, patch).
        self.patches: dict[tuple[str, str], tuple[str, int, bytes]] = {}


class PageStore:
    """Page-granular dedup encoder/decoder bound to one repository.

    Args:
        blobs: The backend's ``pages`` blob store.
        catalog: The repository catalog (page manifests).
        page_size: Page granularity in bytes.
    """

    def __init__(
        self, blobs, catalog, *, page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        self.blobs = blobs
        self.catalog = catalog
        self.page_size = page_size
        self._buffer: dict[str, bytes] = {}
        self._pending_counts: Counter = Counter()
        self._pending_shared: Counter = Counter()
        self._run_index = SketchIndex()
        self._facts = _PlanFacts()

    def dry_run(self) -> "PageStore":
        """A twin over the same blobs and plan facts: whatever it plans,
        this store would plan too, and nothing it does outlives it (it
        is never flushed)."""
        twin = PageStore(self.blobs, self.catalog, page_size=self.page_size)
        twin._facts = self._facts
        return twin

    # -- encoding -----------------------------------------------------------

    def encode_plane(self, data: bytes) -> dict:
        """Page-encode one plane's bytes; returns the plane manifest.

        Blob writes are buffered until :meth:`flush` (see module docs
        for the crash protocol).
        """
        return self.plan_plane(data)[0]

    def plan_plane(self, data: bytes) -> tuple[dict, int]:
        """The page planner: ``(plane manifest, stored bytes added)``.

        Per page: an exact hit shares the stored page; else the smallest
        patch against the top-voted sketch candidates, if it stores in
        at most half the page's own stored size; else the page becomes
        a new base.  Sizes are asked of the blob codec, so the second
        value *is* the growth of ``blobs.total_size()`` flushing this
        plan causes.  A page whose best patch is within half of
        :func:`~repro.dedup.pages.stored_size_floor` is not compressed
        at all: the patch wins whatever the page's exact size is.
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
            keys = facts.keys.get(sha)
            if keys is None:
                keys = facts.keys[sha] = sketch_keys(page)
            best = self._probe(page, sha, keys)
            raw_c = None
            if best is not None:
                base_sha, patch_sha, patch_c, patch = best
                # The floor settles most contests without compressing.
                raw_c = facts.floors.get(sha)
                if raw_c is None:
                    raw_c = facts.floors[sha] = stored_size_floor(page)
                if patch_c > int(DEFAULT_PATCH_MAX_RATIO * raw_c):
                    raw_c = self.blobs.stored_size_of(page, sha)
                    if patch_c > int(DEFAULT_PATCH_MAX_RATIO * raw_c):
                        best = None
            if best is not None:
                count["index_hits"] += 1
                if self._holds(patch_sha):
                    patch_c = 0  # the same patch bytes are already stored
                else:
                    self._buffer[patch_sha] = patch
                count["pages_patched"] += 1
                count["bytes_stored"] += patch_c
                # A lower bound when the page was not compressed.
                count["bytes_saved"] += raw_c - patch_c
                added += patch_c
                pages_meta.append([base_sha, patch_sha])
            else:
                if raw_c is None:
                    raw_c = self.blobs.stored_size_of(page, sha)
                self._buffer[sha] = page
                count["pages_stored"] += 1
                count["bytes_stored"] += raw_c
                added += raw_c
                self._run_index.add(sha, keys)
                pages_meta.append([sha, None])
        manifest = {
            "psize": self.page_size,
            "nbytes": len(data),
            "sha": plane_sha,
            "pages": pages_meta,
        }
        return manifest, added

    def pending(self, sha: str) -> Optional[bytes]:
        """The bytes of a blob :meth:`flush` will land, or ``None``."""
        return self._buffer.get(sha)

    def _holds(self, sha: str) -> bool:
        """Whether ``sha`` is buffered by this run, or stored and readable.

        The index build reads every base; any other stored form (a
        patch) is read once per run, the first time a manifest would
        reuse it."""
        if sha in self._buffer:
            return True
        facts = self._facts
        if facts.stored is None:
            facts.stored = set(self.blobs.addresses())
        if sha not in facts.stored:
            return False
        if facts.index is None:
            self._index_stored_bases()
        if sha not in facts.verified:
            facts.verified.add(sha)
            try:
                self.blobs.get(sha)
            except (KeyError, ValueError):
                facts.unreadable.add(sha)
        return sha not in facts.unreadable

    def _stored_top(self, sha: str, keys: list[int]) -> list[str]:
        """The stored bases page ``sha`` shares the most bands with,
        best first (ties by address), at most
        :data:`~repro.dedup.pages.DEFAULT_PROBE_LIMIT`."""
        facts = self._facts
        if facts.index is None:
            self._index_stored_bases()
        if not facts.bases:
            return []
        top = facts.top.get(sha)
        if top is None:
            top = facts.top[sha] = facts.index.top(keys, DEFAULT_PROBE_LIMIT)
        return top

    def _index_stored_bases(self) -> None:
        """Read the stored base pages the manifests name, with one read
        of the page tier, and index their sketches.  A base that is lost
        or corrupt is left out: no patch can be made against it."""
        facts = self._facts
        wanted = list(dict.fromkeys(
            base_sha
            for _matrix, _plane, manifest in self.catalog.all_page_manifests()
            for base_sha, _patch in manifest["pages"]
        ))
        try:
            bases = {
                sha: data
                for sha, (data, _size) in self.blobs.get_many(wanted).items()
            }
        except (KeyError, ValueError):
            bases = {}
            for sha in wanted:
                try:
                    bases[sha] = self.blobs.get(sha)
                except (KeyError, ValueError):
                    continue
        facts.bases = bases
        facts.verified = set(wanted)
        facts.unreadable = facts.verified - bases.keys()
        facts.index = SketchIndex()
        for sha, data in bases.items():
            facts.index.add(sha, sketch_keys(data))

    def _probe(
        self, page: bytes, sha: str, keys: list[int]
    ) -> Optional[tuple[str, str, int, bytes]]:
        """The top-voted candidate base this page patches smallest
        against: ``(base sha, patch sha, patch stored size, patch)``, or
        ``None`` when there is no candidate.

        The bases this store added vote by band; the stored bases of
        :meth:`_stored_top` add one vote each.
        """
        facts = self._facts
        self._pending_counts["index_probes"] += 1
        votes = self._run_index.votes(keys)
        stored = self._stored_top(sha, keys)
        if stored:
            votes.update(stored)
        best = None
        for cand_sha, _ in votes.most_common(DEFAULT_PROBE_LIMIT):
            patch = facts.patches.get((sha, cand_sha))
            if patch is None:
                base = self._buffer.get(cand_sha)
                if base is None:
                    base = facts.bases[cand_sha]
                data = xor_bytes(page, base)
                patch_sha = page_digest(data)
                patch = facts.patches[(sha, cand_sha)] = (
                    patch_sha, self.blobs.stored_size_of(data, patch_sha), data
                )
            if best is None or patch[1] < best[2]:
                best = (cand_sha, *patch)
        return best

    def flush(self) -> None:
        """Land the buffered blobs and the run's ``dedup.*`` counts in
        the metrics registry.

        The caller must hold ``catalog.transaction()`` so the blobs
        commit atomically with the manifests that reference them.  An
        unreadable base this run stores again first loses its bad
        stored form (a put keeps what an address already holds).
        """
        bad = self._facts.unreadable & self._buffer.keys()
        if bad:
            self.blobs.delete_many(bad)
        self.blobs.put_many(self._buffer.values())
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
        self._run_index = SketchIndex()
        for pending in (self._buffer, self._pending_counts,
                        self._pending_shared):
            pending.clear()

    # -- maintenance --------------------------------------------------------

    def sweep_orphans(self, live: Iterable[str]) -> list[str]:
        """Delete page blobs outside ``live``."""
        live = set(live)
        swept = [sha for sha in self.blobs.addresses() if sha not in live]
        self.blobs.delete_many(swept)
        if swept:
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
