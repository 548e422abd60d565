"""Similarity index helpers and the archival-planning cost estimator.

The sketch index is never stored: each archive run rebuilds it in
memory, and nothing outside the process sees its keys.

* :class:`SketchIndex` — band-key voting over base pages.  A run keeps
  two: one over the base pages the catalog's page manifests name, read
  once when the run first probes (shared by the store and its dry runs,
  since it depends on stored content only), and one per store over the
  bases that store adds, so pages planned earlier in the same run are
  probe-able before anything lands.
* :class:`DedupEstimator` — a dry run of the page store used by
  :meth:`~repro.dlv.repository.Repository.build_storage_graph` to price
  the ``kind="pages"`` root edge for each matrix *without* mutating any
  store.  It runs the store's own page planner (a never-flushed
  :meth:`~repro.dedup.store.PageStore.dry_run`) over the same blobs and
  the same index of stored bases, so the priced edge is what
  page-encoding the same matrices in the same order would add to the
  page tier — and the store it was made from reuses the dry run's page
  digests, sketch keys and patches when it encodes them for real.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from repro.core.segmentation import segment_planes


class SketchIndex:
    """In-memory band-sketch index over base pages."""

    def __init__(self) -> None:
        self._buckets: dict[int, list[str]] = {}

    def add(self, sha: str, keys: Iterable[int]) -> None:
        for key in keys:
            self._buckets.setdefault(key, []).append(sha)

    def votes(self, keys: Iterable[int]) -> Counter:
        """Candidate base shas by number of matching bands, in the order
        their first matching band was met."""
        return Counter(chain.from_iterable(
            map(self._buckets.get, keys, repeat(()))
        ))

    def top(self, keys: Iterable[int], limit: int) -> list[str]:
        """The ``limit`` most-voted base shas, ties by address."""
        best = heapq.nsmallest(
            limit, self.votes(keys).items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [sha for sha, _ in best]


class DedupEstimator:
    """Price page-encoding matrices against a :class:`PageStore`.

    Fed matrices in the order the archive build will encode them, each
    call returns the stored bytes that matrix would add: only pages
    neither the store nor an earlier call already holds, patches priced
    as patches.
    """

    def __init__(self, store) -> None:
        self._dry = store.dry_run()

    def matrix_cost(self, matrix: np.ndarray) -> int:
        """Stored bytes page-encoding ``matrix`` next would add."""
        return sum(
            self._dry.plan_plane(plane)[1] for plane in segment_planes(matrix)
        )


__all__ = ["DedupEstimator", "SketchIndex"]
