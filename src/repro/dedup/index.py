"""Similarity index helpers and the archival-planning cost estimator.

The *persistent* sketch index lives in the catalog (``page_sketch``
rows, written atomically with the page manifests inside the
archive transaction); this module holds the in-memory half:

* :class:`SketchIndex` — the per-archive-run overlay.  An archive run
  encodes many matrices before anything is committed, so pages stored
  earlier in the same run must be probe-able immediately, not only
  after the catalog flush.
* :class:`DedupEstimator` — a dry run of the page store used by
  :meth:`~repro.dlv.repository.Repository.build_storage_graph` to price
  the ``kind="pages"`` root edge for each matrix *without* mutating any
  store.  It runs the store's own page planner (a never-flushed
  :meth:`~repro.dedup.store.PageStore.dry_run`) over the same blobs and
  the same persistent sketch index, so the priced edge is what
  page-encoding the same matrices in the same order would add to the
  page tier — and the store it was made from reuses the dry run's page
  digests, sketch keys and patch sizes when it encodes them for real.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np

from repro.core.segmentation import segment_planes


class SketchIndex:
    """In-memory band-sketch index over base pages."""

    def __init__(self) -> None:
        self._buckets: dict[str, list[str]] = {}

    def add(self, sha: str, keys: Iterable[str]) -> None:
        for key in keys:
            self._buckets.setdefault(key, []).append(sha)

    def votes(self, keys: Iterable[str]) -> Counter:
        """Candidate base shas by number of matching bands."""
        votes: Counter = Counter()
        for key in keys:
            for sha in self._buckets.get(key, ()):
                votes[sha] += 1
        return votes


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
