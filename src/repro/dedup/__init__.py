"""Cross-model page-level deduplication (the NeurStore-style tier).

Splits byte planes into fixed-size content-addressed pages, indexes
them by exact hash plus a band sketch so near-duplicate pages across
*unrelated* models resolve to one stored copy (with tiny XOR patch
deltas for near-misses), and plugs into archival as a ``kind="pages"``
storage-graph edge, into all three storage backends as a refcounted
``pages`` blob namespace, and into the serve tier through
content-hash-keyed :class:`~repro.serve.cache.PlaneCache` entries.
"""

from repro.dedup.index import DedupEstimator, SketchIndex
from repro.dedup.pages import (
    DEFAULT_PAGE_SIZE,
    DEFAULT_PATCH_MAX_RATIO,
    DEFAULT_PROBE_LIMIT,
    SKETCH_BANDS,
    decode_plane,
    manifest_shas,
    page_digest,
    sketch_keys,
    split_pages,
    xor_bytes,
)
from repro.dedup.store import PageStore

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_PATCH_MAX_RATIO",
    "DEFAULT_PROBE_LIMIT",
    "SKETCH_BANDS",
    "DedupEstimator",
    "PageStore",
    "SketchIndex",
    "decode_plane",
    "manifest_shas",
    "page_digest",
    "sketch_keys",
    "split_pages",
    "xor_bytes",
]
