"""Page-granular encoding primitives for cross-model deduplication.

PAS delta-encodes along lineage only, so two *unrelated* models with
near-identical tensors store their byte planes twice.  The dedup tier
(NeurStore-style) splits every byte plane into fixed-size **pages**,
addresses each page by the SHA-256 of its content, and represents a
plane as a manifest of page references.  Pages shared across models —
the common case in fine-tuned families, where most high-order bytes
never move — are stored once; near-duplicate pages are stored as a
sparse XOR patch against an existing base page.

A plane manifest is JSON-friendly::

    {"psize": 1024, "nbytes": 7372, "sha": "<plane sha>",
     "pages": [["<base sha>", null], ["<base sha>", "<patch sha>"], ...]}

``pages[i]`` covers bytes ``[i*psize, (i+1)*psize)`` of the plane; a
``null`` patch means the base page *is* the content, otherwise the page
is ``xor_bytes(patch, base)``.  ``sha`` is the digest of the whole
assembled plane, which lets the replica tier keep serving exact planes
for page-encoded payloads.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.chunkstore import BlobCodec

#: Default page size in bytes.  Small enough that a sparse fine-tuning
#: perturbation leaves most pages of a plane untouched, large enough
#: that per-page overhead (hash + manifest entry) stays negligible.
DEFAULT_PAGE_SIZE = 1024

#: Bands per page for the similarity sketch (see :func:`sketch_keys`).
SKETCH_BANDS = 32

#: A near-miss patch is accepted only when its compressed size is at
#: most this fraction of the page's own compressed size.
DEFAULT_PATCH_MAX_RATIO = 0.5

#: How many sketch candidates (by band votes) to try patching against.
DEFAULT_PROBE_LIMIT = 4

#: Content address of one page or plane: the blob codec's own rule.
page_digest = BlobCodec.address


def split_pages(data: bytes, page_size: int = DEFAULT_PAGE_SIZE) -> list[bytes]:
    """Split plane bytes into fixed-size pages (last page may be short)."""
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    return [data[i:i + page_size] for i in range(0, len(data), page_size)]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR ``b`` into ``a``; the result has ``len(a)`` (``b`` is
    zero-padded or truncated to fit).

    The same function both *makes* a patch (``xor_bytes(page, base)``)
    and *applies* one (``xor_bytes(patch, base)``) because XOR is its
    own inverse and a patch records the page's true length.
    """
    out = np.frombuffer(a, dtype=np.uint8).copy()
    n = min(len(a), len(b))
    if n:
        out[:n] ^= np.frombuffer(b[:n], dtype=np.uint8)
    return out.tobytes()


def sketch_keys(page: bytes, bands: int = SKETCH_BANDS) -> list[str]:
    """Locality-sensitive sketch of a page: one key per contiguous band.

    The page is cut into ``bands`` equal slices and each slice hashed
    (CRC-32).  Two pages differing in a sparse subset of bytes still
    agree on most band keys, so probing the sketch index with a new
    page's keys surfaces near-duplicate base pages by vote count —
    exact-match banding, the degenerate (but cheap and deterministic)
    end of the LSH family.
    """
    if not page:
        return []
    width = max(1, -(-len(page) // bands))
    return [
        f"{i}:{zlib.crc32(page[off:off + width]):08x}"
        for i, off in enumerate(range(0, len(page), width))
    ]


def manifest_shas(manifest: dict) -> Iterator[str]:
    """Every blob address a plane manifest references (bases then patches)."""
    for base_sha, patch_sha in manifest["pages"]:
        yield base_sha
        if patch_sha:
            yield patch_sha


def decode_plane(
    manifest: dict,
    fetch: Callable[[str], bytes],
    *,
    missing_ok: bool = False,
    on_missing: Optional[Callable[[str, Exception], None]] = None,
) -> bytes:
    """Reassemble plane bytes from a page manifest.

    Args:
        manifest: A plane manifest (see module docs).
        fetch: ``sha -> bytes`` page reader (raising ``KeyError`` /
            ``ValueError`` for lost or corrupt pages).
        missing_ok: Zero-fill pages whose blobs cannot be read instead
            of raising — the degraded-retrieval analogue of a lost
            low-order plane.
        on_missing: Callback invoked per unreadable page with the sha
            that failed and the original exception.
    """
    psize = int(manifest["psize"])
    nbytes = int(manifest["nbytes"])
    out = bytearray(nbytes)
    pos = 0
    for base_sha, patch_sha in manifest["pages"]:
        want = min(psize, nbytes - pos)
        try:
            base = fetch(base_sha)
            page = xor_bytes(fetch(patch_sha), base) if patch_sha else base
        except (KeyError, ValueError) as exc:
            if not missing_ok:
                raise
            if on_missing is not None:
                on_missing(patch_sha or base_sha, exc)
            page = b"\x00" * want
        out[pos:pos + want] = page[:want]
        pos += psize
    return bytes(out)
