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
assembled plane, the plane cache's key; the replica tier mirrors the
pages themselves, each under its own address.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterator

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

#: Pages shorter than this deflate as one block (at memLevel 8 the
#: codec's symbol buffer holds 16,383 symbols), which is what
#: :func:`stored_size_floor` needs.
ONE_BLOCK_BYTES = 16384

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

    The write path *makes* a patch with it (``xor_bytes(page, base)``);
    :meth:`PagedPlane.assemble` applies one in place with the same rule,
    since XOR is its own inverse and a patch records the page's true
    length.
    """
    out = np.frombuffer(a, dtype=np.uint8).copy()
    n = min(len(a), len(b))
    if n:
        out[:n] ^= np.frombuffer(b[:n], dtype=np.uint8)
    return out.tobytes()


def sketch_keys(page: bytes, bands: int = SKETCH_BANDS) -> list[int]:
    """Locality-sensitive sketch of a page: one key per contiguous band.

    The page is cut into ``bands`` equal slices and each slice hashed
    (CRC-32); band ``i``'s key is ``i << 32 | crc``.  Two pages differing
    in a sparse subset of bytes still agree on most band keys, so
    probing the sketch index with a new page's keys surfaces
    near-duplicate base pages by vote count — exact-match banding, the
    degenerate (but cheap and deterministic) end of the LSH family.
    """
    if not page:
        return []
    width = max(1, -(-len(page) // bands))
    return [
        i << 32 | zlib.crc32(page[off:off + width])
        for i, off in enumerate(range(0, len(page), width))
    ]


#: ``n * log2(n)`` for every run count a one-block page can have.
_RUNS = np.arange(1, ONE_BLOCK_BYTES)
_NLOGN = np.concatenate(([0.0], _RUNS * np.log2(_RUNS)))


def stored_size_floor(page: bytes) -> int:
    """A lower bound on ``BlobCodec.stored_size_of(page)``, without
    compressing; ``0`` (no bound) from :data:`ONE_BLOCK_BYTES` up.

    The codec deflates with ``Z_RLE``, which matches at distance 1
    only, so the first byte of every run is a literal.  Below
    ``ONE_BLOCK_BYTES`` the page deflates as one block, and any prefix
    code for that block (fixed, dynamic or stored) spends at least the
    order-0 entropy of those literals (Kraft and Gibbs).  Add the
    2-byte zlib header and the 4-byte Adler-32: with ``C`` runs of which
    ``c_b`` start with byte ``b``, the stored size is at least
    ``6 + (C log2 C - sum c_b log2 c_b) / 8``.
    """
    if not 0 < len(page) < ONE_BLOCK_BYTES:
        return 0
    data = np.frombuffer(page, dtype=np.uint8)
    heads = np.empty(len(data), dtype=bool)
    heads[0] = True
    np.not_equal(data[1:], data[:-1], out=heads[1:])
    counts = np.bincount(data.compress(heads), minlength=256)
    bits = _NLOGN[np.count_nonzero(heads)] - _NLOGN.take(counts).sum()
    # Less a hair of float rounding, so the bound is never overstated.
    return 6 + max(0, int((bits - 1e-6) // 8))


def manifest_shas(manifest: dict) -> Iterator[str]:
    """Every blob address a plane manifest references (bases then patches)."""
    for base_sha, patch_sha in manifest["pages"]:
        yield base_sha
        if patch_sha:
            yield patch_sha


class PagedPlane:
    """A plane held as its base pages plus a sparse XOR patch.

    :meth:`assemble` is the one place a page manifest's XOR is applied:
    a store read, a recovery read and a plane-cache hit all assemble
    through it, so they cannot disagree about a byte.

    Attributes:
        pieces: The plane before its patch, in order: each page's base
            (the shared page object itself, or a view of it truncated to
            its page) and zero runs where no base covers a page.
        positions: Plane offsets of the patch's nonzero bytes
            (ascending, ``uint32``).
        values: The byte XORed in at each of ``positions``.
        bases: ``sha -> page bytes`` of the distinct base pages the
            pieces refer to.
        length: The plane's size in bytes.
        own_bytes: What the form holds besides its bases: the sparse
            patch (5 B per nonzero byte) and its zero runs.
    """

    __slots__ = ("pieces", "positions", "values", "bases", "length",
                 "own_bytes")

    def __init__(self, pieces, positions, values, bases, length, pads):
        self.pieces = pieces
        self.positions = positions
        self.values = values
        self.bases = bases
        self.length = length
        self.own_bytes = positions.nbytes + values.nbytes + pads

    def assemble(self) -> bytes:
        """The plane's bytes: the pieces joined, the patch XORed in."""
        out = bytearray().join(self.pieces)
        if len(self.positions):
            view = np.frombuffer(out, dtype=np.uint8)
            # Widened first: indexing by uint32 directly is twice as slow.
            view[self.positions.astype(np.intp)] ^= self.values
        return bytes(out)


def decode_plane(
    manifest: dict,
    fetch: Callable[[str], bytes],
    *,
    missing_ok: bool = False,
) -> PagedPlane:
    """Resolve a page manifest to its :class:`PagedPlane`, whose
    ``assemble()`` is the plane's bytes.

    Args:
        manifest: A plane manifest (see module docs).
        fetch: ``sha -> bytes`` page reader (raising ``KeyError`` /
            ``ValueError`` for lost or corrupt pages).
        missing_ok: Zero-fill pages whose blobs cannot be read instead
            of raising — the degraded-retrieval analogue of a lost
            low-order plane.
    """
    psize = int(manifest["psize"])
    nbytes = int(manifest["nbytes"])
    pieces: list = []
    bases: dict[str, bytes] = {}
    pads = 0  # zero bytes the pieces hold of their own
    patch = None  # the dense patch, made on the first patched page
    covered = 0
    for pos, (base_sha, patch_sha) in zip(
        range(0, nbytes, psize), manifest["pages"]
    ):
        page = min(psize, nbytes - pos)
        covered += page
        try:
            base = fetch(base_sha)
            delta = fetch(patch_sha) if patch_sha else None
        except (KeyError, ValueError):
            if not missing_ok:
                raise
            pieces.append(bytes(page))  # a lost page stays zero-filled
            pads += page
            continue
        # A patch carries the page's true length; the base is
        # zero-padded or truncated to it (see xor_bytes).
        want = page if delta is None else min(page, len(delta))
        n = min(want, len(base))
        base = bases.setdefault(base_sha, base)
        pieces.append(base if n == len(base) else memoryview(base)[:n])
        if n < page:
            pieces.append(bytes(page - n))
            pads += page - n
        if delta is not None and want:
            if patch is None:
                patch = np.zeros(nbytes, dtype=np.uint8)
            patch[pos:pos + want] = np.frombuffer(delta, np.uint8, want)
    if covered < nbytes:  # pages the manifest does not list stay zero
        pieces.append(bytes(nbytes - covered))
        pads += nbytes - covered
    if patch is None:
        patch = np.empty(0, dtype=np.uint8)
    positions = np.flatnonzero(patch).astype(np.uint32)
    values = patch[positions]
    positions.flags.writeable = values.flags.writeable = False  # shared
    return PagedPlane(tuple(pieces), positions, values, bases, nbytes, pads)
