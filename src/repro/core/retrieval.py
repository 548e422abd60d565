"""Physical archival and recreation of snapshots from a storage plan.

:class:`PlanArchive` takes a computed :class:`~repro.core.storage_graph.StoragePlan`
and actually writes the artifacts to a chunk store: each tree edge becomes
either a materialized matrix (root edges) or a delta payload, stored as
four separately-compressed byte planes (the segmented design of
Sec. IV-B).  Retrieval then supports:

* recreation as one read plan (:meth:`PlanArchive.recreate_matrices`):
  every payload on the union of the requested matrices' chains is read
  and applied once — the reusable scheme of Table III.  The three
  schemes stay the cost model the solver prices plans with
  (:mod:`repro.core.storage_graph`); execution does not fork on them;
* *partial* retrieval reading only the first ``k`` high-order byte planes
  (the Table V "2 bytes" / "1 byte" rows);
* interval retrieval, returning per-weight bounds for the progressive
  evaluator (Sec. IV-D).
"""

from __future__ import annotations

import functools
import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.dnn.interval import Interval
from repro.obs.cost import charge, cost_context, current_cost
from repro.obs.metrics import counter, histogram
from repro.obs.tracing import trace_span

from repro.core.chunkstore import current_batch
from repro.core.delta import apply_delta, delta_xor, embed_like
from repro.dedup.pages import decode_plane as _decode_paged_plane
from repro.dedup.pages import manifest_shas as _manifest_shas
from repro.core.segmentation import (
    NUM_PLANES,
    assemble_planes,
    bounds_from_prefix,
    prefix_codes,
    prefix_table,
    segment_planes,
)
from repro.core.storage_graph import ROOT, StoragePlan


@functools.cache
def _prefix_intervals(planes: int) -> np.ndarray:
    """:meth:`Interval.tabulate` of every 1- or 2-byte prefix's bounds."""
    # Widening the saturated-exponent prefixes' NaN patterns is the same
    # cast a per-call widening would make, minus the warning.
    with np.errstate(invalid="ignore"):
        return Interval.tabulate(*prefix_table(planes).astype(np.float64))


def _prefix_interval(planes: list[bytes], shape: tuple) -> Interval:
    """What a payload's leading planes bound each weight to; at one or
    two planes one table lookup per weight.  The bounds are ordered by
    construction, so they are wrapped as they are: ``from_bounds``
    would check them and copy ``hi`` again for nothing."""
    if len(planes) in (1, 2):
        return Interval.gather(
            _prefix_intervals(len(planes)), prefix_codes(planes, shape), shape
        )
    lo, hi = bounds_from_prefix(planes, shape)
    return Interval(lo.astype(np.float64), hi.astype(np.float64))


def _put(store, data: bytes) -> str:
    """Put one blob, or defer it to the open write batch."""
    batch = current_batch()
    return batch.defer(store, data) if batch is not None else store.put(data)


def payload_planes(
    target: np.ndarray, base: Optional[np.ndarray] = None,
    kind: str = "materialize",
) -> list[bytes]:
    """The payload encoder: the byte planes stored for one matrix — the
    matrix itself (``materialize`` / ``pages``) or its ``xor`` delta
    against ``base``, crop/pad-embedded when the shapes differ
    (footnote 3).  An edge is priced (:meth:`PlanArchive.payload_cost`)
    and written (:meth:`PlanArchive.write_payload`) from these planes."""
    target = np.asarray(target, dtype=np.float32)
    if kind == "xor":
        target = delta_xor(target, embed_like(base, target.shape)).view("<f4")
    return segment_planes(target)


@dataclass
class RecreationResult:
    """Outcome of recreating a snapshot.

    Attributes:
        matrices: ``matrix_id -> float32 array`` (approximate under partial
            retrieval).
        seconds: Wall-clock recreation time.
        bytes_read: Total stored (compressed) bytes touched.
        planes: How many byte planes were read per payload.
    """

    matrices: dict[str, np.ndarray]
    seconds: float
    bytes_read: int
    planes: int = NUM_PLANES

    def by_layer(self) -> dict[str, dict[str, np.ndarray]]:
        """The matrices as a network's ``{layer: {param: array}}``."""
        return by_layer(self.matrices)


def by_layer(values: dict[str, object]) -> dict[str, dict[str, object]]:
    """Regroup ``matrix_id -> value`` by ``(layer, param)`` network address.

    Snapshot archives name matrices ``"layer.param"``; repository
    archives prefix the snapshot key (``"v3/s1/layer.param"``).  The
    network only knows bare layer names, so any path prefix is dropped —
    keying bounds by the prefixed id would silently miss every layer in
    ``forward_interval`` (which falls back to the network's installed
    weights, making the interval pass vacuous).
    """
    grouped: dict[str, dict[str, object]] = {}
    for matrix_id, value in values.items():
        layer, _, param = matrix_id.rsplit("/", 1)[-1].rpartition(".")
        if not layer:
            raise ValueError(
                f"matrix id {matrix_id!r} is not of the form 'layer.param'"
            )
        grouped.setdefault(layer, {})[param] = value
    return grouped


@dataclass
class RecoveryEvent:
    """One blob (``sha``) of a plane read that needed the recovery path.

    ``action`` is ``"replica"`` (exact bytes served from the replica
    tier) or ``"zero-fill"`` (a blob of a plane >= 1 lost; zeros
    substituted — the partial-retrieval semantics of Table V, so the
    value is approximate but the snapshot stays readable).
    """

    matrix_id: str
    sha: str
    plane: int
    action: str
    exact: bool
    error: str

    def to_dict(self) -> dict:
        return {
            "matrix_id": self.matrix_id,
            "sha": self.sha,
            "plane": self.plane,
            "action": self.action,
            "exact": self.exact,
            "error": self.error,
        }


class RecoveryReport:
    """Structured account of the degraded/recovered reads on an archive.

    ``seq`` counts every event ever recorded; ``events`` keeps only the
    latest :attr:`window` of them, so an archive serving a plane that
    is lost for good — one event per pass, forever — stays bounded.
    Readers mark ``seq`` before a read and ask :meth:`since` after it.
    """

    #: How many recent events ``events`` keeps.
    window = 1024

    def __init__(self) -> None:
        self.events: deque[RecoveryEvent] = deque(maxlen=self.window)
        self.seq = 0
        self.inexact = 0

    def record(self, event: RecoveryEvent) -> None:
        self.events.append(event)
        self.seq += 1
        self.inexact += not event.exact

    def since(self, seq: int) -> list[RecoveryEvent]:
        """Events recorded after ``seq`` (those still in the window)."""
        fresh = min(self.seq - seq, len(self.events))
        return list(self.events)[len(self.events) - fresh:] if fresh else []

    def __bool__(self) -> bool:
        return self.seq > 0

    @property
    def degraded(self) -> bool:
        """True when at least one recovery was inexact (zero-filled)."""
        return self.inexact > 0

    def to_dict(self) -> dict:
        return {
            "events": [e.to_dict() for e in self.events],
            "degraded": self.degraded,
        }


@dataclass
class _StoredPayload:
    """Manifest entry for one archived matrix.

    ``kind="pages"`` payloads are root-anchored like ``materialize`` but
    store no plane chunks; instead ``pages`` maps each plane index to a
    page manifest (see :mod:`repro.dedup.pages`) resolving into the
    shared page tier.  ``stored_sizes`` memoizes what reading each plane
    bills (:meth:`PlanArchive._fetch_plane`).
    """

    matrix_id: str
    parent: str
    kind: str  # "materialize" | "xor" | "pages"; "sub" is read-only
    shape: tuple
    chunk_ids: list[str] = field(default_factory=list)
    pages: Optional[dict[int, dict]] = None
    stored_sizes: dict = field(default_factory=dict, repr=False, compare=False)


class _SharedPrefixes(dict):
    """The memo of one :meth:`PlanArchive.recreate_matrices` plan: the
    matrices it has recreated that a later requested id's chain still
    passes through.  ``last`` maps every matrix on the requested chains
    to the position of the last id whose chain holds it (counted from
    :meth:`PlanArchive.chain` walks, which read only the manifest), so a
    matrix no later chain holds is never kept, and one is dropped once
    the last id that needs it is resolved."""

    def __init__(self, last: dict[str, int]) -> None:
        super().__init__()
        self.last, self.position = last, 0

    def __setitem__(self, matrix_id: str, value: np.ndarray) -> None:
        if self.last[matrix_id] > self.position:
            super().__setitem__(matrix_id, value)

    def advance(self) -> None:
        """The id at ``position`` is resolved: drop what only it needed."""
        for matrix_id in [m for m in self if self.last[m] <= self.position]:
            del self[matrix_id]
        self.position += 1


class PlanArchive:
    """A storage plan made physical on a chunk store.

    Args:
        store: Chunk store for the high-order byte planes.
        low_order_store: Optional second store for the low-order planes —
            the paper's "offload low-order bytes to remote storage"
            design.  When given, planes with index >= ``offload_from`` are
            written to and read from it.
        offload_from: First plane index routed to ``low_order_store``.
        replica_store: Optional redundancy tier holding a second copy of
            each blob (chunk or page) of the planes below
            :attr:`replicate_planes`, under its own address: a blob that
            fails in its tier is read from it — the "alternate path".
        degraded: Permit lossy recovery — when a plane with index >= 1
            cannot be read from either store, substitute zeros instead of
            raising, recording a :class:`RecoveryEvent`.  Plane 0
            (sign/exponent) is never zero-filled: without it the value
            would be garbage rather than an approximation.
        page_store: A :class:`~repro.dedup.store.PageStore` for
            ``kind="pages"`` payloads — required to build or read
            page-encoded (cross-model deduplicated) matrices.
        plane_cache: Optional :class:`~repro.core.cache.PlaneCache`;
            when set, every plane read (:meth:`_fetch_plane`) goes
            through it under ``("plane", plane_address(entry, i))`` —
            one entry per plane — so a plane shared by several models is
            cached once and cold loads coalesce (single-flight) across
            every model being served.  A chunk plane is kept assembled,
            1 B per weight; a paged plane in page form when its patch is
            sparse (:meth:`_plane_entry`), its base pages shared parts
            charged once across all the planes that hold them.  The
            :class:`~repro.core.progressive.ProgressiveEvaluator` over
            this archive keeps its derived bounds in the same cache;
            they never displace a plane.  A plane read through the
            recovery path, or one without an address, is never cached.
    """

    #: How many leading planes of every payload are mirrored on write.
    #: Planes 0-1 (sign/exponent and high mantissa) carry most of the
    #: information yet compress best, so the mirror is cheap.
    replicate_planes = 2

    def __init__(
        self,
        store,
        low_order_store=None,
        offload_from: int = 2,
        replica_store=None,
        degraded: bool = False,
        page_store=None,
        plane_cache=None,
    ) -> None:
        self.store = store
        self.low_order_store = low_order_store
        self.offload_from = offload_from
        self.replica_store = replica_store
        self.degraded = degraded
        self.page_store = page_store
        self.plane_cache = plane_cache
        self.recovery = RecoveryReport()
        self._manifest: dict[str, _StoredPayload] = {}
        self._snapshots: dict[str, list[str]] = {}

    def plane_store(self, plane: int):
        """The chunk store responsible for one byte plane."""
        if self.low_order_store is not None and plane >= self.offload_from:
            return self.low_order_store
        return self.store

    # -- writing ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        store,
        matrices: dict[str, np.ndarray],
        plan: StoragePlan,
        **tiers,
    ) -> "PlanArchive":
        """Archive ``matrices`` according to ``plan``.

        Args:
            store: A :class:`~repro.core.storage.base.BlobStore` — a
                backend's ``chunks`` tier.
            matrices: ``matrix_id -> float32 array`` for every matrix the
                plan covers.
            plan: The storage plan to follow; every root edge is
                materialized (or page-encoded), every other edge becomes an
                ``xor`` delta.
            **tiers: The constructor's tier arguments (see class docs) —
                ``low_order_store`` / ``offload_from`` (remote tier for
                the low-order planes), ``replica_store`` (redundancy
                tier for the high-order planes), and ``page_store``
                (required when the plan has ``kind="pages"`` root edges,
                i.e. ``--dedup`` archival).
        """
        plan.validate()
        archive = cls(store, **tiers)
        archive._snapshots = plan.graph.snapshots
        # Write parents before children so delta bases conceptually exist;
        # content-addressing makes the order immaterial on disk but the
        # traversal doubles as a completeness check.
        pending = list(plan.parent_edge)
        placed = {ROOT}
        while pending:
            progressed = False
            remaining = []
            for matrix_id in pending:
                parent = plan.parent(matrix_id)
                if parent not in placed:
                    remaining.append(matrix_id)
                    continue
                kind = plan.parent_edge[matrix_id].kind
                if kind != "pages":
                    kind = "materialize" if parent == ROOT else "xor"
                archive.write_payload(
                    matrix_id,
                    np.shape(matrices[matrix_id]),
                    payload_planes(
                        matrices[matrix_id], matrices.get(parent), kind
                    ),
                    parent,
                    kind,
                )
                placed.add(matrix_id)
                progressed = True
            if not progressed:
                raise ValueError("storage plan contains an orphaned chain")
            pending = remaining
        return archive

    def payload_cost(
        self, target: np.ndarray, base: Optional[np.ndarray] = None,
        kind: str = "materialize",
    ) -> int:
        """Stored bytes :meth:`write_payload` adds for this payload when
        none of its planes is stored yet — the edge's storage cost."""
        blobs = {  # equal planes (an all-zero bias) share one blob per store
            (id(self.plane_store(index)), plane): self.plane_store(index)
            for index, plane in enumerate(payload_planes(target, base, kind))
        }
        return sum(s.stored_size_of(plane) for (_, plane), s in blobs.items())

    def write_payload(
        self,
        matrix_id: str,
        shape: tuple,
        planes: list[bytes],
        parent: str = ROOT,
        kind: str = "materialize",
    ) -> _StoredPayload:
        """Land one payload — the only code that puts planes (one chunk
        each, or ``kind="pages"``: pages of the shared tier) and the only
        code that mirrors their blobs into the replica tier.

        Inside a :func:`~repro.core.chunkstore.write_batch` the chunks
        and mirrors are deferred to the batch (they land with its
        ``land()``) and page blobs wait in the page store until its
        ``flush()``; outside one, chunks and mirrors are put at once."""
        entry = _StoredPayload(matrix_id, parent, kind, tuple(shape))
        if kind == "pages":
            if self.page_store is None:
                raise ValueError(
                    "plan contains page-dedup edges but no page_store was given"
                )
            entry.pages = {}
        for index, plane in enumerate(planes):
            if kind == "pages":
                entry.pages[index] = self.page_store.encode_plane(plane)
            else:
                entry.chunk_ids.append(_put(self.plane_store(index), plane))
            if self.replica_store is not None and index < self.replicate_planes:
                self._mirror(entry, index, plane)
        self._manifest[matrix_id] = entry
        return entry

    def _mirror(self, entry: _StoredPayload, index: int, plane: bytes) -> None:
        """Mirror one plane's blobs: the chunk (``plane``), or each page
        of its manifest — from the page store's buffer when this run
        stores it, read back only when stored but not yet mirrored."""
        if entry.kind != "pages":
            _put(self.replica_store, plane)
            return
        for sha in dict.fromkeys(_manifest_shas(entry.pages[index])):
            data = self.page_store.pending(sha)
            if data is None:
                if sha in self.replica_store:
                    continue
                data = self.page_store.blobs.get(sha)
            _put(self.replica_store, data)

    def plane_address(self, entry: _StoredPayload, index: int) -> str:
        """Whole-plane content address, the plane cache's key: the chunk
        id, or the digest the page manifest records (``""`` for a
        manifest without one)."""
        if entry.kind == "pages":
            return self._page_manifest(entry, index).get("sha", "")
        return entry.chunk_ids[index]

    def plane_blobs(self, entry: _StoredPayload, index: int) -> tuple:
        """``(tier, addresses)`` of the blobs one plane is stored as: its
        chunk, or the distinct pages its manifest names."""
        if entry.kind != "pages":
            return self.plane_store(index), [entry.chunk_ids[index]]
        manifest = self._page_manifest(entry, index)
        return self.page_store.blobs, list(dict.fromkeys(_manifest_shas(manifest)))

    # -- manifest -------------------------------------------------------------

    @property
    def manifest(self) -> dict[str, _StoredPayload]:
        return dict(self._manifest)

    def to_manifest_dict(self) -> dict:
        """JSON-serializable manifest (written by ``dlv archive``)."""
        payloads = {}
        for m, e in self._manifest.items():
            entry = {
                "parent": e.parent,
                "kind": e.kind,
                "shape": list(e.shape),
                "chunks": e.chunk_ids,
            }
            if e.pages is not None:
                entry["pages"] = {str(i): man for i, man in e.pages.items()}
            payloads[m] = entry
        return {"snapshots": self._snapshots, "payloads": payloads}

    @classmethod
    def from_manifest_dict(
        cls,
        store,
        manifest: dict,
        **options,
    ) -> "PlanArchive":
        """Reopen an archive from its serialized manifest.

        ``options`` are the constructor's keyword arguments.
        """
        archive = cls(store, **options)
        archive._snapshots = {
            k: list(v) for k, v in manifest["snapshots"].items()
        }
        for matrix_id, entry in manifest["payloads"].items():
            pages = entry.get("pages")
            archive._manifest[matrix_id] = _StoredPayload(
                matrix_id,
                entry["parent"],
                entry["kind"],
                tuple(entry["shape"]),
                list(entry["chunks"]),
                {int(i): man for i, man in pages.items()}
                if pages is not None
                else None,
            )
        return archive

    def total_size(self) -> int:
        """Stored bytes of all chunks and pages referenced by this archive.

        Pages shared across matrices (the dedup win) count once.
        """
        sizes: dict[str, int] = {}
        for entry in self._manifest.values():
            for index in range(len(entry.chunk_ids or entry.pages)):
                store, shas = self.plane_blobs(entry, index)
                for sha in shas:
                    if sha not in sizes:
                        sizes[sha] = store.stored_size(sha)
        return sum(sizes.values())

    def plane_stored_size(self, entry: _StoredPayload, index: int) -> int:
        """Stored bytes of the blobs behind one plane of one payload that
        its tier holds (0 for a paged plane without a manifest)."""
        try:
            store, shas = self.plane_blobs(entry, index)
        except KeyError:
            return 0
        return sum(store.stored_size(sha) for sha in shas if sha in store)

    def snapshot_fingerprint(self, snapshot_id: str) -> Optional[str]:
        """Content fingerprint of a snapshot's stored weights.

        Two snapshots whose payload chains resolve to identical content
        (e.g. fine-tuned family members restored from the same base, or
        copies of one model served under two names) get equal
        fingerprints, letting the serve tier key shared caches by
        *content* instead of snapshot identity.  Returns ``None`` when
        any member's chain is unknown (caller falls back to the id).
        """
        members = self._snapshots.get(snapshot_id)
        if members is None:
            return None
        memo: dict[str, str] = {}

        def chain_fp(matrix_id: str) -> Optional[str]:
            try:
                chain = self.chain(matrix_id, stop=memo)
            except KeyError:
                return None
            below = memo.get(chain[-1].parent if chain else matrix_id, "root")
            for entry in reversed(chain):
                parts = [below, entry.kind, *entry.chunk_ids]
                if entry.pages:
                    for index in sorted(entry.pages):
                        for base, patch in entry.pages[index]["pages"]:
                            parts.append(patch or base)
                below = hashlib.sha256("|".join(parts).encode()).hexdigest()
                memo[entry.matrix_id] = below
            return memo[matrix_id]

        digest = hashlib.sha256()
        for matrix_id in sorted(members):
            fp = chain_fp(matrix_id)
            if fp is None:
                return None
            tail = matrix_id.rsplit("/", 1)[-1]
            digest.update(f"{tail}={fp};".encode())
        return digest.hexdigest()[:16]

    # -- reading ----------------------------------------------------------------

    def chain(self, matrix_id: str, stop=()) -> list[_StoredPayload]:
        """The payload entries on ``matrix_id``'s storage-plan path, from
        ``matrix_id`` up to ``v0`` — the only walk along ``entry.parent``.

        The walk ends early, before the first id in ``stop`` (e.g. a memo
        of already-resolved matrices): the last entry's ``parent`` is then
        that id, and an empty list means ``matrix_id`` itself is in it.

        Raises:
            KeyError: the path reaches a payload this archive lacks.
        """
        entries = []
        current = matrix_id
        while current != ROOT and current not in stop:
            entry = self._manifest[current]
            entries.append(entry)
            current = entry.parent
        return entries

    def _read_payload(
        self, matrix_id: str, planes: int
    ) -> tuple[np.ndarray, int]:
        """Read one payload's first ``planes`` byte planes, zero-filling.

        Returns `(payload_array, stored_bytes_read)`.
        """
        entry = self._manifest[matrix_id]
        count = int(np.prod(entry.shape)) if entry.shape else 1
        buffers = []
        bytes_read = 0
        for i in range(NUM_PLANES):
            if i < planes:
                data, nbytes = self._fetch_plane(entry, i)
                buffers.append(data if data is not None else b"\x00" * count)
                bytes_read += nbytes
            else:
                buffers.append(b"\x00" * count)
        return assemble_planes(buffers, entry.shape), bytes_read

    def _fetch_plane(
        self, entry: _StoredPayload, index: int
    ) -> tuple[Optional[bytes], int]:
        """Read one plane — through the plane cache when there is one —
        taking the recovery path on failure.

        The active request is billed ``charge(planes_fetched=1,
        plane_bytes=...)`` in stored (compressed, deduplicated) bytes —
        the paper's progressive-query byte-savings unit: what
        :meth:`_read_plane` of this payload reads, also on a cache hit
        that another payload, stored differently, loaded (summed once
        from the stored sizes the entry carries, and memoized).

        Returns ``(bytes, stored_size)``; ``(None, 0)`` means the plane
        was lost and the caller should zero-fill it (degraded mode).
        """
        try:
            cache = self.plane_cache
            address = (
                "" if cache is None else self.plane_address(entry, index)
            )
            if address:
                form, sizes = cache.get_or_load(
                    ("plane", address),
                    lambda: self._plane_entry(entry, index),
                )
                data = form if type(form) is bytes else form.assemble()
                nbytes = entry.stored_sizes.get(index)
                if nbytes is None:
                    store, shas = self.plane_blobs(entry, index)
                    nbytes = entry.stored_sizes[index] = sum(
                        sizes[sha] if sha in sizes else store.stored_size(sha)
                        for sha in shas
                    )
            else:
                data, nbytes = self._read_plane(entry, index)
        except (KeyError, ValueError) as exc:
            data, nbytes = self._recover_plane(entry, index, exc)
        if data is not None:
            charge(planes_fetched=1, plane_bytes={index: nbytes})
        return data, nbytes

    def _plane_entry(self, entry: _StoredPayload, index: int) -> tuple:
        """A plane-cache loader: ``((form, sizes), nbytes[, bases])``,
        ``sizes`` mapping each blob it read to its stored size.

        A chunk is kept as its bytes, 1 B per weight.  A paged plane
        reads, in one ``get_many``, only the blobs the cache does not
        already hold, and is kept as its
        :class:`~repro.dedup.pages.PagedPlane` — its sparse patch
        charged to the entry, each base page a part the cache charges
        once however many planes hold it — unless the patch is no
        smaller than the assembled plane, which is then kept instead.
        """
        if entry.kind != "pages":
            data, nbytes = self._read_plane(entry, index)
            return (data, {entry.chunk_ids[index]: nbytes}), len(data)
        manifest = self._page_manifest(entry, index)
        shas = dict.fromkeys(_manifest_shas(manifest))
        blobs = self.plane_cache.held(shas)
        unheld = [sha for sha in shas if sha not in blobs]
        if unheld:
            blobs.update(self.page_store.blobs.get_many(unheld))
        form = _decode_paged_plane(manifest, lambda sha: blobs[sha][0])
        sizes = {sha: size for sha, (_data, size) in blobs.items()}
        if form.own_bytes >= form.length:
            return (form.assemble(), sizes), form.length
        bases = {sha: (blobs[sha], len(base)) for sha, base in form.bases.items()}
        return (form, sizes), form.own_bytes, bases

    def _read_plane(
        self, entry: _StoredPayload, index: int
    ) -> tuple[bytes, int]:
        """One plane's bytes and stored size, straight from its tier with
        one ``get_many``: a chunk, or (``kind="pages"``) every page of
        its manifest from the shared dedup tier."""
        store, shas = self.plane_blobs(entry, index)
        return self._assemble(entry, index, store.get_many(shas))

    def _assemble(
        self, entry: _StoredPayload, index: int, found: dict
    ) -> tuple[Optional[bytes], int]:
        """One plane and its stored size from its blobs ``found`` (``sha
        -> (bytes, size)``): the chunk (``None`` when not found), or the
        manifest's pages assembled, a page not found zero-filled."""
        nbytes = sum(size for _data, size in found.values())
        if entry.kind != "pages":
            hit = found.get(entry.chunk_ids[index])
            return (hit[0] if hit else None), nbytes
        return _decode_paged_plane(
            self._page_manifest(entry, index), lambda sha: found[sha][0],
            missing_ok=True,
        ).assemble(), nbytes

    def _page_manifest(self, entry: _StoredPayload, index: int) -> dict:
        if self.page_store is None:
            raise KeyError(
                f"{entry.matrix_id!r} is page-encoded but this archive has "
                "no page store"
            )
        manifest = (entry.pages or {}).get(index)
        if manifest is None:
            raise KeyError(
                f"{entry.matrix_id!r} has no page manifest for plane {index}"
            )
        return manifest

    def _recover_plane(
        self, entry: _StoredPayload, index: int, exc: Exception
    ) -> tuple[Optional[bytes], int]:
        """Alternate-path read, one rule for every blob (chunk or page):
        one that fails in its tier is read from the replica at the same
        address; what neither holds is zero-filled (degraded mode,
        planes >= 1 only) — a chunk's whole plane, or one page."""
        store, shas = self.plane_blobs(entry, index)
        tiers = [tier for tier in (store, self.replica_store) if tier is not None]
        found, restored, lost = {}, [], []
        for sha in shas:
            for tier in tiers:
                try:
                    found[sha] = tier.get_many((sha,))[sha]
                except (KeyError, ValueError):
                    continue
                if tier is not store:
                    restored.append(sha)
                break
            else:
                lost.append(sha)
        if lost and not (self.degraded and index >= 1):
            counter("recovery.failures").inc()
            raise exc
        for action, blobs in (("replica", restored), ("zero-fill", lost)):
            for sha in blobs:
                self.recovery.record(RecoveryEvent(
                    entry.matrix_id, sha, index, action, action == "replica",
                    str(exc),
                ))
        counter("recovery.replica_reads").inc(len(restored))
        if lost:
            counter("recovery.degraded_planes").inc()
        return self._assemble(entry, index, found)

    def recreate_matrix(
        self,
        matrix_id: str,
        planes: int = NUM_PLANES,
        memo: Optional[dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Recreate a single matrix (approximately when ``planes < 4``) by
        applying its path from the root, or from the nearest matrix
        already in ``memo``.

        ``memo`` (``matrix_id -> array``) is offered each matrix the walk
        recreates, so callers share path prefixes across matrices — the
        read plan of :meth:`recreate_matrices`.
        """
        if matrix_id not in self._manifest:
            raise KeyError(f"unknown matrix {matrix_id!r}")
        with trace_span("pas.matrix", matrix=matrix_id, planes=planes) as span:
            chain = self.chain(matrix_id, stop=memo or ())
            base = chain[-1].parent if chain else matrix_id
            value = memo.get(base) if memo else None
            nbytes = 0
            for entry in reversed(chain):
                payload, read = self._read_payload(entry.matrix_id, planes)
                nbytes += read
                if entry.kind in ("materialize", "pages"):
                    value = payload
                else:
                    if value.shape != payload.shape:
                        value = embed_like(value, payload.shape)
                    if entry.kind == "sub":
                        value = apply_delta(value, payload, "sub")
                    else:
                        value = apply_delta(value, payload.view("<u4"), "xor")
                if memo is not None:
                    memo[entry.matrix_id] = value
            span.set_attr("bytes_read", nbytes)
        counter("retrieval.matrices").inc()
        counter("retrieval.bytes_read").inc(nbytes)
        return value

    def recreate_matrices(
        self, matrix_ids: Iterable[str], planes: int = NUM_PLANES
    ) -> dict[str, np.ndarray]:
        """Recreate several matrices as one read plan — the only executor.

        Each id goes through :meth:`recreate_matrix`, in order, with one
        memo for the call, so every payload on the union of their chains
        is read and applied once: the reusable scheme of Table III,
        whatever scheme the plan was priced under.  The memo keeps a
        recreated matrix only while a later id's chain still passes
        through it (:class:`_SharedPrefixes`), so the peak is one
        matrix's recreation plus the shared prefixes.
        """
        ids = list(dict.fromkeys(matrix_ids))
        memo = _SharedPrefixes({
            entry.matrix_id: position
            for position, matrix_id in enumerate(ids)
            for entry in self.chain(matrix_id)
        })
        values = {}
        for matrix_id in ids:
            values[matrix_id] = self.recreate_matrix(matrix_id, planes, memo)
            memo.advance()
        return values

    def recreate_snapshot(
        self, snapshot_id: str, planes: int = NUM_PLANES
    ) -> RecreationResult:
        """Recreate all matrices of a snapshot: :meth:`recreate_matrices`
        of its members under one ``pas.snapshot`` span.

        The reads are charged to the caller's bill (to a bill of their
        own outside one); ``bytes_read`` is the stored plane bytes they
        billed (:func:`~repro.obs.cost.charge`) — the sum of the
        members' ``pas.matrix`` bytes.
        """
        if snapshot_id not in self._snapshots:
            raise KeyError(f"unknown snapshot {snapshot_id!r}")
        members = self._snapshots[snapshot_id]
        with trace_span(
            "pas.snapshot", snapshot=snapshot_id, planes=planes
        ) as span, cost_context(current_cost()) as bill:
            billed = sum(bill.by_plane.values())
            matrices = self.recreate_matrices(members, planes)
            bytes_read = sum(bill.by_plane.values()) - billed
            span.set_attr("bytes_read", bytes_read)
        counter("retrieval.snapshots").inc()
        histogram("retrieval.snapshot_seconds").observe(span.elapsed)
        return RecreationResult(matrices, span.elapsed, bytes_read, planes)

    # -- interval retrieval -------------------------------------------------------

    def matrix_bounds(self, matrix_id: str, planes: int) -> Interval:
        """Per-weight value bounds from the first ``planes`` byte planes,
        as an :class:`~repro.dnn.interval.Interval` (it unpacks as
        ``lo, hi``).

        XOR works byte by byte: the chain's planes XORed root-first
        (crop/pad-embedded as shapes change) are the target's own
        leading planes, which one :func:`bounds_from_prefix` bounds.  A
        one-payload chain at one or two planes is one table lookup per
        weight.  A chain holding a ``sub`` payload (older repositories)
        is read in full, to the zero-width interval of its recreation.
        """
        chain = self.chain(matrix_id)
        if any(entry.kind == "sub" for entry in chain):
            planes = NUM_PLANES
        prefix = None
        for entry in reversed(chain):
            fetched = []
            for i in range(planes):
                data, _nbytes = self._fetch_plane(entry, i)
                if data is None:  # degraded zero-fill has no bounds
                    raise KeyError(
                        f"plane {i} of {entry.matrix_id!r} is unreadable"
                    )
                fetched.append(data)
            if prefix is None:
                prefix = fetched
            elif entry.kind == "sub":
                prefix = segment_planes(apply_delta(
                    embed_like(assemble_planes(prefix, shape), entry.shape),
                    assemble_planes(fetched, entry.shape), "sub",
                ))
            else:
                prefix = [
                    embed_like(
                        np.frombuffer(known, np.uint8).reshape(shape),
                        entry.shape,
                    ) ^ np.frombuffer(delta, np.uint8).reshape(entry.shape)
                    for known, delta in zip(prefix, fetched)
                ]
            shape = entry.shape
        return _prefix_interval(prefix, shape)
