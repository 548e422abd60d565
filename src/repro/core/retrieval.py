"""Physical archival and recreation of snapshots from a storage plan.

:class:`PlanArchive` takes a computed :class:`~repro.core.storage_graph.StoragePlan`
and actually writes the artifacts to a chunk store: each tree edge becomes
either a materialized matrix (root edges) or a delta payload, stored as
four separately-compressed byte planes (the segmented design of
Sec. IV-B).  Retrieval then supports:

* the three recreation schemes of Table III — independent (one matrix at a
  time), parallel (thread pool), and reusable (cache shared path
  prefixes);
* *partial* retrieval reading only the first ``k`` high-order byte planes
  (the Table V "2 bytes" / "1 byte" rows);
* interval retrieval, returning per-weight bounds for the progressive
  evaluator (Sec. IV-D).
"""

from __future__ import annotations

import contextvars
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs.cost import charge
from repro.obs.metrics import counter, histogram
from repro.obs.tracing import trace_span

from repro.core.delta import (
    apply_delta,
    delta_sub_mismatched,
    delta_xor,
    embed_like,
)
from repro.dedup.pages import decode_plane as _decode_paged_plane
from repro.dedup.pages import manifest_shas as _manifest_shas
from repro.core.segmentation import (
    NUM_PLANES,
    assemble_planes,
    bounds_from_prefix,
    segment_planes,
)
from repro.core.storage_graph import (
    ROOT,
    RetrievalScheme,
    StoragePlan,
)


def payload_planes(
    target: np.ndarray, base: Optional[np.ndarray] = None,
    kind: str = "materialize",
) -> list[bytes]:
    """The payload encoder: the byte planes stored for one matrix — the
    matrix itself (``materialize`` / ``pages``) or its ``sub`` / ``xor``
    delta against ``base``, crop/pad-embedded when the shapes differ
    (footnote 3).  An edge is priced (:meth:`PlanArchive.payload_cost`)
    and written (:meth:`PlanArchive.write_payload`) from these planes."""
    target = np.asarray(target, dtype=np.float32)
    if kind == "sub":
        target = delta_sub_mismatched(target, base)
    elif kind == "xor":
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


@dataclass
class RecoveryEvent:
    """One plane read that needed the recovery path.

    ``action`` is ``"replica"`` (exact bytes served from the replica
    tier) or ``"zero-fill"`` (low-order plane lost; zeros substituted —
    the partial-retrieval semantics of Table V, so the value is
    approximate but the snapshot stays readable).
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


@dataclass
class RecoveryReport:
    """Structured account of every degraded/recovered read on an archive."""

    events: list[RecoveryEvent] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def degraded(self) -> bool:
        """True when at least one recovery was inexact (zero-filled)."""
        return any(not e.exact for e in self.events)

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
    shared, refcounted page tier.
    """

    matrix_id: str
    parent: str
    kind: str  # "materialize" | "sub" | "xor" | "pages"
    shape: tuple
    chunk_ids: list[str] = field(default_factory=list)
    pages: Optional[dict[int, dict]] = None


class PlanArchive:
    """A storage plan made physical on a chunk store.

    Args:
        store: Chunk store for the high-order byte planes.
        low_order_store: Optional second store for the low-order planes —
            the paper's "offload low-order bytes to remote storage"
            design.  When given, planes with index >= ``offload_from`` are
            written to and read from it.
        offload_from: First plane index routed to ``low_order_store``.
        replica_store: Optional redundancy tier holding second copies of
            the high-order planes (written for plane indexes below
            :attr:`replicate_planes`).  On a failed integrity check, reads
            fall back to it — the archive's "alternate path".
        degraded: Permit lossy recovery — when a plane with index >= 1
            cannot be read from either store, substitute zeros instead of
            raising, recording a :class:`RecoveryEvent`.  Plane 0
            (sign/exponent) is never zero-filled: without it the value
            would be garbage rather than an approximation.
        page_store: A :class:`~repro.dedup.store.PageStore` for
            ``kind="pages"`` payloads — required to build or read
            page-encoded (cross-model deduplicated) matrices.
        plane_cache: Optional :class:`~repro.serve.cache.PlaneCache`;
            when set, page blobs are read through it under
            ``("page", sha)`` keys, so pages shared across models occupy
            cache bytes once and cold loads coalesce (single-flight)
            across every model being served.
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
        delta_kind: str = "sub",
        **tiers,
    ) -> "PlanArchive":
        """Archive ``matrices`` according to ``plan``.

        Args:
            store: A :class:`~repro.core.chunkstore.ChunkStore` (or the
                in-memory variant).
            matrices: ``matrix_id -> float32 array`` for every matrix the
                plan covers.
            plan: The storage plan to follow; every non-root edge becomes a
                delta of kind ``delta_kind``.
            delta_kind: ``"sub"`` or ``"xor"``.
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
                    kind = "materialize" if parent == ROOT else delta_kind
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
        code that mirrors them into the replica tier."""
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
                entry.chunk_ids.append(self.plane_store(index).put(plane))
            self._mirror(index, plane)
        self._manifest[matrix_id] = entry
        return entry

    def _mirror(self, index: int, plane: bytes) -> None:
        # The replica tier mirrors the leading *assembled* planes under
        # their own digest (a page manifest records it), so its
        # exact-recovery guarantee survives page encoding.
        if self.replica_store is not None and index < self.replicate_planes:
            self.replica_store.put(plane)

    def plane_address(self, entry: _StoredPayload, index: int) -> str:
        """Whole-plane content address: the chunk id, or the digest the
        page manifest records (``""`` for a manifest without one)."""
        if entry.kind == "pages":
            return self._page_manifest(entry, index).get("sha", "")
        return entry.chunk_ids[index]

    def mirror_addresses(self, entry: _StoredPayload) -> list[str]:
        """Replica addresses :meth:`write_payload` promised for ``entry``."""
        return [
            self.plane_address(entry, i) for i in range(self.replicate_planes)
        ]

    def restore_mirror(self, entry: _StoredPayload, index: int) -> bool:
        """Re-mirror one plane from its main-tier chunk or reassembled
        pages; ``False`` when what was read is not the promised plane."""
        data, _nbytes = self._read_plane(entry, index)
        if self.store.address(data) != self.plane_address(entry, index):
            return False
        self._mirror(index, data)
        return True

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
        seen = set()
        total = 0
        for entry in self._manifest.values():
            for index, sha in enumerate(entry.chunk_ids):
                if sha not in seen:
                    seen.add(sha)
                    total += self.plane_store(index).stored_size(sha)
            if entry.pages:
                for manifest in entry.pages.values():
                    for sha in _manifest_shas(manifest):
                        if sha not in seen:
                            seen.add(sha)
                            total += self.page_store.blobs.stored_size(sha)
        return total

    def plane_stored_size(self, entry: _StoredPayload, index: int) -> int:
        """Stored bytes behind one plane of one payload (pages-aware)."""
        if entry.kind == "pages":
            manifest = (entry.pages or {}).get(index)
            if manifest is None:
                return 0
            total = 0
            for sha in set(_manifest_shas(manifest)):
                try:
                    total += self.page_store.blobs.stored_size(sha)
                except KeyError:
                    continue
            return total
        return self.plane_store(index).stored_size(entry.chunk_ids[index])

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
            chain = []
            current = matrix_id
            while current != ROOT and current not in memo:
                entry = self._manifest.get(current)
                if entry is None:
                    return None
                chain.append(entry)
                current = entry.parent
            below = memo.get(current, "root")
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
        """Read one plane, taking the recovery path on failure.

        The active request is billed ``charge(planes_fetched=1,
        plane_bytes=...)`` in stored (compressed, deduplicated) bytes —
        the paper's progressive-query byte-savings unit — whether the
        plane is one chunk or reassembled from pages.

        Returns ``(bytes, stored_size)``; ``(None, 0)`` means the plane
        was lost and the caller should zero-fill it (degraded mode).
        """
        try:
            data, nbytes = self._read_plane(entry, index)
        except (KeyError, ValueError) as exc:
            data, nbytes = self._recover_plane(entry, index, exc)
        if data is not None:
            charge(planes_fetched=1, plane_bytes={index: nbytes})
        return data, nbytes

    def _read_plane(
        self, entry: _StoredPayload, index: int, **page_options
    ) -> tuple[bytes, int]:
        """One plane's bytes and stored size, straight from its tier: a
        chunk, or (``kind="pages"``) pages of the shared dedup tier."""
        if entry.kind == "pages":
            data = _decode_paged_plane(
                self._page_manifest(entry, index), self._fetch_page,
                **page_options,
            )
            return data, self.plane_stored_size(entry, index)
        store, sha = self.plane_store(index), entry.chunk_ids[index]
        return store.get(sha), store.stored_size(sha)

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

    def _fetch_page(self, sha: str) -> bytes:
        """Read one page blob, through the shared cache when present."""
        blobs = self.page_store.blobs
        if self.plane_cache is None:
            return blobs.get(sha)

        def load() -> tuple[bytes, int]:
            data = blobs.get(sha)
            return data, len(data)

        return self.plane_cache.get_or_load(("page", sha), load)

    def _recover_plane(
        self, entry: _StoredPayload, index: int, exc: Exception
    ) -> tuple[Optional[bytes], int]:
        """Alternate-path read: replica tier first, then zero-fill.

        The replica tier holds whole planes: under the chunk id, or under
        the assembled-plane digest a page manifest records.  Zero-fill
        (degraded mode, planes >= 1 only) drops the whole plane of a
        chunk payload but only the unreadable pages of a paged one.
        """
        sha = self.plane_address(entry, index)

        def record(lost_sha: str, action: str) -> None:
            self.recovery.events.append(
                RecoveryEvent(
                    entry.matrix_id, lost_sha, index, action,
                    action == "replica", str(exc),
                )
            )

        if self.replica_store is not None and sha:
            try:
                data = self.replica_store.get(sha)
            except (KeyError, ValueError):
                pass
            else:
                record(sha, "replica")
                counter("recovery.replica_reads").inc()
                try:
                    nbytes = self.replica_store.stored_size(sha)
                except KeyError:  # pragma: no cover - store raced away
                    nbytes = len(data)
                return data, nbytes
        if self.degraded and index >= 1:
            if entry.kind == "pages":
                lost: list[str] = []
                data, nbytes = self._read_plane(
                    entry, index, missing_ok=True,
                    on_missing=lambda page_sha, _err: lost.append(page_sha),
                )
                counter("recovery.degraded_pages").inc(max(1, len(lost)))
            else:
                lost, data, nbytes = [sha], None, 0
                counter("recovery.degraded_planes").inc()
            for lost_sha in lost:
                record(lost_sha, "zero-fill")
            return data, nbytes
        counter("recovery.failures").inc()
        raise exc

    def _resolve(
        self,
        matrix_id: str,
        planes: int,
        cache: Optional[dict[str, np.ndarray]] = None,
    ) -> tuple[np.ndarray, int]:
        """Recreate one matrix by walking its path from the root."""
        if cache is not None and matrix_id in cache:
            return cache[matrix_id], 0
        chain = []
        current = matrix_id
        while current != ROOT:
            if cache is not None and current in cache:
                break
            chain.append(current)
            current = self._manifest[current].parent
        value = cache[current] if (cache is not None and current != ROOT) else None
        bytes_read = 0
        for node in reversed(chain):
            payload, nbytes = self._read_payload(node, planes)
            bytes_read += nbytes
            entry = self._manifest[node]
            if entry.kind in ("materialize", "pages"):
                value = payload
            else:
                if value.shape != payload.shape:
                    value = embed_like(value, payload.shape)
                if entry.kind == "sub":
                    value = apply_delta(value, payload, "sub")
                else:
                    value = apply_delta(value, payload.view("<u4"), "xor")
            if cache is not None:
                cache[node] = value
        return value, bytes_read

    def recreate_matrix(
        self, matrix_id: str, planes: int = NUM_PLANES
    ) -> np.ndarray:
        """Recreate a single matrix (approximately when ``planes < 4``)."""
        if matrix_id not in self._manifest:
            raise KeyError(f"unknown matrix {matrix_id!r}")
        with trace_span("pas.matrix", matrix=matrix_id, planes=planes) as span:
            value, nbytes = self._resolve(matrix_id, planes)
            span.set_attr("bytes_read", nbytes)
        counter("retrieval.matrices").inc()
        counter("retrieval.bytes_read").inc(nbytes)
        return value

    def recreate_snapshot(
        self,
        snapshot_id: str,
        scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT,
        planes: int = NUM_PLANES,
        max_workers: int = 4,
    ) -> RecreationResult:
        """Recreate all matrices of a snapshot under a retrieval scheme."""
        if snapshot_id not in self._snapshots:
            raise KeyError(f"unknown snapshot {snapshot_id!r}")
        members = self._snapshots[snapshot_id]

        def resolve_traced(
            matrix_id: str, cache: Optional[dict[str, np.ndarray]] = None
        ) -> tuple[np.ndarray, int]:
            with trace_span(
                "pas.matrix", matrix=matrix_id, planes=planes
            ) as matrix_span:
                value, nbytes = self._resolve(matrix_id, planes, cache)
                matrix_span.set_attr("bytes_read", nbytes)
            return value, nbytes

        with trace_span(
            "pas.snapshot",
            snapshot=snapshot_id,
            scheme=scheme.value,
            planes=planes,
        ) as span:
            if scheme is RetrievalScheme.PARALLEL:
                with ThreadPoolExecutor(max_workers=max_workers) as pool:
                    # Pool threads inherit no contextvars: copy the caller's
                    # context per task so per-matrix spans stay children of
                    # this snapshot span and cost charges reach the active
                    # request bill instead of vanishing.
                    futures = [
                        pool.submit(
                            contextvars.copy_context().run,
                            resolve_traced,
                            matrix_id,
                        )
                        for matrix_id in members
                    ]
                    resolved = [future.result() for future in futures]
            else:
                # REUSABLE caches shared path prefixes across members.
                cache = {} if scheme is RetrievalScheme.REUSABLE else None
                resolved = [resolve_traced(m, cache) for m in members]
            results = {m: value for m, (value, _) in zip(members, resolved)}
            bytes_read = sum(nbytes for _, nbytes in resolved)
            span.set_attr("bytes_read", bytes_read)
        counter("retrieval.snapshots").inc()
        counter("retrieval.matrices").inc(len(members))
        counter("retrieval.bytes_read").inc(bytes_read)
        histogram("retrieval.snapshot_seconds").observe(span.elapsed)
        return RecreationResult(results, span.elapsed, bytes_read, planes)

    # -- interval retrieval -------------------------------------------------------

    def matrix_bounds(
        self, matrix_id: str, planes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-weight value bounds from the first ``planes`` byte planes.

        Bounds compose along the delta chain by interval addition, so this
        is only supported for ``sub`` (and materialize) payloads; XOR
        deltas do not admit monotone bounds.
        """
        entry = self._manifest[matrix_id]
        chain = []
        current = matrix_id
        while current != ROOT:
            entry = self._manifest[current]
            if entry.kind == "xor":
                raise ValueError(
                    "interval retrieval requires sub deltas; "
                    f"{current!r} is stored as XOR"
                )
            chain.append(current)
            current = entry.parent
        lo_total: Optional[np.ndarray] = None
        hi_total: Optional[np.ndarray] = None
        for node in reversed(chain):
            entry = self._manifest[node]
            prefix = []
            for i in range(planes):
                data, _nbytes = self._fetch_plane(entry, i)
                if data is None:  # degraded zero-fill has no bounds
                    raise KeyError(f"plane {i} of {node!r} is unreadable")
                prefix.append(data)
            lo, hi = bounds_from_prefix(prefix, entry.shape)
            if lo_total is None:
                lo_total, hi_total = lo.astype(np.float64), hi.astype(np.float64)
            else:
                if lo_total.shape != lo.shape:
                    # Mismatched-dimension delta: embed bounds (zero-padded
                    # positions are exact zeros, so embedding is exact).
                    lo_total = embed_like(lo_total, lo.shape).astype(np.float64)
                    hi_total = embed_like(hi_total, hi.shape).astype(np.float64)
                lo_total = lo_total + lo
                hi_total = hi_total + hi
        return lo_total, hi_total
