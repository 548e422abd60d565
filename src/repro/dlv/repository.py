"""The DLV repository: commit, explore, recreate, and archive models.

A repository lives on a pluggable :class:`~repro.core.storage.base.
StorageBackend` addressed by URL — ``file://<dir>`` (the original loose
``.dlv/`` layout), ``sqlite://<db>`` (the whole repo as one WAL-mode
database file), or ``mem://<name>`` (in-process).  The loose-file
layout, for reference:

.. code-block:: text

    <repo>/.dlv/
        catalog.db      relational catalog (repro.dlv.catalog)
        chunks/         PAS byte-plane chunk store
        replica/        redundant copies of high-order planes (recovery tier)
        journal/        write-ahead intent files for in-flight mutations
        quarantine/     corrupt blobs set aside by `dlv fsck --repair`
        files/          associated files, content addressed
        stage.json      files staged by `dlv add` for the next commit

The sqlite backend holds the same five kinds of state as tables of one
database; which backend a repo uses is auto-detected on open (and
recorded in its config), so ``Repository.open(path)`` keeps working on
every pre-existing repository.

Weights are written at commit time as materialized byte-plane payloads;
``archive`` later re-optimizes the whole repository into a delta-encoded
storage plan (Problem 1) and rewrites the payload table accordingly —
queries are unaffected because retrieval always goes through the payload
manifest.

Mutations are crash-safe (see :mod:`repro.dlv.journal`): chunks land
first under a journaled intent, catalog rows apply in one sqlite
transaction, and :meth:`Repository.open` replays any pending intent —
rolling back commits that never reached the catalog and sweeping the
orphaned chunks they left behind.  The high-order byte planes of every
payload are mirrored into a small replica store, which is what lets
retrieval and ``dlv fsck --repair`` survive a corrupt blob.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import warnings
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.archival import alpha_constraints, solve
from repro.core.float_schemes import get_scheme
from repro.core.retrieval import PlanArchive, payload_planes
from repro.core.segmentation import NUM_PLANES
from repro.core.storage.base import ARCHIVES_PREFIX, STAGE_DOC, StorageBackend
from repro.core.storage.registry import resolve_backend
from repro.core.storage_graph import (
    ROOT,
    MatrixRef,
    MatrixStorageGraph,
    RetrievalScheme,
    StorageEdge,
)
from repro.dedup import DedupEstimator, PageStore
from repro.dedup.pages import manifest_shas
from repro.dlv.objects import ModelVersion, Snapshot
from repro.dnn.network import Network
from repro.dnn.training import TrainResult
from repro.obs.cost import cost_context, get_slowlog
from repro.obs.metrics import counter
from repro.obs.tracing import trace_span

VersionLike = Union[int, str, ModelVersion]


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class Repository:
    """A local DLV repository (the object behind the ``dlv`` tool).

    Construct with a storage URL, a path (backend auto-detected), or an
    already-open :class:`~repro.core.storage.base.StorageBackend`.  The
    familiar attributes — ``store``, ``replica``, ``pages``,
    ``catalog``, ``journal`` — are views onto the backend; ``dlv_dir`` /
    ``files_dir`` exist only on the loose-file backend (``None``
    elsewhere).
    """

    DLV_DIR = ".dlv"

    def __init__(self, source: "str | Path | StorageBackend") -> None:
        if isinstance(source, StorageBackend):
            self.backend = source
        else:
            self.backend = resolve_backend(str(source))
        # Re-openable location token: repo dir (local-fs), db file
        # (sqlite), or mem:// URL (memory).
        self.root = self.backend.root
        self.dlv_dir = getattr(self.backend, "dlv_dir", None)
        self.files_dir = getattr(self.backend, "files_dir", None)
        self.catalog = self.backend.catalog
        self.store = self.backend.chunks
        self.replica = self.backend.replica
        self.pages = self.backend.pages
        self.journal = self.backend.journal
        self.last_replay = self._replay_journal()

    @property
    def url(self) -> str:
        """Canonical storage URL of this repository."""
        return self.backend.url

    # -- journal replay -------------------------------------------------------

    def _replay_journal(self) -> dict:
        """Resolve every pending write-ahead intent (crash recovery).

        Returns a small report; also counts outcomes into ``repro.obs``
        (``journal.*`` counters) so recoveries show up in ``dlv stats``.
        """
        report = {
            "retired": 0,
            "rolled_back": 0,
            "swept_chunks": 0,
            "swept_files": 0,
        }
        entries = self.journal.pending()
        if not entries:
            return report
        for entry in entries:
            if entry.data is None or entry.op is None:
                # Torn intent write: the journal lands before any data it
                # describes, so nothing else can exist — discard it.
                counter("journal.torn_discarded").inc()
            elif entry.op == "commit":
                if self.catalog.has_commit_marker(entry.txid):
                    # Died between catalog durability and journal cleanup.
                    counter("journal.completed").inc()
                else:
                    referenced_files = self.catalog.all_file_shas()
                    report["rolled_back"] += 1
                    report["swept_chunks"] += self._sweep(
                        entry.data.get("chunks", [])
                    )
                    report["swept_files"] += sum(
                        self.backend.delete_file(sha)
                        for sha in entry.data.get("files", [])
                        if sha not in referenced_files
                    )
                    counter("journal.rollbacks").inc()
            else:
                # archive / convert / prune: their catalog transaction is
                # atomic on its own, so either generation of payloads won;
                # sweep whichever generation of chunks lost.
                report["swept_chunks"] += self.gc()
                counter("journal.sweeps").inc()
            self.journal.retire(entry)
            report["retired"] += 1
        counter("journal.replays").inc()
        return report

    # -- lifecycle ------------------------------------------------------------

    @staticmethod
    def _coerce_target(target: "str | Path", action: str) -> str:
        if isinstance(target, Path):
            warnings.warn(
                f"Repository.{action}(Path) is deprecated; pass a storage "
                "URL or a path string (e.g. 'sqlite://repo.db')",
                DeprecationWarning,
                stacklevel=3,
            )
        return str(target)

    @classmethod
    def init(
        cls, target: "str | Path", backend: Optional[str] = None
    ) -> "Repository":
        """``dlv init``: create a repository at a URL or path.

        ``backend`` picks the substrate for bare paths ("local-fs",
        "sqlite", "memory"); URLs carry their own scheme.  A sqlite repo
        initialised at a bare path lands its database at
        ``<path>/.dlv/repo.db`` so the directory stays the repository
        unit.
        """
        target = cls._coerce_target(target, "init")
        return cls(resolve_backend(target, create=True, backend=backend))

    @classmethod
    def open(cls, target: "str | Path") -> "Repository":
        """Open an existing repository by URL or path (raises when absent)."""
        target = cls._coerce_target(target, "open")
        return cls(resolve_backend(target))

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- staging (`dlv add`) -----------------------------------------------------

    def add_files(self, paths: Sequence[str | Path]) -> list[str]:
        """``dlv add``: stage files to associate with the next commit."""
        staged = self.staged_files()
        for path in paths:
            path = Path(path)
            if not path.exists():
                raise FileNotFoundError(path)
            staged.append(str(path))
        unique = sorted(set(staged))
        self.backend.write_doc(
            STAGE_DOC, json.dumps(unique, indent=2).encode()
        )
        return unique

    def staged_files(self) -> list[str]:
        raw = self.backend.read_doc(STAGE_DOC)
        return json.loads(raw) if raw else []

    def get_file(self, sha: str) -> bytes:
        """Read an associated file's content by digest."""
        return self.backend.get_file(sha)

    # -- committing ----------------------------------------------------------------

    def commit(
        self,
        network: Network,
        name: str,
        message: str = "",
        parent: Optional[VersionLike] = None,
        train_result: Optional[TrainResult] = None,
        hyperparams: Optional[dict] = None,
        metadata: Optional[dict] = None,
        float_scheme: str = "float32",
        include_staged: bool = True,
    ) -> ModelVersion:
        """``dlv commit``: record a model version.

        Args:
            network: Built network whose current weights become the latest
                snapshot.
            name: Model version name (required by the data model).
            message: Commit message.
            parent: Base version for the lineage relation (fine-tuning or
                architectural derivation).
            train_result: Optional training artifacts — its snapshots and
                log are recorded (and the network's own weights are *not*
                separately snapshotted when present, since the final
                snapshot of the result equals them).
            hyperparams: Optimization hyperparameters to record in ``M``.
            metadata: Extra metadata key/values.
            float_scheme: PAS float representation for the stored
                snapshots.  Lossy schemes are applied before segmentation —
                PAS archives the lossy values, as the paper's storage /
                accuracy tradeoff intends.
            include_staged: Associate and clear `dlv add`-staged files.

        Returns:
            The committed :class:`ModelVersion`.
        """
        if not network.is_built:
            raise RuntimeError("commit requires a built network")

        # Phase 0 — validate everything that can fail *before* any write.
        base = self.resolve(parent) if parent is not None else None
        staged_paths: list[Path] = []
        if include_staged:
            for path in self.staged_files():
                p = Path(path)
                if not p.exists():
                    raise FileNotFoundError(
                        f"staged file vanished before commit: {p}"
                    )
                staged_paths.append(p)

        # Phase 1 — encode all snapshots into byte planes in memory, so
        # the journal can list every content address before anything lands.
        scheme = get_scheme(float_scheme)
        snapshots = (
            train_result.snapshots
            if train_result is not None
            else [(0, network.get_weights())]
        )
        encoded: list[tuple[int, int, list[tuple]]] = []
        chunk_shas: set[str] = set()
        for index, (iteration, weights) in enumerate(snapshots):
            entries = []
            for layer, params in weights.items():
                for key, matrix in params.items():
                    stored = (
                        matrix if scheme.lossless else scheme.roundtrip(matrix)
                    )
                    planes = payload_planes(stored)
                    chunk_shas.update(self.store.address(p) for p in planes)
                    entries.append(
                        (layer, key, stored.shape, stored.nbytes, planes)
                    )
            encoded.append((index, iteration, entries))
        file_blobs = []
        for p in staged_paths:
            data = p.read_bytes()
            file_blobs.append((p.name, hashlib.sha256(data).hexdigest(), data))

        # Phase 2 — journal the intent, then land every content-addressed
        # artifact.  A crash from here on leaves only orphans the journal
        # replay knows how to sweep.
        intent = self.journal.record(
            "commit",
            name=name,
            created_at=_now(),
            chunks=sorted(chunk_shas),
            files=sorted({sha for _, sha, _ in file_blobs}),
        )
        # The version id is not known before Phase 3: payloads are written
        # under the ``s<idx>/<layer>.<param>`` tail of their matrix id.
        writer = PlanArchive(self.store, replica_store=self.replica)
        for index, _iteration, entries in encoded:
            for layer, key, shape, _nbytes, planes in entries:
                writer.write_payload(f"s{index}/{layer}.{key}", shape, planes)
        for _name, sha, data in file_blobs:
            self.backend.put_file(sha, data)

        # Phase 3 — all catalog rows in one transaction, closed by the
        # commit marker that tells journal replay this commit completed.
        with self.catalog.transaction():
            version_id = self.catalog.insert_version(
                name, message, _now(), network.spec()
            )
            meta: dict = {"param_count": network.param_count()}
            if hyperparams:
                meta["hyperparams"] = hyperparams
            if metadata:
                meta.update(metadata)
            if train_result is not None:
                meta["final_accuracy"] = train_result.final_accuracy
                meta["final_loss"] = train_result.final_loss
                self.catalog.add_training_log(version_id, train_result.log)
            self.catalog.set_metadata(version_id, meta)
            if base is not None:
                self.catalog.add_lineage(base.id, version_id, message)
            written = writer.manifest
            for index, iteration, entries in encoded:
                self.catalog.add_snapshot(
                    Snapshot(
                        version_id=version_id,
                        index=index,
                        iteration=iteration,
                        float_scheme=float_scheme,
                        created_at=_now(),
                    )
                )
                for layer, key, shape, nbytes, _planes in entries:
                    entry = written[f"s{index}/{layer}.{key}"]
                    entry.matrix_id = f"v{version_id}/{entry.matrix_id}"
                    self.catalog.add_matrix(
                        entry.matrix_id, version_id, index, layer, key,
                        shape, nbytes,
                    )
                    self._install(entry)
            if file_blobs:
                self.catalog.add_files(
                    version_id, {n: sha for n, sha, _ in file_blobs}
                )
            self.catalog.add_commit_marker(intent.txid, version_id, _now())

        # Phase 4 — the commit is durable; clean up intent and stage.
        self.journal.retire(intent)
        if include_staged:
            self.backend.delete_doc(STAGE_DOC)
        counter("dlv.commits").inc()
        return self.catalog.get_version(version_id)

    def _install(self, entry):
        """Point the catalog at one written payload (inside the caller's
        transaction): release the matrix's previous page encoding,
        whichever kind replaces it, then record payload and manifests."""
        self.catalog.release_page_manifests(entry.matrix_id)
        self.catalog.set_payload(
            entry.matrix_id, entry.parent, entry.kind, entry.chunk_ids
        )
        for plane, manifest in (entry.pages or {}).items():
            self.catalog.set_page_manifest(entry.matrix_id, plane, manifest)
        return entry

    def rematerialize(
        self, archive: PlanArchive, matrix_id: str, value: np.ndarray
    ):
        """Rewrite one matrix as a root-anchored materialized payload —
        what convert, prune and the fsck repairs do to a matrix whose
        stored form must go."""
        return self._install(
            archive.write_payload(matrix_id, value.shape, payload_planes(value))
        )

    def _detach_dependents(self, archive: PlanArchive, ids: set[str]) -> None:
        """Re-materialize (exactly) every matrix stored as a delta off one
        of ``ids`` — about to be dropped or made lossy."""
        for payload in self.catalog.all_payloads():
            if payload["parent"] in ids and payload["matrix_id"] not in ids:
                self.rematerialize(
                    archive, payload["matrix_id"],
                    archive.recreate_matrix(payload["matrix_id"]),
                )

    # -- resolution & exploration ------------------------------------------------------

    def resolve(self, ref: VersionLike) -> ModelVersion:
        """Resolve an id, name, ``name@id`` string, or ModelVersion."""
        if isinstance(ref, ModelVersion):
            return ref
        if isinstance(ref, int):
            version = self.catalog.get_version(ref)
            if version is None:
                raise KeyError(f"no model version {ref}")
            return version
        text = str(ref)
        if "@" in text:
            _, _, id_part = text.rpartition("@")
            return self.resolve(int(id_part))
        matches = self.catalog.find_versions(text)
        if not matches:
            raise KeyError(f"no model version named {text!r}")
        return matches[-1]

    def list_versions(self, name_like: Optional[str] = None) -> list[ModelVersion]:
        """``dlv list``: versions, optionally filtered by name pattern."""
        return self.catalog.find_versions(name_like)

    def lineage_edges(self) -> list[tuple[int, int, str]]:
        """All `(base, derived, message)` lineage records."""
        return self.catalog.all_lineage()

    def ancestors(self, ref: VersionLike) -> list[ModelVersion]:
        """Transitive bases of a version (nearest first)."""
        version = self.resolve(ref)
        seen: set[int] = set()
        order: list[int] = []
        frontier = [version.id]
        while frontier:
            current = frontier.pop(0)
            for parent in self.catalog.get_parents(current):
                if parent not in seen:
                    seen.add(parent)
                    order.append(parent)
                    frontier.append(parent)
        return [self.catalog.get_version(v) for v in order]

    def descendants(self, ref: VersionLike) -> list[ModelVersion]:
        """Transitive derived versions (nearest first)."""
        version = self.resolve(ref)
        seen: set[int] = set()
        order: list[int] = []
        frontier = [version.id]
        while frontier:
            current = frontier.pop(0)
            for child in self.catalog.get_children(current):
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    frontier.append(child)
        return [self.catalog.get_version(v) for v in order]

    def verify(self) -> dict:
        """Integrity check of the whole repository.

        Verifies that every payload's chunks exist and decompress, that
        every matrix recreates to its recorded shape, and that every
        version's network spec parses.  Returns a report with any problems
        found (an empty ``problems`` list means the repository is sound).
        """
        problems: list[str] = []
        matrices_checked = 0
        archive = self._plan_archive()
        shapes = {
            row["matrix_id"]: row["shape"]
            for row in self.catalog.get_matrices()
        }
        for payload in self.catalog.all_payloads():
            matrix_id = payload["matrix_id"]
            missing = [
                sha for sha in payload["chunks"] if sha not in self.store
            ]
            problems.extend(
                f"{matrix_id}: missing chunk {sha[:12]}" for sha in missing
            )
            if missing:
                continue
            try:
                value = archive.recreate_matrix(matrix_id)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                problems.append(f"{matrix_id}: recreation failed ({exc})")
                continue
            if tuple(value.shape) != tuple(shapes.get(matrix_id, ())):
                problems.append(
                    f"{matrix_id}: shape {value.shape} != recorded "
                    f"{shapes.get(matrix_id)}"
                )
            matrices_checked += 1
        versions_checked = 0
        for version in self.list_versions():
            try:
                Network.from_spec(version.network)
                versions_checked += 1
            except Exception as exc:  # noqa: BLE001
                problems.append(f"{version.ref}: bad network spec ({exc})")
        return {
            "ok": not problems,
            "matrices_checked": matrices_checked,
            "versions_checked": versions_checked,
            "problems": problems,
        }

    def describe(self, ref: VersionLike) -> dict:
        """``dlv desc``: metadata, structure, and log summary of a version."""
        version = self.resolve(ref)
        log = self.catalog.get_training_log(version.id)
        return {
            "id": version.id,
            "name": version.name,
            "ref": version.ref,
            "message": version.message,
            "created_at": version.created_at,
            "metadata": version.metadata,
            "layers": [
                entry["layer"]["name"] + ":" + entry["layer"]["kind"]
                for entry in version.network.get("nodes", [])
            ],
            "num_snapshots": len(version.snapshots),
            "parents": self.catalog.get_parents(version.id),
            "children": self.catalog.get_children(version.id),
            "files": version.files,
            "log_entries": len(log),
            "last_log": log[-1] if log else None,
        }

    def training_log(self, ref: VersionLike) -> list[dict]:
        return self.catalog.get_training_log(self.resolve(ref).id)

    # -- weights ---------------------------------------------------------------------

    def page_store(self, page_size: Optional[int] = None) -> PageStore:
        """The dedup page store over this repo's ``pages`` blob tier."""
        kwargs = {"page_size": page_size} if page_size else {}
        return PageStore(self.pages, self.catalog, **kwargs)

    def _plan_archive(self, plane_cache=None) -> PlanArchive:
        """Current physical layout as a :class:`PlanArchive`."""
        snapshots: dict[str, list[str]] = {}
        shapes: dict[str, tuple] = {}
        for row in self.catalog.get_matrices():
            key = f"v{row['version_id']}/s{row['snapshot_idx']}"
            snapshots.setdefault(key, []).append(row["matrix_id"])
            shapes[row["matrix_id"]] = row["shape"]
        page_manifests: dict[str, dict[str, dict]] = {}
        for matrix_id, plane, man in self.catalog.all_page_manifests():
            page_manifests.setdefault(matrix_id, {})[str(plane)] = man
        payloads: dict[str, dict] = {}
        for p in self.catalog.all_payloads():
            entry = {
                "parent": p["parent"],
                "kind": p["kind"],
                "shape": list(shapes.get(p["matrix_id"], ())),
                "chunks": p["chunks"],
            }
            if p["matrix_id"] in page_manifests:
                entry["pages"] = page_manifests[p["matrix_id"]]
            payloads[p["matrix_id"]] = entry
        manifest = {"snapshots": snapshots, "payloads": payloads}
        return PlanArchive.from_manifest_dict(
            self.store,
            manifest,
            replica_store=self.replica,
            degraded=True,
            page_store=self.page_store(),
            plane_cache=plane_cache,
        )

    def archive_view(self, plane_cache=None) -> PlanArchive:
        """Public accessor for the current PAS layout.

        ``plane_cache`` (a :class:`~repro.serve.cache.PlaneCache`) keys
        dedup page reads by content hash, so serving tiers that pass a
        shared cache hold each page's bytes once across all models.
        """
        return self._plan_archive(plane_cache=plane_cache)

    def get_snapshot_weights(
        self,
        ref: VersionLike,
        snapshot_idx: int = -1,
        planes: int = 4,
    ) -> dict[str, dict[str, np.ndarray]]:
        """Recreate a snapshot's weights (approximate when ``planes < 4``)."""
        version = self.resolve(ref)
        if not version.snapshots:
            raise ValueError(f"version {version.ref} has no snapshots")
        snapshot = version.snapshots[snapshot_idx]
        archive = self._plan_archive()
        weights: dict[str, dict[str, np.ndarray]] = {}
        for row in self.catalog.get_matrices(version.id, snapshot.index):
            value = archive.recreate_matrix(row["matrix_id"], planes=planes)
            weights.setdefault(row["layer"], {})[row["param"]] = value
        return weights

    def load_network(
        self, ref: VersionLike, snapshot_idx: int = -1, seed: int = 0
    ) -> Network:
        """Reconstruct a built network with a snapshot's weights installed."""
        version = self.resolve(ref)
        net = Network.from_spec(version.network).build(seed)
        net.set_weights(self.get_snapshot_weights(version, snapshot_idx))
        return net

    def matrix_id_for(
        self, ref: VersionLike, layer: str, param: str = "W",
        snapshot_idx: int = -1,
    ) -> str:
        """PAS matrix id of one parameter of a version's snapshot."""
        version = self.resolve(ref)
        snapshot = version.snapshots[snapshot_idx]
        for row in self.catalog.get_matrices(version.id, snapshot.index):
            if row["layer"] == layer and row["param"] == param:
                return row["matrix_id"]
        raise KeyError(
            f"{version.ref} snapshot {snapshot.index} has no matrix "
            f"{layer}.{param}"
        )

    def inspect_matrix(
        self, ref: VersionLike, layer: str, param: str = "W",
        snapshot_idx: int = -1, planes: int = 2, bins: int = 10,
    ) -> dict:
        """Segment-only stats + histogram of one archived parameter.

        Answers ``dlv inspect`` without touching the low-order byte planes
        (Sec. IV-D's exploration-query optimization).
        """
        from repro.core.inspect import segment_histogram, segment_stats

        matrix_id = self.matrix_id_for(ref, layer, param, snapshot_idx)
        archive = self._plan_archive()
        return {
            "stats": segment_stats(archive, matrix_id, planes),
            "histogram": segment_histogram(archive, matrix_id, bins, planes),
        }

    def evaluate(
        self, ref: VersionLike, x: np.ndarray, y: Optional[np.ndarray] = None,
        snapshot_idx: int = -1,
    ) -> dict:
        """``dlv eval``: run the test phase of a managed model on data.

        The result carries the evaluation's storage bill under ``cost``
        (bytes/planes read recreating the snapshot, cache traffic).
        """
        with trace_span("dlv.evaluate", rows=len(x)) as span:
            with cost_context() as cost:
                net = self.load_network(ref, snapshot_idx)
                predictions = net.predict(x)
        result = {"predictions": predictions, "cost": cost.to_dict()}
        span.set_attr("cost", result["cost"])
        get_slowlog().record(
            "dlv.evaluate",
            span.elapsed * 1000.0,
            trace_id=span.trace_id,
            cost=result["cost"],
        )
        if y is not None:
            result["accuracy"] = float((predictions == np.asarray(y)).mean())
        return result

    # -- archival (`dlv archive`) -----------------------------------------------------------

    def build_storage_graph(
        self,
        delta_within_versions: bool = True,
        delta_across_lineage: bool = True,
        recreation_unit: float = 1e-6,
        dedup: bool = False,
        page_size: Optional[int] = None,
    ) -> tuple[MatrixStorageGraph, dict[str, np.ndarray]]:
        """Construct the matrix storage graph of the whole repository.

        Delta edges follow the paper's Fig. 6(b) findings: between
        *adjacent snapshots* of the same version, and between the *latest
        snapshots* of lineage-related versions (fine-tuning).  Edge weights:
        storage cost = compressed byte-plane size of the payload;
        recreation cost = uncompressed bytes x ``recreation_unit`` per
        payload applied (a proxy for decompress+apply time).

        Storage costs are asked of the code that will write the payload
        (:meth:`PlanArchive.payload_cost`): priced bytes are stored bytes.

        With ``dedup`` on, every matrix also gets a parallel ``pages``
        root edge whose storage cost is a :class:`DedupEstimator` dry run
        of the page store — only the pages no earlier matrix (or the
        existing page store) already holds.  Unrelated models that share
        content thus archive near-free, without needing a lineage edge
        between them.

        Returns the graph and the id -> array map needed to physically
        archive it.
        """
        graph = MatrixStorageGraph()
        matrices: dict[str, np.ndarray] = {}
        rows_by_snapshot: dict[tuple[int, int], list[dict]] = {}
        archive = self._plan_archive()
        estimator = DedupEstimator(self.page_store(page_size)) if dedup else None
        for row in self.catalog.get_matrices():
            matrix_id = row["matrix_id"]
            value = archive.recreate_matrix(matrix_id)
            matrices[matrix_id] = value
            snapshot_key = f"v{row['version_id']}/s{row['snapshot_idx']}"
            graph.add_matrix(
                MatrixRef(matrix_id, snapshot_key, value.nbytes)
            )
            graph.add_materialization(
                matrix_id,
                archive.payload_cost(value),
                value.nbytes * recreation_unit,
            )
            if estimator is not None:
                graph.add_edge(
                    StorageEdge(
                        ROOT,
                        matrix_id,
                        estimator.matrix_cost(value),
                        value.nbytes * recreation_unit,
                        kind="pages",
                    )
                )
            rows_by_snapshot.setdefault(
                (row["version_id"], row["snapshot_idx"]), []
            ).append(row)

        def add_delta_edges(
            rows_a: list[dict], rows_b: list[dict]
        ) -> None:
            by_key_b = {(r["layer"], r["param"]): r for r in rows_b}
            for row_a in rows_a:
                row_b = by_key_b.get((row_a["layer"], row_a["param"]))
                if row_b is None:
                    continue
                if len(row_a["shape"]) != len(row_b["shape"]):
                    continue
                a = matrices[row_a["matrix_id"]]
                b = matrices[row_b["matrix_id"]]
                graph.add_edge(
                    StorageEdge(
                        row_b["matrix_id"],
                        row_a["matrix_id"],
                        archive.payload_cost(a, b, "sub"),
                        a.nbytes * recreation_unit,
                        kind="delta",
                    )
                )

        if delta_within_versions:
            by_version: dict[int, list[int]] = {}
            for vid, idx in rows_by_snapshot:
                by_version.setdefault(vid, []).append(idx)
            for vid, indices in by_version.items():
                indices.sort()
                for prev, nxt in zip(indices, indices[1:]):
                    add_delta_edges(
                        rows_by_snapshot[(vid, nxt)],
                        rows_by_snapshot[(vid, prev)],
                    )

        if delta_across_lineage:
            for base, derived, _ in self.catalog.all_lineage():
                base_version = self.catalog.get_version(base)
                derived_version = self.catalog.get_version(derived)
                if not base_version.snapshots or not derived_version.snapshots:
                    continue
                base_key = (base, base_version.snapshots[-1].index)
                derived_key = (derived, derived_version.snapshots[-1].index)
                if base_key in rows_by_snapshot and derived_key in rows_by_snapshot:
                    add_delta_edges(
                        rows_by_snapshot[derived_key],
                        rows_by_snapshot[base_key],
                    )

        return graph, matrices

    def archive(
        self,
        alpha: float = 2.0,
        scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT,
        algorithm: str = "best",
        dedup: bool = False,
        page_size: Optional[int] = None,
    ) -> dict:
        """``dlv archive``: re-optimize the repository's parameter storage.

        Solves Problem 1 with per-snapshot budgets ``alpha x Cr(SPT)``,
        physically re-archives every matrix per the winning plan, and
        updates the payload table.

        With ``dedup`` on, the solver may also store matrices as
        similarity-deduplicated page manifests (see :mod:`repro.dedup`):
        page blobs land first under the journaled intent (content
        addressed, so a crash leaves only orphans for :meth:`gc`), and
        refcounts/sketches apply atomically with the payload rewrite.

        Returns:
            A report with storage cost before/after and plan statistics.
        """
        before = self.store.total_size() + self.pages.total_size()
        graph, matrices = self.build_storage_graph(
            dedup=dedup, page_size=page_size
        )
        constraints = alpha_constraints(graph, alpha, scheme)
        plan = solve(graph, constraints, scheme, algorithm)
        intent = self.journal.record(
            "archive", alpha=alpha, algorithm=algorithm, dedup=dedup
        )
        pstore = self.page_store(page_size)
        archive = PlanArchive.build(
            self.store, matrices, plan,
            replica_store=self.replica,
            page_store=pstore,
        )
        with self.catalog.transaction():
            for entry in archive.manifest.values():
                self._install(entry)
            pstore.flush()
        self.gc()
        self.journal.retire(intent)
        after = self.store.total_size() + self.pages.total_size()
        report = {
            "algorithm": algorithm,
            "alpha": alpha,
            "scheme": scheme.value,
            "dedup": dedup,
            "plan_storage_cost": plan.storage_cost(),
            "bytes_before": before,
            "bytes_after": after,
            "page_bytes": self.pages.total_size(),
            "snapshot_costs": plan.all_snapshot_costs(scheme),
            "satisfied": plan.satisfies(constraints, scheme),
            "archived_at": _now(),
        }
        self._record_archive_report(report)
        return report

    def _record_archive_report(self, report: dict) -> None:
        """Append an archive run to the repository's provenance history."""
        index = len(self.backend.list_docs(ARCHIVES_PREFIX))
        self.backend.write_doc(
            f"{ARCHIVES_PREFIX}{index:04d}.json",
            json.dumps(report, indent=2, default=str).encode(),
        )

    def archive_history(self) -> list[dict]:
        """All recorded ``dlv archive`` runs, oldest first."""
        return [
            json.loads(self.backend.read_doc(name))
            for name in self.backend.list_docs(ARCHIVES_PREFIX)
        ]

    def convert_snapshot_scheme(
        self, ref: VersionLike, snapshot_idx: int, float_scheme: str
    ) -> dict:
        """Re-encode a stored snapshot with a (lossier) float scheme.

        The paper's storage story (Sec. IV-B): rather than deleting old
        checkpoints under resource pressure, the modeler demotes them to a
        cheaper representation — e.g. ``fixed8`` for snapshots kept only
        for debugging, ``quant8-uniform`` for fine-tuning initializers.
        The snapshot's recorded scheme is updated; its matrices are
        re-segmented from the lossy values and the old chunks become
        garbage (collect with :meth:`gc`).

        Returns:
            ``{"bytes_before", "bytes_after"}`` stored-size accounting for
            the affected matrices.
        """
        version = self.resolve(ref)
        snapshot = version.snapshots[snapshot_idx]
        scheme = get_scheme(float_scheme)
        archive = self._plan_archive()
        rows = self.catalog.get_matrices(version.id, snapshot.index)
        exact_values = {
            row["matrix_id"]: archive.recreate_matrix(row["matrix_id"])
            for row in rows
        }
        intent = self.journal.record(
            "convert", ref=version.ref, snapshot=snapshot.index,
            float_scheme=float_scheme,
        )

        def stored_size(entries) -> int:
            return sum(
                archive.plane_stored_size(entry, index)
                for entry in entries
                for index in range(NUM_PLANES)
            )

        before = stored_size(archive.manifest[m] for m in exact_values)
        with self.catalog.transaction():
            self._detach_dependents(archive, set(exact_values))
            # Converted snapshots are re-materialized: a lossy matrix is
            # no longer a valid delta base/target for its old neighbours.
            after = stored_size([
                self.rematerialize(archive, matrix_id, scheme.roundtrip(exact))
                for matrix_id, exact in exact_values.items()
            ])
            self.catalog.set_snapshot_scheme(
                version.id, snapshot.index, float_scheme
            )
        self.gc()
        self.journal.retire(intent)
        return {"bytes_before": before, "bytes_after": after}

    def prune_snapshots(
        self, ref: VersionLike, keep_every: int = 2, keep_last: int = 1
    ) -> dict:
        """Drop intermediate checkpoints of a version.

        Keeps every ``keep_every``-th snapshot plus the last ``keep_last``
        ones (the latest snapshot is never dropped — it serves most queries,
        Sec. IV-A).  Matrices stored as deltas off a pruned snapshot are
        re-materialized first so surviving data stays recreatable.

        Returns:
            ``{"kept": [...], "dropped": [...]}`` snapshot indices.
        """
        if keep_every < 1 or keep_last < 1:
            raise ValueError("keep_every and keep_last must be >= 1")
        version = self.resolve(ref)
        indices = [s.index for s in version.snapshots]
        protected = set(indices[-keep_last:])
        kept = [
            i for i in indices if i % keep_every == 0 or i in protected
        ]
        dropped = [i for i in indices if i not in kept]
        if not dropped:
            return {"kept": kept, "dropped": []}

        dropped_matrix_ids = {
            row["matrix_id"]
            for idx in dropped
            for row in self.catalog.get_matrices(version.id, idx)
        }
        archive = self._plan_archive()
        intent = self.journal.record("prune", ref=version.ref, dropped=dropped)
        with self.catalog.transaction():
            self._detach_dependents(archive, dropped_matrix_ids)
            for matrix_id in dropped_matrix_ids:
                self.catalog.delete_matrix(matrix_id)
            for idx in dropped:
                self.catalog.delete_snapshot(version.id, idx)
        self.gc()
        self.journal.retire(intent)
        return {"kept": kept, "dropped": dropped}

    def export_model_dir(
        self, ref: VersionLike, path: str | Path, snapshot_idx: int = -1
    ) -> Path:
        """Inverse of ``dlv commit``: write a model directory for a version.

        Produces the ``network.json`` / ``weights.npz`` / ``solver.json`` /
        ``log.json`` exchange format so the model can be loaded back into
        an external training system (see :mod:`repro.dlv.wrapper`).
        """
        from repro.dlv import wrapper
        from repro.dnn.training import SGDConfig, TrainResult

        version = self.resolve(ref)
        net = self.load_network(version, snapshot_idx)
        hyperparams = version.metadata.get("hyperparams")
        config = None
        if isinstance(hyperparams, dict):
            known = {
                k: v
                for k, v in hyperparams.items()
                if k in SGDConfig.__dataclass_fields__
            }
            config = SGDConfig(**known)
        log = self.training_log(version)
        result = TrainResult(log=log) if log else None
        return wrapper.save_model_dir(path, net, config, result)

    def live_addresses(self) -> tuple[set[str], set[str], set[str]]:
        """The liveness rule: the ``(chunks, replica, pages)`` addresses
        the catalog keeps alive.  A payload's chunk list keeps its chunks
        and their mirrors; a page manifest keeps its pages and — in the
        replica tier only — the mirror under its whole-plane digest (the
        same digest in the main store is a stale materialize chunk)."""
        chunks: set[str] = set()
        for payload in self.catalog.all_payloads():
            chunks.update(payload["chunks"])
        replica, pages = set(chunks), set()
        for _matrix_id, _plane, man in self.catalog.all_page_manifests():
            pages.update(manifest_shas(man))
            if man.get("sha"):
                replica.add(man["sha"])
        return chunks, replica, pages

    def _sweep(self, listed: Optional[Sequence[str]] = None) -> int:
        """Delete dead blobs: of every tier, or only the ``listed`` chunk
        addresses (main store and replica).  The one place that applies
        :meth:`live_addresses` and the one place a replica blob is
        deleted; returns the number of main-store chunks removed."""
        chunks, replica, pages = self.live_addresses()
        in_store = self.store.addresses() if listed is None else listed
        in_replica = self.replica.addresses() if listed is None else listed
        removed = sum(
            self.store.delete(sha) for sha in list(in_store) if sha not in chunks
        )
        for sha in list(in_replica):
            if sha not in replica:
                self.replica.delete(sha)
        if listed is None:
            self.page_store().sweep_orphans(pages)
        return removed

    def gc(self) -> int:
        """Delete chunks not referenced by any payload (and dead replica
        and page blobs); returns the count of main-store removals."""
        return self._sweep()

    def dedup_stats(self) -> dict:
        """Page-dedup accounting for ``dlv dedup stats`` / ``dlv stats``.

        ``bytes_saved`` is what the paged matrices would have cost stored
        independently minus what the shared page tier actually holds.
        """
        stats = self.page_store().stats()
        stats["chunk_bytes"] = self.store.total_size()
        return stats

    # -- copy (`dlv copy`) -----------------------------------------------------------------

    def copy_version(
        self, ref: VersionLike, new_name: str, message: str = ""
    ) -> ModelVersion:
        """``dlv copy``: scaffold a new version from an old one.

        The new version shares the old one's architecture and latest
        weights (stored deduplicated by content addressing) and records a
        lineage edge — the starting point for fine-tuning.
        """
        base = self.resolve(ref)
        net = self.load_network(base)
        net.name = new_name
        return self.commit(
            net,
            name=new_name,
            message=message or f"copied from {base.ref}",
            parent=base,
        )
