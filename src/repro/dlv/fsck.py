"""``dlv fsck``: deep integrity checking and repair for DLV repositories.

:func:`run_fsck` audits the three layers a repository can rot in:

* **blobs** — every chunk in the main and replica stores is re-hashed
  (content addresses make corruption self-evident);
* **catalog** — referential integrity across
  versions ↔ snapshots ↔ matrices ↔ payloads, lineage endpoints, parent
  chains of the payload storage graph (broken links, cycles);
* **filesystem** — pending journal intents, stale tmp files, orphan
  chunks and associated files.

The audit is backend-neutral: blob scanning, catalog checks, and orphan
detection go through the storage interface, while substrate-specific
debris (stale tmp files) and the quarantine mechanics are delegated to
the repository's :class:`~repro.core.storage.base.StorageBackend`.

With ``repair=True`` it additionally:

* quarantines corrupt blobs (named ``<sha>`` for main-store blobs,
  ``<sha>.replica`` for replica blobs — a ``.dlv/quarantine/`` directory
  on the loose-file backend, a table in the database backends),
* restores quarantined chunks from the replica tier when an intact copy
  exists (exact recovery),
* re-materializes payloads that reference lost chunks through degraded
  retrieval — the alternate storage-graph path: replica planes first,
  zero-filled low-order planes as a last resort — rewriting them as
  exact-from-now-on materialized payloads,
* deletes dangling catalog rows, orphan chunks/files, and stale tmps.

Finding codes
=============

=========  ========  ====================================================
code       severity  meaning
=========  ========  ====================================================
F101       error     corrupt chunk in the main store (re-hash failed)
F102       warning   corrupt chunk in the replica store
F103       error     payload references a chunk absent from the store
F104       warning   replicated plane has no replica copy
F201       error     snapshot row whose version does not exist
F202       error     matrix row whose snapshot does not exist
F203       error     payload row whose matrix does not exist
F204       error     matrix row with no payload (unrecreatable)
F205       error     payload parent chain broken (unknown parent)
F206       error     payload parent chain contains a cycle
F207       error     lineage edge referencing an unknown version
F301       warning   pending journal intent (unreplayed crash artifact)
F302       warning   stale tmp file in a chunk store
F303       info      orphan chunk (referenced by no payload)
F304       info      orphan associated file
F401       error     page manifest references a missing/corrupt page
F402       warning   page refcounts drift from the manifests
F403       info      orphan page (referenced by no manifest)
=========  ========  ====================================================

Replica-tier audit (F104): every plane the payload writer mirrors
(:meth:`~repro.core.retrieval.PlanArchive.mirror_addresses`) must have
its replica copy; ``--repair`` re-mirrors from the intact main-store
chunk or the reassembled pages.  What counts as an orphan (F303, F403) is
:meth:`~repro.dlv.repository.Repository.live_addresses`, the one rule.

Dedup-tier repairs (F4xx): corrupt page blobs are quarantined (kind
``pages``); payloads whose pages are lost re-materialize through
degraded retrieval exactly like F103 — the manifest's whole-plane
replica mirror makes the high-order planes exact; refcount drift is
rebuilt from the manifests; orphan pages are swept with their index
rows.

Exit codes of the CLI command: ``0`` — clean, or every error-severity
finding was repaired; ``1`` — error findings remain (run with
``--repair``, or the damage is unrecoverable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.storage_graph import ROOT
from repro.obs.metrics import counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dlv.repository import Repository

#: Severity per finding code (also the authoritative code list).
FSCK_CODES: dict[str, tuple[str, str]] = {
    "F101": ("error", "corrupt chunk in main store"),
    "F102": ("warning", "corrupt chunk in replica store"),
    "F103": ("error", "payload references missing chunk"),
    "F104": ("warning", "replicated plane has no replica copy"),
    "F201": ("error", "snapshot without version"),
    "F202": ("error", "matrix without snapshot"),
    "F203": ("error", "payload without matrix"),
    "F204": ("error", "matrix without payload"),
    "F205": ("error", "payload parent chain broken"),
    "F206": ("error", "payload parent chain cycle"),
    "F207": ("error", "lineage edge to unknown version"),
    "F301": ("warning", "pending journal intent"),
    "F302": ("warning", "stale tmp file"),
    "F303": ("info", "orphan chunk"),
    "F304": ("info", "orphan associated file"),
    "F401": ("error", "page manifest references missing page"),
    "F402": ("warning", "page refcount drift"),
    "F403": ("info", "orphan page"),
}


@dataclass
class Finding:
    """One fsck observation, optionally annotated with its repair."""

    code: str
    message: str
    sha: Optional[str] = None
    matrix_id: Optional[str] = None
    repaired: bool = False
    repair: Optional[str] = None

    @property
    def severity(self) -> str:
        return FSCK_CODES[self.code][0]

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "repaired": self.repaired,
        }
        if self.sha:
            out["sha"] = self.sha
        if self.matrix_id:
            out["matrix_id"] = self.matrix_id
        if self.repair:
            out["repair"] = self.repair
        return out


@dataclass
class FsckReport:
    """Everything one fsck run saw and did."""

    findings: list[Finding] = field(default_factory=list)
    chunks_checked: int = 0
    replica_checked: int = 0
    payloads_checked: int = 0
    pages_checked: int = 0
    repair: bool = False

    @property
    def clean(self) -> bool:
        """No error-severity finding is left unrepaired."""
        return not any(
            f.severity == "error" and not f.repaired for f in self.findings
        )

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "repair": self.repair,
            "chunks_checked": self.chunks_checked,
            "replica_checked": self.replica_checked,
            "payloads_checked": self.payloads_checked,
            "pages_checked": self.pages_checked,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                severity: sum(
                    1 for f in self.findings if f.severity == severity
                )
                for severity in ("error", "warning", "info")
            },
        }


def run_fsck(repo: "Repository", repair: bool = False) -> FsckReport:
    """Audit (and optionally repair) one repository; see module docs."""
    report = FsckReport(repair=repair)
    counter("fsck.runs").inc()

    corrupt_main, report.chunks_checked = _scan_store(
        repo.store, "F101", report
    )
    corrupt_replica, report.replica_checked = _scan_store(
        repo.replica, "F102", report
    )

    if repair:
        for sha in corrupt_main:
            repo.backend.quarantine_blob("chunks", sha)
        for sha in corrupt_replica:
            repo.backend.quarantine_blob("replica", sha)
            _annotate(report, sha, "quarantined", codes=("F102",))

    _check_catalog(repo, report, repair)
    missing = _check_payload_chunks(repo, report, corrupt_main, repair)
    if repair:
        if missing:
            _repair_payloads(repo, report, missing)
        referenced = {m for shas in missing.values() for m in shas}
        for sha in corrupt_main - referenced:
            # Corrupt blob no payload references: quarantining it IS the fix.
            _annotate(report, sha, "quarantined (unreferenced)", codes=("F101",))
    _check_pages(repo, report, repair)
    _check_mirrors(repo, report, repair)
    _check_journal(repo, report)
    _check_litter(repo, report, repair)

    for finding in report.findings:
        counter(f"fsck.findings.{finding.code}").inc()
        if finding.repaired:
            counter("fsck.repairs").inc()
    counter("fsck.findings").inc(len(report.findings))
    return report


# -- blob scan --------------------------------------------------------------------


def _scan_store(
    store, code: Optional[str], report: FsckReport
) -> tuple[set[str], int]:
    """Re-hash every blob in one store; returns (corrupt addresses, scanned)."""
    addresses = list(store.addresses())
    corrupt = {sha for sha in addresses if not store.verify_blob(sha)}
    if code:
        report.findings.extend(
            Finding(code, f"chunk {sha[:12]} fails re-hash", sha=sha)
            for sha in sorted(corrupt)
        )
    return corrupt, len(addresses)


# -- catalog referential integrity -------------------------------------------------


def _check_catalog(repo, report: FsckReport, repair: bool) -> None:
    cat = repo.catalog
    version_ids = {
        row["id"]
        for row in cat._conn.execute("SELECT id FROM model_version").fetchall()
    }
    snapshot_keys = {
        (row["version_id"], row["idx"])
        for row in cat._conn.execute(
            "SELECT version_id, idx FROM snapshot"
        ).fetchall()
    }
    matrices = cat.get_matrices()
    matrix_ids = {row["matrix_id"] for row in matrices}
    payloads = cat.all_payloads()
    payload_ids = {p["matrix_id"] for p in payloads}
    parent_of = {p["matrix_id"]: p["parent"] for p in payloads}

    for version_id, idx in sorted(snapshot_keys):
        if version_id not in version_ids:
            f = Finding(
                "F201", f"snapshot v{version_id}/s{idx} has no version"
            )
            if repair:
                cat.delete_snapshot(version_id, idx)
                f.repaired, f.repair = True, "deleted dangling snapshot row"
            report.findings.append(f)

    for row in matrices:
        if (row["version_id"], row["snapshot_idx"]) not in snapshot_keys:
            f = Finding(
                "F202",
                f"matrix {row['matrix_id']} has no snapshot",
                matrix_id=row["matrix_id"],
            )
            if repair:
                cat.delete_matrix(row["matrix_id"])
                f.repaired, f.repair = True, "deleted dangling matrix row"
            report.findings.append(f)
        elif row["matrix_id"] not in payload_ids:
            report.findings.append(
                Finding(
                    "F204",
                    f"matrix {row['matrix_id']} has no payload",
                    matrix_id=row["matrix_id"],
                )
            )

    for payload in payloads:
        if payload["matrix_id"] not in matrix_ids:
            f = Finding(
                "F203",
                f"payload {payload['matrix_id']} has no matrix row",
                matrix_id=payload["matrix_id"],
            )
            if repair:
                cat.delete_matrix(payload["matrix_id"])
                f.repaired, f.repair = True, "deleted dangling payload row"
            report.findings.append(f)

    # Parent chains: every payload must reach ROOT without cycles.
    for payload in payloads:
        seen = set()
        current = payload["matrix_id"]
        while current != ROOT:
            if current in seen:
                report.findings.append(
                    Finding(
                        "F206",
                        f"payload chain of {payload['matrix_id']} cycles "
                        f"at {current}",
                        matrix_id=payload["matrix_id"],
                    )
                )
                break
            seen.add(current)
            if current not in parent_of:
                report.findings.append(
                    Finding(
                        "F205",
                        f"payload chain of {payload['matrix_id']} breaks "
                        f"at unknown parent {current}",
                        matrix_id=payload["matrix_id"],
                    )
                )
                break
            current = parent_of[current]

    for base, derived, _message in cat.all_lineage():
        for endpoint in (base, derived):
            if endpoint not in version_ids:
                f = Finding(
                    "F207",
                    f"lineage edge {base}->{derived} references unknown "
                    f"version {endpoint}",
                )
                if repair:
                    cat._conn.execute(
                        "DELETE FROM lineage WHERE base = ? AND derived = ?",
                        (base, derived),
                    )
                    cat._maybe_commit()
                    f.repaired, f.repair = True, "deleted dangling lineage edge"
                report.findings.append(f)


# -- payload reachability & chunk presence ------------------------------------------


def _check_payload_chunks(
    repo, report: FsckReport, corrupt_main: set[str], repair: bool
) -> dict[str, list[str]]:
    """Find payloads whose chunks are missing or corrupt.

    Returns ``matrix_id -> [bad shas]`` for the repair pass.
    """
    affected: dict[str, list[str]] = {}
    for payload in repo.catalog.all_payloads():
        report.payloads_checked += 1
        bad = []
        for sha in payload["chunks"]:
            if sha in corrupt_main:
                bad.append(sha)
            elif sha not in repo.store:
                bad.append(sha)
                report.findings.append(
                    Finding(
                        "F103",
                        f"payload {payload['matrix_id']} references missing "
                        f"chunk {sha[:12]}",
                        sha=sha,
                        matrix_id=payload["matrix_id"],
                    )
                )
        if bad:
            affected[payload["matrix_id"]] = bad
    return affected


def _repair_payloads(
    repo, report: FsckReport, affected: dict[str, list[str]]
) -> None:
    """Re-land lost chunks: replica restore first, else re-materialize.

    Exact path: an intact replica copy of the lost chunk is copied back
    into the main store.  Degraded path (:func:`_rematerialize`):
    approximate values, but the snapshot is readable again and every
    descendant's delta chain stays intact.
    """
    still_lost: dict[str, list[str]] = {}
    for matrix_id, shas in affected.items():
        remaining = []
        for sha in shas:
            if sha in repo.store:
                continue  # restored while handling an earlier payload
            if sha in repo.replica and repo.replica.verify_blob(sha):
                repo.store.put(repo.replica.get(sha))
                counter("fsck.replica_restores").inc()
                _annotate(report, sha, "restored from replica")
            else:
                remaining.append(sha)
        if remaining:
            still_lost[matrix_id] = remaining

    if still_lost:
        _rematerialize(repo, report, still_lost, ("F101", "F103"))


def _rematerialize(
    repo, report: FsckReport, affected: dict[str, list[str]],
    codes: tuple[str, ...],
) -> None:
    """Rewrite payloads whose chunks or pages are lost as materialized.

    The matrix is recreated through degraded retrieval — the replica
    mirror makes the high-order planes exact (for page-encoded payloads
    too: their whole-plane mirror), what nothing else can recover is
    zero-filled — and rewritten by the repository's one payload writer.
    """
    archive = repo._plan_archive()
    with repo.catalog.transaction():
        for matrix_id, shas in affected.items():
            try:
                value = archive.recreate_matrix(matrix_id)
            except (KeyError, ValueError) as exc:
                _annotate(
                    report, shas[0], f"unrecoverable: {exc}",
                    repaired=False, codes=codes,
                )
                continue
            repo.rematerialize(archive, matrix_id, value)
            counter("fsck.rematerialized").inc()
            for sha in shas:
                _annotate(
                    report, sha,
                    f"re-materialized {matrix_id} (degraded path)",
                    codes=codes,
                )
    repo.gc()


def _annotate(
    report: FsckReport,
    sha: str,
    action: str,
    repaired: bool = True,
    codes: tuple[str, ...] = ("F101", "F103"),
) -> None:
    """Mark every finding about ``sha`` with its repair outcome."""
    for finding in report.findings:
        if finding.sha == sha and finding.code in codes:
            finding.repaired = repaired
            finding.repair = action


# -- dedup page tier ------------------------------------------------------------------


def _check_pages(repo, report: FsckReport, repair: bool) -> None:
    """F401-F402: audit the dedup page tier (see module docs)."""
    from repro.dedup.pages import manifest_shas

    # A corrupt page is a finding only where a manifest references it.
    corrupt, report.pages_checked = _scan_store(repo.pages, None, report)

    # F401: manifests whose pages are missing or fail re-hash.
    affected: dict[str, list[str]] = {}
    for matrix_id, plane, man in repo.catalog.all_page_manifests():
        for sha in sorted(set(manifest_shas(man))):
            if sha in corrupt or sha not in repo.pages:
                affected.setdefault(matrix_id, []).append(sha)
                report.findings.append(
                    Finding(
                        "F401",
                        f"payload {matrix_id} plane {plane} references "
                        f"lost page {sha[:12]}",
                        sha=sha,
                        matrix_id=matrix_id,
                    )
                )

    if repair:
        for sha in corrupt:
            repo.backend.quarantine_blob("pages", sha)
        if affected:
            _rematerialize(repo, report, affected, ("F401",))

    # F402: stored refcounts disagree with what the manifests reference.
    pstore = repo.page_store()
    true_counts = pstore.referenced_counts()
    stored_counts = repo.catalog.page_refcounts()
    drift = sum(
        1
        for sha in set(true_counts) | set(stored_counts)
        if true_counts.get(sha, 0) != stored_counts.get(sha, 0)
    )
    if drift:
        f = Finding(
            "F402", f"page refcounts drift from manifests ({drift} addresses)"
        )
        if repair:
            repo.catalog.replace_page_refcounts(true_counts)
            f.repaired, f.repair = True, "rebuilt refcounts from manifests"
        report.findings.append(f)


# -- replica tier ------------------------------------------------------------------------


def _check_mirrors(repo, report: FsckReport, repair: bool) -> None:
    """F104: every plane the payload writer mirrors has its replica copy."""
    archive = repo._plan_archive()
    for entry in archive.manifest.values():
        for index, sha in enumerate(archive.mirror_addresses(entry)):
            if not sha or sha in repo.replica:
                continue
            f = Finding(
                "F104",
                f"plane {index} of {entry.matrix_id} has no replica copy",
                sha=sha,
                matrix_id=entry.matrix_id,
            )
            if repair:
                try:
                    f.repaired = archive.restore_mirror(entry, index)
                except (KeyError, ValueError):
                    pass  # the main-tier copy is lost too: F103/F401's job
                if f.repaired:
                    f.repair = "re-mirrored from the main tier"
            report.findings.append(f)


# -- journal & filesystem litter -----------------------------------------------------


def _check_journal(repo, report: FsckReport) -> None:
    # Repository.open replays the journal, so anything still pending on a
    # live handle appeared after open — report it; replay happens on the
    # next open (deleting it here would race an in-flight commit).
    for entry in repo.journal.pending():
        report.findings.append(
            Finding(
                "F301",
                f"pending journal intent {entry.txid[:12]} "
                f"(op={entry.op or 'torn'})",
            )
        )


def _check_litter(repo, report: FsckReport, repair: bool) -> None:
    # Substrate-specific debris is the backend's to know about: loose-file
    # repos report stale tmp files (F302), database repos have none.
    for raw in repo.backend.litter(repair):
        report.findings.append(
            Finding(
                raw["code"],
                raw["message"],
                repaired=raw.get("repaired", False),
                repair=raw.get("repair"),
            )
        )

    # F303 / F403: stored addresses outside the repository's live sets.
    chunks, _replica, pages = repo.live_addresses()
    orphans = [
        Finding(code, f"orphan {what} {sha[:12]}", sha=sha)
        for code, what, store, live in (
            ("F303", "chunk", repo.store, chunks),
            ("F403", "page", repo.pages, pages),
        )
        for sha in sorted(store.addresses())
        if sha not in live
    ]
    if repair and orphans:
        # The one sweep: an orphan chunk's replica copy goes too — unless
        # a page manifest's plane digest still claims it.
        repo.gc()
        for f in orphans:
            f.repaired, f.repair = True, "swept"
    report.findings.extend(orphans)

    referenced_files = repo.catalog.all_file_shas()
    for sha in sorted(repo.backend.stored_file_shas()):
        if sha not in referenced_files:
            f = Finding("F304", f"orphan associated file {sha[:12]}")
            if repair:
                repo.backend.delete_file(sha)
                f.repaired, f.repair = True, "deleted"
            report.findings.append(f)
