"""Write-ahead intent journal for repository mutations.

Before any blob of a mutation lands, an *intent row* is inserted into
the catalog's ``store_journal`` table and committed: the operation, the
content addresses it will write, and a transaction id.  Intents live in
the catalog database on every backend, so there is one implementation.

A ``commit`` retires its own intent inside the catalog transaction that
installs its rows, so a commit intent still pending at
:meth:`~repro.dlv.repository.Repository.open` always means that
transaction never committed: replay rolls it back, sweeping the listed
chunks and associated files nothing references.  ``archive`` /
``convert`` / ``prune`` retire theirs after their ``gc``; a pending one
triggers a garbage sweep, since their catalog transaction is atomic on
its own and the sweep removes whichever blob generation lost.

Intent payload (JSON)::

    {"txid": "<32 hex>", "op": "commit" | "archive" | "convert" | "prune",
     "chunks": [...], "files": [...],   # commit only: planned writes
     ...}                               # op-specific context (name, ref)

A torn intent (unparseable JSON) is discarded on replay: the intent
commits before any data it describes, so the operation touched nothing.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.faults import fs as ffs
from repro.faults.plan import CrashSimulated

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dlv.catalog import Catalog


@dataclass
class JournalEntry:
    """One intent record: its txid and parsed payload (None = torn)."""

    txid: str
    data: Optional[dict]

    @property
    def op(self) -> Optional[str]:
        return self.data.get("op") if self.data else None


class Journal:
    """The intent rows of one catalog (its ``store_journal`` table)."""

    def __init__(self, catalog: "Catalog") -> None:
        self._catalog = catalog

    def record(self, op: str, **payload) -> JournalEntry:
        """Durably insert an intent row; returns the entry to retire later.

        An intent must commit before the data it describes, so recording
        one inside an open catalog transaction raises.
        """
        if self._catalog._txn.active:
            raise RuntimeError(
                "journal record inside an open catalog transaction "
                "(intents must commit independently)"
            )
        txid = uuid.uuid4().hex
        data = {"txid": txid, "op": op, **payload}
        raw, crash_after = ffs.prepare_write(
            "journal.write", json.dumps(data, indent=2, default=str).encode()
        )
        self.write_raw(txid, raw)
        if crash_after:
            raise CrashSimulated("simulated crash after torn write (journal.write)")
        return JournalEntry(txid=txid, data=data)

    def write_raw(self, txid: str, raw: bytes) -> None:
        """Store an intent payload verbatim (possibly torn) and commit:
        what :meth:`record` lands, and how intent files an older layout
        left behind are folded in."""
        self._catalog._conn.execute(
            "INSERT OR REPLACE INTO store_journal (txid, seq, data) VALUES "
            "(?, (SELECT COALESCE(MAX(seq), 0) + 1 FROM store_journal), ?)",
            (txid, raw),
        )
        self._catalog._maybe_commit()

    def retire(self, entry: JournalEntry) -> None:
        """Delete a fulfilled (or rolled-back) intent: at once, or —
        inside a catalog transaction — together with it, which is how a
        commit retires its own intent.  Retiring twice is harmless."""
        ffs.checkpoint("journal.retire")
        self._catalog._conn.execute(
            "DELETE FROM store_journal WHERE txid = ?", (entry.txid,)
        )
        self._catalog._maybe_commit()

    def pending(self) -> list[JournalEntry]:
        """All intent rows, oldest first; torn ones have ``data=None``."""
        rows = self._catalog._conn.execute(
            "SELECT txid, data FROM store_journal ORDER BY seq"
        ).fetchall()
        entries = []
        for txid, raw in rows:
            try:
                data = json.loads(bytes(raw).decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                data = None
            entries.append(JournalEntry(txid=txid, data=data))
        return entries
