"""Fault-instrumented filesystem primitives with explicit durability.

Every mutation the storage layer performs — blob packs, documents, hub
trees, and (through :func:`prepare_write` / :func:`checkpoint`) journal
intents and catalog commits — goes through these wrappers so that

1. an injected :class:`~repro.faults.plan.FaultPlan` can fail, tear,
   corrupt, or crash any individual operation, and
2. durability is uniform: data files are fsynced before rename, and
   parent directories are fsynced after entry creation/removal, which is
   what makes ``os.replace``-based commits actually crash-safe on POSIX.

With no plan injected the wrappers add one ``is None`` check per call.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Optional

from repro.faults.plan import CrashSimulated, get_plan

__all__ = [
    "checkpoint",
    "copyfile",
    "copytree",
    "fsync_dir",
    "prepare_write",
    "replace",
    "unlink",
    "write_at",
    "write_bytes",
]


def checkpoint(site: str) -> None:
    """Count a logical operation (e.g. a catalog commit) as a fault site."""
    plan = get_plan()
    if plan is not None:
        plan.on_op(site)


def prepare_write(site: str, data: bytes) -> tuple[bytes, bool]:
    """Run the active plan's write hook for a non-file write.

    Storage backends that persist bytes somewhere other than a loose
    file (a sqlite blob column, an in-memory table) call this with the
    payload they are about to store.  The returned bytes may be torn or
    bit-flipped; the caller must persist them *first* and only then
    raise :class:`CrashSimulated` when ``crash_after`` is true — the
    same persisted-partial-then-died semantics :func:`write_bytes`
    gives loose files.
    """
    plan = get_plan()
    if plan is None:
        return data, False
    return plan.on_write(site, data)


def write_bytes(
    path: str | Path, data: bytes, *, site: Optional[str], fsync: bool = True
) -> None:
    """Write ``data`` to ``path``, fsyncing the file before returning.

    Under an active fault plan the payload may be torn (partial bytes are
    persisted, then :class:`CrashSimulated` is raised) or bit-flipped
    (corrupt bytes persist silently), modelling the two classic
    half-write outcomes.  ``site=None`` writes bytes whose parts already
    passed :func:`prepare_write` (a chunk-store pack).
    """
    plan = get_plan()
    crash_after = False
    if plan is not None and site is not None:
        data, crash_after = plan.on_write(site, data)
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    if crash_after:
        raise CrashSimulated(f"simulated crash after torn write ({site})")


def write_at(
    path: str | Path, offset: int, data: bytes, *, site: str,
    fsync: bool = True,
) -> None:
    """Overwrite ``path`` from ``offset`` on with ``data`` (the file ends
    where ``data`` does), fsyncing before returning — an append that may
    first take back a fixed-size tail.  Faults as :func:`write_bytes`."""
    plan = get_plan()
    crash_after = False
    if plan is not None:
        data, crash_after = plan.on_write(site, data)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(data)
        handle.truncate()
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    if crash_after:
        raise CrashSimulated(f"simulated crash after torn write ({site})")


def replace(src: str | Path, dst: str | Path, *, site: str) -> None:
    """Atomic rename (the commit point of a write-then-rename protocol)."""
    checkpoint(site)
    os.replace(src, dst)


def fsync_dir(path: str | Path, *, site: Optional[str] = None) -> None:
    """Fsync a directory so renames/creations inside it are durable.

    Directory fsync is advisory on some platforms; failures to *open*
    the directory are ignored (Windows), but an injected fault at the
    site still fires.
    """
    if site is not None:
        checkpoint(site)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def unlink(path: str | Path, *, site: str, missing_ok: bool = False) -> None:
    """Remove a file."""
    checkpoint(site)
    Path(path).unlink(missing_ok=missing_ok)


def copyfile(src: str | Path, dst: str | Path, *, site: str) -> None:
    """Copy one file (associated-file ingestion, quarantine moves)."""
    checkpoint(site)
    shutil.copyfile(src, dst)


def copytree(src: str | Path, dst: str | Path, *, site: str, ignore=None) -> None:
    """Copy a directory tree (hub publish); ``ignore`` is
    :func:`shutil.copytree`'s."""
    checkpoint(site)
    shutil.copytree(src, dst, ignore=ignore)
