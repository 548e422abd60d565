"""URL-scheme registry and backend resolution.

Repositories are addressed by URL: ``file://<dir>`` (files under
``<dir>/.dlv/``), ``sqlite://<db-file>`` (the whole repo as one WAL-mode
database file), or ``mem://<name>`` (in-process, for tests and ephemeral
serving).  Bare paths remain valid everywhere a URL is accepted and are
auto-detected:

* an existing *file* is opened as a sqlite repo database,
* a directory with ``.dlv/repo.db`` is a sqlite repo that was pulled or
  initialised into a directory,
* a directory with ``.dlv/catalog.db`` (or any ``.dlv/``) is local-fs,
* otherwise the ``backend`` field of ``.dlv/config.json`` decides.

This keeps ``Repository.open(path)`` working unchanged on every repo
created before the storage seam existed, while letting new call sites
pick a substrate explicitly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Tuple

#: Known URL schemes mapped to backend names.
SCHEMES = {
    "file": "local-fs",
    "sqlite": "sqlite",
    "mem": "memory",
}

#: Backend names accepted by ``Repository.init(..., backend=...)``.
BACKEND_NAMES = ("local-fs", "sqlite", "memory")

#: Database file name of a sqlite repo initialised into a directory.
SQLITE_DB_IN_DIR = "repo.db"

_DLV_DIR = ".dlv"


def parse_storage_url(target: str) -> Tuple[Optional[str], str]:
    """Split ``scheme://rest`` into ``(backend_name, rest)``.

    Returns ``(None, target)`` for bare paths.  Unknown schemes raise
    ``ValueError`` (a Windows drive letter like ``C:`` is not a scheme —
    only ``://`` separates one).
    """
    scheme, sep, rest = target.partition("://")
    if not sep:
        return None, target
    try:
        return SCHEMES[scheme], rest
    except KeyError:
        raise ValueError(
            f"unknown storage scheme {scheme!r} in {target!r} "
            f"(expected one of: {', '.join(sorted(SCHEMES))})"
        ) from None


def _detect_existing(path: Path) -> str:
    """Infer the backend of an existing on-disk repository location."""
    if path.is_file():
        return "sqlite"
    dlv = path / _DLV_DIR
    if (dlv / SQLITE_DB_IN_DIR).exists():
        return "sqlite"
    if (dlv / "catalog.db").exists():
        return "local-fs"
    config = dlv / "config.json"
    if config.exists():
        try:
            backend = json.loads(config.read_text()).get("backend")
        except (OSError, json.JSONDecodeError):
            backend = None
        if backend in BACKEND_NAMES:
            return backend
    if dlv.exists():
        return "local-fs"
    raise FileNotFoundError(
        f"{path} is not a dlv repository (run Repository.init)"
    )


def resolve_backend(
    target: str, *, create: bool = False, backend: Optional[str] = None
):
    """Open (or create) the storage backend for a repository location.

    ``target`` is a URL or a bare path; ``backend`` (init only) forces a
    substrate for bare paths — a sqlite repo initialised at a bare path
    lands at ``<path>/.dlv/repo.db`` so the directory stays the
    re-openable unit and hub pulls keep their layout.  Any other type
    than ``str`` (a ``pathlib.Path`` included) raises ``TypeError``.
    """
    if not isinstance(target, str):
        raise TypeError(
            f"a repository location is a URL or path string, not "
            f"{type(target).__name__} (e.g. 'sqlite://repo.db')"
        )
    scheme_backend, rest = parse_storage_url(target)
    if backend is not None and backend not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {backend!r} "
            f"(expected one of: {', '.join(BACKEND_NAMES)})"
        )
    if scheme_backend is not None:
        if backend is not None and backend != scheme_backend:
            raise ValueError(
                f"backend {backend!r} conflicts with URL scheme of {target!r}"
            )
        name = scheme_backend
        location = rest
    elif create:
        name = backend or "local-fs"
        location = target
        if name == "memory":
            raise ValueError(
                "memory repositories need a mem://<name> URL, not a path"
            )
        if name == "sqlite":
            path = Path(target)
            # Bare-path sqlite init: the db lives inside <path>/.dlv/ so
            # the directory remains the repository unit.
            if path.suffix in (".db", ".sqlite", ".sqlite3"):
                location = str(path)
            else:
                location = str(path / _DLV_DIR / SQLITE_DB_IN_DIR)
    else:
        name = _detect_existing(Path(target))
        location = target
        if name == "sqlite" and not Path(target).is_file():
            location = str(Path(target) / _DLV_DIR / SQLITE_DB_IN_DIR)

    if name == "local-fs":
        from repro.core.storage.localfs import LocalFSBackend

        return LocalFSBackend(location, create=create)
    if name == "sqlite":
        from repro.core.storage.sqlite import SQLiteBackend

        return SQLiteBackend(location, create=create)
    from repro.core.storage import memory as mem

    return mem.create(location) if create else mem.get(location)
