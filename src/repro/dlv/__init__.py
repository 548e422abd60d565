"""DLV — the model versioning system (Sec. III of the paper).

DLV is a version control system specialised for DNN models: instead of
opaque blobs, it understands the internal structure of modeling artifacts —
network definitions, training logs, learned weights, lineage between
versions — and stores each in the right backend:

* structured data (networks, logs, metadata, lineage) in a sqlite3
  relational catalog (:mod:`repro.dlv.catalog`);
* learned float matrices in PAS (:mod:`repro.core`);
* associated files as the ``files`` blob tier, content addressed.

The :class:`~repro.dlv.repository.Repository` class is the Python API; the
``dlv`` command line tool (:mod:`repro.dlv.cli`) exposes the command suite
of Table II.
"""

from repro.dlv.objects import ModelVersion, Snapshot
from repro.dlv.repository import Repository

__all__ = ["ModelVersion", "Repository", "Snapshot"]
