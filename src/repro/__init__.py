"""ModelHub reproduction: unified data and lifecycle management for deep learning.

This package reproduces the system described in "Towards Unified Data and
Lifecycle Management for Deep Learning" (Miao, Li, Davis, Deshpande —
ICDE 2017).  It is organised into five subpackages:

``repro.dnn``
    A from-scratch numpy deep learning substrate: layers, DAG networks,
    training with checkpointing, synthetic datasets, a model zoo, and an
    interval-arithmetic forward pass used by progressive queries.

``repro.core``
    PAS, the parameter archival store: float representation schemes,
    bytewise segmentation, delta encoding, the matrix storage graph and
    optimal archival algorithms (PAS-MT / PAS-PT / LAST), retrieval
    executors, and progressive query evaluation.

``repro.dlv``
    The DLV model version control system: repository, sqlite3 metadata
    catalog, command suite, and the ``dlv`` command line interface.

``repro.dql``
    The DQL domain specific language: lexer, parser, and executor for
    ``select`` / ``slice`` / ``construct`` / ``evaluate`` queries.

``repro.hub``
    The ModelHub sharing service (publish / search / pull): a hub directory,
    an HTTP server and replicas in front of it, one pull engine over them.

``repro.lifecycle``
    The synthetic auto-modeler that generates SD/RD-style repositories of
    related model versions for the archival experiments.

``repro.obs``
    The unified observability layer: a metrics registry (counters,
    gauges, histograms), nested tracing spans with a ring-buffer
    recorder, and the structured-logging bootstrap.  Every other
    subsystem reports into it; ``dlv stats`` and the benchmark harness
    read from it.
"""

import os as _os

from repro.version import __version__

__all__ = ["__version__"]

if _os.environ.get("REPRO_LOCKSAN") == "1":
    # Opt-in runtime lock sanitizer: instruments every threading.Lock /
    # RLock / Condition created after this import (see
    # repro.analysis.locksan).  CI runs the serve/obs suites with it on.
    from repro.analysis import locksan as _locksan

    _locksan.enable()
