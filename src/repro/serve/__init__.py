"""``repro.serve`` — concurrent model serving over DLV repositories.

The paper's lifecycle story ends where most model lifecycles actually
spend their time: *serving*.  This subsystem turns a DLV repository into
a prediction service whose data path is built from the storage layer's
own primitives:

* **Shared plane cache** (:class:`PlaneCache`) — the byte planes read
  from PAS, and in room no plane needs the interval bounds derived from
  them, are cached process-wide under a byte budget, with single-flight
  loading, so N concurrent cold requests cost one chunk-store read.
* **Request batching** (:class:`BatchScheduler`) — a thread waiting on
  a model's request leads its queue when nobody else does: it runs every
  request queued at the head's plane budget, up to ``max_batch`` rows,
  as one batched forward pass (no timer holds a batch open, and no
  thread of its own serves a model), behind a bounded queue that sheds
  overload with HTTP 429.
* **Progressive escalation** — requests are answered at the lowest plane
  budget whose interval bounds determine the label (Lemma 4); only the
  ambiguous rows escalate budget by budget, and any plane served through
  PR-3's degraded-retrieval fallback marks the response ``degraded``.

:class:`ModelServer` wires these behind a stdlib threaded HTTP server
(``dlv serve`` on the command line); :class:`ServeClient` is the
matching stdlib client.  Everything reports through :mod:`repro.obs`
(``serve.*`` metrics) and snapshots that fail :mod:`repro.analysis`
network validation are refused at startup.
"""

from repro.serve.cache import PlaneCache
from repro.serve.client import (
    Prediction,
    ServeClient,
    ServeError,
    ServerOverloaded,
)
from repro.serve.config import ServeConfig
from repro.serve.scheduler import (
    AdmissionError,
    BatchScheduler,
    ModelRuntime,
    PredictOutcome,
    PredictTicket,
)
from repro.serve.server import ModelServer

__all__ = [
    "AdmissionError",
    "BatchScheduler",
    "ModelRuntime",
    "ModelServer",
    "PlaneCache",
    "PredictOutcome",
    "PredictTicket",
    "Prediction",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerOverloaded",
]
