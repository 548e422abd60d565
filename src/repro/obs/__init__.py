"""``repro.obs`` — the unified observability layer.

One subsystem for the telemetry primitives every other layer uses:

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, fixed-bucket
  histograms, and rolling-window percentile summaries in a
  :class:`MetricsRegistry`.  Built-in instrumentation writes to the
  process-global default registry (:func:`get_registry`); components
  accept an injected registry when isolated accounting is needed.
* **tracing** (:mod:`repro.obs.tracing`) — :func:`trace_span` produces
  nested wall-time spans with attributes, recorded into a bounded
  :class:`TraceRecorder` exportable as JSON, JSONL, or Chrome
  trace-event format (:mod:`repro.obs.export`).
* **propagation** (:mod:`repro.obs.propagation`) — W3C-style
  ``traceparent`` generation/parsing so traces survive HTTP hops
  (``ServeClient → ModelServer``, ``HubClient → hub server``) and CLI
  process boundaries (the :envvar:`TRACEPARENT` environment variable).
* **cost** (:mod:`repro.obs.cost`) — a context-scoped
  :class:`RequestCost` accumulator the storage layers charge with
  bytes-read-per-plane, chunk fetches, cache hits/misses, and queue/
  compute time, plus the bounded :class:`SlowLog` of threshold-crossing
  requests.
* **exposition** (:mod:`repro.obs.prometheus`) — Prometheus text-format
  rendering of the registry, content-negotiated on server ``/metrics``
  endpoints.
* **logging** (:mod:`repro.obs.log`) — a structured-logging bootstrap
  keyed off the ``REPRO_LOG_LEVEL`` environment variable.

What the built-in instrumentation records (all under the default
registry / recorder):

========================  =====================================================
``chunkstore.*``          put/get calls, raw bytes in/out, dedup hits
``cache.*``               per-:class:`~repro.core.cache.RetrievalCache`
                          ``hits`` / ``misses`` / ``evictions`` counters and
                          ``bytes`` / ``entries`` gauges (injectable registry)
``retrieval.*``           snapshot recreation latency + stored bytes read
``dedup.*``               the page store, per *flushed* archive run:
                          ``pages_referenced`` = ``pages_shared`` (exact
                          hits) + ``pages_patched`` + ``pages_stored`` (new
                          bases); ``bytes_stored`` / ``bytes_saved`` in
                          stored (compressed) bytes; ``index_probes`` /
                          ``index_hits`` of the sketch index; ``pages_swept``
                          by ``gc`` / fsck
``journal.*``             ``Repository.open`` replay outcomes: ``replays``,
                          ``completed`` (marker present), ``rollbacks``,
                          ``sweeps`` (archive/convert/prune intents),
                          ``torn_discarded``
``fsck.*``                ``runs``, ``findings`` (+ ``findings.<code>``),
                          ``repairs``, ``replica_restores``,
                          ``rematerialized``, ``quarantined``
``archival.*``            storage-plan search timing per algorithm
``progressive.*``         per-plane evaluation timing and resolution counts
``dql.*``                 parse/execute latency, query counts per verb
``training.*``            per-iteration loss, examples, step latency
``hub.*``                 request counters per operation, ``pulls_verified``,
                          ``verify_failures``, ``hub.retry.*``; ``hub.pull``
                          rolling latency window
``hub.pull.*``            the resumable transfer: ``files_fetched``,
                          ``resumes``, ``files_resumed``, ``bytes_resumed``,
                          ``file_checksum_retries``
``hub.fleet.*``           the pull engine's routing: ``peer_failures``,
                          ``failovers``, ``breaker_opened``, ``exhausted``
``hub.replication.*``     follower sync: ``synced_revisions``,
                          ``sync_errors``, the ``lag`` gauge
``serve.*``               serving tier: requests/completed/shed/errors,
                          escalations, degraded responses, batch shape
                          histograms, per-model queue-depth gauges;
                          ``serve.predict`` rolling latency window
``serve.cache.*``         the serving tier's shared
                          :class:`~repro.core.cache.PlaneCache`: the same
                          five names under its own prefix
========================  =====================================================

Spans use the same dotted names (``pas.matrix``, ``pas.snapshot``,
``archival.solve``, ``progressive.plane``, ``dql.parse``, ``dql.execute``,
``serve.predict``, ``serve.batch``, ``hub.pull``, ``hub.replication.sync``).
"""

from repro.obs.cost import (
    RequestCost,
    SlowLog,
    charge,
    cost_context,
    current_cost,
    get_slowlog,
    set_slowlog,
)
from repro.obs.log import configure, get_logger, log_level
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RollingWindow,
    counter,
    dump_metrics,
    gauge,
    get_registry,
    histogram,
    reset_metrics,
    set_registry,
    window,
)
from repro.obs.propagation import (
    TRACEPARENT_ENV,
    TRACEPARENT_HEADER,
    TraceContext,
    current_traceparent,
    format_traceparent,
    parse_traceparent,
    parse_traceparent_env,
)
from repro.obs.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_text,
    wants_text,
)
from repro.obs.tracing import (
    Span,
    TraceRecorder,
    current_span,
    get_recorder,
    set_recorder,
    trace_span,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "RequestCost",
    "RollingWindow",
    "SlowLog",
    "Span",
    "TRACEPARENT_ENV",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "TraceRecorder",
    "charge",
    "configure",
    "cost_context",
    "counter",
    "current_cost",
    "current_span",
    "current_traceparent",
    "dump_metrics",
    "format_traceparent",
    "gauge",
    "get_logger",
    "get_recorder",
    "get_registry",
    "get_slowlog",
    "histogram",
    "log_level",
    "parse_traceparent",
    "parse_traceparent_env",
    "render_text",
    "reset_metrics",
    "set_recorder",
    "set_registry",
    "set_slowlog",
    "trace_span",
    "wants_text",
    "window",
]
