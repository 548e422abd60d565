"""Span shim: per-layer timing recorded from the benchmark's own files.

The program under test is not edited.  :func:`install` wraps the public
functions at each layer boundary (the ``TARGETS`` table below) so every
call records one span — name, start, end, the span that caused it and
the thread it ran on — into an in-memory list.  Spans are written out
only when the run ends (:meth:`Tracer.dump`), and :func:`aggregate`
turns them into per-name call counts, inclusive time and *self* time (a
span's duration minus the part its child spans cover).

Modules bind functions by name (``from repro.core.segmentation import
assemble_planes``), so replacing an attribute on the defining module is
not enough: :func:`_rebind` swaps every reference any loaded ``repro.*``
module holds.  ``zlib``/``hashlib``/``json`` calls are traced by handing
the calling module a proxy namespace; ``os.fsync`` is wrapped in place.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

_now = time.perf_counter_ns


class Tracer:
    """In-memory span log.  One per process; threads append lock-free
    (``list.append`` is atomic under the interpreter lock)."""

    def __init__(self) -> None:
        # (span id, parent id, name, thread id, start ns, end ns, value,
        # value2) — the values are counts a boundary attaches (bytes, pages).
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        value_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``value_of(args, kwargs, result)`` runs after the span closed and
        attaches one count or a pair (bytes moved, pages touched).
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            returned = False
            start = _now()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = _now()
                stack.pop()
                value = value_of(args, kwargs, result) if (
                    returned and value_of) else 0
                first, second = value if isinstance(value, tuple) else (value, 0)
                spans.append((span_id, parent, name,
                              threading.get_ident(), start, end, first, second))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def op(self, kind: str):
        """Context manager: a root span naming one end-to-end operation."""
        return _OpSpan(self, f"op.{kind}")

    # -- patching ------------------------------------------------------------

    def patch_attr(self, owner, attr: str, name, value_of=None) -> None:
        """Wrap ``owner.attr`` (a class method or a module function)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, value_of))
        else:
            new = self.wrap(raw, name, value_of)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, raw))
        if not isinstance(owner, type) and callable(raw):
            self._rebind(raw, new)

    def _rebind(self, old, new) -> None:
        """Swap every by-name import of ``old`` held by a repro module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, current in list(vars(module).items()):
                if current is old:
                    setattr(module, key, new)
                    self._undo.append(
                        lambda m=module, k=key: setattr(m, k, old)
                    )

    def patch_namespace(self, module, attr: str, traced: dict) -> None:
        """Give ``module`` a proxy for the stdlib module it calls as
        ``attr`` (``zlib``, ``hashlib``, ``json``) with some functions
        traced; everything else passes through."""
        real = getattr(module, attr)
        proxy = _Proxy(real, {
            fn: self.wrap(getattr(real, fn), name, value_of)
            for fn, (name, value_of) in traced.items()
        })
        setattr(module, attr, proxy)
        self._undo.append(lambda: setattr(module, attr, real))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span (name-interned) as one JSON document."""
        names: dict[str, int] = {}
        rows = [
            [sid, parent, names.setdefault(name, len(names)), *rest]
            for sid, parent, name, *rest in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"names": list(names), "spans": rows}, handle)


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        stack = self.tracer._stack()
        self.span_id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.span_id)
        self.start = _now()
        return self

    def __exit__(self, *exc) -> None:
        end = _now()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.span_id, self.parent, self.name,
                                  threading.get_ident(), self.start, end, 0, 0))


class _Proxy:
    def __init__(self, real, overrides: dict) -> None:
        self.__dict__["_real"] = real
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def load_spans(path: str) -> list[tuple]:
    with open(path) as handle:
        doc = json.load(handle)
    names = doc["names"]
    return [
        (sid, parent, names[idx], *rest)
        for sid, parent, idx, *rest in doc["spans"]
    ]


def aggregate(spans: list[tuple]) -> dict[str, dict[str, dict]]:
    """Per end-to-end operation, per span name: calls, inclusive and self
    time (ms) and summed value.

    The outer key is the ``op.<kind>`` root a span descends from
    (``"-"`` for spans with no such ancestor, e.g. everything a server
    process records); ``"*"`` holds the totals over all of them.
    """
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _name, _tid, t0, t1, _v1, _v2 in spans:
        if parent:
            child_ns[parent] += t1 - t0
    root_memo: dict[int, str] = {}

    def root_of(span) -> str:
        chain = []
        current = span
        while True:
            sid = current[0]
            if sid in root_memo:
                label = root_memo[sid]
                break
            chain.append(sid)
            if current[2].startswith("op."):
                label = current[2][3:]
                break
            parent = by_id.get(current[1])
            if parent is None:
                label = "-"
                break
            current = parent
        for sid in chain:
            root_memo[sid] = label
        return label

    out: dict[str, dict[str, dict]] = defaultdict(
        lambda: defaultdict(
            lambda: {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0,
                     "value": 0, "value2": 0}
        )
    )
    for span in spans:
        sid, _parent, name, _tid, t0, t1, val, val2 = span
        dur = t1 - t0
        own = max(0, dur - child_ns.get(sid, 0))
        for key in (root_of(span), "*"):
            row = out[key][name]
            row["calls"] += 1
            row["incl_ms"] += dur / 1e6
            row["self_ms"] += own / 1e6
            row["value"] += val
            row["value2"] += val2
    return {op: dict(rows) for op, rows in out.items()}


# -- what gets wrapped --------------------------------------------------------
#
# (module, class or None, attribute, span name, value_of).  One row per
# layer boundary; the span names are the vocabulary layers.py derives the
# per-layer metrics from.


def _len_result(_args, _kwargs, result) -> int:
    return len(result)


def _len_data(args, _kwargs, _result) -> int:
    return len(args[1])


def _manifest_pages(args, _kwargs, _result) -> int:
    return len(args[0]["pages"])


def _encoded_pages(_args, _kwargs, result) -> tuple:
    # encode_plane's manifest lists [base_sha, patch_sha | None] per page.
    pages = result["pages"]
    return len(pages), sum(1 for _base, patch in pages if patch)


def _resolve_bytes(_args, _kwargs, result) -> int:
    return int(result[1])


def _feasible(args, _kwargs, plan) -> int:
    # pas_mt / pas_pt (graph, constraints, scheme) -> StoragePlan
    return 1 if plan.satisfies(args[1], args[2]) else 0


TARGETS = [
    # serve.client (harness process)
    ("repro.serve.client", "ServeClient", "predict", "serve.client.predict", None),
    ("repro.serve.client", "ServeClient", "_roundtrip", "serve.client.roundtrip", None),
    ("repro.serve.client", "Prediction", "__init__", "serve.client.decode", None),
    # serve.server / scheduler / cache (server process)
    ("repro.serve.server", "_Handler", "_read_json", "serve.server.parse", None),
    ("repro.serve.server", "_Handler", "_send_json", "serve.server.serialize", None),
    ("repro.serve.server", "ModelServer", "handle_predict", "serve.server.handle", None),
    ("repro.serve.scheduler", "BatchScheduler", "submit", "serve.scheduler.submit", None),
    ("repro.serve.scheduler", "PredictTicket", "wait", "serve.scheduler.wait", None),
    ("repro.serve.scheduler", "_ModelWorker", "_process", "serve.scheduler.process", None),
    ("repro.serve.cache", "PlaneCache", "get_or_load", "serve.cache.get_or_load", None),
    # core.progressive / dnn
    ("repro.core.progressive", "ProgressiveEvaluator", "evaluate_bounded", "core.progressive.bounded", None),
    ("repro.core.progressive", "ProgressiveEvaluator", "forward_exact_many", "core.progressive.exact", None),
    ("repro.core.progressive", "ProgressiveEvaluator", "param_bounds", "core.progressive.param_bounds", None),
    ("repro.core.progressive", "ProgressiveEvaluator", "exact_weights", "core.progressive.exact_weights", None),
    ("repro.dnn.network", "Network", "forward", "dnn.forward", None),
    ("repro.dnn.network", "Network", "forward_interval", "dnn.interval_forward", None),
    # core.retrieval
    ("repro.core.retrieval", "PlanArchive", "recreate_matrix", "core.retrieval.recreate", None),
    ("repro.core.retrieval", "PlanArchive", "matrix_bounds", "core.retrieval.bounds", None),
    ("repro.core.retrieval", "PlanArchive", "_read_payload", "core.retrieval.read_payload", _resolve_bytes),
    ("repro.core.retrieval", "PlanArchive", "build", "dlv.repository.plan_write", None),
    # dedup
    ("repro.dedup.pages", None, "decode_plane", "dedup.decode_plane", _manifest_pages),
    ("repro.dedup.store", "PageStore", "encode_plane", "dedup.encode_plane", _encoded_pages),
    ("repro.dedup.index", "DedupEstimator", "matrix_cost", "dedup.estimate", None),
    # core.storage, split by backend
    ("repro.core.chunkstore", "ChunkStore", "get", "core.storage.get.localfs", _len_result),
    ("repro.core.chunkstore", "ChunkStore", "put", "core.storage.put.localfs", _len_data),
    ("repro.core.storage.sqlite", "SQLiteBlobStore", "get", "core.storage.get.sqlite", _len_result),
    ("repro.core.storage.sqlite", "SQLiteBlobStore", "put", "core.storage.put.sqlite", _len_data),
    # core.segmentation / core.delta
    ("repro.core.segmentation", None, "segment_planes", "core.segmentation.segment", None),
    ("repro.core.segmentation", None, "assemble_planes", "core.segmentation.assemble", None),
    ("repro.core.delta", None, "apply_delta", "core.delta.apply", None),
    ("repro.core.delta", None, "delta_sub_mismatched", "core.delta.measure", None),
    # dlv.repository
    ("repro.dlv.repository", "Repository", "open", "dlv.repository.open", None),
    ("repro.dlv.repository", "Repository", "commit", "dlv.repository.commit", None),
    ("repro.dlv.repository", "Repository", "build_storage_graph", "dlv.repository.graph_build", None),
    ("repro.dlv.repository", "Repository", "archive", "dlv.repository.archive", None),
    ("repro.dlv.repository", "Repository", "export_model_dir", "dlv.repository.export", None),
    ("repro.dlv.repository", "Repository", "gc", "dlv.repository.gc", None),
    # dlv.cli / dlv.wrapper
    ("repro.dlv.cli", None, "main", "dlv.cli.main", None),
    ("repro.dlv.wrapper", None, "load_network", "dlv.wrapper.load", None),
    ("repro.dlv.wrapper", None, "load_train_result", "dlv.wrapper.load", None),
    ("repro.dlv.wrapper", None, "save_model_dir", "dlv.wrapper.save", None),
    # core.archival
    ("repro.core.archival", None, "solve", "core.archival.solve", None),
    ("repro.core.archival", None, "alpha_constraints", "core.archival.constraints", None),
    ("repro.core.archival", None, "pas_mt", "core.archival.pas_mt", _feasible),
    ("repro.core.archival", None, "pas_pt", "core.archival.pas_pt", _feasible),
    ("repro.core.archival", None, "spt_tightening", "core.archival.spt_tighten", None),
    # hub
    ("repro.hub.client", "HubClient", "publish", "hub.client.publish", None),
    ("repro.hub.client", "HubClient", "pull", "hub.client.pull", None),
    ("repro.hub.httpd", "RemoteHub", "fetch_file", "hub.httpd.fetch", _len_result),
    ("repro.hub.httpd", "_Handler", "do_GET", "hub.httpd.handle", None),
    ("repro.hub.server", None, "verify_tree", "hub.transfer.verify", None),
]

#: Modules whose ``zlib`` / ``hashlib`` calls are the chunk codec.
CODEC_MODULES = (
    "repro.core.chunkstore",
    "repro.core.storage.sqlite",
    "repro.core.delta",
    "repro.core.segmentation",
    "repro.dedup.store",
    "repro.dedup.index",
    "repro.dedup.pages",
    "repro.dlv.repository",
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every ``TARGETS`` boundary; undo with ``tracer.uninstall()``."""
    for mod_name, cls_name, attr, span, value_of in TARGETS:
        module = importlib.import_module(mod_name)
        owner = getattr(module, cls_name) if cls_name else module
        tracer.patch_attr(owner, attr, span, value_of)
    for mod_name in CODEC_MODULES:
        module = importlib.import_module(mod_name)
        if "zlib" in vars(module):
            tracer.patch_namespace(module, "zlib", {
                "compress": ("core.chunkstore.zlib_compress", None),
                "decompress": ("core.chunkstore.zlib_decompress", None),
            })
        if "hashlib" in vars(module):
            tracer.patch_namespace(module, "hashlib", {
                "sha256": ("core.chunkstore.sha256", None),
            })
    client = importlib.import_module("repro.serve.client")
    tracer.patch_namespace(client, "json", {
        "dumps": ("serve.client.encode", None),
        "loads": ("serve.client.decode", None),
    })
    tracer.patch_attr(os, "fsync", "core.storage.fsync")
    return tracer
