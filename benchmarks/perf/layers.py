"""The per-layer metric catalogue and how each value is derived.

A layer is a module of the program.  Time metrics taken from spans are
the layer's mean *self* time per call (span minus children), so they
add up along a call chain; counts are per end-to-end operation of the
traced pass.  A layer a workload never enters reads 0.

``PER_LAYER`` maps metric name -> (unit, better); BENCHMARK.json lists
the same names and ``test_smoke.py`` holds the two together.  Where each
value comes from is in the README's catalogue.
"""

from __future__ import annotations


#: metric -> (span name, unit scale): mean self time per call.
_SPAN_TIMES = {
    "serve.client.encode_ms": ("serve.client.encode", 1.0),
    "serve.client.decode_ms": ("serve.client.decode", 1.0),
    "serve.server.handle_ms": ("serve.server.handle", 1.0),
    "serve.server.parse_ms": ("serve.server.parse", 1.0),
    "serve.server.serialize_ms": ("serve.server.serialize", 1.0),
    "core.progressive.bounded_ms": ("core.progressive.bounded", 1.0),
    "core.progressive.exact_ms": ("core.progressive.exact", 1.0),
    "dnn.forward_ms": ("dnn.forward", 1.0),
    "dnn.interval_forward_ms": ("dnn.interval_forward", 1.0),
    "core.retrieval.recreate_ms": ("core.retrieval.recreate", 1.0),
    "core.retrieval.bounds_ms": ("core.retrieval.bounds", 1.0),
    "dedup.decode_plane_ms": ("dedup.decode_plane", 1.0),
    "dedup.encode_plane_ms": ("dedup.encode_plane", 1.0),
    "core.storage.get_ms.localfs": ("core.storage.get.localfs", 1.0),
    "core.storage.get_ms.sqlite": ("core.storage.get.sqlite", 1.0),
    "core.storage.put_ms.localfs": ("core.storage.put.localfs", 1.0),
    "core.storage.put_ms.sqlite": ("core.storage.put.sqlite", 1.0),
    "core.chunkstore.zlib_compress_ms": ("core.chunkstore.zlib_compress", 1.0),
    "core.chunkstore.zlib_decompress_ms": ("core.chunkstore.zlib_decompress", 1.0),
    "core.chunkstore.sha256_ms": ("core.chunkstore.sha256", 1.0),
    "core.segmentation.segment_ms": ("core.segmentation.segment", 1.0),
    "core.segmentation.assemble_ms": ("core.segmentation.assemble", 1.0),
    "core.delta.apply_ms": ("core.delta.apply", 1.0),
    "core.delta.measure_ms": ("core.delta.measure", 1.0),
    "dlv.repository.open_ms": ("dlv.repository.open", 1.0),
    "dlv.repository.commit_ms": ("dlv.repository.commit", 1.0),
    "dlv.repository.graph_build_s": ("dlv.repository.graph_build", 1e-3),
    "dlv.repository.plan_write_s": ("dlv.repository.plan_write", 1e-3),
    "dlv.repository.gc_ms": ("dlv.repository.gc", 1.0),
    "dlv.cli.overhead_ms": ("dlv.cli.main", 1.0),
    "dlv.wrapper.load_ms": ("dlv.wrapper.load", 1.0),
    "dlv.wrapper.save_ms": ("dlv.wrapper.save", 1.0),
    "core.archival.pas_mt_s": ("core.archival.pas_mt", 1e-3),
    "core.archival.pas_pt_s": ("core.archival.pas_pt", 1e-3),
    "core.archival.spt_tighten_s": ("core.archival.spt_tighten", 1e-3),
    "hub.client.publish_ms": ("hub.client.publish", 1.0),
    "hub.httpd.fetch_ms_per_file": ("hub.httpd.fetch", 1.0),
    "hub.transfer.verify_ms": ("hub.transfer.verify", 1.0),
}

PER_LAYER = {
    "serve.client.encode_ms": ("ms", "lower"),
    "serve.client.decode_ms": ("ms", "lower"),
    "serve.client.wire_ms": ("ms", "lower"),
    "serve.server.handle_ms": ("ms", "lower"),
    "serve.server.parse_ms": ("ms", "lower"),
    "serve.server.serialize_ms": ("ms", "lower"),
    "serve.server.boot_s": ("s", "lower"),
    "serve.scheduler.queue_wait_ms": ("ms", "lower"),
    "serve.scheduler.batch_rows": ("count", "higher"),
    "serve.scheduler.batch_requests": ("count", "higher"),
    "serve.scheduler.escalation_share": ("ratio", "lower"),
    "serve.scheduler.shed_share": ("ratio", "lower"),
    "serve.cache.hit_rate": ("ratio", "higher"),
    "serve.cache.evictions": ("count", "lower"),
    "serve.cache.cached_bytes": ("bytes", "lower"),
    "core.progressive.bounded_ms": ("ms", "lower"),
    "core.progressive.exact_ms": ("ms", "lower"),
    "core.progressive.resolved_planes_mean": ("count", "lower"),
    "core.progressive.compute_ms": ("ms", "lower"),
    "dnn.forward_ms": ("ms", "lower"),
    "dnn.interval_forward_ms": ("ms", "lower"),
    "core.retrieval.recreate_ms": ("ms", "lower"),
    "core.retrieval.bounds_ms": ("ms", "lower"),
    "core.retrieval.bytes_read_per_op": ("bytes", "lower"),
    "core.retrieval.chain_depth_mean": ("count", "lower"),
    "dedup.decode_plane_ms": ("ms", "lower"),
    "dedup.encode_plane_ms": ("ms", "lower"),
    "dedup.pages_per_plane": ("count", "lower"),
    "dedup.patch_share": ("ratio", "higher"),
    "dedup.ratio": ("ratio", "higher"),
    "core.storage.get_ms.localfs": ("ms", "lower"),
    "core.storage.get_ms.sqlite": ("ms", "lower"),
    "core.storage.put_ms.localfs": ("ms", "lower"),
    "core.storage.put_ms.sqlite": ("ms", "lower"),
    "core.storage.get_bytes.localfs": ("bytes", "lower"),
    "core.storage.get_bytes.sqlite": ("bytes", "lower"),
    "core.storage.puts.localfs": ("count", "lower"),
    "core.storage.puts.sqlite": ("count", "lower"),
    "core.storage.fsyncs_per_commit.localfs": ("count", "lower"),
    "core.storage.fsyncs_per_commit.sqlite": ("count", "lower"),
    "core.chunkstore.zlib_compress_ms": ("ms", "lower"),
    "core.chunkstore.zlib_decompress_ms": ("ms", "lower"),
    "core.chunkstore.zlib_calls": ("count", "lower"),
    "core.chunkstore.sha256_ms": ("ms", "lower"),
    "core.segmentation.segment_ms": ("ms", "lower"),
    "core.segmentation.assemble_ms": ("ms", "lower"),
    "core.delta.apply_ms": ("ms", "lower"),
    "core.delta.measure_ms": ("ms", "lower"),
    "dlv.repository.open_ms": ("ms", "lower"),
    "dlv.repository.commit_ms": ("ms", "lower"),
    "dlv.repository.graph_build_s": ("s", "lower"),
    "dlv.repository.plan_write_s": ("s", "lower"),
    "dlv.repository.gc_ms": ("ms", "lower"),
    "dlv.cli.overhead_ms": ("ms", "lower"),
    "dlv.cli.import_ms": ("ms", "lower"),
    "dlv.wrapper.load_ms": ("ms", "lower"),
    "dlv.wrapper.save_ms": ("ms", "lower"),
    "core.archival.pas_mt_s": ("s", "lower"),
    "core.archival.pas_pt_s": ("s", "lower"),
    "core.archival.spt_tighten_s": ("s", "lower"),
    "core.archival.scaling_exponent": ("ratio", "lower"),
    "core.archival.feasible_share": ("ratio", "higher"),
    "hub.client.publish_ms": ("ms", "lower"),
    "hub.client.pull_files": ("count", "lower"),
    "hub.client.pull_bytes": ("bytes", "lower"),
    "hub.httpd.fetch_ms_per_file": ("ms", "lower"),
    "hub.transfer.verify_ms": ("ms", "lower"),
    "obs.trace_overhead_pct": ("%", "lower"),
}


def merge(*tables: dict) -> dict:
    """Sum per-name rows of several ``spans.aggregate(...)["*"]`` tables
    (the harness process plus each traced server process)."""
    out: dict[str, dict] = {}
    for table in tables:
        for name, row in table.items():
            into = out.setdefault(
                name, {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0,
                       "value": 0, "value2": 0},
            )
            for key in into:
                into[key] += row.get(key, 0)
    return out


def derive(total: dict, measured: dict, ops: int, extras: dict,
           backend: str, commit_fsyncs: float) -> dict:
    """Every ``PER_LAYER`` value for one traced run.

    Args:
        total: merged span table over all processes, set-up included —
            the source of per-call times.
        measured: the same without set-up operations — the source of
            per-operation counts.
        ops: end-to-end operations the traced pass completed.
        extras: values measured outside the span shim (replies,
            ``GET /metrics``, archive reports, harness clocks).
        backend: ``"localfs"`` or ``"sqlite"`` — which backend this
            workload's commits land on.
        commit_fsyncs: ``os.fsync`` calls per ``commit`` operation.
    """

    empty = {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0, "value": 0,
             "value2": 0}

    def row(name: str) -> dict:
        return total.get(name, empty)

    def counted(name: str) -> dict:
        return measured.get(name, empty)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ops = ops or 1
    out = {name: 0.0 for name in PER_LAYER}
    for metric, (span, scale) in _SPAN_TIMES.items():
        r = row(span)
        out[metric] = ratio(r["self_ms"], r["calls"]) * scale

    reads = row("core.retrieval.recreate")["calls"]
    payloads = row("core.retrieval.read_payload")
    out["core.retrieval.chain_depth_mean"] = ratio(payloads["calls"], reads)
    out["core.retrieval.bytes_read_per_op"] = ratio(payloads["value"], reads)

    decode, encode = row("dedup.decode_plane"), row("dedup.encode_plane")
    out["dedup.pages_per_plane"] = ratio(
        decode["value"] + encode["value"], decode["calls"] + encode["calls"]
    )
    out["dedup.patch_share"] = ratio(encode["value2"], encode["value"])

    for kind in ("localfs", "sqlite"):
        out[f"core.storage.get_bytes.{kind}"] = (
            counted(f"core.storage.get.{kind}")["value"] / ops)
        out[f"core.storage.puts.{kind}"] = (
            counted(f"core.storage.put.{kind}")["calls"] / ops)
    out[f"core.storage.fsyncs_per_commit.{backend}"] = commit_fsyncs

    out["core.chunkstore.zlib_calls"] = (
        counted("core.chunkstore.zlib_compress")["calls"]
        + counted("core.chunkstore.zlib_decompress")["calls"]
    ) / ops

    candidates = row("core.archival.pas_mt")["calls"] + row("core.archival.pas_pt")["calls"]
    out["core.archival.feasible_share"] = ratio(
        row("core.archival.pas_mt")["value"] + row("core.archival.pas_pt")["value"],
        candidates,
    )

    pulls = row("hub.client.pull")["calls"]
    fetch = row("hub.httpd.fetch")
    out["hub.client.pull_files"] = ratio(fetch["calls"], pulls)
    out["hub.client.pull_bytes"] = ratio(fetch["value"], pulls)

    out.update(extras)
    return out


#: Layers, longest prefix first where one name extends another.
LAYERS = (
    "serve.client", "serve.server", "serve.scheduler", "serve.cache",
    "core.progressive", "core.retrieval", "core.storage", "core.chunkstore",
    "core.segmentation", "core.delta", "core.archival", "dlv.repository",
    "dlv.cli", "dlv.wrapper", "dedup", "dnn", "hub",
)

#: Spans whose self time is spent blocked on another thread or process
#: that records its own spans; counting them would count that work twice.
BLOCKED = ("serve.client.roundtrip", "serve.scheduler.wait")


def layer_shares(rows: dict) -> dict:
    """Each layer's share of the busy (self) time the spans recorded —
    what the "flat on" predictions are checked against."""
    busy: dict[str, float] = {}
    for name, r in rows.items():
        if name.startswith("op.") or name in BLOCKED:
            continue
        layer = next(l for l in LAYERS if name.startswith(l + "."))
        busy[layer] = busy.get(layer, 0.0) + r["self_ms"]
    total = sum(busy.values()) or 1.0
    return {layer: ms / total for layer, ms in sorted(busy.items())}


def per_op_self(rows: dict, ops: int) -> dict:
    """Mean self time (ms) each span name spends per operation."""
    ops = ops or 1
    return {
        name: r["self_ms"] / ops
        for name, r in sorted(rows.items())
        if not name.startswith("op.") and r["self_ms"] / ops >= 0.0005
    }


def decomposition(per_op: dict, op: str, e2e_ms: float, ops: int) -> dict:
    """Self time per layer for one kind of in-process operation, against
    its end-to-end median: the check that the spans account for the time.

    ``per_op`` is the harness process's ``spans.aggregate`` output.  The
    operation runs on one thread, so the layers' self times plus the
    root's own (``unattributed_ms``: harness glue outside any wrapped
    call) add up to the mean duration; ``coverage`` compares their sum
    with the median.
    """
    rows = per_op.get(op, {})
    layer_ms = per_op_self(rows, ops)
    total = sum(layer_ms.values())
    return {
        "op": op,
        "end_to_end_median_ms": e2e_ms,
        "self_ms_per_op": layer_ms,
        "unattributed_ms": rows.get(f"op.{op}", {}).get("self_ms", 0.0)
        / (ops or 1),
        "sum_ms": total,
        "coverage": total / e2e_ms if e2e_ms else 0.0,
    }
