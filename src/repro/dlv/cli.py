"""The ``dlv`` command line tool (Table II of the paper).

Command groups:

* model version management — ``init``, ``add``, ``commit``, ``copy``,
  ``convert``, ``archive`` (``--dedup``: cross-model page dedup),
  ``prune``, ``export``;
* model exploration — ``list``, ``desc``, ``log``, ``diff``, ``eval``,
  ``inspect``;
* model enumeration — ``query`` (DQL);
* maintenance — ``gc``, ``fsck`` (the one integrity check);
* static diagnostics — ``check`` (networks, DQL, ``--lint``, ``--conc``);
* remote interaction — ``publish``, ``search``, ``pull``, ``serve``,
  ``hub-serve`` (optionally as a replicating fleet peer), ``hub status``;
* observability — ``stats`` (storage, dedup and live counters),
  ``trace export``, ``slowlog``, ``top``.

Every verb is one row of :data:`VERBS`: its name, help and arguments,
its handler, whether it acts on a repository, and, for verbs that also
have human-readable output, a text renderer.  :func:`main` is the one
runner: it resolves the repository target once (``--store``, then the
``DLV_STORE`` environment variable, then ``--repo``), opens it for the
verbs that act on one, prints the handler's result as JSON (or through
the renderer, without ``--json``) and maps ``KeyError``, ``ValueError``,
``OSError`` and ``NotImplementedError`` to ``dlv: error: …`` with exit
status 1.  ``serve``, ``hub-serve`` and ``top`` stream their own output.

The CLI is a thin layer over :class:`repro.dlv.repository.Repository`,
:mod:`repro.dql`, :mod:`repro.analysis` and :mod:`repro.hub` (the paper
renders HTML; ``--html`` covers ``list``, ``desc`` and ``diff``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from repro.core.storage_graph import RetrievalScheme
from repro.dlv.diff import diff_versions
from repro.dlv.repository import Repository
from repro.dlv import wrapper


def _print(data) -> None:
    json.dump(data, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


class UsageError(ValueError):
    """A verb's arguments name something that does not exist (exit 2)."""


class Verb(NamedTuple):
    """One row of :data:`VERBS`.

    ``handler(args, repo)`` returns the verb's result (``None`` when it
    printed for itself); ``repo`` is the open repository when ``repo``
    (a flag, or a predicate of the parsed arguments) says the verb acts
    on one, else ``None``.  ``text`` renders the result when the verb
    also has human-readable output and ``--json`` was not given; ``ok``
    decides exit status 0 (true) or 1.
    """

    name: str
    help: str
    handler: Callable
    args: tuple = ()
    repo: Union[bool, Callable[[argparse.Namespace], bool]] = False
    text: Optional[Callable[[object], None]] = None
    ok: Callable[[object], bool] = lambda result: True


def _arg(*flags, **options) -> tuple:
    """One ``add_argument`` call of a verb row."""
    return flags, options


# -- version management ----------------------------------------------------------


def _init(args, _repo) -> dict:
    with Repository.init(args.target, backend=args.backend) as repo:
        return {"initialized": repo.url, "backend": repo.backend.scheme}


def _add(args, repo) -> dict:
    return {"staged": repo.add_files(args.paths)}


def _commit(args, repo) -> dict:
    net = wrapper.load_network(args.model_dir)
    net.name = args.name
    result = wrapper.load_train_result(args.model_dir)
    config = wrapper.load_solver(args.model_dir)
    version = repo.commit(
        net,
        name=args.name,
        message=args.message,
        parent=args.parent,
        train_result=result,
        hyperparams=config.to_dict() if config else None,
        float_scheme=args.float_scheme,
    )
    return {"committed": version.ref, "id": version.id}


def _copy(args, repo) -> dict:
    version = repo.copy_version(args.source, args.name, args.message)
    return {"copied": version.ref}


def _convert(args, repo) -> dict:
    return repo.convert_snapshot_scheme(
        args.ref, args.snapshot, args.float_scheme
    )


def _archive(args, repo) -> dict:
    return repo.archive(
        alpha=args.alpha,
        scheme=RetrievalScheme(args.scheme),
        algorithm=args.algorithm,
        dedup=args.dedup,
        page_size=args.page_size,
    )


def _prune(args, repo) -> dict:
    return repo.prune_snapshots(
        args.ref, keep_every=args.keep_every, keep_last=args.keep_last
    )


def _export(args, repo) -> dict:
    path = repo.export_model_dir(
        args.ref, args.dest, snapshot_idx=args.snapshot
    )
    return {"exported": str(path)}


def _gc(args, repo) -> dict:
    return {"chunks_removed": repo.gc()}


def _fsck(args, repo) -> dict:
    from repro.dlv.fsck import run_fsck

    return run_fsck(repo, repair=args.repair).to_dict()


def _render_fsck(report: dict) -> None:
    for finding in report["findings"]:
        status = (
            f" [repaired: {finding.get('repair')}]"
            if finding["repaired"] else ""
        )
        print(
            f"{finding['code']} {finding['severity']}: "
            f"{finding['message']}{status}"
        )
    print(
        "fsck: {chunks} chunks + {replica} replica blobs + {pages} "
        "pages + {files} files re-hashed, {payloads} payloads checked; "
        "{errors} error(s), {warnings} warning(s) -> {verdict}".format(
            chunks=report["chunks_checked"],
            replica=report["replica_checked"],
            pages=report["pages_checked"],
            files=report["files_checked"],
            payloads=report["payloads_checked"],
            errors=report["summary"]["error"],
            warnings=report["summary"]["warning"],
            verdict="clean" if report["clean"] else "NOT clean",
        )
    )


# -- exploration -------------------------------------------------------------------


def _write_html(path: str, content: str) -> dict:
    Path(path).write_text(content)
    return {"html": str(Path(path).resolve())}


def _list(args, repo) -> dict:
    versions = repo.list_versions(args.pattern)
    lineage = repo.lineage_edges()
    version_rows = [
        {
            "id": v.id,
            "name": v.name,
            "created_at": v.created_at,
            "snapshots": len(v.snapshots),
            "accuracy": v.metadata.get("final_accuracy"),
        }
        for v in versions
    ]
    if args.html:
        from repro.dlv.render import render_lineage

        return _write_html(args.html, render_lineage(version_rows, lineage))
    return {
        "versions": version_rows,
        "lineage": [
            {"base": b, "derived": d, "message": m} for b, d, m in lineage
        ],
    }


def _desc(args, repo) -> dict:
    description = repo.describe(args.ref)
    if args.html:
        from repro.dlv.render import render_describe

        return _write_html(
            args.html,
            render_describe(description, repo.training_log(args.ref)),
        )
    return description


def _log(args, repo) -> list:
    return repo.training_log(args.ref)


def _inspect(args, repo) -> dict:
    return repo.inspect_matrix(
        args.ref, args.layer, args.param,
        snapshot_idx=args.snapshot, planes=args.planes, bins=args.bins,
    )


def _render_inspect(report: dict) -> None:
    from repro.core.inspect import ascii_histogram

    _print(report["stats"])
    print(ascii_histogram(report["histogram"]))


def _diff(args, repo) -> dict:
    a, b = repo.resolve(args.a), repo.resolve(args.b)
    weights_a = weights_b = None
    if args.parameters:
        weights_a = repo.get_snapshot_weights(a)
        weights_b = repo.get_snapshot_weights(b)
    report = diff_versions(a, b, weights_a, weights_b)
    if args.html:
        from repro.dlv.render import render_diff

        return _write_html(args.html, render_diff(report))
    return report


def _eval(args, repo) -> dict:
    with np.load(args.data) as data:
        x = data["x"]
        y = data["y"] if "y" in data else None
    if args.progressive:
        from repro.core.progressive import ProgressiveEvaluator

        version = repo.resolve(args.ref)
        snapshot = version.snapshots[args.snapshot]
        net = repo.load_network(version, args.snapshot)
        evaluator = ProgressiveEvaluator(
            net, repo.archive_view(), snapshot.key
        )
        progressive = evaluator.evaluate(x)
        out = {
            "predictions": progressive.predictions.tolist(),
            "bytes_fraction": progressive.bytes_fraction,
            "determined_fraction": {
                str(k): v
                for k, v in progressive.determined_fraction.items()
            },
        }
        if y is not None:
            out["accuracy"] = float(
                (progressive.predictions == np.asarray(y)).mean()
            )
        return out
    result = repo.evaluate(args.ref, x, y, snapshot_idx=args.snapshot)
    out = {"predictions": result["predictions"].tolist()}
    if "accuracy" in result:
        out["accuracy"] = result["accuracy"]
    return out


def _query(args, repo) -> dict:
    from repro.dql.executor import DQLExecutor

    executor = DQLExecutor(repo, strict=args.strict)
    return executor.run(args.dql).to_dict()


# -- static diagnostics -------------------------------------------------------------


def _check_needs_repo(args) -> bool:
    """The network pass (the default) and ``--dql`` read a repository;
    ``--list-codes`` and the file passes alone do not."""
    file_passes = args.lint or args.conc is not None
    return not args.list_codes and (args.dql is not None or not file_passes)


def _check(args, repo) -> dict:
    """Static diagnostics.  Exit status: 0 = no error-severity findings
    (warnings/info do not fail the command), 1 = at least one error,
    2 = usage errors (argparse, or a file pass over a missing path)."""
    from repro import analysis
    from repro.analysis.diagnostics import codes_for_pass
    from repro.dnn.network import Network

    if args.list_codes:
        return {"codes": codes_for_pass(args.pass_name)}

    conc_paths = None if args.conc is None else args.conc or ["src/repro"]
    missing = [
        p for p in (args.lint or []) + (conc_paths or [])
        if not Path(p).exists()
    ]
    if missing:
        # A vacuous pass over a mistyped path must not look clean.
        raise UsageError(f"no such path: {', '.join(missing)}")
    diagnostics = []
    checked: dict[str, object] = {}
    if args.lint:
        diagnostics.extend(analysis.lint_paths(args.lint))
        checked["lint_paths"] = list(args.lint)
    if conc_paths is not None:
        diagnostics.extend(analysis.conc_check_paths(conc_paths))
        checked["conc_paths"] = list(conc_paths)
    if args.dql is not None:
        diagnostics.extend(analysis.check_query(args.dql, repo=repo))
        checked["dql"] = args.dql
    elif repo is not None:
        # Default pass: validate every (or one) version's DAG statically,
        # from the stored spec, without loading weights.
        versions = (
            [repo.resolve(args.ref)]
            if args.ref is not None
            else repo.list_versions()
        )
        names = []
        for version in versions:
            net = Network.from_spec(version.network)
            for diag in analysis.check_network(net):
                diagnostics.append(
                    type(diag)(
                        diag.code, diag.severity,
                        f"{version.name}: {diag.message}",
                        span=diag.span, hint=diag.hint,
                        source=diag.source, file=diag.file,
                    )
                )
            names.append(version.name)
        checked["networks"] = names
    return {
        "checked": checked,
        "diagnostics": [d.to_dict() for d in diagnostics],
        "summary": {
            "errors": sum(1 for d in diagnostics if d.severity == "error"),
            "warnings": sum(
                1 for d in diagnostics if d.severity == "warning"
            ),
            "total": len(diagnostics),
        },
    }


def _render_check(result: dict) -> None:
    from repro.analysis.diagnostics import Diagnostic, Span, format_diagnostic

    if "codes" in result:
        for code, description in result["codes"].items():
            print(f"{code}  {description}")
        return
    for diag in result["diagnostics"]:
        span = Span(**diag["span"]) if diag["span"] else None
        print(format_diagnostic(Diagnostic(**{**diag, "span": span})))
    checked, summary = result["checked"], result["summary"]
    print(
        f"checked {', '.join(f'{k}={v}' for k, v in checked.items()) or 'nothing'}: "
        f"{summary['total']} finding(s), {summary['errors']} error(s), "
        f"{summary['warnings']} warning(s)"
    )


# -- observability -------------------------------------------------------------------


def _human_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{int(count)} B"
        count /= 1024
    return f"{count:.1f} GiB"  # pragma: no cover - loop always returns


def _cache_line(label: str, stats: dict) -> str:
    """One line for a ``PlaneCache.stats()`` dict (``dlv top``)."""
    return (
        f"{label}: hits={stats['hits']} misses={stats['misses']} "
        f"evictions={stats['evictions']} "
        f"hit_rate={100.0 * stats['hit_rate']:.1f}% "
        f"cached={_human_bytes(stats['cached_bytes'])}"
    )


def _filter_spans(spans: list[dict], min_ms: float, name: str) -> list[dict]:
    """Apply ``--min-ms`` / ``--name`` filters to span dicts."""
    kept = []
    for span in spans:
        if span.get("elapsed", 0.0) * 1e3 < min_ms:
            continue
        if name and name not in span.get("name", ""):
            continue
        kept.append(span)
    return kept


def _fetch_json(url: str, path: str, timeout: float = 10.0) -> dict:
    """GET ``url + path`` from a running dlv server and parse the JSON;
    a non-2xx raises an :class:`OSError`, as an unreachable server does."""
    from repro.wire import Session

    try:
        with Session(url, timeout) as session:
            status, body, _ = session.exchange("GET", path)
    except OSError as exc:
        raise ConnectionError(f"{url} unreachable: {exc}") from exc
    if not 200 <= status < 300:
        raise ConnectionError(f"HTTP {status} from {url.rstrip('/')}{path}")
    return json.loads(body)


def _stats(args, repo) -> dict:
    from repro import obs

    versions = repo.list_versions()
    repo_info = {
        "versions": len(versions),
        "snapshots": sum(len(v.snapshots) for v in versions),
        "chunks": sum(1 for _ in repo.store.addresses()),
        "stored_bytes": repo.store.total_size(),
    }
    dedup_stats = repo.dedup_stats()
    with_snapshots = [v for v in versions if v.snapshots]
    if with_snapshots and not args.no_retrieval:
        # Exercise one group retrieval, so the report shows live
        # retrieval and chunkstore counters.
        repo.archive_view().recreate_snapshot(
            with_snapshots[-1].snapshots[-1].key
        )
    report = {
        "repository": repo_info,
        "dedup": dedup_stats,
        "metrics": obs.dump_metrics(),
    }
    if args.spans:
        report["spans"] = _filter_spans(
            [span.to_dict() for span in obs.get_recorder().spans()],
            args.min_ms,
            args.name or "",
        )
    return report


def _render_stats(report: dict) -> None:
    repo_info = report["repository"]
    print(
        "repository: {versions} versions, {snapshots} snapshots, "
        "{chunks} chunks, {stored} stored".format(
            versions=repo_info["versions"],
            snapshots=repo_info["snapshots"],
            chunks=repo_info["chunks"],
            stored=_human_bytes(repo_info["stored_bytes"]),
        )
    )
    dedup = report.get("dedup")
    if dedup and dedup.get("page_matrices"):
        print(
            "dedup: {m} paged matrices, {u} unique pages, saved {s}".format(
                m=dedup["page_matrices"],
                u=dedup["unique_pages"],
                s=_human_bytes(dedup["bytes_saved"]),
            )
        )
    metrics = report["metrics"]
    if metrics["counters"]:
        print("counters:")
        for name, value in metrics["counters"].items():
            suffix = (
                f"  ({_human_bytes(value)})" if name.endswith("_bytes") else ""
            )
            print(f"  {name:<32} {value}{suffix}")
    if metrics["gauges"]:
        print("gauges:")
        for name, value in metrics["gauges"].items():
            print(f"  {name:<32} {value:g}")
    if metrics["histograms"]:
        print("histograms:")
        for name, hist in metrics["histograms"].items():
            mean = hist["mean"]
            print(
                f"  {name:<32} n={hist['count']} mean={mean:.6g} "
                f"max={hist['max'] if hist['max'] is not None else 0:.6g}"
            )
    if report.get("spans"):
        print("spans:")
        for span in report["spans"]:
            indent = "  " * span["depth"]
            attrs = " ".join(f"{k}={v}" for k, v in span["attrs"].items())
            print(
                f"  {indent}{span['name']} {span['elapsed'] * 1e3:.3f} ms"
                + (f"  [{attrs}]" if attrs else "")
            )


def _trace_export(args, _repo) -> Optional[dict]:
    from repro import obs
    from repro.obs.export import mark_orphans, to_chrome, to_jsonl

    if args.url:
        spans = _fetch_json(args.url, "/v1/trace")["spans"]
    else:
        spans = mark_orphans(
            [span.to_dict() for span in obs.get_recorder().spans()]
        )
    spans = _filter_spans(spans, args.min_ms, args.name or "")
    if args.chrome:
        rendered = json.dumps(to_chrome(spans), indent=2)
    else:
        rendered = to_jsonl(spans)
    if not args.out:
        sys.stdout.write(rendered + "\n")
        return None
    Path(args.out).write_text(rendered + "\n")
    return {
        "written": str(Path(args.out).resolve()),
        "spans": len(spans),
        "format": "chrome" if args.chrome else "jsonl",
    }


def _slowlog(args, _repo) -> dict:
    from repro.obs.cost import get_slowlog

    if args.url:
        return _fetch_json(args.url, "/v1/slowlog")
    slowlog = get_slowlog()
    return {
        "threshold_ms": slowlog.threshold_ms,
        "capacity": slowlog.capacity,
        "total_recorded": slowlog.total_recorded,
        "entries": slowlog.entries(),
    }


def _render_slowlog(report: dict) -> None:
    print(
        f"slowlog: threshold {report['threshold_ms']:g} ms, "
        f"{report['total_recorded']} recorded, "
        f"{len(report['entries'])} retained"
    )
    for entry in report["entries"]:
        cost = entry.get("cost") or {}
        print(
            "  {name:<20} {ms:>9.3f} ms  trace={trace}  "
            "bytes={bytes_read} planes={planes}".format(
                name=entry["name"],
                ms=entry["ms"],
                trace=(entry.get("trace_id") or "-")[:16],
                bytes_read=cost.get("bytes_read", 0),
                planes=cost.get("planes_fetched", 0),
            )
        )


def _render_top(payload: dict) -> list[str]:
    """One refresh of the ``dlv top`` board, as printable lines."""
    metrics = payload.get("metrics", payload)
    lines = []
    queues = payload.get("queues")
    if queues is not None:
        depth = " ".join(f"{k}={v}" for k, v in sorted(queues.items()))
        lines.append(f"queues: {depth or '(idle)'}")
    if payload.get("plane_cache"):
        lines.append(_cache_line("plane cache", payload["plane_cache"]))
    windows = metrics.get("windows") or {}
    if windows:
        lines.append(
            f"{'latency window':<24} {'count':>7} {'mean':>9} "
            f"{'p50':>9} {'p95':>9} {'p99':>9}"
        )
        for name, snap in sorted(windows.items()):
            lines.append(
                "{name:<24} {count:>7} {mean:>8.2f}m {p50:>8.2f}m "
                "{p95:>8.2f}m {p99:>8.2f}m".format(
                    name=name,
                    count=snap["count"],
                    mean=snap["mean"] * 1e3,
                    p50=snap["p50"] * 1e3,
                    p95=snap["p95"] * 1e3,
                    p99=snap["p99"] * 1e3,
                )
            )
    counters = metrics.get("counters") or {}
    interesting = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(("serve.", "hub.", "store."))
    }
    for name, value in interesting.items():
        suffix = f"  ({_human_bytes(value)})" if name.endswith("_bytes") else ""
        lines.append(f"  {name:<32} {value}{suffix}")
    return lines


def _top(args, _repo) -> None:
    import time

    count = 0
    while True:
        lines = _render_top(_fetch_json(args.url, "/metrics"))
        if not args.no_clear:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(f"dlv top — {args.url}  (refresh {args.interval:g}s)")
        for line in lines:
            print(line)
        sys.stdout.flush()
        count += 1
        if args.iterations and count >= args.iterations:
            return None
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return None


# -- serving and the hub -----------------------------------------------------------


def _serve(args, _repo) -> dict:
    from repro.serve import ModelServer, ServeConfig

    from repro.obs.propagation import TRACEPARENT_ENV
    from repro.wire import adopt_span, run_until_signalled

    # A driver that sets TRACEPARENT sees the whole boot — including any
    # hub pull — join its own trace (the de-facto CLI propagation rule).
    with adopt_span(
        "dlv.serve.boot", os.environ.get(TRACEPARENT_ENV), hub=args.hub or ""
    ):
        repo_path = args.target
        if args.hub is not None:
            if not args.name:
                raise ValueError("--hub requires --name <published repo>")
            from repro.hub.client import HubClient

            # Comma-separated --hub URLs name a replicated fleet;
            # HubClient routes those pulls through a FleetClient with
            # failover + resume, so one dead peer doesn't fail the boot.
            repo_path = HubClient(
                args.hub, timeout=args.hub_timeout
            ).pull_for_serving(args.name)
        config = ServeConfig().with_overrides(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            queue_limit=args.queue_limit,
            cache_bytes=args.cache_mb << 20 if args.cache_mb else None,
            start_planes=args.start_planes,
            drain_timeout_s=args.drain_timeout,
        )
        server = ModelServer(
            repo_path,
            config,
            models=args.model or None,
            strict=args.strict,
        )
        server.start()
    run_until_signalled(
        {
            "serving": server.address,
            "port": server.port,
            "models": server.scheduler.models(),
            "rejected": server.rejected,
        },
        _print,
    )
    return {"stopped": True, "drained": server.stop(drain=True)}


def _publish(args, repo) -> dict:
    from repro.hub.client import HubClient

    client = HubClient(args.hub)
    record = client.publish(repo, name=args.name, description=args.message)
    return {"published": record.name, "revision": record.revision}


def _search(args, _repo) -> list:
    from repro.hub.client import HubClient

    client = HubClient(args.hub)
    return [
        {
            "name": r.name,
            "description": r.description,
            "revision": r.revision,
            "models": r.model_names,
        }
        for r in client.search(args.pattern)
    ]


def _pull(args, _repo) -> dict:
    from repro.hub.client import HubClient

    client = HubClient(args.hub)
    path = client.pull(args.name, args.dest)
    return {"pulled": args.name, "path": str(path)}


def _hub_serve(args, _repo) -> dict:
    from repro.hub.httpd import HubHTTPServer
    from repro.hub.replication import Replicator
    from repro.hub.server import HubServer
    from repro.wire import run_until_signalled

    store = HubServer(args.hub)
    replicator = None
    role = "primary"
    if args.peers:
        # Replica mode: keep this hub in sync with the named primary
        # tier; the HTTP surface stays read-only either way.
        role = "replica"
        replicator = Replicator(
            store,
            args.peers,
            interval_s=args.sync_interval,
            timeout=args.timeout,
        )
    server = HubHTTPServer(
        store,
        host=args.host or "127.0.0.1",
        port=args.port or 0,
        peer_name=args.peer_name or ("hub" if role == "primary" else "replica"),
        role=role,
        replicator=replicator,
    )
    server.start()
    if replicator is not None:
        replicator.start()
    run_until_signalled(
        {
            "hub": str(server.server.root),
            "url": server.url,
            "port": server.port,
            "peer": server.peer_name,
            "role": server.role,
            "peers": args.peers or "",
        },
        _print,
    )
    if replicator is not None:
        replicator.stop()
    server.stop()
    return {"stopped": True}


def _hub_status(args, _repo) -> dict:
    from repro.hub.fleet import FleetClient

    client = FleetClient(args.hub, timeout=args.timeout)
    try:
        report = client.status()
    finally:
        client.close()
    healthy = sum(1 for entry in report if entry.get("ok"))
    watermarks = [
        entry.get("watermark") for entry in report if entry.get("ok")
    ]
    head = max((w for w in watermarks if w is not None), default=0)
    for entry in report:
        if entry.get("ok") and entry.get("watermark") is not None:
            entry["lag"] = head - entry["watermark"]
    return {"peers": report, "healthy": healthy, "watermark": head}


def _render_hub_status(status: dict) -> None:
    report, healthy = status["peers"], status["healthy"]
    print(f"hub fleet: {healthy}/{len(report)} peers healthy, "
          f"head watermark {status['watermark']}")
    for entry in report:
        if entry.get("ok"):
            print(
                f"  {entry['url']:<28} {entry.get('role', '?'):<8} "
                f"peer={entry.get('peer', '?'):<10} "
                f"watermark={entry.get('watermark')} "
                f"lag={entry.get('lag')} breaker={entry['breaker']}"
            )
        else:
            print(
                f"  {entry['url']:<28} DOWN     {entry.get('error', '')}"
            )


# -- the verb table ------------------------------------------------------------------

_JSON = _arg("--json", action="store_true", help="machine-readable output")
_HTML = _arg("--html", default=None, help="write an HTML report here")

#: Help text of the verbs that group sub-verbs (``trace export``).
_GROUPS = {
    "trace": "work with recorded trace spans",
    "hub": "hub fleet operations",
}

#: Every ``dlv`` verb, in ``dlv --help`` order.
VERBS: dict[str, Verb] = {verb.name: verb for verb in (
    Verb("init", "initialize a dlv repository", _init, (
        _arg(
            "--backend", default=None,
            choices=["local-fs", "sqlite", "memory"],
            help="storage substrate for a bare-path target (URLs carry "
                 "their own scheme); sqlite lands the whole repo in "
                 "<repo>/.dlv/repo.db",
        ),
    )),
    Verb("add", "stage files for the next commit", _add, (
        _arg("paths", nargs="+"),
    ), repo=True),
    Verb("commit", "commit a model directory", _commit, (
        _arg("--model-dir", required=True),
        _arg("--name", required=True),
        _arg("-m", "--message", default=""),
        _arg("--parent", default=None),
        _arg("--float-scheme", default="float32"),
    ), repo=True),
    Verb("copy", "scaffold a model from an old one", _copy, (
        _arg("source"),
        _arg("name"),
        _arg("-m", "--message", default=""),
    ), repo=True),
    Verb(
        "convert", "re-encode a snapshot with a lossier float scheme",
        _convert, (
            _arg("ref"),
            _arg("--snapshot", type=int, default=-1),
            _arg("--float-scheme", required=True),
        ), repo=True,
    ),
    Verb("archive", "re-optimize parameter storage", _archive, (
        _arg("--alpha", type=float, default=2.0),
        _arg(
            "--scheme",
            choices=[s.value for s in RetrievalScheme],
            default="independent",
        ),
        _arg(
            "--algorithm",
            choices=[
                "best", "mst", "spt", "last", "pas-mt", "pas-pt",
                "spt-tighten",
            ],
            default="best",
        ),
        _arg(
            "--dedup", action="store_true",
            help="allow page-dedup payloads (cross-model similarity store)",
        ),
        _arg(
            "--page-size", type=int, default=None,
            help="dedup page granularity in bytes (default 1024)",
        ),
    ), repo=True),
    Verb("list", "list models and lineage", _list, (
        _arg("--pattern", default=None, help="SQL LIKE name filter"),
        _HTML,
    ), repo=True),
    Verb("desc", "describe a model version", _desc, (
        _arg("ref"),
        _HTML,
    ), repo=True),
    Verb("log", "print a version's training log", _log, (
        _arg("ref"),
    ), repo=True),
    Verb("gc", "remove unreferenced parameter chunks", _gc, repo=True),
    Verb(
        "fsck", "deep integrity check (re-hash blobs, catalog audit, "
        "recreate every matrix)", _fsck, (
            _arg(
                "--repair", action="store_true",
                help="quarantine corrupt blobs and restore/re-materialize "
                     "payloads",
            ),
            _JSON,
        ), repo=True, text=_render_fsck, ok=lambda report: report["clean"],
    ),
    Verb(
        "inspect", "segment-only stats/histogram of a parameter matrix",
        _inspect, (
            _arg("ref"),
            _arg("--layer", required=True),
            _arg("--param", default="W"),
            _arg("--snapshot", type=int, default=-1),
            _arg("--planes", type=int, default=2),
            _arg("--bins", type=int, default=10),
        ), repo=True, text=_render_inspect,
    ),
    Verb("prune", "drop intermediate checkpoints", _prune, (
        _arg("ref"),
        _arg("--keep-every", type=int, default=2),
        _arg("--keep-last", type=int, default=1),
    ), repo=True),
    Verb("export", "write a model directory for a version", _export, (
        _arg("ref"),
        _arg("dest"),
        _arg("--snapshot", type=int, default=-1),
    ), repo=True),
    Verb("diff", "compare two model versions", _diff, (
        _arg("a"),
        _arg("b"),
        _arg("--parameters", action="store_true"),
        _HTML,
    ), repo=True),
    Verb("eval", "evaluate a model on an .npz dataset", _eval, (
        _arg("ref"),
        _arg("data", help=".npz with arrays x (and optionally y)"),
        _arg("--snapshot", type=int, default=-1),
        _arg(
            "--progressive", action="store_true",
            help="answer from high-order byte segments with exactness "
                 "guarantee",
        ),
    ), repo=True),
    Verb(
        "stats", "repository storage, page dedup and live telemetry "
        "counters", _stats, (
            _JSON,
            _arg(
                "--spans", action="store_true",
                help="include recorded trace spans",
            ),
            _arg(
                "--no-retrieval", action="store_true",
                help="report storage stats only; skip the instrumented "
                     "retrieval",
            ),
            _arg(
                "--min-ms", type=float, default=0.0,
                help="with --spans: only spans at least this many ms long",
            ),
            _arg(
                "--name", default=None,
                help="with --spans: only spans whose name contains this "
                     "substring",
            ),
        ), repo=True, text=_render_stats,
    ),
    Verb(
        "trace export", "export spans as JSONL or Chrome trace-event JSON",
        _trace_export, (
            _arg(
                "--chrome", action="store_true",
                help="Chrome trace-event JSON (open in chrome://tracing / "
                     "Perfetto)",
            ),
            _arg(
                "--url", default=None,
                help="export a running server's /v1/trace instead of this "
                     "process",
            ),
            _arg("--out", default=None, help="write here instead of stdout"),
            _arg(
                "--min-ms", type=float, default=0.0,
                help="only spans at least this many ms long",
            ),
            _arg(
                "--name", default=None,
                help="only spans whose name contains this substring",
            ),
        ),
    ),
    Verb("slowlog", "requests that crossed the slow threshold", _slowlog, (
        _arg(
            "--url", default=None,
            help="read a running server's /v1/slowlog instead of this "
                 "process",
        ),
        _JSON,
    ), text=_render_slowlog),
    Verb("top", "live latency/counter board for a running server", _top, (
        _arg("--url", required=True, help="server base url"),
        _arg(
            "--interval", type=float, default=2.0,
            help="refresh period, seconds",
        ),
        _arg(
            "--iterations", type=int, default=0,
            help="stop after N refreshes (0: run until interrupted)",
        ),
        _arg(
            "--no-clear", action="store_true",
            help="append refreshes instead of clearing the screen",
        ),
    )),
    Verb("query", "run a DQL statement", _query, (
        _arg("dql"),
        _arg(
            "--strict", action="store_true",
            help="run static analysis first; refuse to execute on errors",
        ),
    ), repo=True),
    Verb("check", "static diagnostics for DQL, networks, and code", _check, (
        _arg(
            "--dql", default=None, metavar="QUERY",
            help="analyze this DQL statement instead of the repo networks",
        ),
        _arg(
            "--ref", default=None,
            help="validate just this version's network (default: all "
                 "versions)",
        ),
        _arg(
            "--lint", nargs="+", default=None, metavar="PATH",
            help="also run the repo-invariant linter over these files/dirs",
        ),
        _arg(
            "--conc", nargs="*", default=None, metavar="PATH",
            help="run the concurrency checker (CONC4xx) over these "
                 "files/dirs (bare --conc defaults to src/repro)",
        ),
        _arg(
            "--list-codes", action="store_true",
            help="print the diagnostic code table and exit "
            "(exit status: 0 always)",
        ),
        _arg(
            "--pass", dest="pass_name", default=None,
            choices=["dql", "net", "lint", "conc"],
            help="with --list-codes: only this pass's codes",
        ),
        _JSON,
    ), repo=_check_needs_repo, text=_render_check,
        ok=lambda result: not result.get("summary", {}).get("errors")),
    Verb(
        "serve", "serve model snapshots over HTTP (progressive + batched)",
        _serve, (
            _arg("--host", default=None, help="bind address"),
            _arg(
                "--port", type=int, default=None,
                help="bind port (default 0: OS-assigned, reported on stdout)",
            ),
            _arg(
                "--model", action="append", default=None, metavar="NAME",
                help="serve only this version name (repeatable; default: all)",
            ),
            _arg("--max-batch", type=int, default=None),
            _arg("--queue-limit", type=int, default=None),
            _arg("--cache-mb", type=int, default=None),
            _arg("--start-planes", type=int, default=None),
            _arg("--drain-timeout", type=float, default=None),
            _arg(
                "--strict", action="store_true",
                help="abort startup when any snapshot fails network "
                     "validation",
            ),
            _arg(
                "--hub", default=None,
                help="pull --name from this hub into a scratch dir and serve "
                     "it (comma-separated URLs route through the fleet "
                     "client)",
            ),
            _arg(
                "--hub-timeout", type=float, default=30.0,
                help="socket timeout for hub pull requests, seconds",
            ),
            _arg(
                "--name", default=None,
                help="published repository name (with --hub)",
            ),
        ), ok=lambda stopped: stopped["drained"],
    ),
    Verb("publish", "publish this repository to a hub", _publish, (
        _arg("--hub", required=True, help="hub directory"),
        _arg("--name", required=True),
        _arg("-m", "--message", default=""),
    ), repo=True),
    Verb("search", "search a hub", _search, (
        _arg("--hub", required=True),
        _arg("pattern"),
    )),
    Verb("pull", "pull a repository from a hub", _pull, (
        _arg("--hub", required=True),
        _arg("name"),
        _arg("dest"),
    )),
    Verb(
        "hub-serve", "serve a hub directory over HTTP (search + pull)",
        _hub_serve, (
            _arg("--hub", required=True, help="hub directory"),
            _arg("--host", default=None, help="bind address"),
            _arg(
                "--port", type=int, default=None,
                help="bind port (default 0: OS-assigned, reported on stdout)",
            ),
            _arg(
                "--peers", default=None,
                help="comma-separated primary URL(s) to replicate from "
                     "(starts this hub as a read replica)",
            ),
            _arg(
                "--peer-name", default=None,
                help="fleet identity reported by /healthz (default "
                     "hub/replica)",
            ),
            _arg(
                "--sync-interval", type=float, default=2.0,
                help="replication poll period, seconds (with --peers)",
            ),
            _arg(
                "--timeout", type=float, default=10.0,
                help="socket timeout for replication requests, seconds",
            ),
        ),
    ),
    Verb(
        "hub status", "probe every fleet peer: role, watermark, lag",
        _hub_status, (
            _arg(
                "--hub", required=True,
                help="comma-separated hub URL(s) to probe",
            ),
            _arg("--json", action="store_true"),
            _arg(
                "--timeout", type=float, default=5.0,
                help="socket timeout per probe, seconds",
            ),
        ), text=_render_hub_status,
        ok=lambda status: status["healthy"] == len(status["peers"]),
    ),
)}


#: The top-level verb names as argparse lists them: ``{init,add,...}``.
_VERB_CHOICES = "{%s}" % ",".join(dict.fromkeys(n.split()[0] for n in VERBS))

#: The top-level options that take a value (and the verb name after it).
_GLOBAL_VALUED = ("--repo", "--store")


def _invoked(argv: list[str]) -> Optional[str]:
    """The :data:`VERBS` key ``argv`` invokes, found as argparse will
    route it (skipping the top-level options), or ``None``."""
    words: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            words.extend(tokens)
        elif token.startswith("-") and len(token) > 1:
            if "=" not in token and len(token) > 2 and any(
                flag.startswith(token) for flag in _GLOBAL_VALUED
            ) and not words:
                next(tokens, None)
            continue
        else:
            words.append(token)
        if len(words) == 2 or (words and words[0] not in _GROUPS):
            break
    name = " ".join(words[:2] if words and words[0] in _GROUPS else words[:1])
    return name if name in VERBS else None


def _parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The ``dlv`` parser.  Given an ``argv`` that invokes a verb, only
    that verb is registered, with its arguments: building every
    subparser costs more than most verbs run.  Otherwise every verb is
    registered (with its arguments only when ``argv`` is ``None``), so
    ``dlv``, ``dlv -h``, ``dlv <group> -h`` and an unknown verb list
    them all."""
    only = None if argv is None else _invoked(argv)
    parser = argparse.ArgumentParser(
        prog="dlv", description="DLV model version control (ModelHub)"
    )
    parser.add_argument(
        "--repo", default=".", help="repository directory (default: cwd)"
    )
    parser.add_argument(
        "--store", default=None, metavar="URL",
        help="repository storage URL (file://dir, sqlite://repo.db, "
             "mem://name); overrides --repo and the DLV_STORE env var",
    )
    # With one verb registered, the usage line still names them all.
    verbs = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else _VERB_CHOICES,
    )
    groups: dict[str, argparse._SubParsersAction] = {}
    for verb in VERBS.values():
        if only is not None and verb.name != only:
            continue
        group, _, leaf = verb.name.partition(" ")
        if leaf and group not in groups:
            groups[group] = verbs.add_parser(
                group, help=_GROUPS[group]
            ).add_subparsers(dest="subcommand", required=True)
        invoked = argv is None or verb.name == only
        sub = (groups[group] if leaf else verbs).add_parser(
            leaf or group, help=verb.help, add_help=invoked
        )
        if invoked:
            for flags, options in verb.args:
                sub.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    """Run one ``dlv`` verb; returns its exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv).parse_args(argv)
    verb = VERBS[" ".join(
        filter(None, (args.command, getattr(args, "subcommand", None)))
    )]
    # The one target rule: --store, then DLV_STORE, then --repo.
    args.target = args.store or os.environ.get("DLV_STORE") or args.repo
    needs_repo = verb.repo(args) if callable(verb.repo) else verb.repo
    try:
        if needs_repo:
            with Repository.open(args.target) as repo:
                result = verb.handler(args, repo)
        else:
            result = verb.handler(args, None)
    except (KeyError, ValueError, OSError, NotImplementedError) as exc:
        print(f"dlv: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    if result is not None:
        if verb.text is None or getattr(args, "json", False):
            _print(result)
        else:
            verb.text(result)
    return 0 if verb.ok(result) else 1


if __name__ == "__main__":
    sys.exit(main())
