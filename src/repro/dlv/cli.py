"""The ``dlv`` command line tool (Table II of the paper).

Command groups:

* model version management — ``init``, ``add``, ``commit``, ``copy``,
  ``archive``;
* model exploration — ``list``, ``desc``, ``diff``, ``eval``;
* model enumeration — ``query`` (DQL);
* remote interaction — ``publish``, ``search``, ``pull``, ``hub-serve``
  (optionally as a replicating fleet peer), ``hub status``;
* observability — ``stats``, ``trace export``, ``slowlog``, ``top``.

The CLI is a thin layer over :class:`repro.dlv.repository.Repository`,
:mod:`repro.dql`, and :mod:`repro.hub`; all output is JSON so it can be
piped into other tools (the paper renders HTML, which is out of scope).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.core.storage_graph import RetrievalScheme
from repro.dlv.diff import diff_versions
from repro.dlv.repository import Repository
from repro.dlv import wrapper


def _print(data) -> None:
    json.dump(data, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _repo_target(args) -> str:
    """The repository location the command should act on.

    Priority: ``--store <url>``, then the ``DLV_STORE`` environment
    variable, then ``--repo`` (a plain directory path, backend
    auto-detected).
    """
    store = getattr(args, "store", None)
    if store:
        return store
    env = os.environ.get("DLV_STORE")
    if env:
        return env
    return args.repo


def _open_repo(args) -> Repository:
    return Repository.open(_repo_target(args))


def cmd_init(args) -> int:
    repo = Repository.init(_repo_target(args), backend=args.backend)
    try:
        out = {"initialized": repo.url, "backend": repo.backend.scheme}
    finally:
        repo.close()
    _print(out)
    return 0


def cmd_add(args) -> int:
    with _open_repo(args) as repo:
        staged = repo.add_files(args.paths)
    _print({"staged": staged})
    return 0


def cmd_commit(args) -> int:
    with _open_repo(args) as repo:
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
    _print({"committed": version.ref, "id": version.id})
    return 0


def cmd_copy(args) -> int:
    with _open_repo(args) as repo:
        version = repo.copy_version(args.source, args.name, args.message)
    _print({"copied": version.ref})
    return 0


def cmd_convert(args) -> int:
    with _open_repo(args) as repo:
        report = repo.convert_snapshot_scheme(
            args.ref, args.snapshot, args.float_scheme
        )
    _print(report)
    return 0


def cmd_archive(args) -> int:
    with _open_repo(args) as repo:
        report = repo.archive(
            alpha=args.alpha,
            scheme=RetrievalScheme(args.scheme),
            algorithm=args.algorithm,
            dedup=args.dedup,
            page_size=args.page_size,
        )
    _print(report)
    return 0


def cmd_dedup(args) -> int:
    """``dlv dedup``: cross-model page-dedup stats and maintenance."""
    if args.dedup_cmd == "stats":
        with _open_repo(args) as repo:
            stats = repo.dedup_stats()
        if args.json:
            _print(stats)
        else:
            print(
                "dedup: {m} paged matrices, {u} unique pages, "
                "{r} references".format(
                    m=stats["page_matrices"],
                    u=stats["unique_pages"],
                    r=stats["page_references"],
                )
            )
            print(
                f"  logical {_human_bytes(stats['logical_bytes'])} -> "
                f"stored {_human_bytes(stats['stored_bytes'])} "
                f"(saved {_human_bytes(stats['bytes_saved'])})"
            )
        return 0
    if args.dedup_cmd == "run":
        with _open_repo(args) as repo:
            report = repo.archive(
                alpha=args.alpha, dedup=True, page_size=args.page_size
            )
        _print(report)
        return 0
    raise ValueError(f"unknown dedup subcommand {args.dedup_cmd!r}")


def _write_html(path: str, content: str) -> None:
    Path(path).write_text(content)
    _print({"html": str(Path(path).resolve())})


def cmd_list(args) -> int:
    with _open_repo(args) as repo:
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

        _write_html(args.html, render_lineage(version_rows, lineage))
        return 0
    _print(
        {
            "versions": version_rows,
            "lineage": [
                {"base": b, "derived": d, "message": m} for b, d, m in lineage
            ],
        }
    )
    return 0


def cmd_desc(args) -> int:
    with _open_repo(args) as repo:
        description = repo.describe(args.ref)
        if args.html:
            from repro.dlv.render import render_describe

            _write_html(
                args.html,
                render_describe(description, repo.training_log(args.ref)),
            )
            return 0
        _print(description)
    return 0


def cmd_log(args) -> int:
    with _open_repo(args) as repo:
        _print(repo.training_log(args.ref))
    return 0


def cmd_gc(args) -> int:
    with _open_repo(args) as repo:
        removed = repo.gc()
    _print({"chunks_removed": removed})
    return 0


def cmd_inspect(args) -> int:
    from repro.core.inspect import ascii_histogram

    with _open_repo(args) as repo:
        report = repo.inspect_matrix(
            args.ref, args.layer, args.param,
            snapshot_idx=args.snapshot, planes=args.planes, bins=args.bins,
        )
    _print(report["stats"])
    print(ascii_histogram(report["histogram"]))
    return 0


def cmd_prune(args) -> int:
    with _open_repo(args) as repo:
        report = repo.prune_snapshots(
            args.ref, keep_every=args.keep_every, keep_last=args.keep_last
        )
    _print(report)
    return 0


def cmd_export(args) -> int:
    with _open_repo(args) as repo:
        path = repo.export_model_dir(
            args.ref, args.dest, snapshot_idx=args.snapshot
        )
    _print({"exported": str(path)})
    return 0


def cmd_verify(args) -> int:
    with _open_repo(args) as repo:
        report = repo.verify()
    _print(report)
    return 0 if report["ok"] else 1


def cmd_fsck(args) -> int:
    from repro.dlv.fsck import run_fsck

    with _open_repo(args) as repo:
        report = run_fsck(repo, repair=args.repair)
    data = report.to_dict()
    if args.json:
        _print(data)
    else:
        for finding in report.findings:
            status = (
                f" [repaired: {finding.repair}]" if finding.repaired else ""
            )
            print(
                f"{finding.code} {finding.severity}: "
                f"{finding.message}{status}"
            )
        print(
            "fsck: {chunks} chunks + {replica} replica blobs + {pages} "
            "pages re-hashed, {payloads} payloads checked; {errors} "
            "error(s), {warnings} warning(s) -> {verdict}".format(
                chunks=report.chunks_checked,
                replica=report.replica_checked,
                pages=report.pages_checked,
                payloads=report.payloads_checked,
                errors=data["summary"]["error"],
                warnings=data["summary"]["warning"],
                verdict="clean" if report.clean else "NOT clean",
            )
        )
    return 0 if report.clean else 1


def cmd_diff(args) -> int:
    with _open_repo(args) as repo:
        a, b = repo.resolve(args.a), repo.resolve(args.b)
        weights_a = weights_b = None
        if args.parameters:
            weights_a = repo.get_snapshot_weights(a)
            weights_b = repo.get_snapshot_weights(b)
        report = diff_versions(a, b, weights_a, weights_b)
        if args.html:
            from repro.dlv.render import render_diff

            _write_html(args.html, render_diff(report))
            return 0
        _print(report)
    return 0


def cmd_eval(args) -> int:
    with _open_repo(args) as repo:
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
            _print(out)
            return 0
        result = repo.evaluate(args.ref, x, y, snapshot_idx=args.snapshot)
    out = {"predictions": result["predictions"].tolist()}
    if "accuracy" in result:
        out["accuracy"] = result["accuracy"]
    _print(out)
    return 0


def _human_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{int(count)} B"
        count /= 1024
    return f"{count:.1f} GiB"  # pragma: no cover - loop always returns


def _cache_line(label: str, stats: dict) -> str:
    """One line for a ``PlaneCache.stats()`` dict (``dlv stats`` / ``top``)."""
    return (
        f"{label}: hits={stats['hits']} misses={stats['misses']} "
        f"evictions={stats['evictions']} "
        f"hit_rate={100.0 * stats['hit_rate']:.1f}% "
        f"cached={_human_bytes(stats['cached_bytes'])}"
    )


def _render_stats_text(report: dict) -> None:
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
    if report.get("cache"):
        print(_cache_line("cache", report["cache"]))
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

    with Session(url, timeout) as session:
        status, body, _ = session.exchange("GET", path)
    if not 200 <= status < 300:
        raise ConnectionError(f"HTTP {status} from {url.rstrip('/')}{path}")
    return json.loads(body)


def cmd_trace(args) -> int:
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
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        _print({
            "written": str(Path(args.out).resolve()),
            "spans": len(spans),
            "format": "chrome" if args.chrome else "jsonl",
        })
    else:
        sys.stdout.write(rendered + "\n")
    return 0


def cmd_slowlog(args) -> int:
    from repro.obs.cost import get_slowlog

    if args.url:
        report = _fetch_json(args.url, "/v1/slowlog")
    else:
        slowlog = get_slowlog()
        report = {
            "threshold_ms": slowlog.threshold_ms,
            "capacity": slowlog.capacity,
            "total_recorded": slowlog.total_recorded,
            "entries": slowlog.entries(),
        }
    if args.json:
        _print(report)
        return 0
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
    return 0


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
        if name.startswith(("serve.", "hub.", "store.", "cache."))
    }
    for name, value in interesting.items():
        suffix = f"  ({_human_bytes(value)})" if name.endswith("_bytes") else ""
        lines.append(f"  {name:<32} {value}{suffix}")
    return lines


def cmd_top(args) -> int:
    import time

    iterations = args.iterations
    count = 0
    while True:
        try:
            payload = _fetch_json(args.url, "/metrics")
        except OSError as exc:
            print(f"dlv top: {args.url} unreachable: {exc}", file=sys.stderr)
            return 1
        lines = _render_top(payload)
        if not args.no_clear:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(f"dlv top — {args.url}  (refresh {args.interval:g}s)")
        for line in lines:
            print(line)
        sys.stdout.flush()
        count += 1
        if iterations and count >= iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def cmd_hub_serve(args) -> int:
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
    _print({"stopped": True})
    return 0


def cmd_hub(args) -> int:
    if args.hub_cmd == "status":
        return cmd_hub_status(args)
    raise ValueError(f"unknown hub subcommand {args.hub_cmd!r}")


def cmd_hub_status(args) -> int:
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
    if args.json:
        _print({"peers": report, "healthy": healthy, "watermark": head})
    else:
        print(f"hub fleet: {healthy}/{len(report)} peers healthy, "
              f"head watermark {head}")
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
    return 0 if healthy == len(report) else 1


def cmd_stats(args) -> int:
    from repro import obs
    from repro.core.cache import RetrievalCache

    with _open_repo(args) as repo:
        versions = repo.list_versions()
        repo_info = {
            "versions": len(versions),
            "snapshots": sum(len(v.snapshots) for v in versions),
            "chunks": sum(1 for _ in repo.store.addresses()),
            "stored_bytes": repo.store.total_size(),
        }
        dedup_stats = repo.dedup_stats()
        cache_stats = None
        if not args.no_retrieval:
            # Exercise one group retrieval (twice: a cold pass then a warm
            # pass) through a cache wired to the global registry, so the
            # report shows live cache and chunkstore counters.
            with_snapshots = [v for v in versions if v.snapshots]
            if with_snapshots:
                archive = repo.archive_view()
                cache = RetrievalCache(archive, registry=obs.get_registry())
                latest = with_snapshots[-1]
                key = latest.snapshots[-1].key
                for _ in range(2):
                    cache.recreate_snapshot(key)
                cache_stats = cache.stats()
    report = {
        "repository": repo_info,
        "dedup": dedup_stats,
        "cache": cache_stats,
        "metrics": obs.dump_metrics(),
    }
    if args.spans:
        report["spans"] = _filter_spans(
            [span.to_dict() for span in obs.get_recorder().spans()],
            args.min_ms,
            args.name or "",
        )
    if args.json:
        _print(report)
    else:
        _render_stats_text(report)
    return 0


def cmd_query(args) -> int:
    from repro.dql.executor import DQLExecutor

    with _open_repo(args) as repo:
        executor = DQLExecutor(repo, strict=args.strict)
        result = executor.run(args.dql)
    _print(result.to_dict())
    return 0


def cmd_check(args) -> int:
    """Static diagnostics.  Exit status: 0 = no error-severity findings
    (warnings/info do not fail the command), 1 = at least one error,
    2 = usage/repo errors (argparse or missing repository)."""
    from repro import analysis
    from repro.analysis.diagnostics import codes_for_pass
    from repro.dnn.network import Network

    if args.list_codes:
        codes = codes_for_pass(args.pass_name)
        if args.json:
            _print({"codes": codes})
        else:
            for code, description in codes.items():
                print(f"{code}  {description}")
        return 0

    diagnostics = []
    checked: dict[str, object] = {}
    if args.lint:
        diagnostics.extend(analysis.lint_paths(args.lint))
        checked["lint_paths"] = list(args.lint)
    if args.conc is not None:
        conc_paths = args.conc or ["src/repro"]
        missing = [p for p in conc_paths if not Path(p).exists()]
        if missing:
            # A vacuous pass over a mistyped path must not look clean.
            print(
                f"error: no such path: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 2
        diagnostics.extend(analysis.conc_check_paths(conc_paths))
        checked["conc_paths"] = list(conc_paths)
    file_passes = args.lint or args.conc is not None
    needs_repo = args.dql is not None or not (file_passes or args.dql)
    if needs_repo:
        with _open_repo(args) as repo:
            if args.dql is not None:
                diagnostics.extend(analysis.check_query(args.dql, repo=repo))
                checked["dql"] = args.dql
            else:
                # Default pass: validate every (or one) version's DAG
                # statically, from the stored spec, without loading weights.
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
    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = sum(1 for d in diagnostics if d.severity == "warning")
    if args.json:
        _print(
            {
                "checked": checked,
                "diagnostics": [d.to_dict() for d in diagnostics],
                "summary": {
                    "errors": errors,
                    "warnings": warnings,
                    "total": len(diagnostics),
                },
            }
        )
    else:
        for diag in diagnostics:
            print(analysis.format_diagnostic(diag))
        print(
            f"checked {', '.join(f'{k}={v}' for k, v in checked.items()) or 'nothing'}: "
            f"{len(diagnostics)} finding(s), {errors} error(s), "
            f"{warnings} warning(s)"
        )
    return 1 if errors else 0


def cmd_serve(args) -> int:
    from repro.serve import ModelServer, ServeConfig

    from repro.obs.propagation import TRACEPARENT_ENV
    from repro.wire import adopt_span, run_until_signalled

    # A driver that sets TRACEPARENT sees the whole boot — including any
    # hub pull — join its own trace (the de-facto CLI propagation rule).
    with adopt_span(
        "dlv.serve.boot", os.environ.get(TRACEPARENT_ENV), hub=args.hub or ""
    ):
        repo_path = args.repo
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
            max_wait_ms=args.max_wait_ms,
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
    drained = server.stop(drain=True)
    _print({"stopped": True, "drained": drained})
    return 0 if drained else 1


def cmd_publish(args) -> int:
    from repro.hub.client import HubClient

    client = HubClient(args.hub)
    with _open_repo(args) as repo:
        record = client.publish(repo, name=args.name, description=args.message)
    _print({"published": record.name, "revision": record.revision})
    return 0


def cmd_search(args) -> int:
    from repro.hub.client import HubClient

    client = HubClient(args.hub)
    _print(
        [
            {
                "name": r.name,
                "description": r.description,
                "revision": r.revision,
                "models": r.model_names,
            }
            for r in client.search(args.pattern)
        ]
    )
    return 0


def cmd_pull(args) -> int:
    from repro.hub.client import HubClient

    client = HubClient(args.hub)
    path = client.pull(args.name, args.dest)
    _print({"pulled": args.name, "path": str(path)})
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="initialize a dlv repository")
    p.add_argument(
        "--backend", default=None,
        choices=["local-fs", "sqlite", "memory"],
        help="storage substrate for a bare-path target (URLs carry "
             "their own scheme); sqlite lands the whole repo in "
             "<repo>/.dlv/repo.db",
    )
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("add", help="stage files for the next commit")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("commit", help="commit a model directory")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("-m", "--message", default="")
    p.add_argument("--parent", default=None)
    p.add_argument("--float-scheme", default="float32")
    p.set_defaults(func=cmd_commit)

    p = sub.add_parser("copy", help="scaffold a model from an old one")
    p.add_argument("source")
    p.add_argument("name")
    p.add_argument("-m", "--message", default="")
    p.set_defaults(func=cmd_copy)

    p = sub.add_parser(
        "convert", help="re-encode a snapshot with a lossier float scheme"
    )
    p.add_argument("ref")
    p.add_argument("--snapshot", type=int, default=-1)
    p.add_argument("--float-scheme", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("archive", help="re-optimize parameter storage")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument(
        "--scheme",
        choices=[s.value for s in RetrievalScheme],
        default="independent",
    )
    p.add_argument(
        "--algorithm",
        choices=[
            "best", "mst", "spt", "last", "pas-mt", "pas-pt", "spt-tighten",
        ],
        default="best",
    )
    p.add_argument(
        "--dedup", action="store_true",
        help="allow page-dedup payloads (cross-model similarity store)",
    )
    p.add_argument(
        "--page-size", type=int, default=None,
        help="dedup page granularity in bytes (default 1024)",
    )
    p.set_defaults(func=cmd_archive)

    p = sub.add_parser("dedup", help="cross-model page dedup operations")
    dedup_sub = p.add_subparsers(dest="dedup_cmd", required=True)
    d = dedup_sub.add_parser("stats", help="family-wide dedup accounting")
    d.add_argument("--json", action="store_true", help="machine-readable output")
    d.set_defaults(func=cmd_dedup)
    d = dedup_sub.add_parser("run", help="re-archive with dedup enabled")
    d.add_argument("--alpha", type=float, default=2.0)
    d.add_argument("--page-size", type=int, default=None)
    d.set_defaults(func=cmd_dedup)

    p = sub.add_parser("list", help="list models and lineage")
    p.add_argument("--pattern", default=None, help="SQL LIKE name filter")
    p.add_argument("--html", default=None, help="write an HTML report here")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("desc", help="describe a model version")
    p.add_argument("ref")
    p.add_argument("--html", default=None, help="write an HTML report here")
    p.set_defaults(func=cmd_desc)

    p = sub.add_parser("log", help="print a version's training log")
    p.add_argument("ref")
    p.set_defaults(func=cmd_log)

    p = sub.add_parser("gc", help="remove unreferenced parameter chunks")
    p.set_defaults(func=cmd_gc)

    p = sub.add_parser("verify", help="check repository integrity")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fsck", help="deep integrity check (re-hash blobs, catalog audit)"
    )
    p.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt blobs and restore/re-materialize payloads",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser(
        "inspect", help="segment-only stats/histogram of a parameter matrix"
    )
    p.add_argument("ref")
    p.add_argument("--layer", required=True)
    p.add_argument("--param", default="W")
    p.add_argument("--snapshot", type=int, default=-1)
    p.add_argument("--planes", type=int, default=2)
    p.add_argument("--bins", type=int, default=10)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("prune", help="drop intermediate checkpoints")
    p.add_argument("ref")
    p.add_argument("--keep-every", type=int, default=2)
    p.add_argument("--keep-last", type=int, default=1)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("export", help="write a model directory for a version")
    p.add_argument("ref")
    p.add_argument("dest")
    p.add_argument("--snapshot", type=int, default=-1)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("diff", help="compare two model versions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--parameters", action="store_true")
    p.add_argument("--html", default=None, help="write an HTML report here")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("eval", help="evaluate a model on an .npz dataset")
    p.add_argument("ref")
    p.add_argument("data", help=".npz with arrays x (and optionally y)")
    p.add_argument("--snapshot", type=int, default=-1)
    p.add_argument(
        "--progressive", action="store_true",
        help="answer from high-order byte segments with exactness guarantee",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "stats", help="repository storage + live telemetry counters"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--spans", action="store_true",
        help="include recorded trace spans",
    )
    p.add_argument(
        "--no-retrieval", action="store_true",
        help="report storage stats only; skip the instrumented retrieval",
    )
    p.add_argument(
        "--min-ms", type=float, default=0.0,
        help="with --spans: only spans at least this many ms long",
    )
    p.add_argument(
        "--name", default=None,
        help="with --spans: only spans whose name contains this substring",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("trace", help="work with recorded trace spans")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    pe = tsub.add_parser(
        "export", help="export spans as JSONL or Chrome trace-event JSON"
    )
    pe.add_argument(
        "--chrome", action="store_true",
        help="Chrome trace-event JSON (open in chrome://tracing / Perfetto)",
    )
    pe.add_argument(
        "--url", default=None,
        help="export a running server's /v1/trace instead of this process",
    )
    pe.add_argument("--out", default=None, help="write here instead of stdout")
    pe.add_argument(
        "--min-ms", type=float, default=0.0,
        help="only spans at least this many ms long",
    )
    pe.add_argument(
        "--name", default=None,
        help="only spans whose name contains this substring",
    )
    pe.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "slowlog", help="requests that crossed the slow threshold"
    )
    p.add_argument(
        "--url", default=None,
        help="read a running server's /v1/slowlog instead of this process",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_slowlog)

    p = sub.add_parser(
        "top", help="live latency/counter board for a running server"
    )
    p.add_argument("--url", required=True, help="server base url")
    p.add_argument(
        "--interval", type=float, default=2.0, help="refresh period, seconds"
    )
    p.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N refreshes (0: run until interrupted)",
    )
    p.add_argument(
        "--no-clear", action="store_true",
        help="append refreshes instead of clearing the screen",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("query", help="run a DQL statement")
    p.add_argument("dql")
    p.add_argument(
        "--strict", action="store_true",
        help="run static analysis first; refuse to execute on errors",
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "check", help="static diagnostics for DQL, networks, and code"
    )
    p.add_argument(
        "--dql", default=None, metavar="QUERY",
        help="analyze this DQL statement instead of the repo networks",
    )
    p.add_argument(
        "--ref", default=None,
        help="validate just this version's network (default: all versions)",
    )
    p.add_argument(
        "--lint", nargs="+", default=None, metavar="PATH",
        help="also run the repo-invariant linter over these files/dirs",
    )
    p.add_argument(
        "--conc", nargs="*", default=None, metavar="PATH",
        help="run the concurrency checker (CONC4xx) over these files/dirs "
        "(bare --conc defaults to src/repro)",
    )
    p.add_argument(
        "--list-codes", action="store_true",
        help="print the diagnostic code table and exit "
        "(exit status: 0 always)",
    )
    p.add_argument(
        "--pass", dest="pass_name", default=None,
        choices=["dql", "net", "lint", "conc"],
        help="with --list-codes: only this pass's codes",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "serve", help="serve model snapshots over HTTP (progressive + batched)"
    )
    p.add_argument("--host", default=None, help="bind address")
    p.add_argument(
        "--port", type=int, default=None,
        help="bind port (default 0: OS-assigned, reported on stdout)",
    )
    p.add_argument(
        "--model", action="append", default=None, metavar="NAME",
        help="serve only this version name (repeatable; default: all)",
    )
    p.add_argument("--max-batch", type=int, default=None)
    p.add_argument("--max-wait-ms", type=float, default=None)
    p.add_argument("--queue-limit", type=int, default=None)
    p.add_argument("--cache-mb", type=int, default=None)
    p.add_argument("--start-planes", type=int, default=None)
    p.add_argument("--drain-timeout", type=float, default=None)
    p.add_argument(
        "--strict", action="store_true",
        help="abort startup when any snapshot fails network validation",
    )
    p.add_argument(
        "--hub", default=None,
        help="pull --name from this hub into a scratch dir and serve it "
             "(comma-separated URLs route through the fleet client)",
    )
    p.add_argument(
        "--hub-timeout", type=float, default=30.0,
        help="socket timeout for hub pull requests, seconds",
    )
    p.add_argument(
        "--name", default=None,
        help="published repository name (with --hub)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("publish", help="publish this repository to a hub")
    p.add_argument("--hub", required=True, help="hub directory")
    p.add_argument("--name", required=True)
    p.add_argument("-m", "--message", default="")
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("search", help="search a hub")
    p.add_argument("--hub", required=True)
    p.add_argument("pattern")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("pull", help="pull a repository from a hub")
    p.add_argument("--hub", required=True)
    p.add_argument("name")
    p.add_argument("dest")
    p.set_defaults(func=cmd_pull)

    p = sub.add_parser(
        "hub-serve", help="serve a hub directory over HTTP (search + pull)"
    )
    p.add_argument("--hub", required=True, help="hub directory")
    p.add_argument("--host", default=None, help="bind address")
    p.add_argument(
        "--port", type=int, default=None,
        help="bind port (default 0: OS-assigned, reported on stdout)",
    )
    p.add_argument(
        "--peers", default=None,
        help="comma-separated primary URL(s) to replicate from "
             "(starts this hub as a read replica)",
    )
    p.add_argument(
        "--peer-name", default=None,
        help="fleet identity reported by /healthz (default hub/replica)",
    )
    p.add_argument(
        "--sync-interval", type=float, default=2.0,
        help="replication poll period, seconds (with --peers)",
    )
    p.add_argument(
        "--timeout", type=float, default=10.0,
        help="socket timeout for replication requests, seconds",
    )
    p.set_defaults(func=cmd_hub_serve)

    p = sub.add_parser("hub", help="hub fleet operations")
    hub_sub = p.add_subparsers(dest="hub_cmd", required=True)
    s = hub_sub.add_parser(
        "status", help="probe every fleet peer: role, watermark, lag"
    )
    s.add_argument(
        "--hub", required=True,
        help="comma-separated hub URL(s) to probe",
    )
    s.add_argument("--json", action="store_true")
    s.add_argument(
        "--timeout", type=float, default=5.0,
        help="socket timeout per probe, seconds",
    )
    s.set_defaults(func=cmd_hub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, FileNotFoundError, FileExistsError) as exc:
        print(f"dlv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
