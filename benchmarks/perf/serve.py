"""``serve_hot`` and ``serve_churn``: closed-loop load through
``ServeClient`` against ``dlv serve`` in a separate process.

Closed loop because that is how the client API is used: each
``ServeClient`` blocks on its reply before sending the next request.
``CLIENTS`` threads, one keep-alive connection each; a warm-up, then a
fixed window.  Every answer is checked against ``net.predict`` on the
harness's own copy of the weights, and ``degraded`` must be false.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import harness
import spans
from harness import dlv, median, percentile

#: Generator threads / connections: the sandbox has two cores.
CLIENTS = max(1, min(2, os.cpu_count() or 1))


@dataclass
class Request:
    model: str
    rows: np.ndarray          # indices into the test set
    exact: bool
    expected: np.ndarray


@dataclass
class ServeSetup:
    repo: str                 # what ``dlv serve --repo`` gets
    serve_args: list
    x_test: np.ndarray
    plans: list               # one request list per client
    setup_s: float            # everything before the first server boot
    stored_ratio: float
    archive_report: dict
    backend: str


# -- set-up -------------------------------------------------------------------


def _commit_and_archive(store: list, model_dirs: list, dedup: bool,
                        tracer) -> dict:
    """Build the served repository through the CLI.  In a traced run the
    verbs are marked as set-up operations, so the write-side layers a
    serve workload only enters here still get a per-call reading."""
    op = harness.op_marker(tracer)
    if tracer is not None:
        spans.install(tracer)
    try:
        with op("setup.init"):
            dlv(*store, "init")
        for name, path in model_dirs:
            with op("setup.commit"):
                dlv(*store, "commit", "--model-dir", str(path),
                    "--name", name, "-m", "bench")
        args = [*store, "archive", "--alpha", "1.6"]
        if dedup:
            args.append("--dedup")
        with op("setup.archive"):
            _elapsed, report = dlv(*args)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not report["satisfied"]:
        raise RuntimeError("archive plan violates its constraints")
    return report


def _plans(rng_seed: int, nets: dict, x_test, rows_per_request: int,
           exact_share: float, zipf_s: float, count: int = 2048) -> list:
    """Per-client request lists: model by Zipf rank, rows uniformly from
    the rows that model answers unambiguously."""
    names = list(nets)
    order = np.random.default_rng(rng_seed).permutation(len(names))
    weights = 1.0 / np.arange(1, len(names) + 1) ** zipf_s
    weights /= weights.sum()
    eligible = {n: harness.confident_rows(nets[n], x_test) for n in names}
    expected = {n: nets[n].predict(x_test) for n in names}
    plans = []
    for client in range(CLIENTS):
        rng = np.random.default_rng([rng_seed, client])
        plan = []
        for _ in range(count):
            name = names[order[rng.choice(len(names), p=weights)]]
            rows = rng.choice(eligible[name], size=rows_per_request)
            plan.append(Request(
                name, rows, bool(rng.random() < exact_share),
                expected[name][rows],
            ))
        plans.append(plan)
    return plans


def setup_hot(seed: int, scale, workdir: Path, tracer=None) -> ServeSetup:
    """One small model, local-fs repo, default ``ServeConfig``."""
    from repro.dlv.wrapper import save_model_dir

    start = time.perf_counter()
    dataset = harness.make_dataset(seed)
    net, config = harness.train_base(dataset, scale.hot_hidden, seed, "hot")
    model_dir = save_model_dir(workdir / "hot-model", net, config)
    repo = str(workdir / "hot-repo")
    report = _commit_and_archive(["--repo", repo], [("hot", model_dir)], False,
                                 tracer)
    plans = _plans(seed, {"hot": net}, dataset.x_test, 1, 0.0, 1.1)
    return ServeSetup(
        repo, [], dataset.x_test, plans, time.perf_counter() - start,
        report["bytes_after"] / (net.param_count() * 4), report, "localfs",
    )


def setup_churn(seed: int, scale, workdir: Path, tracer=None) -> ServeSetup:
    """A fine-tuned family in one sqlite file, archived with ``--dedup``,
    served through a cache a fifth the size of the working set."""
    from repro.dlv.wrapper import save_model_dir

    start = time.perf_counter()
    dataset = harness.make_dataset(seed)
    base, config = harness.train_base(
        dataset, scale.family_hidden, seed, "fam-00"
    )
    rng = np.random.default_rng([seed, 17])
    nets = {"fam-00": base}
    for i in range(1, scale.family):
        nets[f"fam-{i:02d}"] = harness.perturbed(base, rng, f"fam-{i:02d}")
    model_dirs = [
        (name, save_model_dir(workdir / f"model-{name}", net, config))
        for name, net in nets.items()
    ]
    url = f"sqlite://{workdir / 'family.db'}"
    report = _commit_and_archive(["--store", url], model_dirs, True, tracer)
    plans = _plans(seed, nets, dataset.x_test, scale.churn_rows, 0.25, 1.1)
    raw = sum(net.param_count() * 4 for net in nets.values())
    return ServeSetup(
        url, ["--cache-mb", str(scale.cache_mb)], dataset.x_test, plans,
        time.perf_counter() - start, report["bytes_after"] / raw, report,
        "sqlite",
    )


def boot_probe(setup: ServeSetup, workdir: Path) -> float:
    """Boot a server on ``setup`` only to time the boot."""
    return harness.boot_seconds(
        harness.start_serve(workdir, setup.repo, setup.serve_args), True
    )


# -- the closed loop ----------------------------------------------------------


@dataclass
class Sample:
    start: float
    wall_ms: float
    ok: bool
    shed: bool = False
    server_ms: float = 0.0
    queue_wait_ms: float = 0.0
    compute_ms: float = 0.0
    bytes_read: float = 0.0
    escalations: int = 0
    planes_sum: int = 0
    rows: int = 0


def _client_loop(port, plan, x_test, window_start, stop_at, samples, tracer,
                 corrupt) -> None:
    from repro.serve.client import ServeClient, ServeError

    op = harness.op_marker(tracer)
    with ServeClient(port=port) as client:
        index = 0
        while True:
            request = plan[index % len(plan)]
            index += 1
            expected = request.expected
            inputs = x_test[request.rows]
            start = time.perf_counter()
            if start >= stop_at:
                return
            if corrupt and start >= window_start:
                expected = expected + 1    # a wrong label must count as failed
                corrupt = False
            try:
                with op("predict"):
                    answer = client.predict(
                        request.model, inputs,
                        start_planes=None if request.exact else 2,
                        exact=request.exact,
                    )
            except ServeError as exc:
                samples.append(Sample(
                    start, (time.perf_counter() - start) * 1e3, False,
                    shed=exc.status == 429,
                ))
                continue
            wall_ms = (time.perf_counter() - start) * 1e3
            cost = answer.cost or {}
            samples.append(Sample(
                start, wall_ms,
                ok=bool(
                    not answer.degraded
                    and np.array_equal(answer.predictions, expected)
                ),
                server_ms=answer.latency_ms,
                queue_wait_ms=cost.get("queue_wait_ms", 0.0),
                compute_ms=cost.get("compute_ms", 0.0),
                bytes_read=cost.get("bytes_read", 0.0),
                escalations=answer.escalations,
                planes_sum=int(answer.resolved_planes.sum()),
                rows=len(answer.predictions),
            ))


def closed_loop(port: int, setup: ServeSetup, warmup_s: float,
                window_s: float, tracer=None, corrupt: bool = False) -> dict:
    """Run the generator; returns the window's samples and the server's
    own counters over the same window (``GET /metrics`` before/after)."""
    from repro.serve.client import ServeClient

    per_client = [[] for _ in range(CLIENTS)]
    begin = time.perf_counter()
    window_start = begin + warmup_s
    stop_at = window_start + window_s
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(port, setup.plans[i], setup.x_test, window_start, stop_at,
                  per_client[i], tracer, corrupt and i == 0),
            name=f"bench-client-{i}",
        )
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    with ServeClient(port=port) as probe:
        time.sleep(max(0.0, window_start - time.perf_counter()))
        before = probe.metrics()
        for thread in threads:
            thread.join()
        after = probe.metrics()
    samples = [
        s for chunk in per_client for s in chunk
        if s.start >= window_start and s.start + s.wall_ms / 1e3 <= stop_at
    ]
    return {"samples": samples, "window_s": window_s,
            "before": before, "after": after}


# -- turning a window into metrics --------------------------------------------


def end_to_end(run: dict) -> dict:
    good = [s.wall_ms for s in run["samples"] if s.ok]
    return {
        "predict_rps": len(good) / run["window_s"],
        "predict_p50_ms": median(good),
        "predict_p99_ms": percentile(good, 99),
        "n": len(good),
    }


def split(run: dict) -> dict:
    """The invocation / request / inference split (DLHub's terms): time
    outside the server's own clock, time queued, time computing — and
    how much of the client's median the three account for."""
    samples = [s for s in run["samples"] if s.ok]
    parts = {
        "serve.client.wire_ms": median(
            [s.wall_ms - s.server_ms for s in samples]),
        "serve.scheduler.queue_wait_ms": median(
            [s.queue_wait_ms for s in samples]),
        "core.progressive.compute_ms": median(
            [s.compute_ms for s in samples]),
    }
    p50 = median([s.wall_ms for s in samples])
    total = sum(parts.values())
    return {**parts, "sum_ms": total, "predict_p50_ms": p50,
            "coverage": total / p50 if p50 else 0.0}


def counts(run: dict) -> tuple[int, int]:
    attempted = len(run["samples"])
    return attempted, sum(1 for s in run["samples"] if not s.ok)


def layer_extras(run: dict) -> dict:
    """Per-layer numbers that come from the replies and ``GET /metrics``
    rather than from spans."""
    samples = [s for s in run["samples"] if s.ok]
    sent = len(run["samples"]) or 1
    cache_a, cache_b = run["before"]["plane_cache"], run["after"]["plane_cache"]
    hits = cache_b["hits"] - cache_a["hits"]
    misses = cache_b["misses"] - cache_a["misses"]
    hist_a = run["before"]["metrics"]["histograms"]
    hist_b = run["after"]["metrics"]["histograms"]

    def hist_mean(name: str) -> float:
        a, b = hist_a.get(name, {}), hist_b.get(name, {})
        n = b.get("count", 0) - a.get("count", 0)
        return (b.get("sum", 0.0) - a.get("sum", 0.0)) / n if n else 0.0

    rows = sum(s.rows for s in samples) or 1
    return {
        "serve.client.wire_ms": median(
            [s.wall_ms - s.server_ms for s in samples]),
        "serve.server.boot_s": run["boot_s"],
        "serve.scheduler.queue_wait_ms": median(
            [s.queue_wait_ms for s in samples]),
        "serve.scheduler.batch_rows": hist_mean("serve.batch_rows"),
        "serve.scheduler.batch_requests": hist_mean("serve.batch_requests"),
        "serve.scheduler.escalation_share":
            sum(1 for s in samples if s.escalations) / (len(samples) or 1),
        "serve.scheduler.shed_share":
            sum(1 for s in run["samples"] if s.shed) / sent,
        "serve.cache.hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.evictions":
            float(cache_b["evictions"] - cache_a["evictions"]),
        "serve.cache.cached_bytes": float(cache_b["cached_bytes"]),
        "core.progressive.resolved_planes_mean":
            sum(s.planes_sum for s in samples) / rows,
        "core.progressive.compute_ms": median([s.compute_ms for s in samples]),
        "core.retrieval.bytes_read_per_op":
            sum(s.bytes_read for s in samples) / (len(samples) or 1),
    }


def run_pass(setup: ServeSetup, scale, workdir: Path, window_s: float,
             tracer=None, spans_path: Optional[Path] = None,
             corrupt: bool = False) -> dict:
    """Boot a server, drive one warm-up + window, stop it (must drain)."""
    server = harness.start_serve(
        workdir, setup.repo, setup.serve_args, spans_path
    )
    try:
        run = closed_loop(server.info["port"], setup, scale.warmup_s,
                          window_s, tracer, corrupt)
        server.stop(require_drained=True)
    finally:
        server.kill()       # no-op once stopped
    run["boot_s"] = server.boot_s
    return run
