"""One command for the whole benchmark.

``python3 benchmarks/perf/run.py --workload <name> --seed <n>
[--seconds <s>] [--trace 0|1] [--out <file>]``

Runs one named workload against the system as users reach it, checks
every output, prints every metric by name (unit, sample count, median,
spread) and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
measures the end-to-end metrics with the span shim off; ``--trace 1``
runs a shorter untraced pass and a traced pass and reports the per-layer
metrics (their difference is ``obs.trace_overhead_pct``).  The full
result, with provenance, is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

_ENTERED = time.perf_counter()

PERF_DIR = Path(__file__).resolve().parent
if str(PERF_DIR) not in sys.path:
    sys.path.insert(0, str(PERF_DIR))

import harness  # noqa: E402

harness.require_program()

import numpy as np  # noqa: E402
import repro.dlv.cli  # noqa: E402,F401

#: What a fresh ``dlv`` pays before ``main`` runs: numpy plus the CLI's
#: import closure, measured on this process's own first import.
IMPORT_S = time.perf_counter() - _ENTERED

import layers  # noqa: E402
from catalogue import GATED  # noqa: E402
import lifecycle  # noqa: E402
import serve  # noqa: E402
import solver  # noqa: E402
import spans  # noqa: E402
from harness import median  # noqa: E402

WORKLOADS = ("serve_hot", "serve_churn", "lifecycle", "solver_scale")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``SMOKE`` is the
    reduced pass ``test_smoke.py`` runs."""

    hot_hidden: int = 48
    family: int = 17
    family_hidden: int = 256
    churn_rows: int = 8
    cache_mb: int = 1
    warmup_s: float = 2.0
    chains: int = 2
    per_chain: int = 6
    lifecycle_hidden: int = 256
    cold_starts: int = 5
    solver_small: tuple = (10, 6, 10)
    solver_large: tuple = (14, 8, 12)
    solver_small_count: int = 6
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_reps: int = 3


FULL = Scale()
SMOKE = Scale(
    family=3, family_hidden=64, warmup_s=0.3, chains=1, per_chain=1,
    lifecycle_hidden=48, cold_starts=1, solver_small=(3, 3, 4),
    solver_large=(5, 4, 4), solver_small_count=2, setup_reps=1,
)


def _matrices(dims: tuple) -> int:
    return dims[0] * dims[1] * dims[2]


def _named(value: float, unit: str, samples=None) -> dict:
    out = {"value": float(value), "unit": unit}
    if samples is not None:
        out.update(n=len(samples), spread=harness.quartile_spread(samples))
    return out


def _server_table(spans_path) -> dict:
    """Whole-process span totals of a traced server.  Its ``cli.main``
    span is dropped: it spends the run blocked waiting for SIGTERM."""
    table = spans.aggregate(spans.load_spans(spans_path))["*"]
    table.pop("dlv.cli.main", None)
    return table


def _setup_s(earlier: list, last: float) -> dict:
    """``setup_s`` of a run: the median over its set-ups (the earlier
    repetitions' totals and the last one's, imports included)."""
    totals = [*earlier, IMPORT_S + last]
    return _named(median(totals), "s", totals)


def _overhead_pct(untraced: float, traced: float) -> float:
    return (traced - untraced) / untraced * 100.0 if untraced else 0.0


def _harness_tables(tracer) -> tuple[dict, dict, float]:
    """(per-op tables, measured-ops total, fsyncs per commit) of the
    harness process.  Set-up operations are kept out of the measured
    total so per-operation counts only see the traced pass."""
    per_op = spans.aggregate(tracer.spans)
    measured = layers.merge(*(
        table for op, table in per_op.items()
        if op != "*" and not op.startswith("setup")
    ))
    commits = fsyncs = 0
    for op in ("commit", "setup.commit"):
        table = per_op.get(op, {})
        commits += table.get(f"op.{op}", {}).get("calls", 0)
        fsyncs += table.get("core.storage.fsync", {}).get("calls", 0)
    return per_op, measured, (fsyncs / commits if commits else 0.0)


# -- serve_hot / serve_churn --------------------------------------------------


def run_serve(name, seed, seconds, trace, scale, workdir, corrupt) -> dict:
    make = serve.setup_hot if name == "serve_hot" else serve.setup_churn
    tracer = spans.Tracer() if trace else None
    setup, earlier = harness.repeated_setup(
        lambda directory: make(seed, scale, directory, tracer), workdir,
        1 if trace else scale.setup_reps, serve.boot_probe,
    )
    window = seconds / 3.0 if trace else float(seconds)
    plain = serve.run_pass(setup, scale, workdir, window, corrupt=corrupt)
    setup_s = _setup_s(earlier, setup.setup_s + plain["boot_s"])
    e2e = serve.end_to_end(plain)
    attempted, failed = serve.counts(plain)
    good = [s.wall_ms for s in plain["samples"] if s.ok]
    result = {
        "attempted": attempted,
        "failed": failed,
        "named": {
            "setup_s": setup_s,
            "predict_rps": _named(e2e["predict_rps"], "1/s", good),
            "predict_p50_ms": _named(e2e["predict_p50_ms"], "ms", good),
            "predict_p99_ms": _named(e2e["predict_p99_ms"], "ms", good),
        },
        "end_to_end": {
            "setup_s": setup_s["value"],
            "ops_per_s": e2e["predict_rps"],
            "stored_ratio": setup.stored_ratio,
        },
        "detail": {
            "clients": serve.CLIENTS, "loop": "closed",
            "warmup_s": scale.warmup_s, "window_s": window,
            "boot_s": plain["boot_s"],
            "archive_report": setup.archive_report,
            "split_untraced": serve.split(plain),
        },
    }
    if not trace:
        return result

    spans_path = workdir / "serve-spans.json"
    spans.install(tracer)
    try:
        traced = serve.run_pass(setup, scale, workdir, window, tracer,
                                spans_path)
    finally:
        tracer.uninstall()
    t_attempted, t_failed = serve.counts(traced)
    result["attempted"] += t_attempted
    result["failed"] += t_failed
    server_table = _server_table(spans_path)
    per_op, measured, commit_fsyncs = _harness_tables(tracer)
    # Spans cover the warm-up too, so per-operation figures divide by
    # every traced request, not just the window's.
    requests = per_op.get("predict", {}).get("op.predict", {}).get("calls", 0)
    extras = serve.layer_extras(traced)
    extras["dlv.cli.import_ms"] = IMPORT_S * 1e3
    extras["dedup.ratio"] = (
        setup.archive_report["bytes_before"] / setup.archive_report["bytes_after"]
        if setup.archive_report["dedup"] else 0.0
    )
    traced_e2e = serve.end_to_end(traced)
    extras["obs.trace_overhead_pct"] = _overhead_pct(
        e2e["predict_p50_ms"], traced_e2e["predict_p50_ms"]
    )
    measured = layers.merge(measured, server_table)
    result["layers"] = layers.derive(
        layers.merge(per_op["*"], server_table), measured,
        requests, extras, setup.backend, commit_fsyncs,
    )
    result["detail"]["layer_shares"] = layers.layer_shares(measured)
    result["detail"]["traced_window"] = {
        "predict_p50_ms": traced_e2e["predict_p50_ms"],
        "n": traced_e2e["n"],
        "split": serve.split(traced),
        "self_ms_per_request": layers.per_op_self(
            layers.merge(per_op.get("predict", {}), server_table), requests
        ),
    }
    return result


# -- lifecycle ----------------------------------------------------------------


def _lifecycle_named(ops, versions: int) -> dict:
    sec = ops.seconds

    def ms(kind):
        values = [v * 1e3 for v in sec.get(kind, [])]
        return _named(median(values), "ms", values)

    def s(kind):
        return _named(median(sec.get(kind, [])), "s", sec.get(kind, []))

    return {
        "commit_ms": ms("commit"),
        "checkout_ms": ms("checkout"),
        "checkout_dedup_ms": ms("checkout_dedup"),
        "archive_s": s("archive"),
        "archive_dedup_s": s("archive_dedup"),
        "pull_s": s("pull"),
        "stored_bytes_per_model": _named(
            median(ops.stored_bytes) / versions, "bytes", ops.stored_bytes),
        "cli_cold_start_ms": ms("cli_cold_start"),
    }


def _round_ops_ms(ops) -> list:
    """Latencies of every verb call in the rounds (cold starts apart)."""
    return [v * 1e3 for kind, values in ops.seconds.items()
            if kind != "cli_cold_start" for v in values]


def run_lifecycle(seed, seconds, trace, scale, workdir, corrupt) -> dict:
    per_chain = max(1, scale.per_chain // 3) if trace else scale.per_chain
    setup, earlier = harness.repeated_setup(
        lambda directory: lifecycle.setup(
            seed, scale.chains, per_chain, scale.lifecycle_hidden, directory),
        workdir, 1 if trace else scale.setup_reps, lifecycle.boot_probe,
    )
    ops, boot_s = lifecycle.run_rounds(
        setup, workdir, "plain", 0.0 if trace else seconds,
        scale.cold_starts, corrupt=corrupt,
    )
    setup_s = _setup_s(earlier, setup.setup_s + boot_s)
    versions = len(setup.versions)
    lat = _round_ops_ms(ops)
    named = {"setup_s": setup_s, **_lifecycle_named(ops, versions)}
    result = {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "named": named,
        "end_to_end": {
            "setup_s": setup_s["value"],
            "ops_per_s": len(lat) / (sum(lat) / 1e3),
            "stored_ratio": median(ops.stored_bytes) / setup.raw_bytes,
        },
        "detail": {
            "rounds": len(ops.seconds["pull"]), "versions_per_round": versions,
            "hub_boot_s": boot_s,
            "exports": ops.exports,
            "exports_bit_exact": ops.exports_bit_exact,
        },
    }
    if not trace:
        return result

    spans_path = workdir / "hub-spans.json"
    tracer = spans.install(spans.Tracer())
    try:
        t_ops, _boot = lifecycle.run_rounds(
            setup, workdir, "traced", 0.0, 0, tracer, spans_path
        )
    finally:
        tracer.uninstall()
    result["attempted"] += t_ops.attempted
    result["failed"] += t_ops.failed
    hub_table = _server_table(spans_path)
    per_op, measured, commit_fsyncs = _harness_tables(tracer)
    t_lat = _round_ops_ms(t_ops)
    extras = {
        "dlv.cli.import_ms": IMPORT_S * 1e3,
        "dedup.ratio": median(t_ops.dedup_ratio),
        "obs.trace_overhead_pct": _overhead_pct(sum(lat), sum(t_lat)),
    }
    measured = layers.merge(measured, hub_table)
    result["layers"] = layers.derive(
        layers.merge(per_op["*"], hub_table), measured,
        len(t_lat), extras, "localfs", commit_fsyncs,
    )
    result["detail"]["layer_shares"] = layers.layer_shares(measured)
    result["detail"]["decomposition"] = [
        layers.decomposition(
            per_op, kind, median(t_ops.seconds[kind]) * 1e3,
            len(t_ops.seconds[kind]),
        )
        for kind in ("commit", "checkout", "checkout_dedup", "archive",
                     "archive_dedup", "pull")
    ]
    return result


# -- solver_scale -------------------------------------------------------------


def run_solver(seed, seconds, trace, scale, workdir, corrupt) -> dict:
    # A traced run solves half the small instances in each of its passes.
    small_count = scale.solver_small_count
    if trace:
        small_count = max(1, small_count // 2)
    setup, earlier = harness.repeated_setup(
        lambda _directory: solver.setup(
            seed, scale.solver_small, scale.solver_large, small_count, 1),
        workdir, 1 if trace else scale.setup_reps,
    )
    setup_s = _setup_s(earlier, setup.setup_s)
    solves = solver.run(setup, 0.0 if trace else seconds,
                        include_large=not trace, corrupt=corrupt)
    result = {
        "attempted": solves.attempted,
        "failed": solves.failed,
        "named": {
            "setup_s": setup_s,
            "solve_s": _named(median(solves.small_s), "s", solves.small_s),
            "solve_large_s": _named(
                median(solves.large_s), "s", solves.large_s),
            "plan_cost_ratio": _named(
                median(solves.cost_ratio), "ratio", solves.cost_ratio),
        },
        "end_to_end": {
            "setup_s": setup_s["value"],
            "ops_per_s": solver.quiet_rate(solves),
            "stored_ratio": median(solves.cost_ratio),
        },
        "detail": {
            "small_matrices": _matrices(scale.solver_small),
            "large_matrices": _matrices(scale.solver_large),
            "small_solves": len(solves.small_s),
        },
    }
    if not trace:
        return result

    tracer = spans.install(spans.Tracer())
    try:
        t_solves = solver.run(setup, 0.0, tracer)
    finally:
        tracer.uninstall()
    result["attempted"] += t_solves.attempted
    result["failed"] += t_solves.failed
    per_op, measured, _ = _harness_tables(tracer)
    extras = {
        "dlv.cli.import_ms": IMPORT_S * 1e3,
        "core.archival.scaling_exponent": solver.scaling_exponent(
            t_solves, _matrices(scale.solver_small),
            _matrices(scale.solver_large)),
        "obs.trace_overhead_pct": _overhead_pct(
            median(solves.small_s), median(t_solves.small_s)),
    }
    result["layers"] = layers.derive(
        per_op["*"], measured, t_solves.attempted, extras, "localfs", 0.0
    )
    result["detail"]["layer_shares"] = layers.layer_shares(measured)
    result["detail"]["decomposition"] = [
        layers.decomposition(per_op, "solve", median(t_solves.small_s) * 1e3,
                             len(t_solves.small_s)),
        layers.decomposition(per_op, "solve_large",
                             median(t_solves.large_s) * 1e3,
                             len(t_solves.large_s)),
    ]
    return result


# -- entry points -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL, corrupt: bool = False) -> dict:
    """Run one workload; ``corrupt`` plants one wrong expectation so the
    smoke test can see the correctness check count it as failed."""
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {WORKLOADS}")
    with harness.work_dir(name) as workdir:
        if name == "lifecycle":
            result = run_lifecycle(seed, seconds, trace, scale, workdir,
                                   corrupt)
        elif name == "solver_scale":
            result = run_solver(seed, seconds, trace, scale, workdir,
                                corrupt)
        else:
            result = run_serve(name, seed, seconds, trace, scale, workdir,
                               corrupt)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  scale=asdict(scale))
    return result


def reported_metrics(result: dict) -> dict:
    """The ``metrics`` object of the result line: every end-to-end
    metric untraced, every per-layer metric traced."""
    if result["trace"]:
        return {
            name: {"value": float(result["layers"][name]), "unit": unit}
            for name, (unit, _better) in layers.PER_LAYER.items()
        }
    return {
        name: {"value": float(result["end_to_end"][name]), "unit": unit}
        for name, (unit, _better) in GATED.items()
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a repository: ``unknown`` there)."""
    git = harness.REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(result: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": result["seed"],
        "blas_threads_servers": {"OMP_NUM_THREADS": "1",
                                 "OPENBLAS_NUM_THREADS": "1"},
        "blas_threads_harness": {
            key: os.environ.get(key, "") for key in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
        },
        "seconds": result["seconds"],
        "trace": result["trace"],
        "unix_time": time.time(),
    }


def _print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    print(f"{'metric':<44}{'unit':<8}{'n':>6}{'value':>16}{'spread':>9}")
    for name, row in result["named"].items():
        n = row.get("n", 1)
        print(f"{name:<44}{row['unit']:<8}{n:>6}{row['value']:>16.4f}"
              f"{row.get('spread', 0.0):>9.3f}")
    for name, row in reported_metrics(result).items():
        print(f"{name:<44}{row['unit']:<8}{'':>6}{row['value']:>16.4f}")


def main(argv=None) -> int:
    spec = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="result file (default: benchmarks/perf/out/)")
    args = parser.parse_args(argv)

    # A terminated run still unwinds: servers are stopped and reaped,
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    result["provenance"] = provenance(result)
    out = Path(args.out) if args.out else harness.OUT_DIR / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, default=str))

    _print_table(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported_metrics(result),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
