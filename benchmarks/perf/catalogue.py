"""Names, units and directions of the end-to-end metrics.

``GATED`` are the metrics BENCHMARK.json lists: the driver asks every
workload for every one of them, so they are defined for any stream of
user operations.  ``NAMED`` are the per-operation metrics each workload
also reports (in the table and the ``--out`` file) under the names later
issues cite; ``compare.py`` checks both.  Per-layer metrics live in
``layers.py``.
"""

from __future__ import annotations

#: name -> (unit, better).  Bounds are BENCHMARK.json's.
GATED = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "stored_ratio": ("ratio", "lower"),
}

_SERVE = ("serve_hot", "serve_churn")

#: name -> (unit, better, regression bound, workloads that report it).
#: 10% for medians and rates, 15% for p99, 1% for the exact counts.
NAMED = {
    "predict_rps": ("1/s", "higher", 0.10, _SERVE),
    "predict_p50_ms": ("ms", "lower", 0.10, _SERVE),
    "predict_p99_ms": ("ms", "lower", 0.15, _SERVE),
    "commit_ms": ("ms", "lower", 0.10, ("lifecycle",)),
    "checkout_ms": ("ms", "lower", 0.10, ("lifecycle",)),
    "checkout_dedup_ms": ("ms", "lower", 0.10, ("lifecycle",)),
    "archive_s": ("s", "lower", 0.10, ("lifecycle",)),
    "archive_dedup_s": ("s", "lower", 0.10, ("lifecycle",)),
    "pull_s": ("s", "lower", 0.10, ("lifecycle",)),
    "stored_bytes_per_model": ("bytes", "lower", 0.01, ("lifecycle",)),
    "cli_cold_start_ms": ("ms", "lower", 0.10, ("lifecycle",)),
    "solve_s": ("s", "lower", 0.10, ("solver_scale",)),
    "solve_large_s": ("s", "lower", 0.10, ("solver_scale",)),
    "plan_cost_ratio": ("ratio", "lower", 0.01, ("solver_scale",)),
}
