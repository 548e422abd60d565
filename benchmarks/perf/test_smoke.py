"""Reduced-size pass over all four workloads (not in tier-1 ``testpaths``).

``PYTHONPATH=src python -m pytest benchmarks/perf/test_smoke.py -q`` —
about 20 s (``benchmarks/conftest.py`` imports the program).
Holds BENCHMARK.json and the code's catalogues together (every metric
named there is emitted with its unit, every emitted metric is named
there) and shows the correctness checks fire: one planted wrong
expectation per workload must come back as exactly one failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import catalogue  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((PERF_DIR.parent.parent / "BENCHMARK.json").read_text())

#: A per-layer metric that must be non-zero where its layer does the work.
BUSY_LAYER = {
    "serve_hot": "serve.server.handle_ms",
    "serve_churn": "dedup.decode_plane_ms",
    "lifecycle": "hub.httpd.fetch_ms_per_file",
    "solver_scale": "core.archival.pas_mt_s",
}


def _units(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_spec_matches_catalogues():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for entries, table in ((SPEC["end_to_end"], catalogue.GATED),
                           (SPEC["per_layer"], layers.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in entries} == table
    assert SPEC["paths"] == ["benchmarks/perf"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_and_failed_count(workload):
    result = run.run_workload(workload, seed=3, seconds=1, trace=False,
                              scale=run.SMOKE, corrupt=True)
    metrics = run.reported_metrics(result)
    assert _units(SPEC["end_to_end"]) == {
        name: row["unit"] for name, row in metrics.items()
    }
    assert all(row["value"] > 0 for row in metrics.values()), metrics
    named = {
        name for name, (_u, _b, _bound, where) in catalogue.NAMED.items()
        if workload in where
    }
    assert set(result["named"]) == named | {"setup_s"}
    for name in named:
        assert result["named"][name]["unit"] == catalogue.NAMED[name][0]
    # The planted wrong expectation, and nothing else, failed.
    assert result["failed"] == 1
    assert result["attempted"] > 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics(workload):
    result = run.run_workload(workload, seed=3, seconds=1, trace=True,
                              scale=run.SMOKE)
    metrics = run.reported_metrics(result)
    assert _units(SPEC["per_layer"]) == {
        name: row["unit"] for name, row in metrics.items()
    }
    assert result["failed"] == 0
    assert metrics[BUSY_LAYER[workload]]["value"] > 0
    if workload == "solver_scale":
        assert all(
            metrics[name]["value"] == 0
            for name in metrics if name.startswith(("serve.", "hub."))
        )
    # The shim is gone again: later runs in this process are untraced.
    from repro.dlv import cli

    assert not hasattr(cli.main, "__wrapped__")
