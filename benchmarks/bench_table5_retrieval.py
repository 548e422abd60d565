"""Table V: snapshot recreation performance of different storage plans.

The paper compares the average recreation time of a snapshot under three
plans — full materialization (SPT), minimum storage (MST), and a PAS plan
at alpha = 1.6 — for full retrieval and for partial (2-byte / 1-byte)
queries, under the independent and parallel schemes.  Here a snapshot is
read by the one executor (``recreate_snapshot``: one shared-prefix read
plan), timed per plan and query.  The independent / parallel comparison
lives where the paper's Table III puts it, in the recreation cost model
the solver prices plans with: each row prints the plan's
``snapshot_recreation_cost`` under both schemes.  Expected shape:

* materialization retrieves fastest at the largest footprint;
* min-storage (delta chains) is the slowest full retrieval;
* the PAS plan sits between the two;
* partial retrieval reads several times fewer bytes than full, and the
  model prices parallel recreation at most at independent.
"""

import numpy as np
import pytest

from repro.core.archival import (
    alpha_constraints,
    minimum_spanning_tree,
    shortest_path_tree,
    solve,
)
from repro.core.retrieval import PlanArchive
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import RetrievalScheme


@pytest.fixture(scope="module")
def archives(sd_repo):
    """The SD repository archived under the three Table V plans."""
    graph, matrices = sd_repo.build_storage_graph()
    constraints = alpha_constraints(graph, 1.6)
    plans = {
        "Materialization": shortest_path_tree(graph),
        "Min Storage": minimum_spanning_tree(graph),
        "PAS (a=1.6)": solve(graph, constraints, algorithm="best"),
    }
    built = {}
    for name, plan in plans.items():
        store = MemoryBackend(name, create=True).chunks
        built[name] = PlanArchive.build(store, matrices, plan)
    # Use the last version's latest snapshot as the query target.
    snapshot_key = sorted(graph.snapshots)[-1]
    return built, plans, snapshot_key


QUERIES = [("Full", 4), ("2 bytes", 2), ("1 byte", 1)]


def recreate_time(archive, snapshot_key, planes, repeats=3):
    times = []
    for _ in range(repeats):
        result = archive.recreate_snapshot(snapshot_key, planes=planes)
        times.append(result.seconds)
    return float(np.median(times)), result.bytes_read


def test_table5(archives, reporter):
    built, plans, snapshot_key = archives
    reporter.line("Table V: snapshot recreation time by plan and query")
    reporter.line(
        "(model Cr: the plan's Table III recreation cost, MB of payload "
        "applied, under the independent / parallel schemes)"
    )
    reporter.line(
        f"{'plan':>16} | {'query':>8} | {'time (ms)':>9} | "
        f"{'KB read':>8} | {'stored KB':>9} | {'Cr indep':>8} | "
        f"{'Cr parallel':>11}"
    )
    reporter.line("-" * 87)
    rows = {}
    for name, archive in built.items():
        model = {
            scheme: plans[name].snapshot_recreation_cost(snapshot_key, scheme)
            for scheme in (RetrievalScheme.INDEPENDENT, RetrievalScheme.PARALLEL)
        }
        for query, planes in QUERIES:
            seconds, bytes_read = recreate_time(archive, snapshot_key, planes)
            rows[(name, query)] = (seconds, bytes_read)
            reporter.line(
                f"{name:>16} | {query:>8} | {seconds * 1e3:9.2f} | "
                f"{bytes_read / 1024:8.1f} | "
                f"{archive.total_size() / 1024:9.1f} | "
                f"{model[RetrievalScheme.INDEPENDENT]:8.3f} | "
                f"{model[RetrievalScheme.PARALLEL]:11.3f}"
            )
        assert (
            model[RetrievalScheme.PARALLEL]
            <= model[RetrievalScheme.INDEPENDENT]
        )

    # Shape assertions mirroring Table V.
    sizes = {name: a.total_size() for name, a in built.items()}
    assert sizes["Min Storage"] <= sizes["PAS (a=1.6)"] + 1
    assert sizes["PAS (a=1.6)"] <= sizes["Materialization"] + 1
    for name in built:
        full = rows[(name, "Full")]
        one_byte = rows[(name, "1 byte")]
        assert one_byte[1] < full[1]  # partial reads fewer bytes
    # Full retrieval from delta chains reads at least as much as from
    # materialized storage.
    assert (
        rows[("Min Storage", "Full")][1]
        >= rows[("Materialization", "Full")][1] * 0.9
    )


def test_partial_retrieval_correctness(archives, sd_repo):
    """Partial reads approximate the exact weights within segment error."""
    built, _, snapshot_key = archives
    archive = built["PAS (a=1.6)"]
    exact = archive.recreate_snapshot(snapshot_key, planes=4)
    approx = archive.recreate_snapshot(snapshot_key, planes=2)
    for mid in exact.matrices:
        a, b = approx.matrices[mid], exact.matrices[mid]
        scale = max(np.abs(b).max(), 1e-6)
        assert np.abs(a - b).max() <= scale * 0.02


@pytest.mark.parametrize(
    "plan_name", ["Materialization", "Min Storage", "PAS (a=1.6)"]
)
def test_bench_full_recreation(benchmark, archives, plan_name):
    built, _, snapshot_key = archives
    archive = built[plan_name]
    result = benchmark(archive.recreate_snapshot, snapshot_key, 4)
    assert result.matrices
