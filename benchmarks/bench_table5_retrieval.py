"""Table V: snapshot recreation performance of different storage plans.

The paper compares the average recreation time of a snapshot under three
plans — full materialization (SPT), minimum storage (MST), and a PAS plan
at alpha = 1.6 — for full retrieval and for partial (2-byte / 1-byte)
queries, under the independent and parallel schemes.  Expected shape:

* materialization retrieves fastest at the largest footprint;
* min-storage (delta chains) is the slowest full retrieval;
* the PAS plan sits between the two;
* partial retrieval is several times faster than full, and parallel
  beats independent.
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
    return built, snapshot_key


QUERIES = [("Full", 4), ("2 bytes", 2), ("1 byte", 1)]


def recreate_time(archive, snapshot_key, scheme, planes, repeats=3):
    times = []
    for _ in range(repeats):
        result = archive.recreate_snapshot(
            snapshot_key, scheme, planes=planes
        )
        times.append(result.seconds)
    return float(np.median(times)), result.bytes_read


def test_table5(archives, reporter):
    built, snapshot_key = archives
    reporter.line("Table V: snapshot recreation time by plan and query")
    reporter.line(
        f"{'plan':>16} | {'query':>8} | {'indep (ms)':>10} | "
        f"{'parallel (ms)':>13} | {'KB read':>8} | {'stored KB':>9}"
    )
    reporter.line("-" * 78)
    rows = {}
    for name, archive in built.items():
        for query, planes in QUERIES:
            t_ind, bytes_read = recreate_time(
                archive, snapshot_key, RetrievalScheme.INDEPENDENT, planes
            )
            t_par, _ = recreate_time(
                archive, snapshot_key, RetrievalScheme.PARALLEL, planes
            )
            rows[(name, query)] = (t_ind, t_par, bytes_read)
            reporter.line(
                f"{name:>16} | {query:>8} | {t_ind * 1e3:10.2f} | "
                f"{t_par * 1e3:13.2f} | {bytes_read / 1024:8.1f} | "
                f"{archive.total_size() / 1024:9.1f}"
            )

    # Shape assertions mirroring Table V.
    sizes = {name: a.total_size() for name, a in built.items()}
    assert sizes["Min Storage"] <= sizes["PAS (a=1.6)"] + 1
    assert sizes["PAS (a=1.6)"] <= sizes["Materialization"] + 1
    for name in built:
        full = rows[(name, "Full")]
        one_byte = rows[(name, "1 byte")]
        assert one_byte[2] < full[2]  # partial reads fewer bytes
    # Full retrieval from delta chains reads at least as much as from
    # materialized storage.
    assert (
        rows[("Min Storage", "Full")][2]
        >= rows[("Materialization", "Full")][2] * 0.9
    )


def test_partial_retrieval_correctness(archives, sd_repo):
    """Partial reads approximate the exact weights within segment error."""
    built, snapshot_key = archives
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
    built, snapshot_key = archives
    archive = built[plan_name]
    result = benchmark(
        archive.recreate_snapshot, snapshot_key,
        RetrievalScheme.INDEPENDENT, 4,
    )
    assert result.matrices
