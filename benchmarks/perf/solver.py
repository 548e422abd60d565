"""``solver_scale``: the archival solver alone, at two graph sizes.

``solve(graph, alpha_constraints(graph, 1.6), INDEPENDENT, "best")`` on
``synthetic_storage_graph``: pure ``core.archival`` /
``core.storage_graph`` — no I/O, no serving.  The only workload the
solver item can claim on, and one every other layer's change must leave
flat.

Solve time depends on the lineage shape far more than on size (+-20%
across generator seeds at 600 matrices), which would bury a 10% change.
So the shape is part of the workload (one fixed generator seed) and
``--seed`` redraws every edge's storage cost within +-2%: different tie
breaks and swap sequences, the same amount of work.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

import harness

#: Generator seed fixing the lineage tree and matrix sizes.
SHAPE_SEED = 7
COST_JITTER = 0.02
ALPHA = 1.6


@dataclass
class Instance:
    graph: object
    constraints: dict
    mst_cost: float


@dataclass
class SolverSetup:
    small: list               # Instances at the small size
    large: list               # Instances at the large size
    setup_s: float


@dataclass
class Solves:
    small_s: list = field(default_factory=list)
    large_s: list = field(default_factory=list)
    cost_ratio: list = field(default_factory=list)   # plan / MST, small size
    attempted: int = 0
    failed: int = 0


def _instance(dims: tuple, rng) -> Instance:
    from repro.core.archival import alpha_constraints, minimum_spanning_tree
    from repro.core.storage_graph import MatrixStorageGraph
    from repro.lifecycle.synthetic_graph import synthetic_storage_graph

    shape = synthetic_storage_graph(*dims, delta_ratio=0.35, seed=SHAPE_SEED)
    graph = MatrixStorageGraph()
    for ref in shape.matrices.values():
        graph.add_matrix(ref)
    for edge in shape.edges:
        jitter = float(rng.uniform(1 - COST_JITTER, 1 + COST_JITTER))
        graph.add_edge(dataclasses.replace(
            edge, storage_cost=edge.storage_cost * jitter
        ))
    return Instance(
        graph,
        alpha_constraints(graph, ALPHA),
        minimum_spanning_tree(graph).storage_cost(),
    )


def setup(seed: int, small_dims: tuple, large_dims: tuple,
          small_count: int, large_count: int) -> SolverSetup:
    start = time.perf_counter()
    rng = np.random.default_rng([seed, 41])
    small = [_instance(small_dims, rng) for _ in range(small_count)]
    large = [_instance(large_dims, rng) for _ in range(large_count)]
    return SolverSetup(small, large, time.perf_counter() - start)


def solve_one(solves: Solves, instance: Instance, large: bool,
              tracer=None, corrupt: bool = False) -> None:
    from repro.core import archival
    from repro.core.storage_graph import RetrievalScheme

    scheme = RetrievalScheme.INDEPENDENT
    start = time.perf_counter()
    if tracer is not None:
        with tracer.op("solve_large" if large else "solve"):
            plan = archival.solve(instance.graph, instance.constraints,
                                  scheme, "best")
    else:
        plan = archival.solve(instance.graph, instance.constraints,
                              scheme, "best")
    elapsed = time.perf_counter() - start
    budgets = instance.constraints
    if corrupt:
        # An impossible budget: the check below must report a failure.
        budgets = {snapshot: 0.0 for snapshot in budgets}
    solves.attempted += 1
    if not plan.satisfies(budgets, scheme):
        solves.failed += 1
    if large:
        solves.large_s.append(elapsed)
    else:
        solves.small_s.append(elapsed)
        solves.cost_ratio.append(plan.storage_cost() / instance.mst_cost)


def run(setup_: SolverSetup, seconds: float, tracer=None,
        include_large: bool = True, corrupt: bool = False) -> Solves:
    """Every large instance once, ahead of the window; then small
    instances round-robin until ``seconds`` have passed (each at least
    once)."""
    solves = Solves()
    for instance in setup_.large if include_large else ():
        solve_one(solves, instance, True, tracer)
    begin = time.perf_counter()
    index = 0
    while index < len(setup_.small) or time.perf_counter() - begin < seconds:
        solve_one(solves, setup_.small[index % len(setup_.small)], False,
                  tracer, corrupt and index == 0)
        index += 1
    # A repeat solves the same instance to the same plan: one ratio per
    # instance keeps the median exact however many solves the window fits.
    del solves.cost_ratio[len(setup_.small):]
    return solves


def quiet_rate(solves: Solves) -> float:
    """Small-instance solves per second over the fastest quarter of the
    window's solves.

    The solver is single-threaded CPU work on instances of equal size,
    so on a shared host every disturbance makes a solve slower, never
    faster: the fastest quarter is the part of the window the host left
    alone, and its rate repeats from run to run where the mean over all
    solves follows the host."""
    quiet = harness.fastest_quarter(solves.small_s)
    return len(quiet) / sum(quiet)


def scaling_exponent(solves: Solves, small_n: int, large_n: int) -> float:
    """Log-log slope of solve time between the two sizes."""
    if not solves.small_s or not solves.large_s:
        return 0.0
    return math.log(
        harness.median(solves.large_s) / harness.median(solves.small_s)
    ) / math.log(
        large_n / small_n
    )
