"""Differential oracle: the array-backed solvers against naive references.

``reference_refine`` is the PAS swap greedy (Eq. 1 / Eq. 2) written
directly on :class:`StoragePlan`, recomputing every cost, subtree and
broken snapshot from scratch each iteration; ``reference_spt_tightening``
is the SPT tightening loop probing each swap with ``plan.satisfies``.
Patched in for the shared refinement core and the tightening solver, they
give the reference plan of every solver, and the real solvers must pick
the very same ``StorageEdge`` object as each matrix's parent.
"""

import math
from unittest.mock import patch

from hypothesis import given, settings

from repro.core import archival
from repro.core.archival import alpha_constraints, shortest_path_tree
from repro.core.storage_graph import ROOT, RetrievalScheme
from repro.lifecycle.synthetic_graph import synthetic_storage_graph
from tests.core.test_archival_properties import graph_params, make_graph

ALPHAS = (1.0, 1.3, 1.6, 3.0)


def reference_refine(graph, plan, constraints, scheme):
    """Max-marginal-gain swaps, every quantity recomputed per iteration."""
    snapshot_of = {
        m: s for s, members in graph.snapshots.items() for m in members
    }
    scale = max(constraints.values(), default=1.0)
    min_decrease = max(1e-9 * scale, 1e-15)
    for _ in range(4 * len(graph.edges)):
        costs = plan.all_snapshot_costs(scheme)
        broken = {
            s for s, theta in constraints.items() if costs[s] > theta + 1e-9
        }
        if not broken:
            break
        matrix_costs = {ROOT: 0.0, **plan.recreation_costs()}
        best = None
        for matrix_id, current in plan.parent_edge.items():
            below = plan.subtree(matrix_id)
            hits = [snapshot_of[m] for m in below if snapshot_of[m] in broken]
            if scheme is RetrievalScheme.INDEPENDENT:
                weight = len(hits)
            else:
                weight = len(set(hits))
            if weight == 0:
                continue
            for edge in graph.incident_edges(matrix_id):
                new_parent = edge.other(matrix_id)
                if edge is current or new_parent in below:
                    continue
                decrease = (
                    matrix_costs[matrix_id]
                    - matrix_costs[new_parent]
                    - edge.recreation_cost
                )
                if decrease <= min_decrease:
                    continue
                increase = edge.storage_cost - current.storage_cost
                gain = (
                    math.inf if increase <= 0 else decrease * weight / increase
                )
                if best is None or gain > best[0]:
                    best = (gain, matrix_id, edge)
        if best is None:
            break
        plan.swap(best[1], best[2])
    plan.validate()
    return plan


def reference_spt_tightening(graph, constraints, scheme):
    """Largest storage saving first, each probe checked by ``satisfies``."""
    plan = shortest_path_tree(graph)
    rejected = set()
    while True:
        candidates = []
        for matrix_id, current in plan.parent_edge.items():
            below = plan.subtree(matrix_id)
            for edge in graph.incident_edges(matrix_id):
                saving = current.storage_cost - edge.storage_cost
                if (
                    edge is current
                    or (matrix_id, id(edge)) in rejected
                    or saving <= 0
                    or edge.other(matrix_id) in below
                ):
                    continue
                candidates.append((saving, matrix_id, edge))
        candidates.sort(key=lambda c: -c[0])
        for _, matrix_id, edge in candidates:
            previous = plan.parent_edge[matrix_id]
            plan.swap(matrix_id, edge)
            if plan.satisfies(constraints, scheme):
                break
            plan.parent_edge[matrix_id] = previous
            rejected.add((matrix_id, id(edge)))
        else:
            break
    plan.validate()
    return plan


def solver_plans(graph, constraints, scheme):
    return [
        archival.pas_mt(graph, constraints, scheme),
        archival.pas_pt(graph, constraints, scheme),
        archival.spt_tightening(graph, constraints, scheme),
        archival.solve(graph, constraints, scheme, "best"),
    ]


def assert_reference_plans(graph, constraints, scheme):
    plans = solver_plans(graph, constraints, scheme)
    with patch.object(archival, "_refine", reference_refine), patch.object(
        archival, "spt_tightening", reference_spt_tightening
    ):
        expected = solver_plans(graph, constraints, scheme)
    for name, plan, reference in zip(
        ("pas_mt", "pas_pt", "spt_tightening", "solve"), plans, expected
    ):
        assert list(plan.parent_edge) == list(reference.parent_edge), name
        for matrix_id, edge in reference.parent_edge.items():
            assert plan.parent_edge[matrix_id] is edge, (name, matrix_id)


@settings(max_examples=25, deadline=None)
@given(graph_params)
def test_solvers_match_reference(params):
    graph = make_graph(params)
    for scheme in RetrievalScheme:
        for alpha in ALPHAS:
            constraints = alpha_constraints(graph, alpha, scheme)
            assert_reference_plans(graph, constraints, scheme)


def test_synthetic_graph_matches_reference():
    graph = synthetic_storage_graph(4, 4, 4, delta_ratio=0.35, seed=31)
    for scheme in RetrievalScheme:
        for alpha in ALPHAS:
            constraints = alpha_constraints(graph, alpha, scheme)
            assert_reference_plans(graph, constraints, scheme)
        # Below the SPT bound no plan is feasible: every solver runs out of
        # helpful swaps and PAS-PT must place vertices by its fallback.
        tight = {s: 0.8 * v for s, v in alpha_constraints(graph, 1.0).items()}
        assert_reference_plans(graph, tight, scheme)
