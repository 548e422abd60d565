"""Solvers for the Optimal Parameter Archival Storage problem (Sec. IV-C).

Problem 1: given a matrix storage graph, per-snapshot recreation budgets
``theta_i``, and a retrieval scheme, find the storage plan minimizing total
storage cost subject to every snapshot's recreation constraint.  The
problem is NP-hard (Theorem 1); the optimum is a spanning tree for the
independent and parallel schemes (Lemma 2).

Implemented solvers:

* :func:`minimum_spanning_tree` — min total storage, ignores constraints
  (the best-compression extreme of the tradeoff);
* :func:`shortest_path_tree` — min recreation cost per matrix (the
  full-materialization-like extreme; with direct materialization edges
  present this usually *is* materialization);
* :func:`last_tree` — the LAST balanced tree of Khuller et al. [21],
  the paper's baseline, which bounds each matrix's path to
  ``(1 + eps) * shortest`` but cannot see group (co-usage) constraints;
* :func:`pas_mt` — the paper's iterative-refinement algorithm: start from
  the MST and repair broken snapshot constraints with maximum-marginal-gain
  edge swaps (Eq. 1 for independent, Eq. 2 for parallel);
* :func:`pas_pt` — the paper's priority-based tree construction: grow the
  tree cheapest-storage-first, admitting an edge only when the affected
  snapshots' (estimated) budgets still hold, then adjust.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Optional

import numpy as np

from repro.obs.metrics import counter, histogram
from repro.obs.tracing import trace_span

from repro.core.storage_graph import (
    ROOT,
    MatrixStorageGraph,
    RetrievalScheme,
    StorageEdge,
    StoragePlan,
)


def minimum_spanning_tree(graph: MatrixStorageGraph) -> StoragePlan:
    """Prim's MST over storage cost, rooted at ``v0``."""
    graph.validate_connected()
    plan = StoragePlan(graph)
    in_tree = {ROOT}
    heap: list[tuple[float, int, str, StorageEdge]] = []
    counter = 0

    def push_edges(vertex: str) -> None:
        nonlocal counter
        for edge in graph.incident_edges(vertex):
            other = edge.other(vertex)
            if other not in in_tree:
                heapq.heappush(heap, (edge.storage_cost, counter, other, edge))
                counter += 1

    push_edges(ROOT)
    while heap and len(in_tree) <= graph.num_matrices():
        _, _, vertex, edge = heapq.heappop(heap)
        if vertex in in_tree:
            continue
        in_tree.add(vertex)
        plan.parent_edge[vertex] = edge
        push_edges(vertex)
    plan.validate()
    return plan


def shortest_path_distances(
    graph: MatrixStorageGraph,
) -> tuple[dict[str, float], dict[str, StorageEdge]]:
    """Dijkstra from ``v0`` over recreation cost.

    Returns `(distance, best_parent_edge)` maps.
    """
    dist: dict[str, float] = {ROOT: 0.0}
    parent: dict[str, StorageEdge] = {}
    heap: list[tuple[float, int, str]] = [(0.0, 0, ROOT)]
    counter = 1
    settled: set[str] = set()
    while heap:
        d, _, vertex = heapq.heappop(heap)
        if vertex in settled:
            continue
        settled.add(vertex)
        for edge in graph.incident_edges(vertex):
            other = edge.other(vertex)
            nd = d + edge.recreation_cost
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                parent[other] = edge
                heapq.heappush(heap, (nd, counter, other))
                counter += 1
    return dist, parent


def shortest_path_tree(graph: MatrixStorageGraph) -> StoragePlan:
    """Dijkstra shortest-path tree over recreation cost, rooted at ``v0``."""
    graph.validate_connected()
    _, parent = shortest_path_distances(graph)
    plan = StoragePlan(graph, dict(parent))
    plan.validate()
    return plan


def last_tree(graph: MatrixStorageGraph, eps: float = 0.5) -> StoragePlan:
    """The LAST balanced spanning tree of Khuller, Raghavachari & Young.

    Starts from the MST, walks it depth-first, and whenever a vertex's
    in-tree root path exceeds ``(1 + eps)`` times its shortest-path
    distance, reparents the vertex onto its shortest-path parent.  The
    result satisfies ``Cr(T, v) <= (1 + eps) * d_spt(v)`` per matrix while
    keeping total storage within ``1 + 2/eps`` of the MST — but it knows
    nothing about snapshot co-usage constraints, which is why the paper's
    algorithms beat it on Problem 1 instances (Fig. 6(c)).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    mst = minimum_spanning_tree(graph)
    spt_dist, spt_parent = shortest_path_distances(graph)
    plan = mst.copy()

    # DFS over the MST from the root, tracking the current in-plan distance.
    children = mst.children_map()

    dist_in_plan: dict[str, float] = {ROOT: 0.0}
    stack = [(ROOT, iter(children.get(ROOT, [])))]
    while stack:
        vertex, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            continue
        edge = mst.parent_edge[child]
        candidate = dist_in_plan[vertex] + edge.recreation_cost
        if candidate > (1.0 + eps) * spt_dist[child]:
            plan.parent_edge[child] = spt_parent[child]
            dist_in_plan[child] = spt_dist[child]
        else:
            dist_in_plan[child] = candidate
        stack.append((child, iter(children.get(child, []))))
    plan.validate()
    return plan


def alpha_constraints(
    graph: MatrixStorageGraph,
    alpha: float,
    scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT,
) -> dict[str, float]:
    """Per-snapshot budgets ``theta_i = alpha * Cr(SPT, s_i)`` (Sec. V-B).

    The SPT cost is the cheapest possible recreation, so ``alpha >= 1``
    scales how much recreation slack the optimizer may spend on storage
    savings.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    spt = shortest_path_tree(graph)
    return {
        snapshot_id: alpha * cost
        for snapshot_id, cost in spt.all_snapshot_costs(scheme).items()
    }


def frequency_constraints(
    graph: MatrixStorageGraph,
    latest_alpha: float = 1.2,
    checkpoint_alpha: float = 4.0,
    scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT,
) -> dict[str, float]:
    """Access-frequency-aware budgets (Sec. IV-A).

    Snapshot access is unbalanced: the latest snapshot of each version
    serves most queries, while intermediate checkpoints are touched only
    for debugging and comparisons.  This helper gives each version's
    highest-indexed snapshot a tight budget (``latest_alpha``) and every
    earlier checkpoint a loose one (``checkpoint_alpha``), letting the
    optimizer delta-compress cold snapshots aggressively while keeping hot
    ones fast.

    Snapshot ids must follow the repository convention ``v<X>/s<IDX>``;
    ids that do not parse are treated as latest (tight budget).
    """
    if latest_alpha < 1.0 or checkpoint_alpha < 1.0:
        raise ValueError("alphas must be >= 1")
    spt_costs = shortest_path_tree(graph).all_snapshot_costs(scheme)
    latest_index: dict[str, int] = {}
    parsed: dict[str, tuple[str, int]] = {}
    for snapshot_id in graph.snapshots:
        prefix, _, index_text = snapshot_id.rpartition("/s")
        try:
            index = int(index_text)
        except ValueError:
            continue
        parsed[snapshot_id] = (prefix, index)
        latest_index[prefix] = max(latest_index.get(prefix, -1), index)
    constraints = {}
    for snapshot_id, cost in spt_costs.items():
        if snapshot_id in parsed:
            prefix, index = parsed[snapshot_id]
            is_latest = index == latest_index[prefix]
        else:
            is_latest = True
        alpha = latest_alpha if is_latest else checkpoint_alpha
        constraints[snapshot_id] = alpha * cost
    return constraints


class _PlanTree:
    """A complete plan as arrays: the one tree every swap loop works on.

    Vertex ``0`` is ``v0``, matrices follow in plan order.  ``order`` is a
    preorder, ``pos`` its inverse: ``v`` is under ``u`` iff ``pos[u] <=
    pos[v] < pos[u] + size[u]``.  Root-path costs (``path``, numpy copy
    ``cost``) and over-budget flags (``broken``, plus an unused slot for
    ``v0``) use :class:`StoragePlan`'s arithmetic, so they match
    ``recreation_costs()`` and ``satisfies()`` to the bit.  The candidate
    table ``child``/``new_parent``/``edge`` lists each matrix's incident
    edges in graph order: the scan order ties break in.  An edge is
    numbered by its first index, so equal numbers mean the same object.
    """

    def __init__(self, graph: MatrixStorageGraph, plan: StoragePlan,
                 constraints: dict[str, float], scheme: RetrievalScheme):
        self.plan, self.scheme, self.edges = plan, scheme, graph.edges
        first = {id(e): i for i, e in reversed(list(enumerate(self.edges)))}
        self.cs = np.array([e.storage_cost for e in self.edges], dtype=float)
        self.cr = [e.recreation_cost for e in self.edges]
        self.names = [ROOT, *plan.parent_edge]
        index = {name: i for i, name in enumerate(self.names)}
        self.parent = [0] * len(self.names)
        self.pe = np.full(len(self.names), -1)
        rows = []
        for v, name in enumerate(self.names[1:], 1):
            current = plan.parent_edge[name]
            self.parent[v] = index[current.other(name)]
            self.pe[v] = first[id(current)]
            rows += [(v, index[e.other(name)], first[id(e)])
                     for e in graph.incident_edges(name)]
        table = np.array(rows, dtype=int).reshape(-1, 3).T
        self.child, self.new_parent, self.edge = table
        self.row_cs = self.cs[self.edge]
        self.row_cr = np.array(self.cr, dtype=float)[self.edge]
        groups = graph.snapshots
        self.members = [np.array([index[m] for m in g], dtype=int)
                        for g in groups.values()]
        self.snap_of = np.full(len(self.names), len(groups))
        for s, members in enumerate(self.members):
            self.snap_of[members] = s
        theta = [constraints.get(s, math.inf) for s in groups]
        self.limit = np.array(theta, dtype=float) + 1e-9
        self.broken = np.zeros(len(groups) + 1, dtype=bool)

        kids: list[list[int]] = [[] for _ in self.names]
        for v in range(1, len(self.names)):
            kids[self.parent[v]].append(v)
        order, stack = [], [0]
        while stack:
            order.append(stack.pop())
            stack.extend(kids[order[-1]])
        self.order = np.array(order)
        self.slots = np.arange(len(order))
        self.pos = np.empty_like(self.order)
        self.pos[self.order] = self.slots
        self.size = np.ones(len(order), dtype=int)
        for v in reversed(order[1:]):
            self.size[self.parent[v]] += self.size[v]
        self.path: list[float] = [0.0] * len(order)
        self.cost = np.zeros(len(order))
        self._settle(self.order[1:])

    def _settle(self, block: np.ndarray) -> None:
        """Recompute root-path costs top-down over ``block`` (a run of the
        preorder) and the status of every snapshot with a member in it."""
        path, parent, cr = self.path, self.parent, self.cr
        vertices = block.tolist()
        for v, e in zip(vertices, self.pe[block].tolist()):
            path[v] = path[parent[v]] + cr[e]
        self.cost[block] = [path[v] for v in vertices]
        for s in set(self.snap_of[block].tolist()):
            self.broken[s] = self._snapshot_cost(s) > self.limit[s]

    def _snapshot_cost(self, s: int) -> float:
        """``Cr`` of snapshot ``s``, summed as ``StoragePlan`` sums it."""
        members = self.members[s].tolist()
        if self.scheme is RetrievalScheme.REUSABLE:
            seen: set[int] = set()
            total = 0.0
            for v in members:
                while v and v not in seen:
                    seen.add(v)
                    total += self.cr[self.pe[v]]
                    v = self.parent[v]
            return total
        costs = [self.path[v] for v in members]
        if self.scheme is RetrievalScheme.INDEPENDENT:
            return sum(costs)
        return max(costs)

    def inside(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Is ``v`` in the subtree of ``u`` (elementwise)?"""
        return (self.pos[u] <= self.pos[v]) & (
            self.pos[v] < self.pos[u] + self.size[u]
        )

    def weights(self) -> np.ndarray:
        """Per vertex, the broken snapshots its subtree touches: counted
        per member for the independent scheme (Eq. 1), per distinct
        snapshot otherwise (Eq. 2) -- prefix sums over the preorder."""
        at = self.snap_of[self.order]
        lo, hi = self.pos, self.pos + self.size
        if self.scheme is RetrievalScheme.INDEPENDENT:
            run = np.concatenate(([0], np.cumsum(self.broken[at])))
            return run[hi] - run[lo]
        ids = np.flatnonzero(self.broken)
        run = np.zeros((len(ids), len(at) + 1), dtype=int)
        np.cumsum(at == ids[:, None], axis=1, out=run[:, 1:])
        return (run[:, hi] > run[:, lo]).sum(axis=0)

    def move(self, c: int, p: int, e: int) -> None:
        """Reparent ``c`` under ``p`` through edge ``e``: its preorder block
        moves behind ``p`` and only that block is re-settled."""
        n, start = int(self.size[c]), int(self.pos[c])
        for v, delta in ((self.parent[c], -n), (p, n)):
            while v:
                self.size[v] += delta
                v = self.parent[v]
        block = self.order[start:start + n]
        rest = np.concatenate((self.order[:start], self.order[start + n:]))
        at = int(self.pos[p]) + 1 - (n if self.pos[p] > start else 0)
        self.order = np.concatenate((rest[:at], block, rest[at:]))
        self.pos[self.order] = self.slots
        self.parent[c], self.pe[c] = p, e
        self._settle(block)

    def write(self) -> StoragePlan:
        """Store the tree's parent edges back into the plan and check it."""
        for name, e in zip(self.names[1:], self.pe[1:].tolist()):
            self.plan.parent_edge[name] = self.edges[e]
        self.plan.validate()
        return self.plan


def _refine(
    graph: MatrixStorageGraph,
    plan: StoragePlan,
    constraints: dict[str, float],
    scheme: RetrievalScheme,
) -> StoragePlan:
    """Greedy maximum-marginal-gain edge swapping until constraints hold.

    Implements the paper's Eq. 1 (independent) / Eq. 2 (parallel) swap
    selection: a swap lowers a matrix's root path by ``decrease`` for the
    ``weight`` broken snapshots below it, at a storage increase; the
    largest ratio wins, the first in table order on ties.  Each iteration
    scores the whole candidate table in a few array operations and applies
    one swap incrementally.
    """
    tree = _PlanTree(graph, plan, constraints, scheme)
    child, parent, edge = tree.child, tree.new_parent, tree.edge
    # Minimum meaningful recreation decrease: parallel equal-cost edges and
    # float rounding otherwise produce infinite-gain no-op swaps that thrash.
    scale = max(constraints.values(), default=1.0)
    min_decrease = max(1e-9 * scale, 1e-15)
    for _ in range(4 * len(tree.edges)):
        if not tree.broken.any():
            break
        weight = tree.weights()[child]
        current = tree.pe[child]
        decrease = tree.cost[child] - tree.cost[parent] - tree.row_cr
        ok = (
            (weight > 0)
            & (edge != current)
            & ~tree.inside(child, parent)
            & (decrease > min_decrease)
        )
        if not ok.any():
            break
        increase = tree.row_cs - tree.cs[current]
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(increase <= 0, np.inf, decrease * weight / increase)
        row = int(np.argmax(np.where(ok, gain, -np.inf)))
        tree.move(child[row], parent[row], edge[row])
    return tree.write()


def pas_mt(
    graph: MatrixStorageGraph,
    constraints: dict[str, float],
    scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT,
) -> StoragePlan:
    """PAS-MT: MST-based iterative refinement (Sec. IV-C).

    Starting from the minimum spanning tree, repeatedly pick the edge swap
    with the largest marginal gain for the unsatisfied snapshot constraints
    (Eq. 1 for the independent scheme, Eq. 2 for parallel) and apply it,
    until all constraints hold or no swap helps.
    """
    return _refine(graph, minimum_spanning_tree(graph), constraints, scheme)


def pas_pt(
    graph: MatrixStorageGraph,
    constraints: dict[str, float],
    scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT,
) -> StoragePlan:
    """PAS-PT: priority-based tree construction (Sec. IV-C).

    Grows the tree from ``v0`` examining edges in increasing storage cost.
    An edge admitting a new vertex is accepted only if the recreation
    budgets of the affected snapshots still hold, estimating not-yet-added
    members by their shortest-path lower bound.  After each admission the
    new vertex may adopt existing vertices as children when that lowers
    their storage without raising recreation.  Leftover vertices are
    materialized and the tree adjusted with Eq. 1 swaps.
    """
    graph.validate_connected()
    snapshots = graph.snapshots
    snapshot_of = {
        m: s for s, members in snapshots.items() for m in members
    }
    spt_dist, spt_parent = shortest_path_distances(graph)

    plan = StoragePlan(graph)
    in_tree = {ROOT}
    cost_in_tree: dict[str, float] = {ROOT: 0.0}
    children: dict[str, list[str]] = defaultdict(list)

    heap: list[tuple[float, int, StorageEdge, str]] = []
    counter = 0

    def push(vertex: str) -> None:
        nonlocal counter
        for edge in graph.incident_edges(vertex):
            other = edge.other(vertex)
            if other not in in_tree:
                heapq.heappush(
                    heap, (edge.storage_cost, counter, edge, other)
                )
                counter += 1

    def group_feasible(candidate: str, candidate_cost: float) -> bool:
        """Check the affected snapshot's budget with lower-bound estimates."""
        snapshot_id = snapshot_of.get(candidate)
        if snapshot_id is None or snapshot_id not in constraints:
            return True
        members = snapshots[snapshot_id]
        costs = []
        for member in members:
            if member == candidate:
                costs.append(candidate_cost)
            elif member in in_tree:
                costs.append(cost_in_tree[member])
            else:
                costs.append(spt_dist[member])
        total = (
            sum(costs)
            if scheme is RetrievalScheme.INDEPENDENT
            else max(costs)
        )
        return total <= constraints[snapshot_id] + 1e-9

    push(ROOT)
    while heap:
        _, _, edge, vertex = heapq.heappop(heap)
        if vertex in in_tree:
            continue
        anchor = edge.other(vertex)
        if anchor not in in_tree:
            continue
        candidate_cost = cost_in_tree[anchor] + edge.recreation_cost
        if not group_feasible(vertex, candidate_cost):
            continue
        in_tree.add(vertex)
        cost_in_tree[vertex] = candidate_cost
        plan.parent_edge[vertex] = edge
        children[anchor].append(vertex)
        push(vertex)
        # Let existing vertices adopt the newcomer as parent when it's a
        # strictly better storage deal without a recreation regression.
        for inner in graph.incident_edges(vertex):
            other = inner.other(vertex)
            if other == ROOT or other not in in_tree:
                continue
            current = plan.parent_edge[other]
            new_cost = cost_in_tree[vertex] + inner.recreation_cost
            if (
                inner.storage_cost < current.storage_cost
                and new_cost <= cost_in_tree[other] + 1e-12
                and not plan.in_subtree(vertex, other)
            ):
                children[current.other(other)].remove(other)
                children[vertex].append(other)
                plan.swap(other, inner)
                cost_in_tree[other] = new_cost
                # Root-path costs below the adopted vertex follow it.
                frontier = [other]
                while frontier:
                    above = frontier.pop()
                    for below in children[above]:
                        cost_in_tree[below] = (
                            cost_in_tree[above]
                            + plan.parent_edge[below].recreation_cost
                        )
                        frontier.append(below)

    # Fallback: attach leftovers via their shortest-path parents, or
    # materialize them when that parent is missing too; repeat while a
    # full pass places something.
    remaining = set(graph.matrices) - in_tree
    while remaining:
        for vertex in sorted(remaining, key=lambda v: spt_dist[v]):
            edge = spt_parent[vertex]
            if edge.other(vertex) not in in_tree:
                edge = min(
                    (
                        e
                        for e in graph.incident_edges(vertex)
                        if e.other(vertex) == ROOT
                    ),
                    key=lambda e: e.storage_cost,
                    default=edge,
                )
                if edge.other(vertex) not in in_tree:
                    continue
            plan.parent_edge[vertex] = edge
            in_tree.add(vertex)
        left = set(graph.matrices) - in_tree
        if left == remaining:
            raise RuntimeError("PAS-PT could not complete a spanning tree")
        remaining = left

    plan.validate()
    return _refine(graph, plan, constraints, scheme)


def spt_tightening(
    graph: MatrixStorageGraph,
    constraints: dict[str, float],
    scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT,
) -> StoragePlan:
    """Feasible-by-construction solver: start from the SPT and tighten.

    The SPT satisfies any ``alpha >= 1`` budget (its per-snapshot cost is
    the lower bound), so starting there and greedily applying the largest
    storage-saving swaps *that keep every constraint satisfied* yields a
    plan that is always feasible when one exists.  It trades solution
    quality for that guarantee; ``solve("best")`` uses it as the fallback
    when both PAS heuristics miss a budget.

    A probe swaps on the shared tree and swaps back when a budget breaks;
    a rejected (matrix, edge) pair is never probed again.
    """
    tree = _PlanTree(graph, shortest_path_tree(graph), constraints, scheme)
    child, parent, edge = tree.child, tree.new_parent, tree.edge
    rejected = np.zeros(len(child), dtype=bool)
    while True:
        current = tree.pe[child]
        saving = tree.cs[current] - tree.row_cs
        ok = (
            (edge != current)
            & ~rejected
            & (saving > 0)
            & ~tree.inside(child, parent)
        )
        rows = np.flatnonzero(ok)
        for row in rows[np.argsort(-saving[rows], kind="stable")].tolist():
            c = int(child[row])
            back = (tree.parent[c], int(tree.pe[c]))
            tree.move(c, int(parent[row]), int(edge[row]))
            if not tree.broken.any():
                break
            tree.move(c, *back)
            rejected |= (child == c) & (edge == edge[row])
        else:
            break
    return tree.write()


def solve(
    graph: MatrixStorageGraph,
    constraints: Optional[dict[str, float]] = None,
    scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT,
    algorithm: str = "best",
) -> StoragePlan:
    """High-level entry point used by ``dlv archive``.

    ``algorithm`` is one of ``mst``, ``spt``, ``last``, ``pas-mt``,
    ``pas-pt``, or ``best`` — the paper's recommendation of running both
    PAS algorithms and keeping whichever satisfies the constraints with
    less storage.

    Every solver run is timed into the ``archival.solve`` span and the
    ``archival.solve_seconds`` histogram, attributed per algorithm, so
    ``dlv stats`` shows where plan-search time goes.
    """

    def timed(name: str, solver, *args) -> StoragePlan:
        with trace_span(
            "archival.solve",
            algorithm=name,
            matrices=graph.num_matrices(),
        ) as span:
            plan = solver(graph, *args)
        counter("archival.solves").inc()
        counter(f"archival.solves.{name}").inc()
        histogram("archival.solve_seconds").observe(span.elapsed)
        return plan

    if constraints is None or algorithm == "mst":
        return timed("mst", minimum_spanning_tree)
    if algorithm == "spt":
        return timed("spt", shortest_path_tree)
    if algorithm == "last":
        return timed("last", last_tree)
    if algorithm == "pas-mt":
        return timed("pas-mt", pas_mt, constraints, scheme)
    if algorithm == "pas-pt":
        return timed("pas-pt", pas_pt, constraints, scheme)
    if algorithm == "spt-tighten":
        return timed("spt-tighten", spt_tightening, constraints, scheme)
    if algorithm != "best":
        raise KeyError(f"unknown archival algorithm {algorithm!r}")
    candidates = [
        timed("pas-mt", pas_mt, constraints, scheme),
        timed("pas-pt", pas_pt, constraints, scheme),
    ]
    feasible = [p for p in candidates if p.satisfies(constraints, scheme)]
    if not feasible:
        # Feasible-by-construction fallback (always succeeds for budgets
        # at or above the SPT lower bound).
        feasible = [timed("spt-tighten", spt_tightening, constraints, scheme)]
    return min(feasible, key=lambda p: p.storage_cost())
