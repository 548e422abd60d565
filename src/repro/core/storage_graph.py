"""The matrix storage graph and storage plans (Sec. IV-C, Defs. 1 and 2).

A repository's parameter matrices form the vertices of the *matrix storage
graph* (together with the empty matrix ``v0``); every way of obtaining a
matrix — materializing it, or recreating it from another matrix via a delta
— is an edge weighted by a storage cost ``cs`` and a recreation cost ``cr``.
Multiple parallel edges between the same pair are allowed (e.g. a
local-SSD delta and a remote-storage delta with different tradeoffs).

A *matrix storage plan* is a connected subgraph; for the independent and
parallel retrieval schemes the optimum is a spanning tree (Lemma 2), so
:class:`StoragePlan` represents a rooted tree (parent pointers towards
``v0``) and knows how to compute:

* total storage cost ``Cs`` — sum of its edges' storage costs;
* per-snapshot recreation cost ``Cr`` under the three retrieval schemes of
  Table III (independent / parallel / reusable).

Snapshots impose the *co-usage constraints*: all matrices of a snapshot are
retrieved together, so the constraint in Problem 1 is per snapshot, not per
matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

ROOT = "v0"


class RetrievalScheme(enum.Enum):
    """How the matrices of a snapshot are recreated (Table III)."""

    INDEPENDENT = "independent"
    PARALLEL = "parallel"
    REUSABLE = "reusable"


@dataclass(frozen=True)
class MatrixRef:
    """A matrix vertex: identity plus the snapshot it belongs to.

    Attributes:
        matrix_id: Unique id within the graph (e.g. ``"v3/s2/conv1.W"``).
        snapshot_id: The co-usage group — all matrices of a snapshot are
            retrieved together.
        nbytes: Uncompressed float32 byte count (useful for reporting).
    """

    matrix_id: str
    snapshot_id: str
    nbytes: int = 0


@dataclass(frozen=True)
class StorageEdge:
    """An undirected storage option between two vertices.

    ``u == ROOT`` edges are materialization options; other edges are deltas.
    ``payload`` carries an opaque reference (e.g. chunk addresses) used by
    the physical archive; the optimizer only reads the costs.
    """

    u: str
    v: str
    storage_cost: float
    recreation_cost: float
    kind: str = "delta"
    payload: Optional[object] = None

    def other(self, vertex: str) -> str:
        """The endpoint opposite ``vertex``."""
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"{vertex!r} is not an endpoint of this edge")

    def touches(self, vertex: str) -> bool:
        return vertex in (self.u, self.v)


class MatrixStorageGraph:
    """The matrix storage graph ``G(V, E, cs, cr)`` of Definition 1."""

    def __init__(self) -> None:
        self._matrices: dict[str, MatrixRef] = {}
        self._edges: list[StorageEdge] = []
        self._adjacency: dict[str, list[int]] = {ROOT: []}
        self._snapshots: dict[str, list[str]] = {}

    # -- construction ------------------------------------------------------

    def add_matrix(self, ref: MatrixRef) -> None:
        """Register a matrix vertex and its snapshot group."""
        if ref.matrix_id == ROOT:
            raise ValueError(f"{ROOT!r} is reserved for the empty matrix")
        if ref.matrix_id in self._matrices:
            raise ValueError(f"duplicate matrix {ref.matrix_id!r}")
        self._matrices[ref.matrix_id] = ref
        self._adjacency[ref.matrix_id] = []
        self._snapshots.setdefault(ref.snapshot_id, []).append(ref.matrix_id)

    def add_edge(self, edge: StorageEdge) -> None:
        """Add a storage option; both endpoints must already exist."""
        for endpoint in (edge.u, edge.v):
            if endpoint != ROOT and endpoint not in self._matrices:
                raise KeyError(f"unknown vertex {endpoint!r}")
        if edge.u == edge.v:
            raise ValueError("self-loop edges are meaningless")
        if edge.storage_cost < 0 or edge.recreation_cost < 0:
            raise ValueError("costs must be non-negative")
        index = len(self._edges)
        self._edges.append(edge)
        self._adjacency[edge.u].append(index)
        self._adjacency[edge.v].append(index)

    def add_materialization(
        self, matrix_id: str, storage_cost: float, recreation_cost: float,
        payload: Optional[object] = None,
    ) -> None:
        """Convenience: add the ``v0 -> matrix`` materialization edge."""
        self.add_edge(
            StorageEdge(ROOT, matrix_id, storage_cost, recreation_cost,
                        kind="materialize", payload=payload)
        )

    # -- access ---------------------------------------------------------------

    @property
    def matrices(self) -> dict[str, MatrixRef]:
        return dict(self._matrices)

    @property
    def snapshots(self) -> dict[str, list[str]]:
        """Snapshot id -> matrix ids (the co-usage groups)."""
        return {k: list(v) for k, v in self._snapshots.items()}

    @property
    def edges(self) -> list[StorageEdge]:
        return list(self._edges)

    def vertices(self) -> list[str]:
        return [ROOT, *self._matrices]

    def incident_edges(self, vertex: str) -> list[StorageEdge]:
        return [self._edges[i] for i in self._adjacency.get(vertex, [])]

    def num_matrices(self) -> int:
        return len(self._matrices)

    def validate_connected(self) -> None:
        """Every matrix must be reachable from ``v0`` (else no plan exists)."""
        seen = {ROOT}
        frontier = [ROOT]
        while frontier:
            vertex = frontier.pop()
            for edge in self.incident_edges(vertex):
                other = edge.other(vertex)
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        missing = set(self._matrices) - seen
        if missing:
            raise ValueError(
                f"{len(missing)} matrices unreachable from {ROOT}: "
                f"{sorted(missing)[:5]}..."
            )


@dataclass
class StoragePlan:
    """A spanning-tree storage plan: each matrix's parent edge towards v0.

    Attributes:
        graph: The graph the plan was computed on.
        parent_edge: ``matrix_id -> StorageEdge`` connecting it to its
            parent (the edge endpoint closer to ``v0``).
    """

    graph: MatrixStorageGraph
    parent_edge: dict[str, StorageEdge] = field(default_factory=dict)

    def copy(self) -> "StoragePlan":
        return StoragePlan(self.graph, dict(self.parent_edge))

    def parent(self, matrix_id: str) -> str:
        """Parent vertex of a matrix in the tree."""
        return self.parent_edge[matrix_id].other(matrix_id)

    def children_map(self) -> dict[str, list[str]]:
        """Vertex -> its children in the tree, built in one pass."""
        result: dict[str, list[str]] = {}
        for matrix_id, edge in self.parent_edge.items():
            result.setdefault(edge.other(matrix_id), []).append(matrix_id)
        return result

    def is_complete(self) -> bool:
        """True when every matrix in the graph has a parent edge."""
        return set(self.parent_edge) == set(self.graph.matrices)

    def validate(self) -> None:
        """Check the plan is a tree rooted at v0 covering all matrices."""
        if not self.is_complete():
            missing = set(self.graph.matrices) - set(self.parent_edge)
            raise ValueError(f"plan misses matrices: {sorted(missing)[:5]}")
        rooted = {ROOT}
        for matrix_id in self.parent_edge:
            seen = set()
            current = matrix_id
            while current not in rooted:
                if current in seen:
                    raise ValueError(f"cycle through {matrix_id!r}")
                seen.add(current)
                current = self.parent(current)
            rooted |= seen

    # -- cost model -------------------------------------------------------------

    def storage_cost(self) -> float:
        """Total storage cost ``Cs``: the sum of the tree edges' cs."""
        return sum(e.storage_cost for e in self.parent_edge.values())

    def path_to_root(self, matrix_id: str) -> list[StorageEdge]:
        """Tree edges from ``matrix_id`` up to ``v0``."""
        path = []
        current = matrix_id
        while current != ROOT:
            edge = self.parent_edge[current]
            path.append(edge)
            current = edge.other(current)
        return path

    def recreation_costs(self) -> dict[str, float]:
        """Root-path recreation cost of every matrix, computed bottom-up."""
        costs: dict[str, float] = {ROOT: 0.0}

        def cost_of(matrix_id: str) -> float:
            # Iterative resolution to respect deep chains.
            stack = [matrix_id]
            while stack:
                current = stack[-1]
                if current in costs:
                    stack.pop()
                    continue
                parent = self.parent(current)
                if parent in costs:
                    costs[current] = (
                        costs[parent]
                        + self.parent_edge[current].recreation_cost
                    )
                    stack.pop()
                else:
                    stack.append(parent)
            return costs[matrix_id]

        for matrix_id in self.parent_edge:
            cost_of(matrix_id)
        costs.pop(ROOT)
        return costs

    def snapshot_recreation_cost(
        self, snapshot_id: str, scheme: RetrievalScheme,
        matrix_costs: Optional[dict[str, float]] = None,
    ) -> float:
        """``Cr`` of one snapshot under a retrieval scheme (Table III)."""
        members = self.graph._snapshots.get(snapshot_id)
        if not members:
            raise KeyError(f"unknown snapshot {snapshot_id!r}")
        if scheme is RetrievalScheme.REUSABLE:
            union: set[tuple[str, str]] = set()
            total = 0.0
            for matrix_id in members:
                for edge in self.path_to_root(matrix_id):
                    key = (edge.u, edge.v)
                    if key not in union:
                        union.add(key)
                        total += edge.recreation_cost
            return total
        costs = matrix_costs or self.recreation_costs()
        member_costs = [costs[m] for m in members]
        if scheme is RetrievalScheme.INDEPENDENT:
            return float(sum(member_costs))
        return float(max(member_costs))

    def all_snapshot_costs(
        self, scheme: RetrievalScheme
    ) -> dict[str, float]:
        """``Cr`` per snapshot; shares the matrix-cost computation."""
        matrix_costs = (
            None if scheme is RetrievalScheme.REUSABLE else self.recreation_costs()
        )
        return {
            snapshot_id: self.snapshot_recreation_cost(
                snapshot_id, scheme, matrix_costs
            )
            for snapshot_id in self.graph._snapshots
        }

    def satisfies(
        self, constraints: dict[str, float], scheme: RetrievalScheme,
        tol: float = 1e-9,
    ) -> bool:
        """Does the plan meet every snapshot's recreation budget?"""
        costs = self.all_snapshot_costs(scheme)
        return all(
            costs[s] <= theta + tol for s, theta in constraints.items()
        )

    def subtree(self, matrix_id: str) -> set[str]:
        """``matrix_id`` plus all its descendants in the tree."""
        children = self.children_map()
        result = {matrix_id}
        frontier = [matrix_id]
        while frontier:
            current = frontier.pop()
            for child in children.get(current, []):
                if child not in result:
                    result.add(child)
                    frontier.append(child)
        return result

    def in_subtree(self, vertex: str, ancestor: str) -> bool:
        """Is ``vertex`` ``ancestor`` itself or below it?  An ancestor walk,
        bounded so that a malformed (cyclic) plan cannot hang it."""
        for _ in range(len(self.parent_edge) + 1):
            if vertex == ancestor:
                return True
            edge = self.parent_edge.get(vertex)
            if edge is None:
                return False
            vertex = edge.other(vertex)
        return False

    def swap(self, matrix_id: str, new_edge: StorageEdge) -> None:
        """Reparent ``matrix_id`` through ``new_edge`` (the swap operation).

        Raises:
            ValueError: when the new parent lies inside the matrix's own
                subtree (which would create a cycle).
        """
        if not new_edge.touches(matrix_id):
            raise ValueError("edge does not touch the matrix being swapped")
        new_parent = new_edge.other(matrix_id)
        if self.in_subtree(new_parent, matrix_id):
            raise ValueError(
                f"swap would create a cycle: {new_parent!r} is a descendant "
                f"of {matrix_id!r}"
            )
        self.parent_edge[matrix_id] = new_edge

    def summary(self, constraints: Optional[dict[str, float]] = None,
                scheme: RetrievalScheme = RetrievalScheme.INDEPENDENT) -> dict:
        """Cost report used by benchmarks and ``dlv archive``."""
        costs = self.all_snapshot_costs(scheme)
        report = {
            "storage_cost": self.storage_cost(),
            "snapshot_costs": costs,
            "max_snapshot_cost": max(costs.values()) if costs else 0.0,
            "mean_snapshot_cost": (
                sum(costs.values()) / len(costs) if costs else 0.0
            ),
        }
        if constraints is not None:
            report["satisfied"] = self.satisfies(constraints, scheme)
        return report


def plan_from_parent_map(
    graph: MatrixStorageGraph, parents: dict[str, StorageEdge]
) -> StoragePlan:
    """Build and validate a plan from an explicit parent-edge mapping."""
    plan = StoragePlan(graph, dict(parents))
    plan.validate()
    return plan

