"""Price = write: an edge of the storage graph costs what archiving it stores.

The paper defines a storage-graph edge's cost ``Cs`` as the bytes its
payload will occupy (Sec. IV-B/C).  The graph builder prices every edge
through the code that writes it, so the check is an identity: write each
priced payload into an empty repository of the same backend and compare
the growth of the tier it lands in with the edge's ``storage_cost``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.retrieval import PlanArchive, payload_planes
from repro.core.storage_graph import ROOT
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from tests.conftest import STORE_BACKENDS


def _nudged(net, seed, name, num_classes=None):
    """A fine-tuned child; ``num_classes`` re-sizes the classifier layer."""
    rng = np.random.default_rng(seed)
    child = net.clone() if num_classes is None else tiny_mlp(
        hidden=16, num_classes=num_classes
    ).build(seed)
    weights = child.get_weights()
    for layer, params in net.get_weights().items():
        for key, old in params.items():
            new = weights[layer][key]
            overlap = tuple(slice(0, min(a, b)) for a, b in zip(old.shape, new.shape))
            new[overlap] = old[overlap]
            new += (rng.standard_normal(new.shape) * 1e-3).astype(np.float32)
    child.set_weights(weights)
    child.name = name
    return child


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_priced_bytes_are_stored_bytes(make_repo_target, backend):
    repo = Repository.init(make_repo_target(backend))
    v1 = tiny_mlp(hidden=16, num_classes=4).build(0)
    v2 = _nudged(v1, 1, "v2")
    v3 = _nudged(v2, 2, "v3", num_classes=6)  # fc2: (16, 4) -> (16, 6)
    repo.commit(v1, name="v1")
    repo.commit(v2, name="v2", parent="v1")
    repo.commit(v3, name="v3", parent="v2")
    graph, matrices = repo.build_storage_graph(dedup=True)

    scratch = Repository.init(make_repo_target(backend, "scratch"))
    writer = PlanArchive(
        scratch.store, replica_store=scratch.replica,
        page_store=scratch.page_store(),
    )

    def stored_by(edge, kind, tier) -> int:
        before = tier.total_size()
        target = matrices[edge.v]
        writer.write_payload(
            edge.v, target.shape,
            payload_planes(target, matrices.get(edge.u), kind), edge.u, kind,
        )
        return tier.total_size() - before

    checked: Counter = Counter()
    resized = 0
    for edge in graph.edges:
        if edge.kind == "pages":
            continue
        kind = "materialize" if edge.u == ROOT else "sub"
        assert stored_by(edge, kind, scratch.store) == edge.storage_cost, edge
        scratch.gc()  # nothing references it: the store is empty again
        checked[edge.kind] += 1
        resized += edge.u != ROOT and matrices[edge.u].shape != matrices[edge.v].shape
    # A pages edge is priced given every earlier matrix page-encoded too.
    for edge in graph.edges:
        if edge.kind == "pages":
            assert stored_by(edge, "pages", scratch.pages) == edge.storage_cost, edge
            checked["pages"] += 1
    assert checked == {"materialize": 12, "pages": 12, "delta": 8}
    assert resized == 2  # fc2.W and fc2.b
    scratch.close()
    repo.close()
