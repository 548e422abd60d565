"""End-to-end PAS pipeline properties over random matrices and plans.

For arbitrary float matrices arranged in arbitrary delta chains: archival
followed by recreation must be bit-exact, and interval retrieval must be
the target's own prefix bounds, containing the true values with no slack
— the full storage pipeline, not just its pieces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.archival import minimum_spanning_tree
from repro.core.delta import delta_sub_mismatched
from repro.core.retrieval import PlanArchive
from repro.core.segmentation import bounds_from_prefix, segment_planes
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import (
    ROOT,
    MatrixRef,
    MatrixStorageGraph,
    StorageEdge,
)

matrix_strategy = hnp.arrays(
    np.float32,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False, width=32),
)

chain_strategy = st.lists(matrix_strategy, min_size=2, max_size=5)


def build_chain_archive(chain):
    """Archive a list of same-or-different-shape matrices as a delta chain."""
    graph = MatrixStorageGraph()
    matrices = {}
    previous = None
    for index, matrix in enumerate(chain):
        matrix_id = f"m{index}"
        matrices[matrix_id] = matrix
        graph.add_matrix(MatrixRef(matrix_id, f"s{index}", matrix.nbytes))
        # Materialization is expensive, deltas cheap: the MST prefers the
        # chain, exercising the delta path.
        graph.add_materialization(matrix_id, 1000.0 + index, 1.0)
        if previous is not None and matrix.ndim == chain[index - 1].ndim:
            graph.add_edge(StorageEdge(previous, matrix_id, 1.0, 1.0))
        previous = matrix_id
    plan = minimum_spanning_tree(graph)
    store = MemoryBackend("chain", create=True).chunks
    archive = PlanArchive.build(store, matrices, plan)
    return archive, matrices


class TestPipelineExactness:
    @settings(max_examples=40, deadline=None)
    @given(chain_strategy, st.integers(1, 3))
    def test_sub_chain_recreates_within_float32(self, chain, planes):
        """Legacy ``sub`` payloads, hand-written as older repositories
        stored them, recreate within float32 rounding, and their bounds
        contain the recreation."""
        archive = PlanArchive(MemoryBackend("sub", create=True).chunks)
        parent = ROOT
        for index, matrix in enumerate(chain):
            payload = matrix if parent == ROOT else delta_sub_mismatched(
                matrix, chain[index - 1]
            )
            archive.write_payload(
                f"m{index}", matrix.shape, segment_planes(payload), parent,
                "materialize" if parent == ROOT else "sub",
            )
            parent = f"m{index}"
        for index, expected in enumerate(chain):
            # float32 addition error accumulates along the chain.
            np.testing.assert_allclose(
                archive.recreate_matrix(f"m{index}"), expected,
                rtol=1e-4, atol=1e-3,
            )
        value = archive.recreate_matrix(parent)
        lo, hi = archive.matrix_bounds(parent, planes)
        assert np.all(lo <= value) and np.all(value <= hi)

    @settings(max_examples=40, deadline=None)
    @given(chain_strategy)
    def test_xor_chain_recreates_bit_exact(self, chain):
        archive, matrices = build_chain_archive(chain)
        for matrix_id, expected in matrices.items():
            np.testing.assert_array_equal(
                archive.recreate_matrix(matrix_id), expected
            )

    @settings(max_examples=30, deadline=None)
    @given(chain_strategy, st.integers(1, 3))
    def test_bounds_contain_truth_along_chain(self, chain, planes):
        """A chain's leading planes are its target's own: the bounds are
        ``bounds_from_prefix`` of the target's planes bit for bit, and
        contain the committed matrix with no slack."""
        archive, matrices = build_chain_archive(chain)
        last = f"m{len(chain) - 1}"
        target = matrices[last]
        got = archive.matrix_bounds(last, planes)
        want = bounds_from_prefix(segment_planes(target)[:planes], target.shape)
        for g, w in zip(got, want):
            assert g.shape == target.shape
            assert np.array_equal(
                g.view(np.uint64), w.astype(np.float64).view(np.uint64)
            )
        assert np.all(got.lo <= target) and np.all(target <= got.hi)

    @settings(max_examples=30, deadline=None)
    @given(chain_strategy)
    def test_manifest_roundtrip_preserves_everything(self, chain):
        archive, matrices = build_chain_archive(chain)
        store = archive.store
        reopened = PlanArchive.from_manifest_dict(
            store, archive.to_manifest_dict()
        )
        for matrix_id in matrices:
            np.testing.assert_array_equal(
                reopened.recreate_matrix(matrix_id),
                archive.recreate_matrix(matrix_id),
            )
