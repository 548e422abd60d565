"""The read path: one chain walk, one snapshot reader, one plane cache.

The oracle: every reader of a snapshot — ``get_snapshot_weights``,
``recreate_snapshot(...).by_layer()``, the evaluator's
``exact_weights()`` (planes through the cache), ``load_network()`` and
``build_storage_graph()`` — returns the same bytes per matrix, on every
backend, for committed, archived and ``archive --dedup`` layouts (the
archived ones planned under each retrieval scheme's cost model), and
those bytes match what was committed.  One progressive request answers
the same through ``evaluate()`` (what ``dlv eval --progressive`` runs)
and through the serving scheduler.

The plane cache is the one :class:`~repro.core.cache.PlaneCache` behind
an archive and its evaluators; its LRU mechanics (eviction, budgets,
admission, single flight) are tested once, in
``tests/serve/test_plane_cache.py``.
"""

import numpy as np
import pytest

from repro.core.archival import minimum_spanning_tree
from repro.core.progressive import ProgressiveEvaluator
from repro.core.retrieval import PlanArchive
from repro.core.segmentation import NUM_PLANES
from repro.core.storage.memory import MemoryBackend
from repro.core.storage_graph import (
    MatrixRef,
    MatrixStorageGraph,
    RetrievalScheme,
)
from repro.dlv.repository import Repository
from repro.dnn.network import Network
from repro.dnn.zoo import tiny_mlp
from repro.obs.cost import cost_context
from repro.obs.metrics import MetricsRegistry
from repro.serve import BatchScheduler, ModelRuntime, PlaneCache, ServeConfig
from tests.conftest import STORE_BACKENDS


def _perturb(net, seed):
    """A sparse perturbation of ``net`` — a fine-tuned sibling."""
    clone = net.clone()
    rng = np.random.default_rng(seed)
    weights = clone.get_weights()
    for params in weights.values():
        for arr in params.values():
            flat = arr.reshape(-1)
            idx = rng.choice(flat.size, size=max(1, flat.size // 20),
                             replace=False)
            flat[idx] += rng.normal(0, 0.01, size=idx.size).astype(flat.dtype)
    clone.set_weights(weights)
    return clone


def _commit_family(repo):
    """A base, a fine-tuned child (lineage: ``xor`` chains once archived)
    and a sibling without lineage (``--dedup`` pages); returns the
    committed weights per version id."""
    base = tiny_mlp(hidden=32).build(seed=0)
    child, sibling = _perturb(base, 1), _perturb(base, 2)
    first = repo.commit(base, name="base", message="oracle")
    versions = [
        (first, base),
        (repo.commit(child, name="child", message="oracle", parent=first),
         child),
        (repo.commit(sibling, name="sibling", message="oracle"), sibling),
    ]
    return {version.id: net.get_weights() for version, net in versions}


def _assert_same_bytes(got, reference):
    assert got.keys() == reference.keys()
    for layer, params in reference.items():
        assert got[layer].keys() == params.keys()
        for param, value in params.items():
            assert got[layer][param].tobytes() == value.tobytes(), (
                f"{layer}.{param} differs between readers"
            )


def _assert_committed(got, committed):
    for layer, params in committed.items():
        for param, value in params.items():
            np.testing.assert_array_equal(got[layer][param], value)


@pytest.mark.parametrize("scheme", list(RetrievalScheme))
@pytest.mark.parametrize("layout", ["committed", "archived", "dedup"])
@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_every_reader_returns_the_same_bytes(
    make_repo_target, backend, layout, scheme
):
    repo = Repository.init(make_repo_target(backend))
    committed = _commit_family(repo)
    if layout != "committed":
        repo.archive(alpha=4.0, scheme=scheme, dedup=layout == "dedup")
    archive = repo.archive_view()
    kinds = {entry.kind for entry in archive.manifest.values()}
    assert {"archived": "xor", "dedup": "pages"}.get(layout, "materialize") in kinds
    for version in repo.list_versions():
        key = version.snapshots[-1].key
        reference = repo.get_snapshot_weights(version)
        _assert_committed(reference, committed[version.id])
        evaluator = ProgressiveEvaluator(
            Network.from_spec(version.network).build(0), archive, key
        )
        for got in (
            archive.recreate_snapshot(key).by_layer(),
            evaluator.exact_weights(),
            repo.load_network(version).get_weights(),
        ):
            _assert_same_bytes(got, reference)
    _, planned = repo.build_storage_graph()  # one read plan of every matrix
    for matrix_id, value in planned.items():
        assert value.tobytes() == archive.recreate_matrix(matrix_id).tobytes()
    repo.close()


def test_cli_and_serve_answer_alike(repo, trained_tiny, digits):
    """One request (<= 64 rows, from plane 1): ``evaluate()`` and the
    scheduler settle every row at the same plane with the same label."""
    net, _, _ = trained_tiny
    version = repo.commit(net, name="tiny", message="cli vs serve")
    key = version.snapshots[-1].key
    x = digits.x_test[:48]

    local = ProgressiveEvaluator(
        Network.from_spec(version.network).build(0), repo.archive_view(), key
    ).evaluate(x, start_planes=1)

    registry = MetricsRegistry()
    scheduler = BatchScheduler(ServeConfig(), registry=registry)
    scheduler.register(ModelRuntime(
        "tiny", Network.from_spec(version.network).build(0),
        repo.archive_view(), key,
        plane_cache=PlaneCache(64 << 20, registry=registry),
    ))
    try:
        served = scheduler.submit("tiny", x, start_planes=1).wait(30.0)
    finally:
        scheduler.stop()

    np.testing.assert_array_equal(served.predictions, local.predictions)
    np.testing.assert_array_equal(
        served.resolved_planes, local.resolved_at_plane
    )
    np.testing.assert_array_equal(local.predictions, net.predict(x))


# -- the one weights cache ---------------------------------------------------


@pytest.fixture
def snap():
    """A tiny model's weights archived as snapshot ``"snap"``."""
    net = tiny_mlp(hidden=16).build(seed=3)
    graph = MatrixStorageGraph()
    matrices = {}
    for layer, params in net.get_weights().items():
        for param, value in params.items():
            mid = f"{layer}.{param}"
            graph.add_matrix(MatrixRef(mid, "snap", value.nbytes))
            graph.add_materialization(mid, value.nbytes, 1.0)
            matrices[mid] = value
    archive = PlanArchive.build(
        MemoryBackend("snap", create=True).chunks, matrices,
        minimum_spanning_tree(graph),
    )
    return net, archive


def _evaluator(snap, cache=None):
    net, archive = snap
    return ProgressiveEvaluator(net, archive, "snap", plane_cache=cache)


def _plane_sizes(archive) -> dict:
    """``address -> charged bytes`` (1 B per weight) of every plane."""
    return {
        archive.plane_address(entry, i): int(np.prod(entry.shape))
        for entry in archive.manifest.values()
        for i in range(NUM_PLANES)
    }


class TestCorrectness:
    def test_cached_values_match_archive(self, snap):
        net, archive = snap
        expected = archive.recreate_snapshot("snap").by_layer()  # uncached
        evaluator = _evaluator(snap)
        _assert_same_bytes(evaluator.exact_weights(), expected)
        with cost_context() as warm:
            _assert_same_bytes(evaluator.exact_weights(), expected)
        assert warm.chunks_fetched == 0  # the warm read is the cache's
        _assert_same_bytes(expected, net.get_weights())
        # Each cached plane is the stored chunk under its own address.
        for entry in archive.manifest.values():
            for i, sha in enumerate(entry.chunk_ids):
                data, _ = evaluator.plane_cache.get(("plane", sha))
                assert data == archive.plane_store(i).get(sha)

    def test_planes_are_distinct_entries(self, snap):
        _, archive = snap
        evaluator = _evaluator(snap)
        one, two = evaluator.param_bounds(1), evaluator.param_bounds(2)
        evaluator.exact_weights()
        assert one is not two
        keys = evaluator.plane_cache.keys()
        # One entry per distinct plane (equal planes, e.g. of two zero
        # biases, share one), plus the two derived bounds entries.
        assert {key[1] for key in keys if key[0] == "plane"} == set(
            _plane_sizes(archive)
        )
        assert sorted(key[2] for key in keys if key[0] == "bounds") == [1, 2]
        assert len(keys) == len(_plane_sizes(archive)) + 2

    def test_cached_arrays_are_read_only(self, snap):
        evaluator = _evaluator(snap)
        bounds = evaluator.param_bounds(2)["fc1"]["W"]
        for array in (bounds.lo, bounds.hi):
            with pytest.raises(ValueError):
                array[0, 0] = 99.0
        # Planes are cached as immutable bytes: a reader's weights are
        # its own copy.
        evaluator.exact_weights()["fc1"]["W"][0, 0] = 99.0
        assert evaluator.exact_weights()["fc1"]["W"][0, 0] != 99.0

    def test_snapshot_retrieval(self, snap):
        net, archive = snap
        result = archive.recreate_snapshot("snap")
        assert set(result.matrices) == set(archive.manifest)
        assert result.bytes_read > 0
        _assert_same_bytes(result.by_layer(), net.get_weights())
        with pytest.raises(KeyError):
            archive.recreate_snapshot("ghost")


class TestInvalidation:
    def test_invalidate_reloads_weights(self, snap):
        evaluator = _evaluator(snap)
        first = evaluator.exact_weights()
        cache = evaluator.plane_cache
        key = next(k for k in cache.keys() if k[0] == "plane")
        assert cache.invalidate(key)
        with cost_context() as bill:
            second = evaluator.exact_weights()
        assert bill.chunks_fetched == 1  # that plane alone, once
        assert key in cache
        _assert_same_bytes(second, first)

    def test_budget_and_accounting_are_the_lrus(self, snap):
        net, archive = snap
        cache = PlaneCache(registry=MetricsRegistry())
        _evaluator(snap, cache).exact_weights()
        sizes = _plane_sizes(archive)
        assert cache.cached_bytes == sum(sizes.values())
        # A budget smaller than every plane serves them all uncached.
        small = PlaneCache(min(sizes.values()) - 1, registry=MetricsRegistry())
        reopened = PlanArchive.from_manifest_dict(
            archive.store, archive.to_manifest_dict(), plane_cache=small
        )
        evaluator = ProgressiveEvaluator(net, reopened, "snap")
        evaluator.exact_weights()
        evaluator.exact_weights()
        lookups = 2 * NUM_PLANES * len(archive.manifest)
        assert (small.misses, small.hits, len(small)) == (lookups, 0, 0)
        with pytest.raises(ValueError):
            PlaneCache(0)

    def test_one_cache_serves_a_read_path(self, snap):
        net, archive = snap
        evaluator = _evaluator(snap)
        assert archive.plane_cache is evaluator.plane_cache
        assert _evaluator(snap).plane_cache is evaluator.plane_cache
        with pytest.raises(ValueError, match="one cache"):
            _evaluator(snap, PlaneCache(registry=MetricsRegistry()))
