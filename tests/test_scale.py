"""Repository-scale stress test: many versions, archive, verify, query.

Builds a repository an order of magnitude larger than the unit-test
fixtures (30 versions in fine-tune chains, no training — weights are
perturbed copies, which is exactly the similarity structure fine-tuning
produces) and exercises the whole management surface on it.
"""

import numpy as np
import pytest

from repro.core.storage_graph import RetrievalScheme
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.dql.executor import DQLExecutor


@pytest.fixture(scope="module")
def big_repo(tmp_path_factory):
    rng = np.random.default_rng(77)
    repo = Repository.init(tmp_path_factory.mktemp("scale") / "repo")
    base = tiny_mlp(hidden=32, name="family-0").build(0)
    previous = repo.commit(base, name="family-0", message="root")
    net = base
    for i in range(1, 30):
        net = net.clone(name=f"family-{i}")
        # Simulate last-layer fine-tuning: the feature extractor (fc1) is
        # frozen (identical across versions — content-addressing dedupes
        # it), the classifier drifts in a low-rank, sparse way (real
        # fine-tune deltas are structured, not white noise).
        classifier = net["fc2"].params["W"]
        rows = rng.integers(0, classifier.shape[0], size=4)
        classifier[rows] += (
            rng.standard_normal((4, classifier.shape[1])) * 0.01
        ).astype(np.float32)
        previous = repo.commit(
            net, name=f"family-{i}", parent=previous,
            message=f"finetune step {i}",
        )
    yield repo
    repo.close()


class TestScale:
    def test_thirty_versions_committed(self, big_repo):
        assert len(big_repo.list_versions()) == 30
        assert len(big_repo.lineage_edges()) == 29

    def test_lineage_chain_depth(self, big_repo):
        leaf = big_repo.resolve("family-29")
        assert len(big_repo.ancestors(leaf)) == 29

    def test_archive_compresses_finetune_chain(self, big_repo):
        report = big_repo.archive(alpha=3.0)
        assert report["satisfied"]
        # Fine-tune chains are delta-friendly: real storage savings.
        assert report["bytes_after"] < report["bytes_before"] * 0.9

    def test_verify_after_archive(self, big_repo):
        report = run_fsck(big_repo)
        assert report.clean and report.findings == [], report.to_dict()
        assert report.payloads_checked == 30 * 4  # 2 layers x W,b

    def test_all_versions_recreate_exactly(self, big_repo):
        x = np.random.default_rng(1).standard_normal((4, 1, 8, 8)).astype(
            np.float32
        )
        first = big_repo.load_network("family-0")
        last = big_repo.load_network("family-29")
        # Distinct versions stayed distinct through delta chains.
        assert not np.allclose(first.forward(x), last.forward(x), atol=1e-5)

    def test_dql_over_large_repository(self, big_repo):
        executor = DQLExecutor(big_repo)
        result = executor.run('select m1 where m1.name like "family-2%"')
        # family-2 plus family-20..29.
        assert len(result.versions) == 11

    def test_snapshot_costs_bounded(self, big_repo):
        graph, _ = big_repo.build_storage_graph()
        from repro.core.archival import alpha_constraints, solve

        constraints = alpha_constraints(graph, 2.0)
        plan = solve(graph, constraints, algorithm="best")
        assert plan.satisfies(constraints, RetrievalScheme.INDEPENDENT)
