"""Directory hub writes and index: publish, search, delete, revisions.

Reads and pulls are covered for every transport in ``test_transports.py``.
"""

import pytest

from repro.hub.client import HubClient
from repro.hub.server import HubRecord, HubServer


@pytest.fixture
def hub(tmp_path):
    return HubServer(tmp_path / "hub")


@pytest.fixture
def published(hub, repo, trained_tiny):
    net, result, _ = trained_tiny
    repo.commit(net.clone(), name="shared-model", train_result=result)
    client = HubClient(hub)
    record = client.publish(repo, "demo-repo", description="test models")
    return hub, client, repo, record


class TestPublish:
    def test_record_fields(self, published):
        _, _, _, record = published
        assert record.name == "demo-repo"
        assert record.revision == 1
        assert record.model_names == ["shared-model"]
        assert record.published_at

    def test_republish_bumps_revision(self, published):
        hub, client, repo, _ = published
        record = client.publish(repo, "demo-repo")
        assert record.revision == 2
        assert hub.revisions("demo-repo") == [1, 2]

    def test_record_roundtrip(self):
        record = HubRecord("n", "d", 3, "t", ["m"])
        assert HubRecord.from_dict(record.to_dict()) == record


class TestSearch:
    def test_by_name(self, published):
        _, client, _, _ = published
        assert [r.name for r in client.search("demo*")] == ["demo-repo"]

    def test_by_model_name(self, published):
        _, client, _, _ = published
        assert client.search("shared-*")

    def test_star_returns_all(self, published):
        _, client, _, _ = published
        assert len(client.search("*")) == 1

    def test_no_match(self, published):
        _, client, _, _ = published
        assert client.search("nonexistent*") == []


class TestServerManagement:
    def test_delete(self, published):
        hub, client, _, _ = published
        assert hub.delete("demo-repo")
        assert client.search("*") == []
        assert not hub.delete("demo-repo")

    def test_get_unknown_revision(self, published):
        hub, _, _, _ = published
        with pytest.raises(KeyError):
            hub.get("demo-repo", revision=99)

    def test_publishes_are_isolated_copies(self, published, trained_tiny):
        """Later commits to the source repo do not alter a published copy."""
        hub, client, repo, _ = published
        net, result, _ = trained_tiny
        repo.commit(net.clone(), name="post-publish", train_result=result)
        source = hub.get("demo-repo", 1)
        from repro.dlv.catalog import Catalog

        # The published tree is either a loose-file .dlv (catalog.db) or
        # a single-file sqlite repo (repo.db); both hold catalog tables.
        db = source / "repo.db"
        catalog = Catalog(db if db.exists() else source / "catalog.db")
        names = [v.name for v in catalog.find_versions()]
        catalog.close()
        assert names == ["shared-model"]
