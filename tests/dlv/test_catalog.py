"""sqlite3 catalog tests: schema, CRUD, and the relational network views."""

import pytest

from repro.dlv.catalog import Catalog
from repro.dlv.fsck import run_fsck
from repro.dlv.objects import Snapshot
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.hub.client import HubClient
from repro.hub.server import HubServer


@pytest.fixture
def catalog(tmp_path):
    cat = Catalog(tmp_path / "catalog.db")
    yield cat
    cat.close()


@pytest.fixture
def network_spec():
    return tiny_mlp().spec()


class TestVersions:
    def test_insert_and_get(self, catalog, network_spec):
        vid = catalog.insert_version("m1", "msg", "2026-01-01", network_spec)
        version = catalog.get_version(vid)
        assert version.name == "m1"
        assert version.message == "msg"
        assert version.network["nodes"][0]["layer"]["name"] == "flat"

    def test_get_missing_returns_none(self, catalog):
        assert catalog.get_version(999) is None

    def test_ids_autoincrement(self, catalog, network_spec):
        a = catalog.insert_version("m", "", "t", network_spec)
        b = catalog.insert_version("m", "", "t", network_spec)
        assert b == a + 1
        assert catalog.latest_version_id() == b

    def test_find_versions_like(self, catalog, network_spec):
        catalog.insert_version("alexnet-v1", "", "t", network_spec)
        catalog.insert_version("alexnet-v2", "", "t", network_spec)
        catalog.insert_version("vgg-v1", "", "t", network_spec)
        found = catalog.find_versions("alexnet%")
        assert [v.name for v in found] == ["alexnet-v1", "alexnet-v2"]

    def test_node_edge_relations_populated(self, catalog, network_spec):
        vid = catalog.insert_version("m", "", "t", network_spec)
        rows = catalog._conn.execute(
            "SELECT name, kind FROM node WHERE version_id = ?", (vid,)
        ).fetchall()
        names = {r["name"] for r in rows}
        assert {"flat", "fc1", "relu1", "fc2", "prob"} == names
        edges = catalog._conn.execute(
            "SELECT src, dst FROM edge WHERE version_id = ?", (vid,)
        ).fetchall()
        assert ("@input", "flat") in {(e["src"], e["dst"]) for e in edges}


class TestMetadataLogsFiles:
    def test_metadata_roundtrip(self, catalog, network_spec):
        vid = catalog.insert_version("m", "", "t", network_spec)
        catalog.set_metadata(vid, {"final_accuracy": 0.9, "hyperparams": {"lr": 0.1}})
        meta = catalog.get_metadata(vid)
        assert meta["final_accuracy"] == 0.9
        assert meta["hyperparams"]["lr"] == 0.1

    def test_metadata_upsert(self, catalog, network_spec):
        vid = catalog.insert_version("m", "", "t", network_spec)
        catalog.set_metadata(vid, {"k": 1})
        catalog.set_metadata(vid, {"k": 2})
        assert catalog.get_metadata(vid)["k"] == 2

    def test_training_log(self, catalog, network_spec):
        vid = catalog.insert_version("m", "", "t", network_spec)
        entries = [
            {"iteration": 0, "loss": 2.3, "accuracy": 0.1, "lr": 0.1, "epoch": 0},
            {"iteration": 20, "loss": 1.1, "accuracy": 0.6, "lr": 0.1, "epoch": 1},
        ]
        catalog.add_training_log(vid, entries)
        log = catalog.get_training_log(vid)
        assert len(log) == 2
        assert log[1]["loss"] == 1.1

    def test_files(self, catalog, network_spec):
        vid = catalog.insert_version("m", "", "t", network_spec)
        catalog.add_files(vid, {"train.sh": "abc123"})
        assert catalog.get_files(vid) == {"train.sh": "abc123"}


class TestLineage:
    def test_parent_child(self, catalog, network_spec):
        a = catalog.insert_version("a", "", "t", network_spec)
        b = catalog.insert_version("b", "", "t", network_spec)
        catalog.add_lineage(a, b, "finetune")
        assert catalog.get_parents(b) == [a]
        assert catalog.get_children(a) == [b]
        assert catalog.all_lineage() == [(a, b, "finetune")]


class TestSnapshotsAndPayloads:
    def test_snapshot_roundtrip(self, catalog, network_spec):
        vid = catalog.insert_version("m", "", "t", network_spec)
        catalog.add_snapshot(Snapshot(vid, 0, 100, "float32", "t"))
        catalog.add_snapshot(Snapshot(vid, 1, 200, "fixed8", "t"))
        snaps = catalog.get_snapshots(vid)
        assert [s.index for s in snaps] == [0, 1]
        assert snaps[1].float_scheme == "fixed8"
        assert snaps[1].key == f"v{vid}/s1"

    def test_matrix_and_payload(self, catalog, network_spec):
        vid = catalog.insert_version("m", "", "t", network_spec)
        catalog.add_matrix("v1/s0/fc1.W", vid, 0, "fc1", "W", (4, 2), 32)
        catalog.set_payload("v1/s0/fc1.W", "v0", "materialize", ["sha1", "sha2"])
        catalog.commit()
        rows = catalog.get_matrices(vid, 0)
        assert rows[0]["shape"] == (4, 2)
        payload = catalog.get_payload("v1/s0/fc1.W")
        assert payload["kind"] == "materialize"
        assert payload["chunks"] == ["sha1", "sha2"]

    def test_payload_replace(self, catalog, network_spec):
        vid = catalog.insert_version("m", "", "t", network_spec)
        catalog.add_matrix("x", vid, 0, "fc1", "W", (2,), 8)
        catalog.set_payload("x", "v0", "materialize", ["a"])
        catalog.set_payload("x", "y", "sub", ["b"])
        catalog.commit()
        assert catalog.get_payload("x")["kind"] == "sub"
        assert len(catalog.all_payloads()) == 1

    def test_get_payload_missing(self, catalog):
        assert catalog.get_payload("ghost") is None


def test_local_fs_catalog_persists_its_journal(tmp_path):
    """The local-fs catalog keeps its rollback journal between commits
    (``journal_mode=PERSIST``: a commit zeroes the journal's header and
    unlinks nothing) at sqlite's default ``synchronous=FULL``.  A publish
    leaves the journal, which holds only stale page images, behind; the
    pulled repository opens in the same mode, checks clean, reads the
    same weights and commits."""
    repo = Repository.init(str(tmp_path / "repo"))
    version = repo.commit(tiny_mlp(hidden=8).build(0), name="m", message="v1")

    def modes(repository):
        conn = repository.catalog._conn
        return (
            conn.execute("PRAGMA journal_mode").fetchone()[0],
            conn.execute("PRAGMA synchronous").fetchone()[0],
        )

    assert modes(repo) == ("persist", 2)  # 2 is FULL
    assert (tmp_path / "repo" / ".dlv" / "catalog.db-journal").is_file()
    baseline = repo.get_snapshot_weights(version)
    client = HubClient(HubServer(tmp_path / "hub"))
    client.publish(repo, "persist")
    repo.close()
    assert not list((tmp_path / "hub").rglob("*-journal"))

    pulled = client.pull_repository("persist", tmp_path / "pulled")
    try:
        assert modes(pulled) == ("persist", 2)
        assert run_fsck(pulled).clean
        recovered = pulled.get_snapshot_weights(version.id)
        for layer, params in baseline.items():
            for param, value in params.items():
                assert recovered[layer][param].tobytes() == value.tobytes()
        pulled.commit(tiny_mlp(hidden=8).build(1), name="m2", message="v2")
        assert [v.name for v in pulled.list_versions()] == ["m", "m2"]
    finally:
        pulled.close()
