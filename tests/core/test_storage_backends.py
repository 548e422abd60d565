"""Storage-backend API tests: conformance, registry, WAL concurrency.

Every backend must satisfy the same contract — blobs, docs, associated
files, config, quarantine — so the conformance tests run over all three.
The SQLite-specific tests assert the tentpole properties: the whole repo
lives in one database file, a publish ships exactly that file, and WAL
mode lets readers proceed (on a consistent snapshot) while a writer's
journaled commit is in flight.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.storage import memory as memstore
from repro.core.storage import parse_storage_url
from repro.dlv.cli import main as dlv_main
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.hub.client import HubClient
from repro.hub.server import HubServer
from repro.obs.metrics import MetricsRegistry
from repro.serve import ModelServer, ServeConfig

BACKENDS = ("local-fs", "sqlite", "memory")


def _net(seed=0, name="m"):
    return tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=4, name=name
    ).build(seed)


@pytest.fixture(params=BACKENDS)
def any_repo(request, make_repo_target):
    repo = Repository.init(make_repo_target(request.param))
    yield repo
    repo.close()


# -- conformance: every backend satisfies the same contract ------------------


class TestBlobTiers:
    # Blob-level put/get/delete/corruption behaviour of every store is
    # covered once, in tests/core/test_chunkstore.py.

    def test_replica_store_is_independent(self, any_repo):
        sha = any_repo.store.put(b"chunks only")
        assert sha not in any_repo.replica
        any_repo.replica.put(b"chunks only")
        assert sha in any_repo.replica


class TestDocsAndFiles:
    def test_doc_roundtrip(self, any_repo):
        backend = any_repo.backend
        backend.write_doc("notes/a.json", b'{"x": 1}')
        backend.write_doc("notes/b.json", b'{"x": 2}')
        assert backend.read_doc("notes/a.json") == b'{"x": 1}'
        assert backend.list_docs("notes/") == ["notes/a.json", "notes/b.json"]
        backend.delete_doc("notes/a.json")
        assert backend.read_doc("notes/a.json") is None
        assert backend.list_docs("notes/") == ["notes/b.json"]

    def test_file_blob_roundtrip(self, any_repo):
        backend = any_repo.backend
        import hashlib

        payload = b"associated file payload"
        sha = hashlib.sha256(payload).hexdigest()
        backend.put_file(sha, payload)
        backend.put_file(sha, payload)  # re-put is harmless
        assert backend.get_file(sha) == payload
        assert sha in backend.stored_file_shas()
        backend.delete_file(sha)
        assert sha not in backend.stored_file_shas()

    def test_config_records_backend(self, any_repo):
        config = any_repo.backend.read_config()
        assert config["backend"] == any_repo.backend.scheme
        assert parse_storage_url(any_repo.url)[0] == config["backend"]


class TestLifecycleParity:
    def test_commit_reopen_by_url(self, any_repo):
        net = _net(0)
        any_repo.commit(net, name="m", message="v1")
        baseline = any_repo.get_snapshot_weights(1)
        url = any_repo.url
        any_repo.close()

        reopened = Repository.open(url)
        try:
            assert [v.message for v in reopened.list_versions()] == ["v1"]
            recovered = reopened.get_snapshot_weights(1)
            for layer, params in baseline.items():
                for key, value in params.items():
                    np.testing.assert_array_equal(
                        recovered[layer][key], value
                    )
            assert run_fsck(reopened).clean
        finally:
            reopened.close()

    def test_archive_and_quarantine(self, any_repo, corrupt_blob):
        v1 = any_repo.commit(_net(0), name="m", message="v1")
        any_repo.commit(_net(1), name="m2", message="v2", parent=v1)
        any_repo.archive(alpha=2.0)
        sha = any_repo.catalog.all_payloads()[0]["chunks"][3]
        corrupt_blob(any_repo, sha)
        report = run_fsck(any_repo, repair=True)
        assert report.clean
        assert sha in any_repo.backend.quarantined()


# -- registry: URLs, auto-detection, deprecation -----------------------------


class TestRegistry:
    def test_parse_storage_url(self):
        assert parse_storage_url("file:///x/y") == ("local-fs", "/x/y")
        assert parse_storage_url("sqlite://repo.db") == ("sqlite", "repo.db")
        assert parse_storage_url("mem://scratch") == ("memory", "scratch")
        assert parse_storage_url("/plain/path") == (None, "/plain/path")
        with pytest.raises(ValueError, match="unknown storage scheme"):
            parse_storage_url("s3://bucket/repo")

    def test_bare_path_defaults_to_local_fs(self, tmp_path):
        repo = Repository.init(str(tmp_path / "r"))
        assert repo.backend.scheme == "local-fs"
        repo.close()

    def test_bare_path_with_sqlite_backend(self, tmp_path):
        root = tmp_path / "r"
        repo = Repository.init(str(root), backend="sqlite")
        assert repo.backend.scheme == "sqlite"
        assert (root / ".dlv" / "repo.db").is_file()
        repo.close()
        # Reopening by the bare directory path auto-detects the layout.
        reopened = Repository.open(str(root))
        assert reopened.backend.scheme == "sqlite"
        reopened.close()

    def test_memory_backend_requires_mem_url(self, tmp_path):
        with pytest.raises(ValueError, match="mem://"):
            Repository.init(str(tmp_path / "r"), backend="memory")

    def test_double_init_and_missing_open(self, make_repo_target):
        for backend in BACKENDS:
            target = make_repo_target(backend, name=f"dup-{backend}")
            Repository.init(target).close()
            with pytest.raises(FileExistsError):
                Repository.init(target)
        with pytest.raises(FileNotFoundError):
            Repository.open("mem://never-created")

    def test_path_arguments_warn_deprecation(self, tmp_path):
        with pytest.warns(DeprecationWarning, match="storage URL"):
            repo = Repository.init(tmp_path / "r")
        repo.close()
        with pytest.warns(DeprecationWarning, match="storage URL"):
            Repository.open(tmp_path / "r").close()

    def test_memory_clone_is_independent(self, make_repo_target):
        target = make_repo_target("memory", name="clone-src")
        repo = Repository.init(target)
        repo.commit(_net(0), name="m", message="v1")
        name = target[len("mem://"):]
        memstore.clone(name, f"{name}-copy")
        try:
            cloned = Repository.open(f"mem://{name}-copy")
            assert [v.message for v in cloned.list_versions()] == ["v1"]
            extra = cloned.store.put(b"only in the clone")
            assert extra not in repo.store
            cloned.close()
        finally:
            memstore.drop(f"{name}-copy")


# -- the tentpole: single-file SQLite repos, WAL concurrency -----------------


class TestSQLiteSingleFile:
    def test_whole_repo_is_one_file(self, make_repo_target):
        target = make_repo_target("sqlite")
        repo = Repository.init(target)
        repo.commit(_net(0), name="m", message="v1")
        db = Path(target[len("sqlite://"):])
        assert db.is_file()
        # No loose-file sidecar layout: everything is inside the DB
        # (WAL/SHM files are transient sqlite machinery, not repo state).
        siblings = {
            p.name
            for p in db.parent.iterdir()
            if not p.name.endswith(("-wal", "-shm"))
        }
        assert siblings == {db.name}
        repo.close()

    def test_publish_ships_one_db_file(self, make_repo_target):
        repo = Repository.init(make_repo_target("sqlite"))
        repo.commit(_net(0), name="m", message="v1")
        with repo.backend.publish_tree() as tree:
            files = [p.name for p in Path(tree).rglob("*") if p.is_file()]
            assert files == ["repo.db"]
        repo.close()

    def test_hub_roundtrip_and_serving(
        self, make_repo_target, tmp_path, trained_tiny, digits
    ):
        """init -> commit -> archive -> fsck -> publish -> pull -> serve."""
        net, result, _ = trained_tiny
        repo = Repository.init(make_repo_target("sqlite"))
        repo.commit(
            net.clone(), name="tiny", message="v1", train_result=result
        )
        repo.archive(alpha=2.0)
        assert run_fsck(repo).clean
        baseline = repo.get_snapshot_weights(1)

        client = HubClient(HubServer(tmp_path / "hub"))
        record = client.publish(repo, "single-file", description="sqlite")
        assert record.revision == 1
        repo.close()

        pulled = client.pull_repository("single-file", tmp_path / "pulled")
        try:
            assert pulled.backend.scheme == "sqlite"
            assert [v.name for v in pulled.list_versions()] == ["tiny"]
            recovered = pulled.get_snapshot_weights(1)
            for layer, params in baseline.items():
                for key, value in params.items():
                    np.testing.assert_array_equal(
                        recovered[layer][key], value
                    )
            server = ModelServer(
                pulled,
                ServeConfig(max_wait_ms=1.0),
                registry=MetricsRegistry(),
            )
            assert server.scheduler.models() == ["tiny"]
            evaluation = pulled.evaluate(
                "tiny", digits.x_test[:10], digits.y_test[:10]
            )
            assert 0.0 <= evaluation["accuracy"] <= 1.0
        finally:
            pulled.close()


class TestWALConcurrency:
    def test_reader_proceeds_during_writer_commit(self, make_repo_target):
        """The acceptance criterion: a reader thread keeps serving chunk
        gets — with no errors and no torn reads — while a writer holds an
        open commit transaction that is landing new blobs."""
        repo = Repository.init(make_repo_target("sqlite"))
        repo.commit(_net(0), name="m", message="v1")
        sha = repo.catalog.all_payloads()[0]["chunks"][0]
        expected = repo.store.get(sha)

        errors: list[str] = []
        reads: list[int] = []
        writer_active = threading.Event()
        stop = threading.Event()

        def reader():
            if not writer_active.wait(timeout=10):
                errors.append("writer never signalled")
                return
            while not stop.is_set():
                try:
                    if repo.store.get(sha) != expected:
                        errors.append("torn read")
                        return
                    reads.append(1)
                except Exception as exc:  # noqa: BLE001 - recorded verbatim
                    errors.append(repr(exc))
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        with repo.catalog.transaction():
            writer_active.set()
            for i in range(64):
                repo.store.put(f"in-flight blob {i}".encode())
                time.sleep(0.001)
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert errors == []
        assert reads, "reader never completed a get during the commit"
        repo.close()

    def test_snapshot_isolation_across_commit(self, make_repo_target):
        """Another thread must not see a writer's uncommitted blob, and
        must see it once the transaction commits."""
        repo = Repository.init(make_repo_target("sqlite"))
        repo.commit(_net(0), name="m", message="v1")
        seen: dict[str, bool] = {}

        def probe(label, sha):
            thread = threading.Thread(
                target=lambda: seen.__setitem__(label, sha in repo.store)
            )
            thread.start()
            thread.join(timeout=10)

        with repo.catalog.transaction():
            sha = repo.store.put(b"not yet committed")
            probe("during", sha)
        probe("after", sha)
        assert seen == {"during": False, "after": True}
        repo.close()


# -- CLI: --store, DLV_STORE, init --backend ---------------------------------


class TestCLIStore:
    def test_store_url_init_fsck_stats(self, tmp_path, capsys):
        url = f"sqlite://{tmp_path / 'cli.db'}"
        assert dlv_main(["--store", url, "init"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"initialized": url, "backend": "sqlite"}
        assert (tmp_path / "cli.db").is_file()

        assert dlv_main(["--store", url, "fsck", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["clean"] is True
        assert dlv_main(["--store", url, "stats", "--json"]) == 0
        assert "metrics" in json.loads(capsys.readouterr().out)

    def test_store_env_variable(self, tmp_path, capsys, monkeypatch):
        url = f"sqlite://{tmp_path / 'env.db'}"
        monkeypatch.setenv("DLV_STORE", url)
        assert dlv_main(["init"]) == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "sqlite"
        assert dlv_main(["fsck", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["clean"] is True

    def test_init_backend_flag(self, tmp_path, capsys):
        root = tmp_path / "d1"
        code = dlv_main(["--repo", str(root), "init", "--backend", "sqlite"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["backend"] == "sqlite"
        assert (root / ".dlv" / "repo.db").is_file()
        repo = Repository.open(str(root))
        assert repo.backend.scheme == "sqlite"
        repo.close()
