"""Hub replication: follower sync, watermarks, lag metrics, healthz."""

from __future__ import annotations

import pytest

from repro.faults.net import NetFaultPlan, NetFaultPoint, inject_net
from repro.hub.httpd import HubHTTPServer, RemoteHub
from repro.hub.replication import Replicator
from repro.hub.server import HubServer
from repro.obs.metrics import get_registry


@pytest.fixture
def primary(tmp_path):
    hub = HubServer(tmp_path / "primary")
    src = tmp_path / "tree"
    (src / "sub").mkdir(parents=True)
    (src / "a.bin").write_bytes(b"A" * 512)
    (src / "sub" / "b.bin").write_bytes(b"B" * 2048)
    hub.publish("demo", src, description="first")
    return hub


@pytest.fixture
def primary_httpd(primary):
    with HubHTTPServer(primary, peer_name="n0") as server:
        yield server


@pytest.fixture
def follower(tmp_path):
    return HubServer(tmp_path / "follower")


class TestWatermark:
    def test_counts_name_revision_trees(self, primary, tmp_path):
        assert primary.watermark() == 1
        src = tmp_path / "tree"
        primary.publish("demo", src)
        primary.publish("other", src)
        assert primary.watermark() == 3

    def test_empty_hub_is_zero(self, tmp_path):
        assert HubServer(tmp_path / "empty").watermark() == 0


class TestSyncOnce:
    def test_copies_missing_revisions(self, primary_httpd, follower):
        replicator = Replicator(follower, primary_httpd.url)
        assert replicator.sync_once() == 1
        assert follower.revisions("demo") == [1]
        assert follower.watermark() == 1
        # Synced trees are byte-identical and carry the manifest.
        assert follower.manifest("demo", 1) == \
            primary_httpd.server.manifest("demo", 1)

    def test_idempotent(self, primary_httpd, follower):
        replicator = Replicator(follower, primary_httpd.url)
        assert replicator.sync_once() == 1
        assert replicator.sync_once() == 0

    def test_catches_up_multiple_revisions(
        self, primary_httpd, follower, tmp_path
    ):
        primary_httpd.server.publish("demo", tmp_path / "tree")
        primary_httpd.server.publish("second", tmp_path / "tree")
        replicator = Replicator(follower, primary_httpd.url)
        assert replicator.sync_once() == 3
        assert follower.revisions("demo") == [1, 2]
        assert follower.revisions("second") == [1]

    def test_follower_index_advertises_local_revisions(
        self, primary_httpd, follower
    ):
        Replicator(follower, primary_httpd.url).sync_once()
        [record] = follower.search("demo")
        assert record.revision == 1
        assert record.description == "first"

    def test_lag_gauge_and_stats(self, primary_httpd, follower):
        replicator = Replicator(follower, primary_httpd.url)
        replicator.sync_once()
        stats = replicator.stats()
        assert stats["lag"] == 0
        assert stats["synced_revisions"] == 1
        assert stats["sync_errors"] == 0
        assert get_registry().gauge("hub.replication.lag").value == 0

    def test_unreachable_primary_raises_and_counts(self, follower):
        replicator = Replicator(
            follower, "http://127.0.0.1:9", timeout=0.5
        )
        with pytest.raises(OSError):
            replicator.sync_once()
        assert replicator.stats()["sync_errors"] == 1
        assert replicator.stats()["last_error"]

    def test_falls_back_to_second_primary_url(
        self, primary_httpd, follower
    ):
        replicator = Replicator(
            follower,
            ["http://127.0.0.1:9", primary_httpd.url],
            timeout=0.5,
        )
        assert replicator.sync_once() == 1
        assert replicator.stats()["primary"] == primary_httpd.url

    def test_interrupted_sync_leaves_no_half_revision_and_resumes(
        self, primary_httpd, follower
    ):
        # One file lands, then every file request drops: the fetch dies
        # mid-tree.
        plan = NetFaultPlan([
            NetFaultPoint(
                site="n0:/v1/repos/demo/1/files/*",
                action="drop", op=1, count=99,
            )
        ])
        replicator = Replicator(follower, primary_httpd.url, timeout=2.0)
        with inject_net(plan):
            with pytest.raises(OSError):
                replicator.sync_once()
        # No revision installed, no temp litter adopted as real data.
        assert follower.revisions("demo") == []
        assert follower.watermark() == 0
        # Recovery: the next round (faults gone) adopts the verified file
        # and fetches only the rest, like any resumed pull.
        resumed = get_registry().counter("hub.pull.files_resumed").value
        assert replicator.sync_once() == 1
        assert get_registry().counter("hub.pull.files_resumed").value == resumed + 1
        assert follower.watermark() == 1
        assert not list((follower.root / "repos" / "demo").glob(".sync.*"))


class TestBackgroundThread:
    def test_thread_syncs_and_stops_cleanly(self, primary_httpd, follower):
        replicator = Replicator(
            follower, primary_httpd.url, interval_s=0.05
        )
        with replicator:
            deadline = 100
            while follower.watermark() < 1 and deadline:
                deadline -= 1
                import time

                time.sleep(0.05)
        assert follower.watermark() == 1
        # Stopped: a new publish is not picked up.
        assert replicator._thread is None

    def test_start_twice_rejected(self, primary_httpd, follower):
        replicator = Replicator(follower, primary_httpd.url)
        with replicator:
            with pytest.raises(RuntimeError):
                replicator.start()


class TestHealthz:
    def test_follower_healthz_reports_role_and_watermark(
        self, primary_httpd, follower
    ):
        replicator = Replicator(follower, primary_httpd.url)
        replicator.sync_once()
        with HubHTTPServer(
            follower, peer_name="n1", role="replica", replicator=replicator
        ) as server:
            with RemoteHub(server.url, timeout=5) as remote:
                payload = remote.health()
        assert payload["role"] == "replica"
        assert payload["peer"] == "n1"
        assert payload["watermark"] == 1
        assert payload["replication"]["lag"] == 0

    def test_primary_healthz_reports_watermark(self, primary_httpd):
        with RemoteHub(primary_httpd.url, timeout=5) as remote:
            payload = remote.health()
        assert payload["role"] == "primary"
        assert payload["watermark"] == 1
        assert "replication" not in payload

    def test_empty_url_list_rejected(self, follower):
        with pytest.raises(ValueError):
            Replicator(follower, [])
