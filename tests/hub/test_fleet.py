"""FleetClient: breaker state machine, routing, failover pulls, HubFleet.

What a 3-peer fleet shares with every other hub location (the read calls,
the pull) is in ``test_transports.py``; this file is what only N > 1 has.
"""

from __future__ import annotations

import pytest

from repro.faults.net import NetFaultPlan, NetFaultPoint, inject_net
from repro.hub import CircuitBreaker, FleetClient, HubFleet, NoHealthyPeer
from repro.hub.server import compute_manifest
from repro.obs.metrics import get_registry


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- CircuitBreaker --------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_half_open_allows_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # only one per cooldown

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_s=5.0, clock=clock
        )
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed: reopen immediately
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


# -- a real mini-fleet ----------------------------------------------------------


@pytest.fixture
def fleet(tmp_path):
    src = tmp_path / "tree"
    (src / "deep").mkdir(parents=True)
    (src / "one.bin").write_bytes(b"1" * 3000)
    (src / "two.bin").write_bytes(b"2" * 700)
    (src / "deep" / "three.bin").write_bytes(b"3" * 1500)
    with HubFleet(tmp_path / "fleet", size=3) as fleet:
        fleet.primary.server.publish("demo", src, description="fleet demo")
        fleet.sync()
        yield fleet


class TestFleetClientReads:
    def test_reads_round_robin_across_peers(self, fleet):
        with fleet.client() as client:
            for _ in range(3):
                client.revisions("demo")
        # Each peer served one read (rotation advanced per request).
        # Observable via per-op hub counters on the shared registry:
        assert get_registry().counter("hub.requests.revisions").value >= 3

    def test_failover_when_first_peer_down(self, fleet):
        plan = NetFaultPlan([
            NetFaultPoint(site="n0:*", action="drop", count=99)
        ])
        with fleet.client() as client, inject_net(plan):
            assert client.revisions("demo") == [1]

    def test_resolve_latest_prefers_most_caught_up_peer(
        self, fleet, tmp_path
    ):
        # Publish rev 2 on the primary but do NOT sync the replicas.
        fleet.primary.server.publish("demo", tmp_path / "tree")
        with fleet.client() as client:
            for _ in range(4):  # whatever the rotation start, 2 wins
                assert client.resolve_revision("demo") == 2

    def test_all_peers_down_raises_no_healthy_peer(self, fleet):
        plan = NetFaultPlan([
            NetFaultPoint(site="*", action="drop", count=999)
        ])
        with fleet.client() as client, inject_net(plan):
            with pytest.raises(NoHealthyPeer):
                client.revisions("demo")

    def test_unknown_name_raises_keyerror_not_failover(self, fleet):
        with fleet.client() as client:
            with pytest.raises(KeyError):
                client.revisions_missing = client.manifest("ghost")

    def test_status_probes_every_peer(self, fleet):
        fleet.kill(2)
        with fleet.client() as client:
            report = client.status()
        assert [entry["ok"] for entry in report] == [True, True, False]
        assert report[0]["role"] == "primary"
        assert report[1]["role"] == "replica"

    def test_url_validation(self):
        with pytest.raises(ValueError):
            FleetClient([])
        with pytest.raises(ValueError):
            FleetClient(["ftp://nope"])


class TestFleetPull:
    def test_pull_fails_over_mid_transfer(self, fleet, tmp_path):
        registry = get_registry()
        before = registry.counter("hub.fleet.failovers").value
        # The first peer the rotation picks dies on every file request.
        plan = NetFaultPlan([
            NetFaultPoint(
                site="n0:/v1/repos/demo/1/files/*.bin",
                action="drop", count=999,
            ),
            NetFaultPoint(
                site="n0:/v1/repos/demo/1/files/deep/*",
                action="drop", count=999,
            ),
        ])
        with fleet.client() as client, inject_net(plan):
            dest = client.pull("demo", tmp_path / "pulled")
        assert (dest / ".dlv" / "deep" / "three.bin").exists()
        assert registry.counter("hub.fleet.failovers").value > before

    def test_pull_succeeds_with_one_peer_killed(self, fleet, tmp_path):
        fleet.kill(1)
        with fleet.client() as client:
            dest = client.pull("demo", tmp_path / "pulled")
        assert compute_manifest(dest / ".dlv") == \
            fleet.primary.server.manifest("demo", 1)

    def test_pull_exhausts_when_every_peer_dead(self, fleet, tmp_path):
        plan = NetFaultPlan([
            NetFaultPoint(site="*", action="drop", count=9999)
        ])
        with fleet.client() as client, inject_net(plan):
            with pytest.raises(NoHealthyPeer):
                client.pull("demo", tmp_path / "pulled")

    def test_lagging_replica_not_breaker_charged(self, fleet, tmp_path):
        # rev 2 exists only on the primary; replicas 404 it but stay
        # healthy for later reads.
        fleet.primary.server.publish("demo", tmp_path / "tree")
        with fleet.client() as client:
            dest = client.pull("demo", tmp_path / "pulled", revision=2)
            assert (dest / ".dlv").exists()
            for peer in client.peers:
                assert peer.breaker.state == "closed"


class TestHubFleet:
    def test_replicas_report_replication_stats(self, fleet):
        with fleet.client() as client:
            report = client.status()
        assert "replication" in report[1]
        assert report[1]["replication"]["lag"] == 0

    def test_size_validated(self, tmp_path):
        with pytest.raises(ValueError):
            HubFleet(tmp_path, size=0)
