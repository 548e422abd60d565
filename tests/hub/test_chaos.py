"""Chaos matrix: a 3-node fleet keeps serving pulls through peer failure.

The acceptance suite for the replicated hub tier.  Every scenario boots
a real :class:`~repro.hub.fleet.HubFleet` (one primary, two synced
replicas, real sockets on loopback), then kills or network-faults a node
*mid-transfer* and asserts the pull still completes with every file
hashing to its manifest entry.  Determinism rules:

* All injected delays go through a recording ``sleep`` — no real time
  passes beyond socket round-trips on loopback.
* Replication is driven by explicit :meth:`HubFleet.sync` calls, never
  a background timer.
* Fault schedules are :class:`~repro.faults.net.NetFaultPoint` op
  windows — the N-th matching request fails, every run.
"""

from __future__ import annotations

import pytest

from repro.dlv.repository import Repository
from repro.faults.net import NetFaultPlan, NetFaultPoint, inject_net
from repro.hub import HubClient, HubFleet, NoHealthyPeer
from repro.hub.server import compute_manifest, verify_tree
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serve import ModelServer, ServeConfig, ServeClient

ALWAYS = 10**6  # a count that outlives any pull

FILES = "/v1/repos/shared/1/files/*"


@pytest.fixture
def model_fleet(tmp_path, repo, trained_tiny):
    """3-node fleet whose primary published a real trained-model repo."""
    net, _, _ = trained_tiny
    repo.commit(net, name="tiny", message="chaos fixture")
    with HubFleet(tmp_path / "fleet", size=3) as fleet:
        fleet.publish(repo, "shared", description="chaos target")
        assert fleet.sync() == 2  # both replicas caught up
        yield fleet


def _require_multi_file_tree(fleet: HubFleet) -> None:
    """Mid-tree failover scenarios need a published tree of >= 2 files;
    a single-file sqlite repo completes the transfer in one request."""
    if len(fleet.primary.server.manifest("shared", 1)) < 2:
        pytest.skip("single-file repo: no mid-tree transfer to fail over")


def pulled_ok(fleet: HubFleet, dest) -> None:
    """The pulled tree byte-matches the published manifest."""
    manifest = fleet.primary.server.manifest("shared", 1)
    tree = dest / Repository.DLV_DIR
    verify_tree(tree, manifest)
    assert compute_manifest(tree) == manifest


# -- the network-fault matrix ----------------------------------------------------

MATRIX = [
    pytest.param(
        dict(action="error", status=500), id="http-500"
    ),
    pytest.param(
        dict(action="unavailable", retry_after=0.0), id="unavailable-503"
    ),
    pytest.param(dict(action="drop"), id="connection-drop"),
    pytest.param(
        dict(action="truncate", offset=64), id="truncated-body"
    ),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("fault", MATRIX)
    def test_peer_faulted_mid_transfer(self, model_fleet, tmp_path, fault):
        _require_multi_file_tree(model_fleet)
        # n0 serves the first file, then every later file request fails:
        # the node "dies" partway through the tree.
        plan = NetFaultPlan([
            NetFaultPoint(site=f"n0:{FILES}", op=1, count=ALWAYS, **fault)
        ])
        registry = get_registry()
        before = registry.counter("hub.fleet.failovers").value
        with model_fleet.client() as client, inject_net(plan):
            dest = client.pull("shared", tmp_path / "pulled")
        pulled_ok(model_fleet, dest)
        assert plan.fired, "the fault schedule never triggered"
        assert registry.counter("hub.fleet.failovers").value > before

    def test_slow_peer_delay_is_injected_not_real(
        self, model_fleet, tmp_path
    ):
        slept = []
        plan = NetFaultPlan(
            [
                NetFaultPoint(
                    site="n0:*", action="delay", delay_s=45.0, count=ALWAYS
                )
            ],
            sleep=slept.append,
        )
        with model_fleet.client() as client, inject_net(plan):
            dest = client.pull("shared", tmp_path / "pulled")
        pulled_ok(model_fleet, dest)
        # The "slow peer" slowness all went through the injected sleep.
        assert slept and all(s == 45.0 for s in slept)

    def test_flapping_peers(self, model_fleet, tmp_path):
        # n0 down for its first two requests, n1 errors a window, n0
        # later truncates one response — the pull routes around all of it.
        plan = NetFaultPlan([
            NetFaultPoint(site="n0:*", op=0, count=2, action="drop"),
            NetFaultPoint(site="n1:*", op=2, count=2, action="error"),
            NetFaultPoint(
                site="n0:*", op=6, count=1, action="truncate", offset=32
            ),
        ])
        with model_fleet.client() as client, inject_net(plan):
            dest = client.pull("shared", tmp_path / "pulled")
        pulled_ok(model_fleet, dest)


# -- killed nodes ----------------------------------------------------------------


class TestKilledNodes:
    def test_replica_killed(self, model_fleet, tmp_path):
        model_fleet.kill(2)
        with model_fleet.client() as client:
            dest = client.pull("shared", tmp_path / "pulled")
        pulled_ok(model_fleet, dest)

    def test_primary_killed_replicas_serve(self, model_fleet, tmp_path):
        manifest = model_fleet.primary.server.manifest("shared", 1)
        model_fleet.kill(0)
        with model_fleet.client() as client:
            dest = client.pull("shared", tmp_path / "pulled")
        tree = dest / Repository.DLV_DIR
        verify_tree(tree, manifest)

    def test_one_killed_one_faulted_last_peer_carries(
        self, model_fleet, tmp_path
    ):
        model_fleet.kill(2)
        plan = NetFaultPlan([
            NetFaultPoint(site="n0:*", action="drop", count=ALWAYS)
        ])
        with model_fleet.client() as client, inject_net(plan):
            dest = client.pull("shared", tmp_path / "pulled")
        pulled_ok(model_fleet, dest)

    def test_everything_down_fails_loudly_not_hangs(
        self, model_fleet, tmp_path
    ):
        model_fleet.kill(1)
        model_fleet.kill(2)
        plan = NetFaultPlan([
            NetFaultPoint(site="n0:*", action="drop", count=ALWAYS)
        ])
        with model_fleet.client() as client, inject_net(plan):
            with pytest.raises(NoHealthyPeer):
                client.pull("shared", tmp_path / "pulled")


# -- resume accounting -----------------------------------------------------------


class TestNoRefetch:
    def test_failover_does_not_refetch_verified_files(
        self, model_fleet, tmp_path
    ):
        _require_multi_file_tree(model_fleet)
        # The zero-delay observer fires on every *served* file request
        # (the drop point wins on faulted ones), so `plan.fired` is a
        # complete log of which file fetches actually delivered bytes.
        plan = NetFaultPlan(
            [
                NetFaultPoint(
                    site=f"n0:{FILES}", op=2, count=ALWAYS, action="drop"
                ),
                NetFaultPoint(
                    site=f"*:{FILES}",
                    action="delay",
                    delay_s=0.0,
                    count=ALWAYS,
                ),
            ],
            sleep=lambda s: None,
        )
        with model_fleet.client() as client, inject_net(plan):
            dest = client.pull("shared", tmp_path / "pulled")
        pulled_ok(model_fleet, dest)
        manifest = model_fleet.primary.server.manifest("shared", 1)
        served = [f for f in plan.fired if f.action == "delay"]
        dropped = [f for f in plan.fired if f.action == "drop"]
        assert dropped, "n0 never failed — scenario did not exercise failover"
        # Every file delivered exactly once despite the mid-tree failover:
        # the two files n0 completed were never refetched from n1/n2.
        assert len(served) == len(manifest)


# -- the serving tier rides through ----------------------------------------------


class TestServeUnderChaos:
    def test_serve_boot_and_predict_from_degraded_fleet(
        self, model_fleet, digits
    ):
        plan = NetFaultPlan([
            NetFaultPoint(site="n0:*", action="drop", count=ALWAYS)
        ])
        with inject_net(plan):
            path = HubClient(model_fleet.urls).pull_for_serving("shared")
        repo = Repository.open(path)
        try:
            server = ModelServer(
                repo,
                ServeConfig(max_wait_ms=2.0, drain_timeout_s=5.0),
                registry=MetricsRegistry(),
            )
            with server:
                out = ServeClient(
                    port=server.port, timeout=30.0
                ).predict("tiny", digits.x_test[:4])
            assert len(out.predictions) == 4
        finally:
            repo.close()
