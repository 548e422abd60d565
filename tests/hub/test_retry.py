"""Hub robustness: the ``Retrier`` and checksum manifests.

Atomic, retried and resumed pulls are in ``test_transports.py``.
"""

from __future__ import annotations

import pytest

from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.faults import CrashSimulated
from repro.hub.client import HubClient
from repro.hub.retry import Retrier, RetryDeadlineExceeded
from repro.hub.server import (
    HubIntegrityError,
    HubServer,
    compute_manifest,
    verify_tree,
)


@pytest.fixture
def published(tmp_path):
    """A hub with one published single-version repository."""
    repo = Repository.init(str(tmp_path / "repo"))
    net = tiny_mlp(
        input_shape=(1, 4, 4), num_classes=3, hidden=4, name="m"
    ).build(0)
    repo.commit(net, name="m", message="v1")
    server = HubServer(tmp_path / "hub")
    client = HubClient(server, retrier=Retrier(sleep=lambda s: None))
    record = client.publish(repo, name="pub", description="test")
    repo.close()
    return server, client, record, tmp_path


# -- Retrier ---------------------------------------------------------------------


def test_retrier_delays_are_deterministic():
    a = Retrier(seed=42)
    b = Retrier(seed=42)
    assert [a.delay(i) for i in range(4)] == [b.delay(i) for i in range(4)]
    assert Retrier(seed=1).delay(0) != Retrier(seed=2).delay(0)
    for i in range(6):
        assert 0.0 <= a.jitter(i) < 1.0


def test_retrier_backoff_grows():
    r = Retrier(base_delay=0.1, max_delay=10.0, seed=0)
    # Un-jittered base doubles; jitter scales by [0.5, 1.5) so a 4x gap
    # between consecutive attempts' bases always dominates it.
    assert r.delay(2) > r.delay(0)


def test_retrier_retries_then_succeeds():
    sleeps = []
    r = Retrier(attempts=4, sleep=sleeps.append, seed=0)
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("transient")
        return "ok"

    assert r.call(flaky) == "ok"
    assert calls["n"] == 3
    assert sleeps == [r.delay(0), r.delay(1)]


def test_retrier_gives_up_and_reraises():
    r = Retrier(attempts=3, sleep=lambda s: None)

    def always_fails():
        raise OSError("persistent")

    with pytest.raises(OSError, match="persistent"):
        r.call(always_fails)


def test_retrier_ignores_non_retryable():
    r = Retrier(attempts=5, sleep=lambda s: None)
    calls = {"n": 0}

    def typed():
        calls["n"] += 1
        raise ValueError("not io")

    with pytest.raises(ValueError):
        r.call(typed)
    assert calls["n"] == 1


def test_retrier_never_absorbs_simulated_crash():
    r = Retrier(attempts=5, sleep=lambda s: None)
    calls = {"n": 0}

    def dead():
        calls["n"] += 1
        raise CrashSimulated("process died")

    with pytest.raises(CrashSimulated):
        r.call(dead)
    assert calls["n"] == 1


def test_retrier_validates_attempts():
    with pytest.raises(ValueError):
        Retrier(attempts=0)
    with pytest.raises(ValueError):
        Retrier(deadline_s=0.0)


def test_retrier_deadline_caps_total_elapsed():
    clock = {"now": 0.0}
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        clock["now"] += seconds

    r = Retrier(
        attempts=10,
        base_delay=1.0,
        max_delay=64.0,
        sleep=sleep,
        deadline_s=5.0,
        clock=lambda: clock["now"],
    )
    calls = {"n": 0}

    def failing():
        calls["n"] += 1
        raise OSError("still down")

    with pytest.raises(RetryDeadlineExceeded) as excinfo:
        r.call(failing)
    # Gave up because time ran out, not because attempts did — and the
    # retrier refused the sleep that would have overrun the deadline.
    assert calls["n"] < 10
    assert isinstance(excinfo.value.__cause__, OSError)
    assert sum(slept) <= 5.0


def test_retrier_deadline_allows_success_within_budget():
    clock = {"now": 0.0}

    def sleep(seconds):
        clock["now"] += seconds

    r = Retrier(
        attempts=5,
        base_delay=0.01,
        sleep=sleep,
        deadline_s=60.0,
        clock=lambda: clock["now"],
    )
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("transient")
        return "ok"

    assert r.call(flaky) == "ok"


def test_retrier_honors_retry_after_hint():
    slept = []
    r = Retrier(attempts=3, base_delay=100.0, sleep=slept.append)
    calls = {"n": 0}

    def overloaded():
        calls["n"] += 1
        if calls["n"] == 1:
            exc = OSError("429 slow down")
            exc.retry_after = 2.5
            raise exc
        return "ok"

    assert r.call(overloaded) == "ok"
    # The server's hint replaced the (huge) computed backoff.
    assert slept == [2.5]


def test_retry_after_still_capped_by_deadline():
    clock = {"now": 0.0}
    r = Retrier(
        attempts=5,
        sleep=lambda s: None,
        deadline_s=10.0,
        clock=lambda: clock["now"],
    )

    def overloaded():
        exc = OSError("503")
        exc.retry_after = 30.0  # longer than the caller can wait
        raise exc

    with pytest.raises(RetryDeadlineExceeded):
        r.call(overloaded)


def test_remote_hub_unavailable_drives_retry_after(tmp_path):
    """End-to-end: a 503 + Retry-After from the wire reaches the Retrier."""
    from repro.faults.net import NetFaultPlan, NetFaultPoint, inject_net
    from repro.hub.httpd import HubHTTPServer, RemoteHub

    hub = HubServer(tmp_path / "hub")
    src = tmp_path / "tree"
    src.mkdir()
    (src / "x.bin").write_bytes(b"x")
    hub.publish("demo", src)
    slept = []
    r = Retrier(attempts=2, sleep=slept.append)
    plan = NetFaultPlan([
        NetFaultPoint(
            site="n9:*", action="unavailable", retry_after=1.25
        )
    ])
    with HubHTTPServer(hub, peer_name="n9") as server:
        with RemoteHub(server.url, timeout=5) as remote:
            with inject_net(plan):
                assert r.call(remote.revisions, "demo") == [1]
    assert slept == [1.25]


# -- manifests --------------------------------------------------------------------


def test_publish_writes_manifest(published):
    server, _client, record, _tmp = published
    manifest = server.manifest("pub", record.revision)
    assert manifest is not None
    tree = server.get("pub", record.revision)
    assert manifest == compute_manifest(tree)
    assert "catalog.db" in manifest


def test_verify_tree_detects_tamper(published):
    server, _client, record, tmp = published
    tree = server.get("pub", record.revision)
    manifest = server.manifest("pub", record.revision)
    verify_tree(tree, manifest)  # intact: no raise
    victim = tree / "catalog.db"
    victim.write_bytes(victim.read_bytes() + b"x")
    with pytest.raises(HubIntegrityError, match="checksum mismatch"):
        verify_tree(tree, manifest)


def test_verify_tree_detects_missing_file(tmp_path):
    (tmp_path / "present").write_text("x")
    manifest = compute_manifest(tmp_path)
    manifest["gone"] = "0" * 64
    with pytest.raises(HubIntegrityError, match="missing gone"):
        verify_tree(tmp_path, manifest)
