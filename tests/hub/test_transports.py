"""Transport conformance: one read protocol, one pull, four hub locations.

Every test runs against a directory hub, one HTTP URL, a 1-peer fleet
and a synced 3-peer fleet.  The *protocol* suite drives the six read
calls on each implementer (``HubServer``, ``RemoteHub``, ``FleetClient``);
the *pull* suite drives ``HubClient.pull`` — the one engine — through
every location shape ``HubClient`` accepts.  Fetch failures are injected
at ``HubServer.fetch_file``, the storage every transport reads through.
"""

from __future__ import annotations

import json

import pytest

from repro.dlv.repository import Repository
from repro.dnn.zoo import tiny_mlp
from repro.faults import CrashSimulated, FaultPlan, FaultPoint, inject
from repro.hub import FleetClient, HubClient, HubFleet, RemoteHub
from repro.hub.retry import Retrier
from repro.hub.server import HubIntegrityError, HubServer, compute_manifest
from repro.hub.transfer import PARTIAL_STATE_NAME, TMP_DIR_NAME, PartialState
from repro.obs.cost import cost_context
from repro.obs.metrics import get_registry
from repro.obs.tracing import TraceRecorder, set_recorder, trace_span

WORKSPACE = sorted([TMP_DIR_NAME, PARTIAL_STATE_NAME])
FILES = {"a.bin": b"A" * 4096, "b.bin": b"B" * 2048, "c.bin": b"C" * 1024,
         "sub/d.bin": b"D" * 512}


def write_tree(root, files=FILES):
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


class Transport:
    """One hub location; ``stores[0]`` is where publishes land."""

    def __init__(self, kind: str, fleet: HubFleet) -> None:
        self.kind, self.fleet = kind, fleet
        self.stores = [server.server for server in fleet.servers]
        self.location = {
            "directory": self.stores[0],
            "http": fleet.urls[0],
            "fleet1": [fleet.urls[0]],
            "fleet3": ",".join(fleet.urls),
        }[kind]

    def publish(self, name, tree):
        record = self.stores[0].publish(name, tree)
        self.fleet.sync()
        return record

    def source(self):
        """The implementer of the six read calls for this location."""
        if self.kind == "directory":
            return self.stores[0]
        if self.kind == "http":
            return RemoteHub(self.location)
        return FleetClient(self.location)

    def client(self, attempts: int = 1) -> HubClient:
        return HubClient(
            self.location,
            retrier=Retrier(attempts=attempts, sleep=lambda s: None),
        )


@pytest.fixture(params=["directory", "http", "fleet1", "fleet3"])
def hub(request, tmp_path):
    size = 3 if request.param == "fleet3" else 1
    with HubFleet(tmp_path / "hubs", size=size) as fleet:
        transport = Transport(request.param, fleet)
        transport.publish("demo", write_tree(tmp_path / "tree"))
        yield transport


@pytest.fixture
def fetch_faults(monkeypatch):
    """Make chosen ``HubServer.fetch_file`` calls (0-based) raise."""
    real, state = HubServer.fetch_file, {"calls": 0, "fail": range(0)}

    def fetch_file(self, *args, **kwargs):
        state["calls"] += 1
        if state["calls"] - 1 in state["fail"]:
            raise OSError("injected fetch failure")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(HubServer, "fetch_file", fetch_file)
    return state


def counters(*names):
    registry = get_registry()
    return [registry.counter(f"hub.pull.{name}").value for name in names]


def pulled_files(dest):
    tree = dest / Repository.DLV_DIR
    return {p.relative_to(tree).as_posix(): p.read_bytes()
            for p in tree.rglob("*") if p.is_file()}


# -- the read protocol ----------------------------------------------------------


class TestProtocol:
    def test_six_read_calls(self, hub):
        source = hub.source()
        manifest = compute_manifest(hub.stores[0].get("demo", 1))
        assert [r.name for r in source.search("dem*")] == ["demo"]
        assert source.search("nothing*") == []
        assert source.revisions("demo") == [1]
        assert source.resolve_revision("demo") == 1
        assert source.manifest("demo") == source.manifest("demo", 1) == manifest
        assert source.files("demo", 1) == sorted(FILES)
        assert source.fetch_file("demo", 1, "sub/d.bin") == FILES["sub/d.bin"]
        assert source.fetch_file("demo", 1, "a.bin", 4000) == b"A" * 96

    def test_unknown_name_or_revision_is_keyerror(self, hub):
        source = hub.source()
        assert source.revisions("ghost") == []
        for call in (
            lambda: source.resolve_revision("ghost"),
            lambda: source.manifest("ghost"),
            lambda: source.files("ghost"),
            lambda: source.fetch_file("ghost", 1, "a.bin"),
            lambda: source.manifest("demo", 99),
            lambda: source.files("demo", 99),
            lambda: source.fetch_file("demo", 99, "a.bin"),
            lambda: source.fetch_file("demo", 1, "nope.bin"),
        ):
            with pytest.raises(KeyError):
                call()

    def test_traversal_refused(self, hub):
        source = hub.source()
        for rel in ("../../index.json", "../1.manifest.json", "sub/../.."):
            with pytest.raises(PermissionError, match="escapes"):
                source.fetch_file("demo", 1, rel)

    def test_legacy_revision_without_manifest(self, hub, tmp_path):
        for store in hub.stores:
            store._manifest_path("demo", 1).unlink()
        source = hub.source()
        assert source.manifest("demo", 1) is None
        assert source.files("demo", 1) == sorted(FILES)
        dest = hub.client().pull("demo", tmp_path / "legacy")
        assert pulled_files(dest) == FILES


# -- the pull -------------------------------------------------------------------


class TestPull:
    def test_pull_verifies_and_opens(self, hub, tmp_path):
        repo = Repository.init(str(tmp_path / "repo"))
        net = tiny_mlp(
            input_shape=(1, 4, 4), num_classes=3, hidden=4, name="m"
        ).build(0)
        repo.commit(net, name="m", message="v1")
        HubClient(hub.stores[0]).publish(repo, "pub", description="real")
        repo.close()
        hub.fleet.sync()
        verified = get_registry().counter("hub.pulls_verified").value
        pulled = hub.client().pull_repository("pub", tmp_path / "pulled")
        assert [v.message for v in pulled.list_versions()] == ["v1"]
        pulled.close()
        assert not list((tmp_path / "pulled").glob(".dlv.pull.*"))
        assert get_registry().counter("hub.pulls_verified").value == verified + 1

    def test_explicit_revision_and_latest(self, hub, tmp_path):
        hub.publish("demo", write_tree(tmp_path / "v2", {"a.bin": b"A2" * 600}))
        client = hub.client()
        assert client.revisions("demo") == [1, 2]
        assert pulled_files(client.pull("demo", tmp_path / "r1", 1)) == FILES
        assert pulled_files(client.pull("demo", tmp_path / "r2")) == {
            "a.bin": b"A2" * 600
        }

    def test_refuses_to_clobber(self, hub, tmp_path):
        client = hub.client()
        client.pull("demo", tmp_path / "once")
        with pytest.raises(FileExistsError):
            client.pull("demo", tmp_path / "once")

    def test_failure_before_transfer_leaves_nothing(self, hub, tmp_path):
        client = hub.client()
        with pytest.raises(KeyError):
            client.pull("ghost", tmp_path / "fresh")
        assert not (tmp_path / "fresh").exists()
        mine = tmp_path / "mine"
        mine.mkdir()
        (mine / "keep.txt").write_text("mine")
        with pytest.raises(KeyError):
            client.pull("demo", mine, revision=7)
        assert [p.name for p in mine.iterdir()] == ["keep.txt"]

    def test_failed_transfer_keeps_workspace_then_resumes(
        self, hub, tmp_path, fetch_faults
    ):
        dest = tmp_path / "pulled"
        dest.mkdir()
        (dest / "keep.txt").write_text("mine")
        fetch_faults["fail"] = range(2, 10**6)  # two files land, then never
        with pytest.raises(OSError):
            hub.client(attempts=2).pull("demo", dest)
        assert sorted(p.name for p in dest.iterdir()) == sorted(
            WORKSPACE + ["keep.txt"]
        )
        fetch_faults["fail"] = range(0)
        before = counters("files_resumed", "files_fetched")
        hub.client().pull("demo", dest)
        after = counters("files_resumed", "files_fetched")
        assert [b - a for a, b in zip(before, after)] == [2, len(FILES) - 2]
        assert pulled_files(dest) == FILES
        assert sorted(p.name for p in dest.iterdir()) == [".dlv", "keep.txt"]

    def test_transient_fetch_failure_is_absorbed(
        self, hub, tmp_path, fetch_faults
    ):
        fetch_faults["fail"] = range(1, 2)
        dest = hub.client(attempts=2).pull("demo", tmp_path / "retried")
        assert pulled_files(dest) == FILES
        # Retry == resume: every file was delivered exactly once.
        assert fetch_faults["calls"] == len(FILES) + 1

    def test_crash_leaves_wellknown_workspace_next_pull_adopts(
        self, hub, tmp_path
    ):
        dest = tmp_path / "pulled"
        # The state is saved when the workspace opens and once per file:
        # dying on the third save leaves one file recorded, a second on
        # disk but unrecorded.
        plan = FaultPlan(
            [FaultPoint(site="hub.pull.partial", op=2, action="crash")]
        )
        beside = {p.name for p in tmp_path.iterdir()}
        with inject(plan), pytest.raises(CrashSimulated):
            hub.client().pull("demo", dest)
        assert sorted(p.name for p in dest.iterdir()) == WORKSPACE
        assert {p.name for p in tmp_path.iterdir()} - beside == {"pulled"}
        state = json.loads((dest / PARTIAL_STATE_NAME).read_text())
        assert (state["name"], state["revision"]) == ("demo", 1)
        assert len(state["completed"]) == 1
        before = counters("resumes", "files_resumed", "files_fetched")
        hub.client().pull("demo", dest)
        after = counters("resumes", "files_resumed", "files_fetched")
        assert [b - a for a, b in zip(before, after)] == [1, 1, len(FILES) - 1]
        assert pulled_files(dest) == FILES
        assert [p.name for p in dest.iterdir()] == [".dlv"]

    def test_mid_file_prefix_resumes_from_offset(self, hub, tmp_path):
        # What a peer dying mid-*file* leaves: matching state, a correct
        # 100-byte prefix of a.bin in the temp tree, no state entry.
        dest = tmp_path / "pulled"
        write_tree(dest / TMP_DIR_NAME, {"a.bin": b"A" * 100})
        PartialState(dest / PARTIAL_STATE_NAME, "demo", 1).save()
        [before] = counters("bytes_resumed")
        with cost_context() as cost:
            hub.client().pull("demo", dest)
        assert pulled_files(dest) == FILES
        assert counters("bytes_resumed") == [before + 100]
        # Only the tail moved.
        assert cost.bytes_read == sum(map(len, FILES.values())) - 100

    def test_state_for_other_revision_is_discarded(self, hub, tmp_path):
        dest = tmp_path / "pulled"
        write_tree(dest / TMP_DIR_NAME, {"a.bin": FILES["a.bin"]})
        state = PartialState(dest / PARTIAL_STATE_NAME, "demo", 1)
        state.mark("a.bin", compute_manifest(dest / TMP_DIR_NAME)["a.bin"])
        hub.publish("demo", write_tree(tmp_path / "v2", {"z.bin": b"Z" * 9}))
        before = counters("resumes")
        hub.client().pull("demo", dest)
        assert counters("resumes") == before
        assert pulled_files(dest) == {"z.bin": b"Z" * 9}

    def test_corrupt_source_rejected(self, hub, tmp_path):
        for store in hub.stores:  # bad bytes, good manifest, on every peer
            victim = store.get("demo", 1) / "b.bin"
            victim.write_bytes(victim.read_bytes() + b"tampered")
        with pytest.raises(OSError) as excinfo:
            hub.client(attempts=2).pull("demo", tmp_path / "rejected")
        error = excinfo.value
        assert isinstance(error, HubIntegrityError) or isinstance(
            error.__cause__, HubIntegrityError
        )
        assert not (tmp_path / "rejected" / Repository.DLV_DIR).exists()

    def test_corrupted_adopted_file_heals(self, hub, tmp_path):
        """Regression: a torn file recorded as complete used to fail every
        later pull at the whole-tree check."""
        dest = tmp_path / "pulled"
        plan = FaultPlan([FaultPoint(site="hub.pull.replace", action="crash")])
        with inject(plan), pytest.raises(CrashSimulated):
            hub.client().pull("demo", dest)  # workspace complete, not installed
        victim = dest / TMP_DIR_NAME / "c.bin"
        victim.write_bytes(b"X" + victim.read_bytes()[1:])
        before = counters("files_fetched")
        hub.client().pull("demo", dest)
        assert counters("files_fetched") == [before[0] + 1]
        assert pulled_files(dest) == FILES

    def test_bills_cost_and_joins_caller_trace(self, hub, tmp_path):
        recorder = TraceRecorder(capacity=512)
        previous = set_recorder(recorder)
        try:
            with trace_span("driver") as driver, cost_context() as cost:
                hub.client().pull("demo", tmp_path / "pulled")
        finally:
            set_recorder(previous)
        assert cost.bytes_read == sum(map(len, FILES.values()))
        assert cost.chunks_fetched == len(FILES)
        [pull] = recorder.spans("hub.pull")
        assert pull.trace_id == driver.trace_id
        assert pull.attrs["files_fetched"] == len(FILES)

    def test_pull_for_serving_cleans_scratch_on_failure(
        self, hub, fetch_faults, monkeypatch, tmp_path
    ):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path / "scratch"))
        (tmp_path / "scratch").mkdir()
        fetch_faults["fail"] = range(10**6)
        with pytest.raises(OSError):
            hub.client().pull_for_serving("demo")
        assert list((tmp_path / "scratch").iterdir()) == []


# -- visibility follows the commit point ---------------------------------------


def test_crashed_publish_is_invisible_everywhere(hub, tmp_path):
    """Regression: a publish that died before its manifest/index landed
    was served as "latest" over HTTP, unverified."""
    v2 = write_tree(tmp_path / "v2", {"a.bin": b"A2" * 600})
    plan = FaultPlan([FaultPoint(site="hub.publish.manifest", action="crash")])
    with inject(plan), pytest.raises(CrashSimulated):
        hub.stores[0].publish("demo", v2)
    assert (hub.stores[0].root / "repos" / "demo" / "2").is_dir()
    hub.fleet.sync()
    source = hub.source()
    assert source.resolve_revision("demo") == 1
    assert source.revisions("demo") == [1]
    with pytest.raises(KeyError):
        source.files("demo", 2)
    assert [store.watermark() for store in hub.stores] == [1] * len(hub.stores)
    assert pulled_files(hub.client().pull("demo", tmp_path / "p1")) == FILES
    # The leftover is overwritten by the next publish, which is verified.
    assert hub.publish("demo", v2).revision == 2
    verified = get_registry().counter("hub.pulls_verified").value
    assert pulled_files(hub.client().pull("demo", tmp_path / "p2")) == {
        "a.bin": b"A2" * 600
    }
    assert get_registry().counter("hub.pulls_verified").value == verified + 1
