"""``lifecycle``: the DLV verbs a modeler runs, through ``cli.main``.

One round: ``commit`` every version (lineage chains) -> ``archive`` ->
``publish`` -> ``pull`` over HTTP from a ``hub-serve`` subprocess ->
``export`` every version from the *pulled* copy -> ``archive --dedup``
-> ``export`` every version again -> ``gc``.  Each round starts from a
fresh repository and a fresh pull destination.  Rounds repeat until the
measuring time is used up (at least one); a few fresh-interpreter
``dlv list`` calls close the run.

Writes sit beside reads on the same storage / dedup / codec layers: a
decode speed-up bought with a costlier encode or more stored bytes shows
here as ``archive_dedup_s`` / ``stored_bytes_per_model`` getting worse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
from harness import dlv


@dataclass
class Version:
    name: str
    parent: str | None
    model_dir: Path
    weights: dict


@dataclass
class LifecycleSetup:
    versions: list
    hub_dir: Path
    raw_bytes: int            # float32 parameter bytes over all versions
    setup_s: float


@dataclass
class Ops:
    """Latencies (seconds) per verb, plus what the checks found."""

    seconds: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    stored_bytes: list = field(default_factory=list)
    dedup_ratio: list = field(default_factory=list)
    exports: int = 0
    exports_bit_exact: int = 0

    def add(self, kind: str, elapsed: float, ok: bool = True) -> None:
        self.seconds.setdefault(kind, []).append(elapsed)
        self.attempted += 1
        if not ok:
            self.failed += 1


def setup(seed: int, chains: int, per_chain: int, hidden: int,
          workdir: Path) -> LifecycleSetup:
    """Train a base, derive the lineage chains, write the model dirs."""
    from repro.dlv.wrapper import save_model_dir

    start = time.perf_counter()
    dataset = harness.make_dataset(seed)
    base, config = harness.train_base(dataset, hidden, seed, "base")
    rng = np.random.default_rng([seed, 29])
    versions = []
    for chain in range(chains):
        net = harness.perturbed(base, rng, f"c{chain}")
        parent = None
        for step in range(per_chain):
            name = f"c{chain}-{step}"
            net = harness.perturbed(net, rng, name)
            path = save_model_dir(workdir / f"model-{name}", net, config)
            versions.append(Version(name, parent, path, net.get_weights()))
            parent = name
    hub_dir = workdir / "hub"
    hub_dir.mkdir()
    return LifecycleSetup(
        versions, hub_dir, base.param_count() * 4 * len(versions),
        time.perf_counter() - start,
    )


def boot_probe(setup_: LifecycleSetup, workdir: Path) -> float:
    """Boot ``hub-serve`` on the set-up's hub only to time the boot."""
    return harness.boot_seconds(
        harness.start_hub(workdir, setup_.hub_dir), False
    )


def _export_all(ops: Ops, kind: str, repo: str, dest_root: Path,
                versions: list, op, corrupt: bool) -> None:
    from repro.dlv.wrapper import load_network

    for index, version in enumerate(versions):
        dest = dest_root / version.name
        with op(kind):
            elapsed, _ = dlv("--repo", repo, "export", version.name, str(dest))
        want = version.weights
        if corrupt and index == 0:
            # A wrong expectation must count as a failed operation.
            want = {layer: {k: v + 1 for k, v in params.items()}
                    for layer, params in want.items()}
        close, exact = harness.compare_weights(
            load_network(dest).get_weights(), want
        )
        ops.add(kind, elapsed, ok=close)
        ops.exports += 1
        ops.exports_bit_exact += exact


def one_round(ops: Ops, setup_: LifecycleSetup, hub_url: str, root: Path,
              tracer=None, corrupt: bool = False) -> None:
    """One full lifecycle round under ``root`` (fresh repo, fresh pull)."""
    from repro.dlv.repository import Repository
    from repro.hub.httpd import RemoteHub
    from repro.hub.server import verify_tree

    op = harness.op_marker(tracer)
    repo = str(root / "repo")
    pulled = root / "pulled"
    name = f"fam-{root.name}"
    with op("init"):
        dlv("--repo", repo, "init")
    for version in setup_.versions:
        args = ["--repo", repo, "commit", "--model-dir",
                str(version.model_dir), "--name", version.name, "-m", "bench"]
        if version.parent:
            args += ["--parent", version.parent]
        with op("commit"):
            elapsed, _ = dlv(*args)
        ops.add("commit", elapsed)

    with op("archive"):
        elapsed, report = dlv("--repo", repo, "archive", "--alpha", "1.6")
    ops.add("archive", elapsed, ok=report["satisfied"])

    with op("publish"):
        elapsed, _ = dlv("--repo", repo, "publish", "--hub",
                         str(setup_.hub_dir), "--name", name)
    ops.add("publish", elapsed)

    with op("pull"):
        elapsed, _ = dlv("pull", "--hub", hub_url, name, str(pulled))
    ok = True
    try:
        with RemoteHub(hub_url) as hub:
            verify_tree(pulled / ".dlv", hub.manifest(name))
        Repository.open(str(pulled)).close()
    except (OSError, ValueError, KeyError):
        ok = False
    ops.add("pull", elapsed, ok=ok)

    _export_all(ops, "checkout", str(pulled), root / "exported",
                setup_.versions, op, corrupt)

    with op("archive_dedup"):
        elapsed, report = dlv("--repo", repo, "archive", "--alpha", "1.6",
                              "--dedup")
    ops.add("archive_dedup", elapsed, ok=report["satisfied"])
    ops.stored_bytes.append(report["bytes_after"])
    ops.dedup_ratio.append(report["bytes_before"] / report["bytes_after"])

    _export_all(ops, "checkout_dedup", repo, root / "exported-dedup",
                setup_.versions, op, False)

    with op("gc"):
        elapsed, _ = dlv("--repo", repo, "gc")
    ops.add("gc", elapsed)


def cold_starts(ops: Ops, workdir: Path, repo: str, count: int) -> None:
    for _ in range(count):
        try:
            ops.add("cli_cold_start",
                    harness.dlv_cold(workdir, "--repo", repo, "list"))
        except harness.OpFailed:
            ops.add("cli_cold_start", 0.0, ok=False)


def run_rounds(setup_: LifecycleSetup, workdir: Path, tag: str,
               seconds: float, cold: int, tracer=None,
               spans_path: Path | None = None,
               corrupt: bool = False) -> tuple[Ops, float]:
    """Boot ``hub-serve``, run whole rounds for ``seconds`` (at least
    one), then the cold starts.  Returns the ops and the hub's boot time."""
    ops = Ops()
    hub = harness.start_hub(workdir, setup_.hub_dir, spans_path)
    try:
        begin = time.perf_counter()
        index = 0
        while True:
            root = workdir / f"{tag}-round-{index}"
            root.mkdir()
            one_round(ops, setup_, hub.info["url"], root, tracer,
                      corrupt and index == 0)
            index += 1
            if time.perf_counter() - begin >= seconds:
                break
        cold_starts(ops, workdir, str(root / "repo"), cold)
        hub.stop(require_drained=False)
    finally:
        hub.kill()          # no-op once stopped
    return ops, hub.boot_s
