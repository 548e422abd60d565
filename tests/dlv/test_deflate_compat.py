"""Stored forms and model directories written by older versions still read.

Blobs are deflated with ``Z_RLE`` now; older versions used deflate's
default strategy.  Both are zlib streams under the same address, so a
repository written the old way opens, exports, checks, re-archives and
collects as it did, and a blob it already holds keeps its old bytes.
Older versions also wrote ``weights.npz`` compressed; ``dlv commit``
still reads that.
"""

from __future__ import annotations

import zipfile
import zlib

import numpy as np
import pytest

from repro.core.chunkstore import BlobCodec
from repro.dlv.cli import main as dlv_main
from repro.dlv.fsck import run_fsck
from repro.dlv.repository import Repository
from repro.dlv.wrapper import load_network, save_model_dir
from repro.dnn.zoo import tiny_mlp
from tests.dlv.test_packs import _exports
from tests.dlv.test_write_path import _nudged

TIERS = ("store", "replica", "pages")


def _default_strategy(_codec, data: bytes) -> bytes:
    """The stored form older versions wrote."""
    return zlib.compress(data, 6)


def _stored(repo) -> dict[str, dict[str, bytes]]:
    """Every tier's ``address -> stored form``."""
    return {
        tier: {
            sha: getattr(repo, tier).read_stored(sha)
            for sha in getattr(repo, tier).addresses()
        }
        for tier in TIERS
    }


@pytest.mark.parametrize("backend", ["local-fs", "sqlite"])
def test_default_strategy_repository_reads_and_keeps_its_bytes(
    make_repo_target, backend, monkeypatch, tmp_path
):
    target = make_repo_target(backend)
    monkeypatch.setattr(BlobCodec, "_encode", _default_strategy)
    repo = Repository.init(target)
    v1 = tiny_mlp(hidden=16, num_classes=4).build(0)
    v2 = _nudged(v1, 1, "v2")
    repo.commit(v1, name="v1")
    repo.commit(v2, name="v2", parent="v1")
    old_exports = _exports(repo, tmp_path / "old")
    old_stored = _stored(repo)
    repo.close()
    monkeypatch.undo()

    repo = Repository.open(target)
    assert _exports(repo, tmp_path / "opened") == old_exports
    assert run_fsck(repo).clean
    # Re-commit v2's weights: every chunk it puts is one the store holds.
    again = repo.commit(v2, name="again", parent="v1")
    reput = {
        sha
        for matrix in repo.catalog.get_matrices(again.id)
        for sha in repo.catalog.get_payload(matrix["matrix_id"])["chunks"]
    }
    assert reput and reput <= set(old_stored["store"])
    # ...whose new stored form differs, so keeping the old one is a choice.
    assert any(
        repo.store._encode(zlib.decompress(old_stored["store"][sha]))
        != old_stored["store"][sha]
        for sha in reput
    )
    for tier in TIERS:
        held = _stored(repo)[tier]
        assert {sha: held[sha] for sha in old_stored[tier]} == old_stored[tier]
    old_exports["again"] = old_exports["v2"]
    assert _exports(repo, tmp_path / "reput") == old_exports

    repo.archive(alpha=4.0, dedup=True)
    assert "pages" in {p["kind"] for p in repo.catalog.all_payloads()}
    repo.gc()
    assert _exports(repo, tmp_path / "dedup") == old_exports
    assert run_fsck(repo).clean
    repo.close()


def test_compressed_weights_npz_commits_and_exports_bit_exactly(tmp_path):
    net = tiny_mlp(hidden=16, num_classes=4, name="old").build(3)
    model = save_model_dir(tmp_path / "model", net)
    flat = {
        f"{layer}/{param}": value
        for layer, params in net.get_weights().items()
        for param, value in params.items()
    }
    np.savez_compressed(model / "weights.npz", **flat)
    with zipfile.ZipFile(model / "weights.npz") as npz:
        assert {i.compress_type for i in npz.infolist()} == {zipfile.ZIP_DEFLATED}
    root = str(tmp_path / "repo")
    assert dlv_main(["--repo", root, "init"]) == 0
    assert dlv_main([
        "--repo", root, "commit", "--model-dir", str(model),
        "--name", "old", "-m", "compressed npz",
    ]) == 0
    assert dlv_main(["--repo", root, "export", "old", str(tmp_path / "out")]) == 0
    exported = load_network(tmp_path / "out")
    with zipfile.ZipFile(tmp_path / "out" / "weights.npz") as npz:
        assert {i.compress_type for i in npz.infolist()} == {zipfile.ZIP_STORED}
    with np.load(tmp_path / "out" / "weights.npz") as npz:
        assert set(npz.files) == set(flat)
        for key, value in flat.items():
            assert npz[key].dtype == value.dtype
            assert npz[key].tobytes() == value.tobytes()
    assert exported.spec() == net.spec()
