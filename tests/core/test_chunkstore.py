"""The one ``BlobStore`` conformance suite.

Every conformer — packs (``local-fs``), sqlite rows (file-backed and
``mem://``), and the tier of an unregistered in-memory backend, which
is how a store that belongs to no repository is built — must behave
identically: same addresses, same stored form, same integrity errors,
same counters.
"""

import hashlib
import os
import shutil
import stat
import zlib
from pathlib import Path

import pytest

import repro.core.chunkstore as chunkstore
from repro.core.chunkstore import ChunkIntegrityError, ChunkStore
from repro.core.storage import BlobStore, resolve_backend
from repro.core.storage.memory import MemoryBackend
from repro.core.storage.sqlite import GET_BATCH
from repro.faults import FaultError, FaultPlan, FaultPoint, inject
from repro.obs.cost import cost_context
from repro.obs.metrics import counter

CONFORMERS = ("disk", "memory", "sqlite", "mem")


@pytest.fixture(params=CONFORMERS)
def store(request, tmp_path, make_repo_target):
    if request.param == "disk":
        yield ChunkStore(tmp_path / "chunks")
    elif request.param == "memory":
        yield MemoryBackend("conformance", create=True).chunks
    else:
        kind = {"sqlite": "sqlite", "mem": "memory"}[request.param]
        backend = resolve_backend(make_repo_target(kind), create=True)
        yield backend.chunks
        backend.close()


class TestStore:
    def test_conforms_to_protocol(self, store):
        assert isinstance(store, BlobStore)

    def test_put_get_roundtrip(self, store):
        data = b"learned parameters" * 50
        sha = store.put(data)
        assert store.get(sha) == data
        assert store.verify_blob(sha)

    def test_content_addressing_dedupes(self, store):
        data = b"same bytes" * 100
        sha1 = store.put(data)
        size_after_first = store.total_size()
        sha2 = store.put(data)
        assert sha1 == sha2
        assert store.total_size() == size_after_first

    def test_distinct_content_distinct_address(self, store):
        assert store.put(b"aaa") != store.put(b"bbb")

    def test_contains(self, store):
        sha = store.put(b"x")
        assert sha in store
        assert "0" * 64 not in store

    def test_missing_chunk_raises(self, store):
        with pytest.raises(KeyError):
            store.get("f" * 64)
        with pytest.raises(KeyError):
            store.stored_size("f" * 64)

    def test_delete(self, store):
        sha = store.put(b"to delete")
        assert store.delete(sha)
        assert sha not in store
        assert not store.delete(sha)
        with pytest.raises(KeyError):
            store.get(sha)

    def test_stored_size_is_compressed(self, store):
        data = b"\x00" * 10000
        sha = store.put(data)
        assert store.stored_size(sha) < 200

    def test_addresses_enumerates_everything(self, store):
        shas = {store.put(bytes([i]) * 10) for i in range(5)}
        assert set(store.addresses()) == shas

    def test_total_size_sums(self, store):
        store.put(b"one" * 100)
        store.put(b"two" * 200)
        total = store.total_size()
        assert total == sum(
            store.stored_size(sha) for sha in store.addresses()
        )

    def test_corruption_is_detected(self, store, corrupt_store):
        sha = store.put(b"bytes that will rot " * 8)
        corrupt_store(store, sha)
        assert not store.verify_blob(sha)
        with pytest.raises(ChunkIntegrityError, match="corrupt"):
            store.get(sha)

    def test_put_many_is_put_in_order(self, store):
        blobs = [b"first" * 40, b"second" * 40, b"first" * 40]
        before = counter("chunkstore.dedup_hits").value
        shas = store.put_many(blobs)
        assert shas == [store.address(b) for b in blobs]
        assert [store.get(sha) for sha in shas] == blobs
        assert set(store.addresses()) == set(shas)
        # The repeat inside the batch is a dedup hit, as a second put is.
        assert counter("chunkstore.dedup_hits").value == before + 1

    def test_counters_and_request_bill(self, store):
        names = (
            "put_calls", "put_bytes", "dedup_hits", "dedup_bytes",
            "get_calls", "get_bytes",
        )

        def read():
            return [
                counter(f"chunkstore.{n}").value for n in names
            ]

        before = read()
        data = b"counted bytes" * 10
        sha = store.put(data)
        store.put(data)  # identical content: a dedup hit
        with cost_context() as cost:
            store.get(sha)
        size = len(data)
        assert [a - b for a, b in zip(read(), before)] == [
            2, 2 * size, 1, size, 1, size,
        ]
        assert (cost.bytes_read, cost.chunks_fetched) == (size, 1)


class TestGetMany:
    """``get_many`` is N ``get`` calls read as one: same bytes, same
    verification, same counters and bill, plus each blob's stored size."""

    def test_keyed_by_address_whatever_the_order_or_repeats(self, store):
        blobs = [b"alpha" * 30, b"beta" * 30, b"gamma" * 30]
        shas = store.put_many(blobs)
        want = {
            sha: (data, store.stored_size(sha)) for sha, data in zip(shas, blobs)
        }
        assert store.get_many(shas) == want
        assert store.get_many(reversed(shas)) == want
        assert store.get_many(shas + shas[:2]) == want
        assert store.get_many(iter(shas[1:])) == {s: want[s] for s in shas[1:]}

    def test_empty_input(self, store):
        assert store.get_many([]) == {}

    def test_missing_address_raises_before_any_read_is_billed(self, store):
        sha = store.put(b"present" * 20)
        gone = "f" * 64
        before = counter("chunkstore.get_calls").value
        with cost_context() as cost, pytest.raises(KeyError, match=gone):
            store.get_many([sha, gone])
        assert counter("chunkstore.get_calls").value == before
        assert (cost.bytes_read, cost.chunks_fetched) == (0, 0)

    def test_corrupt_blob_raises_naming_its_sha(self, store, corrupt_store):
        good = store.put(b"intact bytes " * 8)
        bad = store.put(b"bytes that will rot " * 8)
        corrupt_store(store, bad)
        with pytest.raises(ChunkIntegrityError, match=bad) as info:
            store.get_many([good, bad])
        assert info.value.sha == bad

    def test_counters_and_bill_equal_n_gets(self, store):
        names = ("get_calls", "get_bytes")
        shas = store.put_many([bytes([i]) * (50 + i) for i in range(6)])

        def read():
            return [
                counter(f"chunkstore.{n}").value for n in names
            ]

        def bill(fetch) -> tuple:
            before = read()
            with cost_context() as cost:
                fetch()
            delta = [a - b for a, b in zip(read(), before)]
            return delta, cost.bytes_read, cost.chunks_fetched

        single = bill(lambda: [store.get(sha) for sha in shas])
        assert bill(lambda: store.get_many(shas)) == single

    def test_more_addresses_than_one_statement_binds(self, store):
        blobs = [i.to_bytes(2, "big") for i in range(GET_BATCH + 7)]
        shas = store.put_many(blobs)
        got = store.get_many(shas)
        assert [got[sha][0] for sha in shas] == blobs


class TestDiskSpecific:
    def test_failed_batch_lands_nothing_and_leaves_no_tmp(self, tmp_path):
        """Renames wait for every tmp of the batch: a write that fails
        midway leaves neither a blob nor a tmp behind."""
        store = ChunkStore(tmp_path / "chunks")
        plan = FaultPlan([FaultPoint(
            site="chunkstore.put.write", op=1, action="error",
        )])
        with inject(plan), pytest.raises(FaultError):
            store.put_many([b"a" * 100, b"b" * 100, b"c" * 100])
        assert list(store.addresses()) == [] and store.stale_tmps() == []
        assert store.put_many([b"a" * 100]) == [store.address(b"a" * 100)]

    def test_valid_zlib_of_other_content_is_a_hash_mismatch(self, tmp_path):
        store = ChunkStore(tmp_path / "chunks")
        sha = store.put(b"important bytes")
        os.unlink(store.extent(sha)[0])
        forged, _ = chunkstore._encode_pack({sha: zlib.compress(b"tampered")})
        (tmp_path / "chunks" / "pack-forged.pack").write_bytes(forged)
        with pytest.raises(ChunkIntegrityError, match="hash mismatch"):
            store.get(sha)

    def test_pack_layout_survives_reopen(self, tmp_path):
        root = tmp_path / "chunks"
        sha = ChunkStore(root).put(b"persisted")
        (pack,) = root.iterdir()
        digest = hashlib.sha256(pack.read_bytes()).hexdigest()
        assert pack.name == f"pack-{digest}.pack"
        assert ChunkStore(root).get(sha) == b"persisted"

    def test_blob_vanishing_mid_read_is_a_key_error(self, tmp_path):
        """A second handle's delete folds the pack a first handle's index
        still names: the read rescans, finds the survivor in its new
        pack, and surfaces the deleted blob as ``KeyError`` (which the
        recovery ladder catches), never as a stray ``FileNotFoundError``."""
        store = ChunkStore(tmp_path / "chunks")
        sha, kept = store.put_many([b"about to be collected", b"kept"])
        assert ChunkStore(tmp_path / "chunks").delete(sha)
        with pytest.raises(KeyError):
            store.get(sha)
        with pytest.raises(KeyError):
            store.stored_size(sha)
        assert not store.delete(sha)
        assert store.get(kept) == b"kept"


class TestPacks:
    """The local-fs layout: one pack per ``put_many``, rewrites on delete."""

    @staticmethod
    def _packs(root: Path) -> list[str]:
        return sorted(p.name for p in root.iterdir())

    def test_put_many_writes_one_pack_with_two_fsyncs(
        self, tmp_path, monkeypatch
    ):
        store = ChunkStore(tmp_path / "chunks")
        synced: list[bool] = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        shas = store.put_many([bytes([i]) * (100 + i) for i in range(40)])
        assert len(self._packs(tmp_path / "chunks")) == 1
        assert sorted(synced) == [False, True]  # one file, one directory
        assert store.put_many([bytes([0]) * 100]) == shas[:1]
        assert len(synced) == 2  # nothing new: nothing written

    def test_delete_many_rewrites_only_the_affected_packs(self, tmp_path):
        root = tmp_path / "chunks"
        store = ChunkStore(root)
        batches = [
            store.put_many([f"{n}-{i}".encode() * 20 for i in range(3)])
            for n in range(3)
        ]
        untouched = store.extent(batches[2][0])[0]
        inode = os.stat(untouched).st_ino
        doomed = [batches[0][0], batches[1][1]]
        assert store.delete_many(doomed + ["f" * 64]) == 2
        packs = self._packs(root)
        assert len(packs) == 2 and os.path.basename(untouched) in packs
        assert os.stat(untouched).st_ino == inode
        survivors = [s for batch in batches for s in batch if s not in doomed]
        assert set(store.addresses()) == set(survivors)
        reopened = ChunkStore(root)
        assert all(sha not in reopened for sha in doomed)
        assert set(reopened.get_many(survivors)) == set(survivors)
        assert store.delete_many([]) == 0

    def test_total_size_counts_each_address_once(self, tmp_path):
        # Two writers racing on one tier can both pack the same blob;
        # here the second pack comes from another tier's directory.
        root, other = tmp_path / "chunks", tmp_path / "other"
        shared = b"written by two handles" * 10
        ChunkStore(root).put_many([shared, b"one" * 30])
        ChunkStore(other).put_many([shared, b"two" * 30])
        (pack,) = other.iterdir()
        shutil.copy(pack, root / pack.name)
        reopened = ChunkStore(root)
        assert len(self._packs(root)) == 2
        assert reopened.total_size() == sum(
            reopened.stored_size(sha) for sha in reopened.addresses()
        )
        assert reopened.total_size() == sum(
            reopened.stored_size_of(data)
            for data in (shared, b"one" * 30, b"two" * 30)
        )

    def test_second_handle_rewrites_a_blob_deleted_under_it(self, tmp_path):
        root = tmp_path / "chunks"
        first, second = ChunkStore(root), ChunkStore(root)
        blob, other = b"deleted, then put again" * 8, b"survivor" * 8
        sha, kept = first.put_many([blob, other])
        assert sha in second  # the second index is built
        assert first.delete_many([sha]) == 1
        assert first.repack() is False  # one pack already
        assert second.put(blob) == sha
        assert second.get(sha) == blob
        assert ChunkStore(root).get_many([sha, kept])[sha][0] == blob

    def test_second_handle_deletes_and_repacks_after_a_fold_under_it(
        self, tmp_path
    ):
        root = tmp_path / "chunks"
        first, second = ChunkStore(root), ChunkStore(root)
        shas = [first.put(bytes([i]) * 50) for i in range(4)]
        assert sorted(second.addresses()) == sorted(shas)  # index built
        assert first.delete_many(shas[:1]) == 1
        first.put(b"new" * 20)
        assert first.repack()
        assert second.delete_many(shas[1:2]) == 1
        assert second.repack() is False  # the delete left one pack
        assert len(self._packs(root)) == 1
        reopened = ChunkStore(root)
        assert set(reopened.addresses()) == {
            *shas[2:], reopened.address(b"new" * 20)
        }
        assert reopened.get(shas[3]) == bytes([3]) * 50

    def test_a_miss_lists_the_tier_once(self, tmp_path, monkeypatch):
        root = tmp_path / "chunks"
        store = ChunkStore(root)
        shas = store.put_many([bytes([i]) * 64 for i in range(6)])
        assert shas[0] in store  # the index is built
        scans: list[str] = []
        real_scandir = os.scandir

        def scandir(path):
            scans.append(str(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        assert "f" * 64 not in store
        assert scans == [str(root)]

    def test_put_stored_packs_what_the_tier_lacks_unverified(self, tmp_path):
        root = tmp_path / "chunks"
        store = ChunkStore(root)
        blobs = [bytes([i]) * 64 for i in range(4)]
        store.put(blobs[0])
        stored = {store.address(b): zlib.compress(b) for b in blobs}
        stored["e" * 64] = b"not a stored form"
        assert store.put_stored(stored) == 4
        assert store.put_stored(stored) == 0  # a second fold writes nothing
        assert len(self._packs(root)) == 2
        reopened = ChunkStore(root)
        assert [reopened.get(reopened.address(b)) for b in blobs] == blobs
        assert reopened.verify_all() == ({"e" * 64}, 5)

    def test_repack_folds_every_pack_into_one(self, tmp_path):
        root = tmp_path / "chunks"
        store = ChunkStore(root)
        blobs = [bytes([i]) * 64 for i in range(5)]
        for blob in blobs:
            store.put(blob)
        assert len(self._packs(root)) == 5
        assert store.repack()
        assert len(self._packs(root)) == 1
        assert not store.repack()
        assert [ChunkStore(root).get(store.address(b)) for b in blobs] == blobs

    def test_stale_pack_tmp_is_swept_on_open(self, tmp_path):
        root = tmp_path / "chunks"
        sha = ChunkStore(root).put(b"payload")
        (root / "pack-9999-0.tmp").write_bytes(b"partial pack")
        reopened = ChunkStore(root)
        assert not list(root.glob("*.tmp"))
        assert reopened.get(sha) == b"payload"

    def test_torn_pack_trailer_is_not_a_pack(self, tmp_path):
        root = tmp_path / "chunks"
        sha = ChunkStore(root).put(b"payload" * 10)
        (pack,) = root.iterdir()
        pack.write_bytes(pack.read_bytes()[:-1])
        with pytest.raises(KeyError):
            ChunkStore(root).get(sha)
