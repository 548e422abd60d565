"""The one ``BlobStore`` conformance suite.

Every conformer — loose files, dict, sqlite rows (file-backed and
``mem://``), and the latency wrapper — must behave identically: same
addresses, same stored form, same integrity errors, same counters.
"""

import zlib
from pathlib import Path

import pytest

from repro.core.chunkstore import (
    ChunkIntegrityError,
    ChunkStore,
    LatencyStore,
    MemoryChunkStore,
)
from repro.core.storage import BlobStore, resolve_backend
from repro.core.storage.sqlite import GET_BATCH
from repro.faults import FaultError, FaultPlan, FaultPoint, inject
from repro.obs.cost import cost_context

CONFORMERS = ("disk", "memory", "sqlite", "mem", "latency")


@pytest.fixture(params=CONFORMERS)
def store(request, tmp_path, make_repo_target):
    if request.param == "disk":
        yield ChunkStore(tmp_path / "chunks")
    elif request.param == "memory":
        yield MemoryChunkStore()
    elif request.param == "latency":
        yield LatencyStore(MemoryChunkStore())
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
        before = store.registry.counter("chunkstore.dedup_hits").value
        shas = store.put_many(blobs)
        assert shas == [store.address(b) for b in blobs]
        assert [store.get(sha) for sha in shas] == blobs
        assert set(store.addresses()) == set(shas)
        # The repeat inside the batch is a dedup hit, as a second put is.
        assert store.registry.counter("chunkstore.dedup_hits").value == before + 1

    def test_counters_and_request_bill(self, store):
        names = (
            "put_calls", "put_bytes", "dedup_hits", "dedup_bytes",
            "get_calls", "get_bytes",
        )

        def read():
            return [
                store.registry.counter(f"chunkstore.{n}").value for n in names
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
        before = store.registry.counter("chunkstore.get_calls").value
        with cost_context() as cost, pytest.raises(KeyError, match=gone):
            store.get_many([sha, gone])
        assert store.registry.counter("chunkstore.get_calls").value == before
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
                store.registry.counter(f"chunkstore.{n}").value for n in names
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


def test_latency_store_charges_one_round_trip_per_get_many(monkeypatch):
    import repro.core.chunkstore as chunkstore

    sleeps: list[float] = []
    monkeypatch.setattr(chunkstore.time, "sleep", sleeps.append)
    store = LatencyStore(MemoryChunkStore(), get_latency=0.25)
    shas = store.put_many([b"one" * 9, b"two" * 9, b"three" * 9])
    assert len(store.get_many(shas)) == 3
    assert (store.get_count, sleeps) == (1, [0.25])
    store.get(shas[0])
    assert (store.get_count, sleeps) == (2, [0.25, 0.25])


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
        store.blob_path(sha).write_bytes(zlib.compress(b"tampered"))
        with pytest.raises(ChunkIntegrityError, match="hash mismatch"):
            store.get(sha)

    def test_fanout_layout_survives_reopen(self, tmp_path):
        sha = ChunkStore(tmp_path / "chunks").put(b"persisted")
        assert (tmp_path / "chunks" / sha[:2] / sha).exists()
        assert ChunkStore(tmp_path / "chunks").get(sha) == b"persisted"

    def test_blob_vanishing_mid_read_is_a_key_error(
        self, tmp_path, monkeypatch
    ):
        """A concurrent gc/delete between an ``exists()`` check and the
        read must surface as ``KeyError`` (which the recovery ladder
        catches), never as a stray ``FileNotFoundError``."""
        store = ChunkStore(tmp_path / "chunks")
        sha = store.put(b"about to be collected")
        store.delete(sha)
        monkeypatch.setattr(Path, "exists", lambda self: True)
        with pytest.raises(KeyError):
            store.get(sha)
        with pytest.raises(KeyError):
            store.stored_size(sha)
        assert not store.delete(sha)
