"""Shared fixtures for the test suite.

Training is the slowest operation, so trained models and datasets are
session-scoped; repository fixtures are per-test (they mutate state).

Storage backends: the ``repo`` fixture honours ``REPRO_STORE_BACKEND``
(``local-fs`` default, ``sqlite``, or ``memory``) so CI can run the whole
suite against each backend.  Tests that need explicit multi-backend
parametrization use ``make_repo_target``; tests that poke at stored blob
bytes use the backend-neutral ``corrupt_blob`` fixture.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pytest

from repro.core.storage import memory as memstore
from repro.dlv.repository import Repository
from repro.dnn.data import synthetic_digits
from repro.dnn.training import SGDConfig, Trainer
from repro.dnn.zoo import lenet, tiny_mlp

STORE_BACKENDS = ("local-fs", "sqlite", "memory")


def _backend_target(tmp_path, backend: str, name: str = "repo") -> str:
    """A ``Repository.init`` target for ``backend`` under ``tmp_path``."""
    if backend == "local-fs":
        return str(tmp_path / name)
    if backend == "sqlite":
        return f"sqlite://{tmp_path / (name + '.db')}"
    if backend == "memory":
        return f"mem://{name}-{uuid.uuid4().hex}"
    raise ValueError(f"unknown backend {backend!r}")


@pytest.fixture
def make_repo_target(tmp_path):
    """Factory producing init targets; drops memory repos on teardown."""
    created: list[str] = []

    def factory(backend: str, name: str = "repo") -> str:
        target = _backend_target(tmp_path, backend, name)
        created.append(target)
        return target

    yield factory
    for target in created:
        if target.startswith("mem://"):
            memstore.drop(target[len("mem://"):])


def _flip_stored_byte(store, sha: str, xor: int = 0x20) -> None:
    """Flip one byte of a blob's stored (compressed) form in any store."""

    def flipped(stored: bytes) -> bytes:
        data = bytearray(stored)
        data[len(data) // 2] ^= xor
        return bytes(data)

    if hasattr(store, "blob_path"):  # loose files
        path = store.blob_path(sha)
        path.write_bytes(flipped(path.read_bytes()))
    elif hasattr(store, "_blobs"):  # dict
        store._blobs[sha] = flipped(store._blobs[sha])
    else:  # sqlite rows
        conn, where = store._backend._writer, "WHERE ns = ? AND sha = ?"
        row = conn.execute(
            f"SELECT data FROM store_blob {where}", (store.ns, sha)
        ).fetchone()
        conn.execute(
            f"UPDATE store_blob SET data = ? {where}",
            (flipped(row["data"]), store.ns, sha),
        )
        conn.commit()


@pytest.fixture
def corrupt_store():
    """``corrupt(store, sha, xor=0x20)`` on any ``BlobStore`` conformer."""
    return _flip_stored_byte


@pytest.fixture
def corrupt_blob():
    """Flip one byte of a stored (compressed) blob, on any backend."""

    def corrupt(repo, sha: str, ns: str = "chunks", xor: int = 0x20) -> None:
        store = {
            "chunks": repo.store,
            "replica": repo.replica,
            "pages": repo.pages,
        }[ns]
        _flip_stored_byte(store, sha, xor)

    return corrupt


@pytest.fixture(scope="session")
def digits():
    """A small, fast synthetic digits dataset."""
    return synthetic_digits(train_per_class=30, test_per_class=10)


@pytest.fixture(scope="session")
def trained_lenet(digits):
    """A LeNet trained to well-above-chance accuracy, with its artifacts."""
    net = lenet(
        input_shape=digits.input_shape,
        num_classes=digits.num_classes,
        name="lenet-fixture",
    ).build(0)
    config = SGDConfig(epochs=3, base_lr=0.05, batch_size=32, snapshot_every=8)
    result = Trainer(net, config).fit(
        digits.x_train, digits.y_train, digits.x_test, digits.y_test
    )
    return net, result, config


@pytest.fixture(scope="session")
def trained_tiny(digits):
    """A tiny MLP for tests that only need *some* trained weights."""
    net = tiny_mlp(
        input_shape=digits.input_shape,
        num_classes=digits.num_classes,
        hidden=24,
        name="tiny-fixture",
    ).build(1)
    config = SGDConfig(epochs=2, base_lr=0.1, batch_size=32)
    result = Trainer(net, config).fit(
        digits.x_train, digits.y_train, digits.x_test, digits.y_test
    )
    return net, result, config


@pytest.fixture
def repo(make_repo_target):
    """A fresh empty repository per test, on the configured backend."""
    backend = os.environ.get("REPRO_STORE_BACKEND", "local-fs")
    repository = Repository.init(make_repo_target(backend))
    yield repository
    repository.close()


@pytest.fixture
def seeded_rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def sample_matrices(tmp_path_factory):
    """Realistic float matrices: a base and a fine-tuned variant."""
    rng = np.random.default_rng(99)
    base = (rng.standard_normal((48, 32)) * 0.08).astype(np.float32)
    finetuned = base + (rng.standard_normal(base.shape) * 0.004).astype(
        np.float32
    )
    unrelated = (rng.standard_normal(base.shape) * 0.08).astype(np.float32)
    return {"base": base, "finetuned": finetuned, "unrelated": unrelated}
