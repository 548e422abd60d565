"""Training-system wrapper: extract and reproduce modeling artifacts.

ModelHub's model learning module wraps the DNN system the modeler uses
(the paper wraps Caffe) to extract artifacts — network definitions,
learned parameters, training logs — into DLV's data model, and to write
them back out for training.  Our training system is :mod:`repro.dnn`, and
the on-disk exchange format is a *model directory*:

.. code-block:: text

    <model-dir>/
        network.json    network spec (repro.dnn.network.Network.spec)
        weights.npz     latest weights, keys "layer/param" (uncompressed)
        solver.json     optimization hyperparameters (optional)
        log.json        training log entries (optional)

A model directory is a working copy: ``weights.npz`` is written raw
(``np.savez``), since the repository is where bytes are compressed, as
git checks files out raw.  :func:`load_network` reads both that and the
``np.savez_compressed`` form older versions wrote.

The ``dlv commit --model-dir`` CLI path goes through these functions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from repro.dnn.network import Network
from repro.dnn.training import SGDConfig, TrainResult


def save_model_dir(
    path: str | Path,
    network: Network,
    config: Optional[SGDConfig] = None,
    result: Optional[TrainResult] = None,
) -> Path:
    """Write a model directory for a (trained) network."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "network.json").write_text(json.dumps(network.spec(), indent=2))
    if network.is_built:
        flat = {
            f"{layer}/{param}": value
            for layer, params in network.get_weights().items()
            for param, value in params.items()
        }
        np.savez(path / "weights.npz", **flat)
    if config is not None:
        (path / "solver.json").write_text(json.dumps(config.to_dict(), indent=2))
    if result is not None:
        (path / "log.json").write_text(json.dumps(result.log, indent=2))
    return path


def load_network(path: str | Path, seed: int = 0) -> Network:
    """Reconstruct a built network (with weights when present)."""
    path = Path(path)
    spec = json.loads((path / "network.json").read_text())
    net = Network.from_spec(spec).build(seed)
    weights_path = path / "weights.npz"
    if weights_path.exists():
        with np.load(weights_path) as archive:
            weights: dict[str, dict[str, np.ndarray]] = {}
            for key in archive.files:
                layer, _, param = key.partition("/")
                weights.setdefault(layer, {})[param] = archive[key]
        net.set_weights(weights)
    return net


def load_solver(path: str | Path) -> Optional[SGDConfig]:
    """Read the solver config when the model directory has one."""
    solver_path = Path(path) / "solver.json"
    if not solver_path.exists():
        return None
    return SGDConfig(**json.loads(solver_path.read_text()))


def load_log(path: str | Path) -> list[dict]:
    """Read the training log when the model directory has one."""
    log_path = Path(path) / "log.json"
    if not log_path.exists():
        return []
    return json.loads(log_path.read_text())


def load_train_result(path: str | Path) -> Optional[TrainResult]:
    """Assemble a TrainResult from a model directory's log and weights."""
    path = Path(path)
    log = load_log(path)
    if not log and not (path / "weights.npz").exists():
        return None
    net = load_network(path)
    result = TrainResult(log=log)
    final_iteration = log[-1]["iteration"] if log else 0
    result.snapshots = [(final_iteration, net.get_weights())]
    if log:
        result.final_loss = log[-1].get("loss", float("inf"))
        result.final_accuracy = log[-1].get("accuracy", 0.0) or 0.0
    return result
