"""Progressive query (inference) evaluation — Sec. IV-D of the paper.

Given weights archived in byte-plane segments, an inference query first
reads only the high-order planes.  Each weight is then known to lie in a
range; the interval forward pass of :mod:`repro.dnn.interval` propagates
those perturbations to the output, and Lemma 4 checks whether the
predicted label is already determined.  Only the data points whose
prediction is *not* determined trigger retrieval of the next plane,
guaranteeing exactness for arbitrary inputs while reading a fraction of
the stored bytes.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.cache import PlaneCache
from repro.core.retrieval import PlanArchive
from repro.core.segmentation import NUM_PLANES
from repro.dnn.interval import Interval, argmax_determined, tight_intervals
from repro.dnn.network import Network
from repro.obs.cost import charge
from repro.obs.metrics import MetricsRegistry, counter, histogram
from repro.obs.tracing import trace_span


def _bounds_nbytes(bounds: dict[str, dict[str, Interval]]) -> int:
    """Memory footprint of a bounds mapping (both bound arrays)."""
    return sum(
        interval.lo.nbytes + interval.hi.nbytes
        for params in bounds.values()
        for interval in params.values()
    )


def _weights_nbytes(weights: dict[str, dict[str, np.ndarray]]) -> int:
    return sum(
        array.nbytes for params in weights.values() for array in params.values()
    )


@dataclass
class ProgressiveResult:
    """Outcome of a progressive evaluation query.

    Attributes:
        predictions: Final predicted label per data point.
        resolved_at_plane: For each data point, the number of byte planes
            that were needed before Lemma 4 determined its prediction
            (``NUM_PLANES`` means full precision was required).
        determined_fraction: Per plane count ``k``, the fraction of points
            whose prediction was determined using ``<= k`` planes.
        bytes_fraction: Fraction of the archive's stored parameter bytes
            that were retrieved to answer the query.
    """

    predictions: np.ndarray
    resolved_at_plane: np.ndarray
    determined_fraction: dict[int, float] = field(default_factory=dict)
    bytes_fraction: float = 1.0


def _weights_key(matrix_id: str) -> tuple[str, str]:
    """Split a matrix id into its ``(layer, param)`` network address.

    Snapshot archives name matrices ``"layer.param"``; repository
    archives prefix the snapshot key (``"v3/s1/layer.param"``).  The
    network only knows bare layer names, so any path prefix is dropped —
    keying bounds by the prefixed id would silently miss every layer in
    ``forward_interval`` (which falls back to the network's installed
    weights, making the interval pass vacuous).
    """
    tail = matrix_id.rsplit("/", 1)[-1]
    layer, _, param = tail.rpartition(".")
    if not layer:
        raise ValueError(
            f"matrix id {matrix_id!r} is not of the form 'layer.param'"
        )
    return layer, param


class ProgressiveEvaluator:
    """Answers ``dlv eval`` queries progressively from a segmented archive.

    Args:
        net: A *built* network whose architecture matches the archived
            snapshot (its current weights are irrelevant — they are
            replaced by archive contents during evaluation).
        archive: The :class:`PlanArchive` holding the snapshot.
        snapshot_id: Which snapshot to evaluate; matrix ids inside the
            snapshot must be ``"<layer>.<param>"``.
        logits_node: Node whose output feeds the prediction; defaults to
            the input of a trailing Softmax (or the sink itself).
        tight: Use the tighter (costlier) interval products — pays off on
            deep networks, where the default midpoint-radius bound
            compounds layer by layer and rarely determines predictions.
        plane_cache: The :class:`~repro.core.cache.PlaneCache` holding
            per-plane bounds and the exact weights — the serving layer
            passes one shared by every evaluator of the same snapshot;
            when omitted the evaluator gets a private one.

    The evaluator is *reusable*: interval bounds per plane count and the
    exact weights are each read from the archive once (single-flight,
    even under concurrent queries) and kept in the plane cache, so
    repeated ``evaluate`` calls against the same snapshot do not re-read
    any chunks.  The weight-installing exact fallback is serialized by a
    lock, making concurrent queries against one evaluator safe.
    """

    def __init__(
        self,
        net: Network,
        archive: PlanArchive,
        snapshot_id: str,
        logits_node: Optional[str] = None,
        tight: bool = False,
        plane_cache=None,
    ) -> None:
        if not net.is_built:
            raise RuntimeError("network must be built")
        self.net = net
        self.archive = archive
        self.snapshot_id = snapshot_id
        self.tight = tight
        if logits_node is None:
            sink = net.output_name
            logits_node = (
                net.predecessor(sink) if net[sink].kind == "SOFTMAX" else sink
            )
        self.logits_node = logits_node
        snapshots = archive._snapshots
        if snapshot_id not in snapshots:
            raise KeyError(f"archive has no snapshot {snapshot_id!r}")
        self._members = snapshots[snapshot_id]
        # Shared-cache entries are keyed by *content* fingerprint when the
        # archive can compute one: two models whose chains resolve to the
        # same weights (common in dedup'd fine-tuned families) then share
        # bounds/weights entries and single-flight loads across evaluators.
        self._cache_ns = archive.snapshot_fingerprint(snapshot_id) or snapshot_id
        if plane_cache is None:
            plane_cache = PlaneCache(registry=MetricsRegistry())
        self.plane_cache = plane_cache
        self._lock = threading.RLock()
        self._plane_sizes_memo: Optional[list[int]] = None
        self._exact_installed = False

    # -- bounds ------------------------------------------------------------

    def _param_bounds(self, planes: int) -> dict[str, dict[str, Interval]]:
        """Interval bounds for every archived parameter at ``planes`` depth.

        Uncached — this is the raw archive read; use :meth:`param_bounds`
        for the cached entry point.
        """
        bounds: dict[str, dict[str, Interval]] = {}
        for matrix_id in self._members:
            layer, param = _weights_key(matrix_id)
            if planes >= NUM_PLANES:
                exact = self.archive.recreate_matrix(matrix_id)
                interval = Interval.exact(exact)
            else:
                lo, hi = self.archive.matrix_bounds(matrix_id, planes)
                interval = Interval.from_bounds(lo, hi)
            bounds.setdefault(layer, {})[param] = interval
        return bounds

    def param_bounds(self, planes: int) -> dict[str, dict[str, Interval]]:
        """Cached interval bounds at ``planes`` depth (thread-safe).

        The bounds live in the plane cache under
        ``("bounds", snapshot, planes)``; the archive is read at most
        once per plane count while they stay cached.
        """
        planes = min(planes, NUM_PLANES)

        def load() -> tuple[dict, int]:
            bounds = self._param_bounds(planes)
            return bounds, _bounds_nbytes(bounds)

        return self.plane_cache.get_or_load(
            ("bounds", self._cache_ns, planes), load
        )

    def exact_weights(self) -> dict[str, dict[str, np.ndarray]]:
        """The snapshot's full-precision weights, read from PAS once."""

        def load() -> tuple[dict, int]:
            weights = self._read_weights()
            # Entries may be shared across models (content-keyed), so
            # freeze them — matching the RetrievalCache convention.
            for params in weights.values():
                for value in params.values():
                    value.setflags(write=False)
            return weights, _weights_nbytes(weights)

        return self.plane_cache.get_or_load(("weights", self._cache_ns), load)

    def _read_weights(
        self, planes: int = NUM_PLANES
    ) -> dict[str, dict[str, np.ndarray]]:
        weights: dict[str, dict[str, np.ndarray]] = {}
        for matrix_id in self._members:
            layer, param = _weights_key(matrix_id)
            weights.setdefault(layer, {})[param] = self.archive.recreate_matrix(
                matrix_id, planes=planes
            )
        return weights

    def _install_exact(self, weights: dict[str, dict[str, np.ndarray]]) -> None:
        """Install pre-fetched exact weights. Caller must hold ``_lock``.

        Idempotent between calls that truncate the weights: repeated
        progressive queries skip the (re-)install unless something
        installed other weights in between (``evaluate_at_planes`` resets
        the flag).  The weights are fetched by the caller *outside* the
        lock (:meth:`exact_weights`) so chunk retrieval never serializes
        concurrent queries on I/O.
        """
        if self._exact_installed:
            return
        self.net.set_weights(weights)
        self._exact_installed = True

    def _load_exact(self) -> None:
        """Fetch and install the full-precision weights (convenience).

        Fetches outside the lock, installs under it.  Do not call while
        already holding ``_lock`` — use :meth:`exact_weights` +
        :meth:`_install_exact` there instead.
        """
        weights = self.exact_weights()
        with self._lock:
            self._install_exact(weights)

    def forward_exact_many(
        self, batches: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Forward several batches at full precision, atomically.

        The serving tier's exact primitive: exact weights are fetched
        first (shared-cache single-flight applies, no lock held), then
        the install plus every forward pass run under ``_lock`` so a
        concurrent :meth:`evaluate_at_planes` cannot swap truncated
        weights in mid-run.
        """
        weights = self.exact_weights()
        with self._lock:
            self._install_exact(weights)
            return self.net.forward_many(batches, upto=self.logits_node)

    def _stored_plane_sizes(self) -> list[int]:
        """Stored bytes per plane index across the snapshot's payload chains."""
        with self._lock:
            if self._plane_sizes_memo is not None:
                return self._plane_sizes_memo
        sizes = [0] * NUM_PLANES
        seen: set[str] = set()
        for matrix_id in self._members:
            current = matrix_id
            while current != "v0":
                if current in seen:
                    break
                seen.add(current)
                entry = self.archive.manifest[current]
                for i in range(NUM_PLANES):
                    sizes[i] += self.archive.plane_stored_size(entry, i)
                current = entry.parent
        with self._lock:
            self._plane_sizes_memo = sizes
        return sizes

    # -- evaluation ------------------------------------------------------------

    def _determined(
        self, x: np.ndarray, bounds: dict, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One interval pass + Lemma 4: ``(determined, labels)`` per row."""
        with tight_intervals() if self.tight else nullcontext():
            logit_iv = self.net.forward_interval(
                x, bounds, upto=self.logits_node
            )
        return argmax_determined(logit_iv, k=k)

    def evaluate(
        self,
        x: np.ndarray,
        k: int = 1,
        start_planes: int = 1,
        batch: int = 256,
    ) -> ProgressiveResult:
        """Progressively predict labels for ``x`` with exactness guarantee.

        Starts at ``start_planes`` high-order byte planes and escalates
        only the undetermined points, plane by plane, finishing any
        remainder at full precision.

        Args:
            x: Input batch `(N, ...)`.
            k: Determine the top-``k`` label set (1 = plain argmax).
            start_planes: Initial number of planes to read.
            batch: Forward-pass batch size.
        """
        n = len(x)
        predictions = np.full(n, -1, dtype=np.int64)
        resolved_at = np.full(n, NUM_PLANES, dtype=np.int64)
        unresolved = np.arange(n)
        determined_fraction: dict[int, float] = {}
        planes_used = start_planes

        for planes in range(start_planes, NUM_PLANES):
            if unresolved.size == 0:
                determined_fraction[planes] = 1.0
                continue
            with trace_span(
                "progressive.plane",
                snapshot=self.snapshot_id,
                planes=planes,
                unresolved=int(unresolved.size),
            ) as plane_span:
                bounds = self.param_bounds(planes)
                still_open = []
                for start in range(0, unresolved.size, batch):
                    idx = unresolved[start : start + batch]
                    determined, labels = self._determined(x[idx], bounds, k)
                    done = idx[determined]
                    predictions[done] = labels[determined]
                    resolved_at[done] = planes
                    still_open.extend(idx[~determined].tolist())
                resolved_here = unresolved.size - len(still_open)
                plane_span.set_attr("resolved", resolved_here)
            counter("progressive.points_resolved").inc(resolved_here)
            histogram("progressive.plane_seconds").observe(plane_span.elapsed)
            charge(compute_s=plane_span.elapsed)
            unresolved = np.asarray(still_open, dtype=np.int64)
            determined_fraction[planes] = 1.0 - unresolved.size / n
            planes_used = planes
            if unresolved.size == 0:
                break

        if unresolved.size > 0:
            with trace_span(
                "progressive.exact",
                snapshot=self.snapshot_id,
                unresolved=int(unresolved.size),
            ) as exact_span:
                exact = self.exact_weights()
                with self._lock:
                    self._install_exact(exact)
                    planes_used = NUM_PLANES
                    for start in range(0, unresolved.size, batch):
                        idx = unresolved[start : start + batch]
                        out = self.net.forward(x[idx], upto=self.logits_node)
                        predictions[idx] = np.argmax(out, axis=1)
                        resolved_at[idx] = NUM_PLANES
            counter("progressive.points_resolved").inc(int(unresolved.size))
            counter("progressive.exact_fallbacks").inc()
            histogram("progressive.plane_seconds").observe(exact_span.elapsed)
            charge(compute_s=exact_span.elapsed)
        determined_fraction[NUM_PLANES] = 1.0
        counter("progressive.queries").inc()

        plane_sizes = self._stored_plane_sizes()
        total = sum(plane_sizes) or 1
        read = sum(plane_sizes[:planes_used])
        return ProgressiveResult(
            predictions=predictions,
            resolved_at_plane=resolved_at,
            determined_fraction=determined_fraction,
            bytes_fraction=read / total,
        )

    def evaluate_bounded(
        self, x: np.ndarray, planes: int, k: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """One interval pass at a fixed plane budget — no escalation.

        This is the serving layer's primitive: the
        :class:`~repro.serve.BatchScheduler` batches concurrent requests
        at a shared budget, keeps the rows Lemma 4 determines, and
        re-submits only the ambiguous remainder at the next budget.

        Returns:
            ``(determined, labels)`` per row — labels are trustworthy
            exactly where ``determined`` is True.
        """
        with trace_span(
            "progressive.bounded",
            snapshot=self.snapshot_id,
            planes=planes,
            rows=len(x),
        ) as span:
            result = self._determined(x, self.param_bounds(planes), k)
        charge(compute_s=span.elapsed)
        return result

    def evaluate_exact(self, x: np.ndarray) -> np.ndarray:
        """Full-precision predictions from the (cached) archive weights."""
        with trace_span(
            "progressive.exact", snapshot=self.snapshot_id, rows=len(x)
        ) as span:
            exact = self.exact_weights()
            with self._lock:
                self._install_exact(exact)
                out = self.net.forward(x, upto=self.logits_node)
        charge(compute_s=span.elapsed)
        return np.argmax(out, axis=1)

    def evaluate_at_planes(
        self, x: np.ndarray, planes: int, batch: int = 256
    ) -> np.ndarray:
        """Non-progressive baseline: predict from truncated weights.

        Reads exactly ``planes`` high-order byte planes, installs the
        truncated point estimates, and predicts — no error guarantee.
        Used by the Fig. 6(d) benchmark to measure the raw error rate of
        partial-precision evaluation.
        """
        weights = self._read_weights(planes)
        with self._lock:
            self.net.set_weights(weights)
            self._exact_installed = planes >= NUM_PLANES
            preds = []
            for start in range(0, len(x), batch):
                out = self.net.forward(
                    x[start : start + batch], upto=self.logits_node
                )
                preds.append(np.argmax(out, axis=1))
        return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)
