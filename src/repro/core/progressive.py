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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.cache import PlaneCache
from repro.core.retrieval import PlanArchive, by_layer
from repro.core.segmentation import NUM_PLANES
from repro.dnn.interval import Interval, argmax_determined
from repro.dnn.network import Network
from repro.obs.cost import charge
from repro.obs.metrics import MetricsRegistry, counter, histogram
from repro.obs.tracing import trace_span


def _frozen_nbytes(bounds: dict[str, dict[str, Interval]]) -> int:
    """Freeze a bounds mapping for sharing; its footprint (the bounds
    with their midpoint and radius, which each interval keeps)."""
    nbytes = 0
    for params in bounds.values():
        for interval in params.values():
            for array in (interval.lo, interval.hi, interval.mid, interval.rad):
                array.setflags(write=False)
                nbytes += array.nbytes
    return nbytes


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
        plane_cache: The :class:`~repro.core.cache.PlaneCache` of the
            read path.  One cache serves it: this must be the archive's
            ``plane_cache`` — the serving layer passes the one shared by
            every model — and when the archive has none it gets this one
            (or, when omitted too, a private one).

    The evaluator is *reusable*.  The archive reads each byte plane once
    into the plane cache under ``("plane", address)``; the interval
    bounds per plane count are derived from those planes and kept under
    ``("bounds", fingerprint, planes)`` when there is room that no plane
    needs (derived entries never evict a plane; planes evict them
    first).  Loads are single-flight, even under concurrent queries.
    The exact weights are fetched once and installed into the net, which
    holds them from then on; the install, and every exact forward pass,
    run under a lock, making concurrent queries against one evaluator
    safe.  A value read through the archive's recovery path is served
    but never kept.
    """

    def __init__(
        self,
        net: Network,
        archive: PlanArchive,
        snapshot_id: str,
        logits_node: Optional[str] = None,
        plane_cache=None,
    ) -> None:
        if not net.is_built:
            raise RuntimeError("network must be built")
        self.net = net
        self.archive = archive
        self.snapshot_id = snapshot_id
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
        # Bounds entries are keyed by *content* fingerprint when the
        # archive can compute one: two models whose chains resolve to the
        # same weights (common in dedup'd fine-tuned families) then share
        # bounds entries and single-flight loads across evaluators.
        self._cache_ns = archive.snapshot_fingerprint(snapshot_id) or snapshot_id
        shared = archive.plane_cache
        if shared is None:
            shared = archive.plane_cache = (
                plane_cache if plane_cache is not None
                else PlaneCache(registry=MetricsRegistry())
            )
        elif plane_cache is not None and plane_cache is not shared:
            raise ValueError(
                "plane_cache is not the archive's: one cache serves a read "
                "path"
            )
        self.plane_cache = shared
        self._lock = threading.RLock()
        self._plane_sizes_memo: Optional[list[int]] = None
        self._exact_installed = False

    # -- reads ---------------------------------------------------------------

    def _param_bounds(self, planes: int) -> dict[str, dict[str, Interval]]:
        """Interval bounds for every archived parameter at ``planes`` depth.

        Uncached — this is the raw archive read; use :meth:`param_bounds`
        for the cached entry point.  At full depth the bounds are the
        exact weights, degenerate.
        """
        if planes >= NUM_PLANES:
            return {
                layer: {p: Interval.exact(v) for p, v in params.items()}
                for layer, params in self.exact_weights().items()
            }
        return by_layer({
            matrix_id: self.archive.matrix_bounds(matrix_id, planes)
            for matrix_id in self._members
        })

    def param_bounds(self, planes: int) -> dict[str, dict[str, Interval]]:
        """Interval bounds at ``planes`` depth, cached when there is room
        (thread-safe).

        The bounds are a derived entry of the plane cache,
        ``("bounds", fingerprint, planes)``, frozen because models with
        equal content share it.  They are admitted only into room no
        plane needs, so under a tight budget they are re-derived — from
        cached planes — instead of evicting them.  Bounds derived from a
        plane the recovery path served are never cached.
        """
        planes = min(planes, NUM_PLANES)

        def load() -> tuple[dict, Optional[int]]:
            mark = self._recoveries()
            bounds = self._param_bounds(planes)
            nbytes = _frozen_nbytes(bounds)
            return bounds, nbytes if self._recoveries() == mark else None

        return self.plane_cache.get_or_load(
            ("bounds", self._cache_ns, planes), load, derived=True
        )

    def exact_weights(self) -> dict[str, dict[str, np.ndarray]]:
        """The snapshot's full-precision weights, freshly assembled from
        PAS; their planes come through the plane cache, so a warm call
        reads no store.  The exact pass calls this only until the net
        holds the weights."""
        return self._read_weights()

    def _recoveries(self) -> int:
        """Recovery events so far: a read that adds one is never kept."""
        return self.archive.recovery.seq

    def _read_weights(
        self, planes: int = NUM_PLANES
    ) -> dict[str, dict[str, np.ndarray]]:
        return self.archive.recreate_snapshot(
            self.snapshot_id, planes=planes
        ).by_layer()

    def _install_exact(
        self, weights: dict[str, dict[str, np.ndarray]], clean: bool
    ) -> None:
        """Install pre-fetched exact weights. Caller must hold ``_lock``.

        Idempotent between calls that truncate the weights: repeated
        exact passes skip the (re-)install unless something installed
        other weights in between (``evaluate_at_planes`` resets the
        flag).  Weights read through the recovery path (not ``clean``)
        serve one pass; the next fetches again.  The caller fetches
        *outside* the lock (:meth:`exact_weights`) so chunk retrieval
        never serializes concurrent queries on I/O.
        """
        if not self._exact_installed:
            self.net.set_weights(weights)
            self._exact_installed = clean

    def _stored_plane_sizes(self) -> list[int]:
        """Stored bytes per plane index across the snapshot's payload chains."""
        with self._lock:
            if self._plane_sizes_memo is not None:
                return self._plane_sizes_memo
        sizes = [0] * NUM_PLANES
        seen: set[str] = set()
        for matrix_id in self._members:
            for entry in self.archive.chain(matrix_id, stop=seen):
                seen.add(entry.matrix_id)
                for i in range(NUM_PLANES):
                    sizes[i] += self.archive.plane_stored_size(entry, i)
        with self._lock:
            self._plane_sizes_memo = sizes
        return sizes

    # -- passes ----------------------------------------------------------------

    def evaluate_bounded(
        self, x: np.ndarray, planes: int, k: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """One interval pass at a fixed plane budget — no escalation.

        Returns:
            ``(determined, labels)`` per row — labels are trustworthy
            exactly where ``determined`` is True (Lemma 4).
        """
        with trace_span(
            "progressive.bounded",
            snapshot=self.snapshot_id,
            planes=planes,
            rows=len(x),
        ) as span:
            bounds = self.param_bounds(planes)
            logit_iv = self.net.forward_interval(
                x, bounds, upto=self.logits_node
            )
            result = argmax_determined(logit_iv, k=k)
        charge(compute_s=span.elapsed)
        return result

    def forward_exact_many(
        self, batches: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Forward several batches at full precision, atomically.

        The net holds the exact weights once installed.  Until then they
        are fetched first (plane-cache single-flight applies, no lock
        held), then the install plus every forward pass run under
        ``_lock`` so a concurrent :meth:`evaluate_at_planes` cannot swap
        truncated weights in mid-run.  The pass is billed ``compute_s``
        like :meth:`evaluate_bounded`.
        """
        with trace_span(
            "progressive.exact",
            snapshot=self.snapshot_id,
            rows=sum(len(batch) for batch in batches),
        ) as span:
            fetched = None
            while True:
                with self._lock:
                    if fetched is not None:
                        self._install_exact(*fetched)
                    if self._exact_installed or fetched is not None:
                        outputs = self.net.forward_many(
                            batches, upto=self.logits_node
                        )
                        break
                mark = self._recoveries()
                weights = self.exact_weights()
                fetched = weights, self._recoveries() == mark
        charge(compute_s=span.elapsed)
        return outputs

    def step(
        self, x: np.ndarray, planes: int, k: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """One pass at one plane budget: ``(determined, labels)`` per row.

        Below ``NUM_PLANES`` this is the interval pass
        (:meth:`evaluate_bounded`) and ``determined`` marks the rows
        Lemma 4 settles; at ``NUM_PLANES`` the exact forward pass
        (:meth:`forward_exact_many`) answers every row.  Both
        :meth:`evaluate` and the serving scheduler escalate through it.
        """
        if planes < NUM_PLANES:
            return self.evaluate_bounded(x, planes, k)
        (out,) = self.forward_exact_many([x])
        return np.ones(len(x), dtype=bool), np.argmax(out, axis=1)

    # -- queries ---------------------------------------------------------------

    def evaluate(
        self,
        x: np.ndarray,
        k: int = 1,
        start_planes: int = 1,
        batch: int = 256,
    ) -> ProgressiveResult:
        """Progressively predict labels for ``x`` with exactness guarantee.

        Starts at ``start_planes`` high-order byte planes and escalates
        only the undetermined points, plane by plane, up to full
        precision.

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
        planes_used = start_planes = min(start_planes, NUM_PLANES)

        for planes in range(start_planes, NUM_PLANES + 1):
            if unresolved.size == 0:
                determined_fraction[planes] = 1.0
                continue
            with trace_span(
                "progressive.plane",
                snapshot=self.snapshot_id,
                planes=planes,
                unresolved=int(unresolved.size),
            ) as plane_span:
                still_open = []
                for start in range(0, unresolved.size, batch):
                    idx = unresolved[start : start + batch]
                    determined, labels = self.step(x[idx], planes, k)
                    done = idx[determined]
                    predictions[done] = labels[determined]
                    resolved_at[done] = planes
                    still_open.extend(idx[~determined].tolist())
                resolved_here = unresolved.size - len(still_open)
                plane_span.set_attr("resolved", resolved_here)
            counter("progressive.points_resolved").inc(resolved_here)
            if planes == NUM_PLANES:
                counter("progressive.exact_fallbacks").inc()
            histogram("progressive.plane_seconds").observe(plane_span.elapsed)
            unresolved = np.asarray(still_open, dtype=np.int64)
            determined_fraction[planes] = 1.0 - unresolved.size / n
            planes_used = planes
            if unresolved.size == 0:
                break
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

    def evaluate_at_planes(
        self, x: np.ndarray, planes: int, batch: int = 256
    ) -> np.ndarray:
        """Non-progressive baseline: predict from truncated weights.

        Reads exactly ``planes`` high-order byte planes, installs the
        truncated point estimates, and predicts — no error guarantee.
        Used by the Fig. 6(d) benchmark to measure the raw error rate of
        partial-precision evaluation.
        """
        mark = self._recoveries()
        weights = self._read_weights(planes)
        clean = self._recoveries() == mark
        with self._lock:
            self.net.set_weights(weights)
            self._exact_installed = planes >= NUM_PLANES and clean
            preds = []
            for start in range(0, len(x), batch):
                out = self.net.forward(
                    x[start : start + batch], upto=self.logits_node
                )
                preds.append(np.argmax(out, axis=1))
        return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)
