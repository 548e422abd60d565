"""Serving-tier configuration knobs.

One frozen dataclass carries every policy the server, scheduler, and
plane cache consult, so a whole deployment is describable as a single
value (and the ``dlv serve`` flags map onto it one-to-one).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.segmentation import NUM_PLANES

__all__ = ["ServeConfig"]


def _default_slowlog_ms() -> float:
    return float(os.environ.get("REPRO_SLOWLOG_MS", "250"))


@dataclass(frozen=True)
class ServeConfig:
    """Policy for one :class:`~repro.serve.ModelServer`.

    Attributes:
        host / port: Bind address; port 0 lets the OS pick (the bound
            port is readable from ``ModelServer.port`` after ``start``).
        max_batch: Most input rows one coalesced forward pass may carry
            (a single request larger than this runs alone).  A batch is
            whatever is queued at the head request's plane budget when a
            waiting thread takes the model's lead; no timer holds it open.
        queue_limit: Queued requests per model before admission control
            sheds new arrivals with HTTP 429.
        cache_bytes: Byte budget of the shared :class:`PlaneCache`.
        start_planes: Default plane budget a progressive request starts
            at when the client does not pick one.
        request_timeout_s: How long an HTTP handler waits for its ticket
            before answering 504.
        drain_timeout_s: Grace period a shutdown waits for in-flight
            requests before giving up on a clean drain.
        slowlog_ms: Wall-time threshold above which a predict request is
            recorded in the slow-request log (``dlv slowlog`` /
            ``/v1/slowlog``).  Defaults to the ``REPRO_SLOWLOG_MS``
            environment variable, falling back to 250 ms.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 16
    queue_limit: int = 64
    cache_bytes: int = 256 << 20
    start_planes: int = 1
    request_timeout_s: float = 30.0
    drain_timeout_s: float = 10.0
    slowlog_ms: float = field(default_factory=_default_slowlog_ms)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.cache_bytes <= 0:
            raise ValueError(
                f"cache_bytes must be positive, got {self.cache_bytes}"
            )
        if not 1 <= self.start_planes <= NUM_PLANES:
            raise ValueError(
                f"start_planes must be in [1, {NUM_PLANES}], "
                f"got {self.start_planes}"
            )
        if self.slowlog_ms < 0:
            raise ValueError(
                f"slowlog_ms must be >= 0, got {self.slowlog_ms}"
            )

    def with_overrides(self, **kwargs) -> "ServeConfig":
        """A copy with some fields replaced (None values are ignored)."""
        return replace(
            self, **{k: v for k, v in kwargs.items() if v is not None}
        )
