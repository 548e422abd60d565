"""The serving tier's plane cache: :class:`repro.core.cache.PlaneCache`.

One :class:`PlaneCache` per :class:`~repro.serve.ModelServer` holds the
per-plane interval bounds, exact weight sets and dedup pages every
served model shares; the class itself lives with the rest of the read
path in :mod:`repro.core.cache`.
"""

from repro.core.cache import PlaneCache

__all__ = ["PlaneCache"]
