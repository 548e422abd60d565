"""The serving tier's plane cache: :class:`repro.core.cache.PlaneCache`.

One :class:`PlaneCache` per :class:`~repro.serve.ModelServer` holds the
byte planes every served model reads, under ``("plane", address)`` —
assembled at 1 B per weight, or a paged plane's sparse patch over base
pages charged once across the models that share them — and, only in
room no plane needs, the derived interval bounds, ``("bounds",
fingerprint, planes)``.  The class itself
lives with the rest of the read path in :mod:`repro.core.cache`.
"""

from repro.core.cache import PlaneCache

__all__ = ["PlaneCache"]
