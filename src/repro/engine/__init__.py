"""Session-scoped TopRR query serving.

* :mod:`repro.engine.engine` — :class:`TopRREngine`: bind a dataset once,
  answer many queries with cross-query caching (affine score form,
  r-skyband, full results), batch execution and cache warming.
* :mod:`repro.engine.cache` — the bounded LRU used for the caches.
* :mod:`repro.engine.fingerprint` — hashable region fingerprints (cache keys).
"""

from repro.engine.cache import CacheInfo, LRUCache
from repro.engine.engine import BATCH_EXECUTORS, TopRREngine
from repro.engine.fingerprint import region_fingerprint

__all__ = [
    "TopRREngine",
    "BATCH_EXECUTORS",
    "LRUCache",
    "CacheInfo",
    "region_fingerprint",
]
