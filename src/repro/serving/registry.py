"""Per-dataset engine registry, solve coalescing, and mutate/solve exclusion.

One serving replica fronts one or more datasets, each bound to its own
:class:`~repro.engine.engine.TopRREngine`.  The registry wraps each in a
:class:`ServedDataset` carrying the concurrency machinery the engines
themselves don't need in library use:

* an **async reader-writer lock** — solves take the read side and run
  concurrently; a ``/mutate`` takes the write side, so it never interleaves
  with an in-flight solve (the engines' ``apply_delta`` rebinding is not
  atomic with respect to a concurrent ``query``), and writers are preferred
  so a mutation cannot starve behind a steady solve stream;
* a **request coalescer** — concurrent identical ``(k, region fingerprint,
  method)`` solves share one underlying engine call: the first request
  computes, followers await a shielded reference to the same future and are
  counted in the metrics as coalesced;
* bounded **latency/requests accounting** surfaced by ``/metrics``, overall
  and per route split by cache outcome (:data:`LATENCY_WINDOWS`).
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from contextlib import asynccontextmanager
from typing import Dict, List, Optional, Tuple

from repro.exceptions import InvalidParameterError

#: The per-route latency windows of ``/metrics``: a ``/solve`` is counted by
#: its cache outcome, ``/batch`` and ``/mutate`` by route.
LATENCY_WINDOWS = ("solve.hit", "solve.miss", "solve.coalesced", "batch", "mutate")


class AsyncReadWriteLock:
    """A writer-preferring reader-writer lock for one asyncio event loop.

    Many readers may hold the lock concurrently; a writer holds it alone.
    Once a writer is waiting, new readers queue behind it — mutations are
    rare and must not starve behind a continuous stream of solves.
    """

    def __init__(self):
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @asynccontextmanager
    async def read(self):
        """Hold the shared (solve) side for the duration of the block."""
        async with self._cond:
            while self._writer_active or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @asynccontextmanager
    async def write(self):
        """Hold the exclusive (mutate) side for the duration of the block."""
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            async with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class ServedDataset:
    """One dataset-and-engine pair plus its serving-side state."""

    #: Bound on the per-dataset latency ring buffer (newest wins).
    LATENCY_WINDOW = 2048

    def __init__(self, name: str, engine):
        self.name = name
        self.engine = engine
        self.lock = AsyncReadWriteLock()
        #: In-flight solves keyed by ``(k, fingerprint, method)`` — the
        #: coalescing table.  Touched only from the event loop thread.
        self.inflight: Dict[tuple, asyncio.Future] = {}
        self.n_coalesced = 0
        self.n_requests: Dict[str, int] = {"solve": 0, "batch": 0, "mutate": 0}
        self.n_cache_hits = 0
        self._latencies: deque = deque(maxlen=self.LATENCY_WINDOW)
        self._route_latencies: Dict[str, deque] = {
            window: deque(maxlen=self.LATENCY_WINDOW) for window in LATENCY_WINDOWS
        }
        self._metrics_lock = threading.Lock()

    # -------------------------------------------------------------- #
    # coalescing
    # -------------------------------------------------------------- #
    async def coalesced_solve(self, key: tuple, thunk) -> Tuple[object, bool]:
        """Run ``thunk()`` once per concurrent identical key.

        The first caller for ``key`` owns the solve; callers arriving while
        it is in flight await the same future (shielded, so one impatient
        client disconnecting cannot cancel everyone's solve) and report
        ``coalesced=True``.  The table entry is removed the moment the solve
        resolves — later identical requests hit the engine's result cache
        instead.
        """
        existing = self.inflight.get(key)
        if existing is not None:
            self.n_coalesced += 1
            return await asyncio.shield(existing), True
        future = asyncio.ensure_future(thunk())
        self.inflight[key] = future
        try:
            return await asyncio.shield(future), False
        finally:
            if self.inflight.get(key) is future:
                del self.inflight[key]

    # -------------------------------------------------------------- #
    # metrics
    # -------------------------------------------------------------- #
    def record(
        self,
        route: str,
        seconds: Optional[float] = None,
        cache_hit: bool = False,
        coalesced: bool = False,
    ) -> None:
        """Fold one served request into the counters.

        Its latency joins the overall window and the route's window; a
        ``"solve"`` goes to ``solve.hit``, ``solve.coalesced`` or
        ``solve.miss`` by its cache outcome.
        """
        window = route
        if route == "solve":
            window = "solve.hit" if cache_hit else "solve.coalesced" if coalesced else "solve.miss"
        with self._metrics_lock:
            self.n_requests[route] = self.n_requests.get(route, 0) + 1
            if cache_hit:
                self.n_cache_hits += 1
            if seconds is not None:
                self._latencies.append(seconds)
                if window in self._route_latencies:
                    self._route_latencies[window].append(seconds)

    def metrics(self) -> dict:
        """The ``/metrics`` payload for this dataset (never raises on fresh state)."""
        with self._metrics_lock:
            latencies = sorted(self._latencies)
            by_route = {
                window: sorted(values) for window, values in self._route_latencies.items()
            }
            requests = dict(self.n_requests)
            n_cache_hits = self.n_cache_hits
            n_coalesced = self.n_coalesced

        def summary(window: list) -> dict:
            """Count and p50/p99 (ms) of one sorted latency window; zeros when empty."""

            def percentile(fraction: float) -> float:
                """The ``fraction`` quantile (nearest rank below) of ``window``, in seconds."""
                if not window:
                    return 0.0
                index = min(len(window) - 1, int(fraction * len(window)))
                return window[index]

            return {
                "count": len(window),
                "p50_ms": percentile(0.50) * 1000.0,
                "p99_ms": percentile(0.99) * 1000.0,
            }

        return {
            "dataset": {
                "name": self.engine.dataset.name,
                "n_options": int(self.engine.dataset.n_options),
                "n_attributes": int(self.engine.dataset.n_attributes),
                "version": int(self.engine.dataset.version),
            },
            "requests": requests,
            "n_coalesced": n_coalesced,
            "n_result_cache_hits": n_cache_hits,
            "latency": summary(latencies),
            "latency_by_route": {window: summary(values) for window, values in by_route.items()},
            "cache": self.engine.cache_info(),
        }


class EngineRegistry:
    """Name → :class:`ServedDataset` lookup with a default dataset.

    The first registered dataset is the default: requests that omit the
    ``"dataset"`` field are routed to it, so single-dataset deployments
    (the common case) never name anything.
    """

    def __init__(self):
        self._entries: Dict[str, ServedDataset] = {}
        self._default: Optional[str] = None

    def add(self, name: str, engine) -> ServedDataset:
        """Register ``engine`` under ``name``; returns its serving wrapper."""
        if name in self._entries:
            raise InvalidParameterError(f"dataset {name!r} is already registered")
        entry = ServedDataset(name, engine)
        self._entries[name] = entry
        if self._default is None:
            self._default = name
        return entry

    def get(self, name: Optional[str] = None) -> ServedDataset:
        """The entry for ``name`` (or the default); unknown names raise."""
        if name is None:
            if self._default is None:
                raise InvalidParameterError("no dataset is registered")
            name = self._default
        try:
            return self._entries[name]
        except KeyError:
            raise InvalidParameterError(
                f"unknown dataset {name!r}; registered: {sorted(self._entries)}"
            ) from None

    def names(self) -> List[str]:
        """Registered dataset names, default first."""
        names = sorted(self._entries)
        if self._default in names:
            names.remove(self._default)
            names.insert(0, self._default)
        return names

    def entries(self) -> List[ServedDataset]:
        """Every registered entry, default first."""
        return [self._entries[name] for name in self.names()]

    def __len__(self) -> int:
        return len(self._entries)
