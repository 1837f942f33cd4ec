"""Thread-local counters for the expensive geometry primitives.

The tentpole question of the geometry backend work is *observable
elimination*: with an exact closed-form backend selected (2-D polygon or
3-D polyhedron), a solve must perform **zero** `scipy.optimize.linprog`
round trips and **zero** qhull halfspace intersections, replacing both with
closed-form clipping.  The only way to assert that from a test (or to
report it from :class:`~repro.core.stats.SolverStats`) is to count the
calls at the source.

Every LP solve (:func:`repro.geometry.chebyshev.chebyshev_center`), every
qhull halfspace intersection
(:func:`repro.geometry.vertex_enum.enumerate_vertices`) and every clipping
pass (:mod:`repro.geometry.polygon`, :mod:`repro.geometry.polyhedron`)
increments the process-wide
:data:`geometry_counters`.  The counters are ``threading.local`` so that
concurrent solves (e.g. the HTTP server's thread pool running
:meth:`TopRREngine.query`) each observe their own deltas; solvers snapshot
the counters around their region loop and record the difference into
``SolverStats``.
"""

from __future__ import annotations

import threading
from typing import NamedTuple


class GeometrySnapshot(NamedTuple):
    """Immutable view of the four per-thread geometry counters."""

    n_lp_calls: int
    n_qhull_calls: int
    n_clip_calls: int
    n_backend_fallbacks: int


class GeometryCounters(threading.local):
    """Per-thread running totals of LP, qhull and polygon-clip invocations.

    Attributes
    ----------
    n_lp_calls:
        ``scipy.optimize.linprog`` round trips (Chebyshev centres).
    n_qhull_calls:
        qhull halfspace intersections (general-dimension vertex
        enumeration).
    n_clip_calls:
        Closed-form clipping passes, polygon or polyhedron (one per
        halfspace clip; a *cut* — one pass emitting both children — also
        counts one).
    n_backend_fallbacks:
        Closed-form backends demoted to the generic LP/qhull path because a
        consistency check caught a numerically broken body (non-finite
        vertices, negative area/volume, a torn face ring).  Zero on healthy
        inputs; nonzero means results are still exact but some regions paid
        the generic-path price.
    """

    def __init__(self):
        self.n_lp_calls = 0
        self.n_qhull_calls = 0
        self.n_clip_calls = 0
        self.n_backend_fallbacks = 0

    def snapshot(self) -> GeometrySnapshot:
        """Current totals, for delta accounting around a solve."""
        return GeometrySnapshot(
            self.n_lp_calls, self.n_qhull_calls, self.n_clip_calls, self.n_backend_fallbacks
        )

    def delta(self, since: GeometrySnapshot) -> GeometrySnapshot:
        """Counts accumulated since ``since`` (an earlier :meth:`snapshot`)."""
        return GeometrySnapshot(
            self.n_lp_calls - since.n_lp_calls,
            self.n_qhull_calls - since.n_qhull_calls,
            self.n_clip_calls - since.n_clip_calls,
            self.n_backend_fallbacks - since.n_backend_fallbacks,
        )

    def reset(self) -> None:
        """Zero the calling thread's counters (used by tests and benchmarks)."""
        self.n_lp_calls = 0
        self.n_qhull_calls = 0
        self.n_clip_calls = 0
        self.n_backend_fallbacks = 0


#: Process-wide (per-thread) geometry counters.
geometry_counters = GeometryCounters()
