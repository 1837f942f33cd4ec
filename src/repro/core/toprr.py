"""The user-facing TopRR front end.

:func:`solve_toprr` wires together the full pipeline of the paper:

1. pre-filter the dataset with the r-skyband (Section 6.3 — the filter the
   paper selects for all methods),
2. partition the preference region with the chosen solver (PAC, TAS or TAS*)
   to obtain the vertex set ``V_all``,
3. apply Theorem 1: intersect the impact halfspaces of the vertices in
   ``V_all`` (clipped to the option-space box) to obtain the output region
   ``oR``.

The result object :class:`TopRRResult` exposes the region both as a polytope
and through a fast membership predicate, together with all the bookkeeping
the experiment harness needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.core.impact import is_top_ranking
from repro.core.pac import PACSolver
from repro.core.stats import SolverStats
from repro.core.tas import TASSolver
from repro.core.tas_star import TASStarSolver
from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.geometry.polytope import ConvexPolytope
from repro.preference.region import PreferenceRegion
from repro.utils.rng import RngLike
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

if TYPE_CHECKING:  # typing only; the engine runs the pre-filter
    from repro.core.sharded import ShardedPrefilter

#: Method labels accepted by :func:`solve_toprr`.
METHODS = ("tas*", "tas", "pac")

SolverLike = Union[str, TASSolver, TASStarSolver, PACSolver]


class TopRRResult:
    """The answer to a TopRR query.

    Attributes
    ----------
    dataset:
        The original dataset ``D``.
    filtered:
        The r-skyband subset ``D'`` actually processed.
    k:
        The query parameter.
    region:
        The preference region ``wR``.
    vertices_reduced:
        ``V_all`` in reduced preference coordinates, shape ``(m, d-1)``.
    full_weights:
        ``V_all`` lifted to full weight vectors, shape ``(m, d)``.
    thresholds:
        ``TopK(v)`` for every vertex of ``V_all``.
    polytope:
        The output region ``oR`` (clipped to the option-space box).
    stats:
        Solver bookkeeping (splits, vertices, timings, ...).
    method:
        Name of the solver that produced the result.
    """

    def __init__(
        self,
        dataset: Dataset,
        filtered: Dataset,
        k: int,
        region: PreferenceRegion,
        vertices_reduced: np.ndarray,
        full_weights: np.ndarray,
        thresholds: np.ndarray,
        polytope: ConvexPolytope,
        stats: SolverStats,
        method: str,
        tol: Tolerance = DEFAULT_TOL,
    ):
        self.dataset = dataset
        self.filtered = filtered
        self.k = int(k)
        self.region = region
        self.vertices_reduced = vertices_reduced
        self.full_weights = full_weights
        self.thresholds = thresholds
        self.polytope = polytope
        self.stats = stats
        self.method = method
        self._tol = tol

    def make_read_only(self) -> "TopRRResult":
        """Freeze ``V_all``, the lifted weights, the thresholds, ``oR`` and ``D'``.

        Called where a result enters a result cache, which hands the same
        object to every later hit: a caller writing into its arrays then
        gets a ``ValueError`` instead of poisoning those hits.  The values of
        the filtered subset ``D'`` are frozen too (they are the cached
        r-skyband entry's), but never those of the caller's own ``dataset``.
        """
        for array in (self.vertices_reduced, self.full_weights, self.thresholds):
            array.setflags(write=False)
        if self.filtered is not self.dataset:
            self.filtered.values.setflags(write=False)
        self.polytope.make_read_only()
        return self

    # ------------------------------------------------------------------ #
    # membership and geometry
    # ------------------------------------------------------------------ #
    def contains(self, option: Sequence[float]) -> bool:
        """True if placing a new option at ``option`` makes it top-ranking for ``wR``.

        The test is performed directly against the impact halfspaces (score
        at every vertex of ``V_all`` at least the vertex's threshold); the
        option-space box is *not* enforced here, mirroring the paper's remark
        that domain constraints are applied after ``oR`` computation.
        """
        return is_top_ranking(option, self.full_weights, self.thresholds, tol=self._tol)

    def contains_many(self, options: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` for an ``(n, d)`` array of candidate options."""
        options = np.asarray(options, dtype=float)
        scores = options @ self.full_weights.T
        return np.all(scores >= self.thresholds[None, :] - self._tol.score, axis=1)

    @property
    def n_vertices(self) -> int:
        """Size of ``V_all``."""
        return int(self.vertices_reduced.shape[0])

    @property
    def option_region_vertices(self) -> np.ndarray:
        """Vertices of the output polytope ``oR`` (clipped to the option box)."""
        return self.polytope.vertices

    def volume(self) -> float:
        """Volume of ``oR`` within the option-space box."""
        return self.polytope.volume()

    def is_empty(self) -> bool:
        """True when no placement inside the option-space box is top-ranking."""
        return self.polytope.is_empty()

    def existing_top_ranking_options(self) -> np.ndarray:
        """Positional indices of *existing* options that are already top-ranking for ``wR``."""
        mask = self.contains_many(self.dataset.values)
        return np.flatnonzero(mask)

    def summary(self) -> dict:
        """Compact dictionary used by the CLI and the experiment reports."""
        return {
            "method": self.method,
            "k": self.k,
            "n_options": self.dataset.n_options,
            "n_filtered": self.filtered.n_options,
            "n_vertices": self.n_vertices,
            "volume": self.volume(),
            "seconds": self.stats.seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TopRRResult(method={self.method!r}, k={self.k}, "
            f"|V_all|={self.n_vertices}, |D'|={self.filtered.n_options})"
        )


def make_solver(method: SolverLike, rng: RngLike = 0, tol: Tolerance = DEFAULT_TOL):
    """Instantiate a solver from a method label, or pass an existing solver through."""
    if not isinstance(method, str):
        return method
    label = method.lower().replace("_", "-")
    if label in ("tas*", "tas-star", "tasstar"):
        return TASStarSolver(rng=rng, tol=tol)
    if label == "tas":
        return TASSolver(rng=rng, tol=tol)
    if label == "pac":
        return PACSolver(rng=rng, tol=tol)
    raise InvalidParameterError(f"unknown TopRR method {method!r}; expected one of {METHODS}")


def solve_toprr(
    dataset: Dataset,
    k: int,
    region: PreferenceRegion,
    method: SolverLike = "tas*",
    prefilter: Optional["ShardedPrefilter"] = None,
    rng: RngLike = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> TopRRResult:
    """Solve a TopRR instance end to end.

    Parameters
    ----------
    dataset:
        The option dataset ``D``.
    k:
        Rank requirement: the new option must be in the top-k for every
        weight vector in ``region``.
    region:
        The target preference region ``wR`` (a convex polytope in the reduced
        preference space).
    method:
        ``"tas*"`` (default), ``"tas"``, ``"pac"``, or an already configured
        solver instance (e.g. a
        :class:`~repro.core.parallel.RegionParallelSolver`).
    prefilter:
        ``None`` (default) runs the r-skyband pre-filter in-process; a
        :class:`~repro.core.sharded.ShardedPrefilter` runs it over option
        shards instead, with a bit-identical result.  The caller owns (and
        closes) the sharded pre-filter.
    rng:
        Seed or generator for the solver's randomised choices.
    tol:
        Numerical tolerance bundle.

    Returns
    -------
    :class:`TopRRResult`
        ``oR`` is clipped to the unit option-space box ``[0, 1]^d``; other
        domain constraints apply after the fact
        (:func:`~repro.core.composite.constrain_result`).

    Notes
    -----
    This function is a one-shot :class:`repro.engine.TopRREngine` with
    caching disabled; sessions that issue several queries against the same
    dataset should hold an engine instead (bind once, query many).
    """
    from repro.engine.engine import TopRREngine  # local import: engine builds on this module

    engine = TopRREngine(
        dataset,
        method=method,
        prefilter=prefilter,
        rng=rng,
        tol=tol,
        skyband_cache_size=0,
        result_cache_size=0,
    )
    return engine.query(k, region)
