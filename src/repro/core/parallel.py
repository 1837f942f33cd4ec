"""Region-parallel TAS* (the paper's "explore parallelism" future work).

Theorem 1 only needs the vertex set of *some* partitioning of ``wR`` into
kIPRs — it does not care how that partitioning was obtained.  This makes the
problem embarrassingly parallel: chop ``wR`` into disjoint boxes, run the
test-and-split recursion on each box independently, take the union of the
accumulated vertex sets, and intersect the impact halfspaces once at the end.
The result is identical to the sequential answer (the chop boundaries simply
become extra, redundant vertices in ``V_all``).

:class:`RegionParallelSolver` is that scheme as a solver: its ``partition``
chops the region, runs TAS* on every piece and merges the pieces' vertex
sets, so :class:`~repro.engine.TopRREngine` runs it like any other solver —
on the engine's (cached) r-skyband, followed by the engine's impact-region
step; the one-shot form is ``solve_toprr(..., method=RegionParallelSolver(...))``.
The per-piece work is CPU-bound Python, so speed-ups need the (default)
process executor; the serial executor solves the pieces in-process and
exists for testing and debugging.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.core.kipr import WorkingSet
from repro.core.scorecache import VertexScoreMemo
from repro.core.stats import SolverStats
from repro.core.tas_star import TASStarSolver
from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polytope import merge_vertex_sets
from repro.preference.region import PreferenceRegion
from repro.utils.rng import RngLike
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Executor labels accepted by :class:`RegionParallelSolver`.
EXECUTORS = ("process", "serial")

#: One warning per process about degenerate chops (tests reset this flag).
_degenerate_split_warned = False


def split_region_into_boxes(region: PreferenceRegion, n_pieces: int) -> List[PreferenceRegion]:
    """Chop a preference region into ``n_pieces`` boxes along its widest axes.

    The region is repeatedly halved along the axis with the largest vertex
    extent until the requested number of pieces is reached (or pieces become
    too thin to split further).  Pieces are full-fledged
    :class:`PreferenceRegion` objects, so any solver can process them
    independently.

    Degenerate regions (every axis extent at or below the 1e-9 split floor,
    e.g. a near-point ``wR``) cannot be chopped and yield fewer pieces than
    requested — possibly just ``[region]``.  That silently serialises a
    "parallel" solve, so the first such shortfall in a process emits a
    :class:`RuntimeWarning`; callers can compare
    ``stats.extra["n_pieces"]`` against ``n_pieces_requested`` to detect it
    programmatically.
    """
    global _degenerate_split_warned
    if n_pieces <= 0:
        raise InvalidParameterError(f"n_pieces must be positive, got {n_pieces}")
    pieces = [region]
    while len(pieces) < n_pieces:
        # Split the piece with the largest extent to keep the pieces balanced.
        extents = []
        for piece in pieces:
            vertices = piece.vertices
            spans = vertices.max(axis=0) - vertices.min(axis=0)
            extents.append((float(spans.max()), int(spans.argmax())))
        widest = int(np.argmax([extent for extent, _axis in extents]))
        span, axis = extents[widest]
        if span <= 1e-9:
            break
        piece = pieces.pop(widest)
        vertices = piece.vertices
        midpoint = float((vertices[:, axis].min() + vertices[:, axis].max()) / 2.0)
        normal = np.zeros(piece.dimension)
        normal[axis] = 1.0
        below, above = piece.split(Hyperplane(normal, midpoint))
        for child in (below, above):
            if not child.is_empty() and child.is_full_dimensional():
                pieces.append(child)
        if not pieces:
            pieces = [region]
            break
    if len(pieces) < n_pieces and not _degenerate_split_warned:
        _degenerate_split_warned = True
        warnings.warn(
            f"split_region_into_boxes produced {len(pieces)} piece(s) instead of the "
            f"requested {n_pieces}: the region is too thin to chop further, so a "
            "parallel solve degrades toward serial execution (warning once per process)",
            RuntimeWarning,
            stacklevel=2,
        )
    return pieces


def _partition_piece(
    filtered: Dataset,
    k: int,
    piece: PreferenceRegion,
    solver_kwargs: dict,
    working: WorkingSet,
    score_memo: Optional[VertexScoreMemo] = None,
) -> Tuple[np.ndarray, SolverStats]:
    """Worker: run TAS* on one piece and return its vertex set and stats.

    Module-level so that it can be pickled by the process executor.
    ``working`` is the root working set shared by all pieces; ``score_memo``
    a vertex-score memo bound to it.  The memo holds a lock and cannot cross
    a process boundary, so process workers receive ``None`` and let the
    solver resolve a worker-local one.
    """
    stats = SolverStats()
    vertices = TASStarSolver(**solver_kwargs).partition(
        filtered, k, piece, stats=stats, working=working, score_memo=score_memo
    )
    return vertices, stats


class RegionParallelSolver:
    """TAS* over ``wR`` chopped into boxes, the pieces solved in parallel.

    Follows the solver protocol (``partition(filtered, k, region, stats,
    working, score_memo) -> V_all``), so it can be passed as ``method=`` to
    :func:`~repro.core.toprr.solve_toprr` or
    :meth:`~repro.engine.TopRREngine.query`.

    Parameters
    ----------
    n_workers:
        Process-pool size.
    n_pieces:
        Number of boxes ``wR`` is chopped into (defaults to ``2 * n_workers``
        so that faster pieces can steal work from slower ones).
    executor:
        ``"process"`` (default, real parallelism) or ``"serial"`` (in-process
        loop; useful for testing and debugging).
    rng, tol:
        As in :class:`~repro.core.tas_star.TASStarSolver`; every piece gets a
        solver built from the same seed.
    incremental:
        Route each piece through the incremental split-tree vertex-score
        memo, as the sequential solver does by default.  The serial executor
        shares the caller's memo across pieces (a vertex on the boundary
        between two pieces is scored once); process workers build their own
        — the memo's lock cannot cross the process boundary — but still reuse
        rows along their piece's split tree.
    """

    def __init__(
        self,
        n_workers: int = 4,
        n_pieces: Optional[int] = None,
        executor: str = "process",
        rng: RngLike = 0,
        tol: Tolerance = DEFAULT_TOL,
        incremental: bool = True,
    ):
        if n_workers <= 0:
            raise InvalidParameterError(f"n_workers must be positive, got {n_workers}")
        if executor not in EXECUTORS:
            raise InvalidParameterError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.n_workers = int(n_workers)
        self.n_pieces = int(n_pieces or 2 * n_workers)
        self.executor = executor
        self.tol = tol
        self._solver_kwargs = {"rng": rng, "tol": tol, "incremental": incremental}
        self.name = f"TAS* (parallel x{self.n_pieces} pieces, {executor})"

    def partition(
        self,
        filtered: Dataset,
        k: int,
        region: PreferenceRegion,
        stats: Optional[SolverStats] = None,
        working: Optional[WorkingSet] = None,
        score_memo: Optional[VertexScoreMemo] = None,
    ) -> np.ndarray:
        """Chop ``region``, run TAS* on every piece and merge their ``V_all``.

        The pieces' counters are summed into ``stats``; the piece counts,
        worker count and executor land in ``stats.extra``.
        """
        stats = stats if stats is not None else SolverStats()
        working = working if working is not None else WorkingSet.from_dataset(filtered, k)
        pieces = split_region_into_boxes(region, self.n_pieces)
        if self.executor == "serial" or len(pieces) == 1:
            outputs = [
                _partition_piece(filtered, k, piece, self._solver_kwargs, working, score_memo)
                for piece in pieces
            ]
        else:
            with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
                futures = [
                    pool.submit(_partition_piece, filtered, k, piece, self._solver_kwargs, working)
                    for piece in pieces
                ]
                outputs = [future.result() for future in futures]

        vall = merge_vertex_sets([vertices for vertices, _stats in outputs], tol=self.tol)
        for _vertices, piece_stats in outputs:
            stats.add(piece_stats)
        # Per-root quantities do not add up across pieces.
        stats.n_vertices = int(vall.shape[0])
        stats.n_after_lemma5 = max(piece_stats.n_after_lemma5 for _v, piece_stats in outputs)
        stats.k_effective = max(piece_stats.k_effective for _v, piece_stats in outputs)
        stats.extra["n_pieces"] = len(pieces)
        stats.extra["n_pieces_requested"] = self.n_pieces
        stats.extra["n_workers"] = self.n_workers
        stats.extra["executor"] = self.executor
        return vall
