"""Composite TopRR queries: non-convex target regions and constrained option domains.

Section 3.1 of the paper notes two practically important generalisations that
reduce to the basic TopRR machinery:

* **Non-convex target regions.**  TopRR requires ``wR`` to be a convex
  polytope, but "any non-convex polytope can be partitioned into convex ones;
  the latter could be processed independently, and the intersection of their
  TopRR solutions reported as overall oR".  :func:`solve_toprr_union` does
  exactly that: it solves each convex piece and intersects the answers, so a
  clientele described as a union of boxes ("performance-focused OR
  battery-focused designers") is supported directly.

* **Manufacturing constraints.**  Domain constraints such as
  ``p[1] + p[2] <= 1.5`` or a finite attribute domain are "an extra
  condition, applied after oR computation".  :func:`constrain_result`
  intersects the computed ``oR`` with arbitrary additional halfspaces and
  returns a new result object whose membership test and cost-optimal
  placement respect them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.stats import SolverStats
from repro.core.toprr import SolverLike, TopRRResult, solve_toprr
from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.geometry.halfspace import Halfspace
from repro.geometry.polytope import ConvexPolytope
from repro.geometry.vertex_enum import deduplicate_points
from repro.preference.region import PreferenceRegion
from repro.utils.rng import RngLike
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


def solve_toprr_union(
    dataset: Dataset,
    k: int,
    regions: Sequence[PreferenceRegion],
    method: SolverLike = "tas*",
    rng: RngLike = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> TopRRResult:
    """Solve TopRR for a target clientele given as a *union* of convex regions.

    The returned region is the set of placements that are top-ranking for
    every weight vector in every piece — i.e. the TopRR answer for the
    (possibly non-convex) union, computed as the intersection of the
    per-piece answers (Section 3.1).

    The result is returned as a regular :class:`TopRRResult` whose ``V_all``
    is the union of the pieces' vertex sets and whose ``region`` attribute is
    the first piece (kept for bookkeeping; the full list is recorded in
    ``stats.extra["n_region_pieces"]``).
    """
    regions = list(regions)
    if not regions:
        raise InvalidParameterError("at least one convex region piece is required")
    attribute_counts = {region.n_attributes for region in regions}
    if len(attribute_counts) != 1:
        raise InvalidParameterError("all region pieces must target the same number of attributes")

    partial_results = [
        solve_toprr(dataset, k, region, method=method, rng=rng, tol=tol)
        for region in regions
    ]

    vertices = deduplicate_points(
        np.vstack([result.vertices_reduced for result in partial_results]), tol=tol
    )
    full_weights = np.vstack([result.full_weights for result in partial_results])
    thresholds = np.concatenate([result.thresholds for result in partial_results])

    # Intersect the per-piece polytopes: concatenating their H-representations
    # is exactly the intersection of the impact halfspaces of all pieces.
    stacked_A = np.vstack([result.polytope.halfspaces[0] for result in partial_results])
    stacked_b = np.concatenate([result.polytope.halfspaces[1] for result in partial_results])
    polytope = ConvexPolytope(stacked_A, stacked_b, tol=tol)

    stats = SolverStats()
    stats.n_input_options = dataset.n_options
    stats.n_filtered_options = max(result.filtered.n_options for result in partial_results)
    stats.n_vertices = int(vertices.shape[0])
    stats.n_splits = sum(result.stats.n_splits for result in partial_results)
    stats.seconds = sum(result.stats.seconds for result in partial_results)
    stats.extra["n_region_pieces"] = len(regions)

    return TopRRResult(
        dataset=dataset,
        filtered=partial_results[0].filtered,
        k=k,
        region=regions[0],
        vertices_reduced=vertices,
        full_weights=full_weights,
        thresholds=thresholds,
        polytope=polytope,
        stats=stats,
        method=f"{partial_results[0].method} (union of {len(regions)} pieces)",
        tol=tol,
    )


def constrain_result(
    result: TopRRResult,
    constraints: Iterable[Halfspace],
    tol: Tolerance = DEFAULT_TOL,
) -> TopRRResult:
    """Intersect a TopRR result with additional option-domain constraints.

    ``constraints`` are halfspaces over the option space (e.g. manufacturing
    limits such as ``p[0] + p[1] <= 1.5`` expressed as ``Halfspace([1, 1, 0],
    1.5)``).  The returned result keeps the same impact halfspaces (so the
    top-ranking guarantee is unchanged) but its polytope — and therefore the
    cost-optimal placements computed from it — satisfies the constraints.
    """
    constraints = list(constraints)
    if not constraints:
        return result
    for halfspace in constraints:
        if halfspace.dimension != result.dataset.n_attributes:
            raise InvalidParameterError(
                "constraint dimensionality does not match the option space"
            )
    constrained_polytope = result.polytope.intersect_halfspaces(constraints)
    constrained = TopRRResult(
        dataset=result.dataset,
        filtered=result.filtered,
        k=result.k,
        region=result.region,
        vertices_reduced=result.vertices_reduced,
        full_weights=result.full_weights,
        thresholds=result.thresholds,
        polytope=constrained_polytope,
        stats=result.stats,
        method=f"{result.method} (constrained)",
        tol=tol,
    )
    return constrained
