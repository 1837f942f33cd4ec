"""k-onion layers (Chang et al., SIGMOD 2000).

The onion technique peels convex-hull layers off the dataset: layer 1 is the
convex hull of all options, layer 2 the hull of what remains, and so on.  The
union of the first ``k`` layers is guaranteed to contain the top-k result of
any linear scoring function, so it is the second general-purpose pre-filter
the paper compares against in Section 6.3 / Figure 8.

Only the "upper" hull matters for maximisation queries with non-negative
weights, but for faithfulness to the original onion definition we keep full
hull layers (the paper's comparison point behaves the same way: both onion
and k-skyband ignore the preference region and therefore retain many more
options than the r-skyband).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError


def _hull_vertex_indices(points: np.ndarray) -> np.ndarray:
    """Indices of the convex-hull vertices of ``points`` (robust to degeneracy)."""
    n, dim = points.shape
    if n <= dim + 1:
        return np.arange(n)
    try:
        hull = ConvexHull(points)
        return np.unique(hull.vertices)
    except QhullError:
        # Degenerate (e.g. co-planar) point sets: fall back to the joggled hull,
        # and if that also fails treat every remaining point as a hull vertex.
        try:
            hull = ConvexHull(points, qhull_options="QJ")
            return np.unique(hull.vertices)
        except QhullError:
            return np.arange(n)


def k_onion_layers(dataset: Dataset, k: int) -> np.ndarray:
    """Positional indices of the options in the first ``k`` convex-hull layers."""
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    values = dataset.values
    remaining = np.arange(dataset.n_options)
    selected: list[np.ndarray] = []
    for _ in range(k):
        if remaining.size == 0:
            break
        local_hull = _hull_vertex_indices(values[remaining])
        layer = remaining[local_hull]
        selected.append(layer)
        remaining = np.setdiff1d(remaining, layer, assume_unique=True)
    if not selected:
        return np.empty(0, dtype=int)
    return np.sort(np.concatenate(selected))
