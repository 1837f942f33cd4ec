"""The r-skyband filter (region-aware dominance, Ciaccia & Martinenghi [14]).

An option ``p`` *r-dominates* ``q`` with respect to a preference region
``wR`` when ``p`` scores at least as high as ``q`` for every weight vector in
``wR`` (and strictly higher for some).  By Lemma 1 of the paper this is
equivalent to ``p`` scoring at least as high at every *vertex* of ``wR``, so
r-dominance is ordinary dominance in the transformed space whose coordinates
are the option's scores at the region's vertices.  The r-skyband — options
r-dominated by fewer than ``k`` others — is therefore computed by running the
k-skyband machinery on the vertex-score matrix.

The r-skyband is a superset of every top-k result for any ``w`` in ``wR`` and
is the pre-filter the paper selects for all TopRR methods (Figure 8).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import EmptyRegionError, InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.topk.skyband import skyband_of_values
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


def vertex_score_matrix(dataset: Dataset, region: PreferenceRegion) -> np.ndarray:
    """Scores of every option at every defining vertex of ``region`` (shape ``(n, m)``)."""
    vertices_full = region.full_vertices()
    if vertices_full.shape[0] == 0:
        raise EmptyRegionError("preference region has no defining vertices")
    return dataset.values @ vertices_full.T


def r_skyband(
    dataset: Dataset,
    k: int,
    region: PreferenceRegion,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Positional indices of the r-skyband of ``dataset`` with respect to ``region``."""
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    scores = vertex_score_matrix(dataset, region)
    return skyband_of_values(scores, k, tol=tol)
