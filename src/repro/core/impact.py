"""Impact halfspaces and the construction of the TopRR output region ``oR``.

Definition 2 of the paper: for a weight vector ``w`` the *impact halfspace*
``oH(w)`` is the part of the option space whose score under ``w`` is at least
the current k-th highest score ``TopK(w)``.  A new option is top-ranking for
a preference region exactly when it lies in the intersection of the impact
halfspaces of the vertices ``V_all`` of a kIPR partitioning (Theorem 1).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.geometry.polytope import ConvexPolytope
from repro.preference.space import PreferenceSpace
from repro.topk.query import top_k_from_scores
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


def impact_thresholds(
    dataset: Dataset,
    reduced_vertices: np.ndarray,
    k: int,
) -> np.ndarray:
    """``TopK(v)`` for every reduced vertex in ``reduced_vertices``.

    ``dataset`` must contain every option that can be among the top-k for any
    weight vector in the enclosing preference region (the r-skyband subset
    suffices), so that its k-th highest score equals the k-th highest score
    of the full dataset.
    """
    space = PreferenceSpace(dataset.n_attributes)
    reduced_vertices = np.atleast_2d(np.asarray(reduced_vertices, dtype=float))
    scores = space.scores_at_reduced_many(dataset.values, reduced_vertices)
    thresholds = np.empty(reduced_vertices.shape[0], dtype=float)
    for column in range(scores.shape[1]):
        thresholds[column] = top_k_from_scores(scores[:, column], k).threshold
    return thresholds


def build_impact_region(
    dataset: Dataset,
    reduced_vertices: np.ndarray,
    k: int,
    clip_to_unit_box: bool = True,
    bounds: Optional[tuple[np.ndarray, np.ndarray]] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[ConvexPolytope, np.ndarray, np.ndarray]:
    """Assemble the ``oR`` polytope from the accumulated vertex set ``V_all``.

    Parameters
    ----------
    dataset:
        Filtered dataset ``D'`` (must contain all possible top-k options of
        the region; the r-skyband guarantees this).
    reduced_vertices:
        ``V_all`` in reduced preference coordinates, shape ``(m, d-1)``.
    k:
        The original query parameter ``k``.
    clip_to_unit_box:
        Intersect ``oR`` with the option-space box.  The paper normalises
        every attribute to [0, 1], and ``oR`` always contains the top corner
        of that box.
    bounds:
        Optional ``(lower, upper)`` override for the option-space box.

    Returns
    -------
    (polytope, full_weights, thresholds):
        The ``oR`` polytope, the full weight vectors of ``V_all`` and the
        per-vertex thresholds ``TopK(v)``.
    """
    space = PreferenceSpace(dataset.n_attributes)
    reduced_vertices = np.atleast_2d(np.asarray(reduced_vertices, dtype=float))
    thresholds = impact_thresholds(dataset, reduced_vertices, k)
    full_weights = space.to_full_many(reduced_vertices)

    halfspace_normals = [-full_weights[i] for i in range(full_weights.shape[0])]
    halfspace_offsets = [-thresholds[i] for i in range(full_weights.shape[0])]

    d = dataset.n_attributes
    if clip_to_unit_box or bounds is not None:
        if bounds is None:
            lower = np.zeros(d)
            upper = np.ones(d)
        else:
            lower = np.asarray(bounds[0], dtype=float)
            upper = np.asarray(bounds[1], dtype=float)
        eye = np.eye(d)
        for j in range(d):
            halfspace_normals.append(eye[j])
            halfspace_offsets.append(upper[j])
            halfspace_normals.append(-eye[j])
            halfspace_offsets.append(-lower[j])

    A = np.vstack(halfspace_normals)
    b = np.asarray(halfspace_offsets, dtype=float)
    polytope = ConvexPolytope(A, b, tol=tol)
    return polytope, full_weights, thresholds


def is_top_ranking(
    option: Sequence[float],
    full_weights: np.ndarray,
    thresholds: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Membership test ``option ∈ ⋂ oH(v)`` directly from weights and thresholds.

    Faster and more robust than going through the polytope: an option is
    top-ranking iff its score at every vertex of ``V_all`` reaches the
    vertex's threshold.
    """
    option = np.asarray(option, dtype=float)
    scores = full_weights @ option
    return bool(np.all(scores >= thresholds - tol.score))
