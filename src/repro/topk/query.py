"""Exact top-k queries with deterministic tie-breaking.

``top_k`` returns the k highest-scoring options for a full weight vector.
Ties are broken by option index (ascending), which makes the kIPR tests of
the TopRR algorithms deterministic even when a splitting hyperplane passes
exactly through a region vertex (where two options score identically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.topk.scoring import linear_scores


@dataclass(frozen=True)
class TopKResult:
    """Result of a top-k query.

    Attributes
    ----------
    indices:
        Positional indices of the top-k options, sorted by decreasing score
        (ties broken by ascending index).
    scores:
        Scores of those options, aligned with ``indices``.
    threshold:
        The k-th highest score, i.e. ``TopK(w)`` in the paper's notation.
    """

    indices: np.ndarray
    scores: np.ndarray
    threshold: float

    @property
    def index_set(self) -> frozenset:
        """Order-insensitive top-k set (frozen for hashing / comparison)."""
        return frozenset(int(i) for i in self.indices)


def _ordered_top_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best scores, sorted by (-score, index).

    For large inputs an ``argpartition`` pre-selection keeps the sort cheap;
    the candidate pool is widened to include every option tied with the
    provisional k-th score so that the final ordering (and hence the k-th
    option) is identical to a full deterministic sort.
    """
    n = scores.shape[0]
    if k >= n or n <= 4096:
        return np.lexsort((np.arange(n), -scores))[:k]
    candidate = np.argpartition(-scores, k - 1)[:k]
    provisional_kth = np.min(scores[candidate])
    pool = np.flatnonzero(scores >= provisional_kth)
    pool = pool[np.lexsort((pool, -scores[pool]))]
    return pool[:k]


def top_k(dataset: Dataset, weight: Sequence[float], k: int) -> TopKResult:
    """The top-k options of ``dataset`` for the full weight vector ``weight``."""
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    k = min(int(k), dataset.n_options)
    scores = linear_scores(dataset.values, weight)
    order = _ordered_top_indices(scores, k)[:k]
    return TopKResult(indices=order, scores=scores[order], threshold=float(scores[order[-1]]))


def top_k_score(dataset: Dataset, weight: Sequence[float], k: int) -> float:
    """``TopK(w)``: the k-th highest score in the dataset under ``weight``."""
    return top_k(dataset, weight, k).threshold


def top_k_from_scores(scores: np.ndarray, k: int) -> TopKResult:
    """Top-k computation when the score vector has already been materialised."""
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    scores = np.asarray(scores, dtype=float)
    k = min(int(k), scores.shape[0])
    order = _ordered_top_indices(scores, k)[:k]
    return TopKResult(indices=order, scores=scores[order], threshold=float(scores[order[-1]]))


def rank_of(dataset: Dataset, weight: Sequence[float], option: Sequence[float]) -> int:
    """1-based rank a hypothetical ``option`` would obtain in ``dataset`` under ``weight``.

    An existing option with the same score does *not* push the hypothetical
    option down (ties count in the new option's favour, consistent with the
    paper's ``>=`` in Definition 2).
    """
    scores = linear_scores(dataset.values, weight)
    own_score = float(np.dot(np.asarray(option, dtype=float), np.asarray(weight, dtype=float)))
    return int(np.count_nonzero(scores > own_score)) + 1
