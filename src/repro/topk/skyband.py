"""k-skyband computation (dominance-based filtering).

An option ``p`` *dominates* ``q`` if ``p`` is at least as good in every
attribute and strictly better in at least one.  The k-skyband is the set of
options dominated by fewer than ``k`` others; it is guaranteed to contain the
top-k result for *every* possible weight vector, which is why the paper lists
it as one of the candidate pre-filters for TopRR (Sections 3.4 and 6.3).

The implementation processes options in decreasing attribute-sum order and
counts, for each option, its dominators among the k-skyband found so far.
This is the classic sort-based skyband algorithm: every dominator has a
strictly larger attribute sum (so it has already been processed), and an
option dominated by ``k`` or more options is always dominated by ``k`` or
more *skyband* options (dominators outside the skyband are themselves
dominated by ``k`` skyband options, which dominate the option transitively),
so counting against the skyband alone is exact.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


def skyband_of_values(values: np.ndarray, k: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positional indices of the k-skyband of a raw ``(n, d)`` value matrix.

    Exact on exact ties and duplicates and on generic data.  Under near-ties
    (coordinates within ``tol.geometry`` of each other) ``eps``-dominance is
    not transitive, so counting dominators against the band alone may miss
    some: the band may then hold more options than the definition gives,
    never fewer.  Extra options only cost filter work, never answers.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=int)

    order = np.argsort(-values.sum(axis=1), kind="stable")
    band_values = np.empty_like(values)
    band_original_indices = np.empty(n, dtype=int)
    band_size = 0
    eps = tol.geometry

    for original_index in order:
        row = values[original_index]
        if band_size == 0:
            dominator_count = 0
        else:
            band = band_values[:band_size]
            geq = np.all(band >= row - eps, axis=1)
            gt = np.any(band > row + eps, axis=1)
            dominator_count = int(np.count_nonzero(geq & gt))
        if dominator_count < k:
            band_values[band_size] = row
            band_original_indices[band_size] = original_index
            band_size += 1

    return np.sort(band_original_indices[:band_size])


def dominance_count(values: np.ndarray, cap: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Number of options dominating each row of ``values``, capped at ``cap``.

    Exact up to the cap: the result is ``min(true count, cap)``, which is all
    a k-skyband membership query needs.  Counting is done against the
    ``cap``-skyband only (sufficient, see module docstring), which keeps the
    cost close to linear for realistic data.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return counts
    band = skyband_of_values(values, cap, tol=tol)
    band_values = values[band]
    eps = tol.geometry
    block = 4096
    for start in range(0, n, block):
        stop = min(start + block, n)
        chunk = values[start:stop]
        geq = np.all(band_values[None, :, :] >= chunk[:, None, :] - eps, axis=2)
        gt = np.any(band_values[None, :, :] > chunk[:, None, :] + eps, axis=2)
        counts[start:stop] = np.minimum((geq & gt).sum(axis=1), cap)
    return counts


def k_skyband(dataset: Dataset, k: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positional indices of the k-skyband of ``dataset`` (dominated by < k others)."""
    return skyband_of_values(dataset.values, k, tol=tol)


def skyline(dataset: Dataset, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positional indices of the skyline (the 1-skyband)."""
    return k_skyband(dataset, 1, tol=tol)
