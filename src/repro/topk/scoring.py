"""Linear scoring functions ``S_w(p) = w . p``.

The paper (like most of the top-k literature) uses linear scoring with a
normalised weight vector.  This module provides the vectorised primitive
that every higher layer builds on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError


def linear_scores(values: np.ndarray, weight: Sequence[float]) -> np.ndarray:
    """Scores of all rows of ``values`` under the full weight vector ``weight``."""
    values = np.asarray(values, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if values.ndim != 2 or weight.ndim != 1 or values.shape[1] != weight.shape[0]:
        raise DimensionMismatchError(
            f"incompatible shapes for scoring: values {values.shape}, weight {weight.shape}"
        )
    return values @ weight
