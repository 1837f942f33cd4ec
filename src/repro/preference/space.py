"""The preference space ``W`` and its reduced parameterisation.

Weight vectors are normalised to sum to one (the paper, Section 3.1), so the
last weight is redundant: ``w[d-1] = 1 - sum of the others``.  The preference
space is therefore the ``(d-1)``-dimensional simplex slice

    ``W = { w in R^(d-1) : w >= 0, sum(w) <= 1 }``.

All region geometry in this package lives in this reduced space; scores are
evaluated through the affine form

    ``S_w(p) = p[d-1] + sum_j w[j] * (p[j] - p[d-1])``.

:class:`PreferenceSpace` bundles the conversions between the reduced and the
full parameterisation and the affine scoring coefficients of a dataset.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError, InvalidParameterError


class PreferenceSpace:
    """The reduced preference space for options with ``n_attributes`` attributes."""

    def __init__(self, n_attributes: int):
        if n_attributes < 2:
            raise InvalidParameterError(
                f"the preference space needs at least 2 option attributes, got {n_attributes}"
            )
        self.n_attributes = int(n_attributes)

    @property
    def dimension(self) -> int:
        """Dimension of the reduced preference space (``d - 1``)."""
        return self.n_attributes - 1

    # ------------------------------------------------------------------ #
    # weight conversions
    # ------------------------------------------------------------------ #
    def to_full(self, reduced: Sequence[float]) -> np.ndarray:
        """Lift a reduced weight vector to the full, normalised ``d``-vector."""
        reduced = np.asarray(reduced, dtype=float)
        if reduced.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"reduced weight must have {self.dimension} components, got {reduced.shape}"
            )
        last = 1.0 - float(reduced.sum())
        return np.concatenate([reduced, [last]])

    def to_full_many(self, reduced: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`to_full` for an ``(m, d-1)`` array."""
        reduced = np.atleast_2d(np.asarray(reduced, dtype=float))
        if reduced.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"reduced weights must have {self.dimension} columns, got {reduced.shape[1]}"
            )
        last = 1.0 - reduced.sum(axis=1, keepdims=True)
        return np.hstack([reduced, last])

    def to_reduced(self, full: Sequence[float], renormalize: bool = True) -> np.ndarray:
        """Project a full weight vector down to the reduced parameterisation.

        With ``renormalize=True`` (default) the vector is first scaled to sum
        to one, which matches the paper's observation that only the direction
        of ``w`` matters for the ranking.
        """
        full = np.asarray(full, dtype=float)
        if full.shape != (self.n_attributes,):
            raise DimensionMismatchError(
                f"full weight must have {self.n_attributes} components, got {full.shape}"
            )
        if renormalize:
            total = float(full.sum())
            if total <= 0:
                raise InvalidParameterError("weight vector must have a positive sum")
            full = full / total
        return full[:-1].copy()

    # ------------------------------------------------------------------ #
    # simplex geometry
    # ------------------------------------------------------------------ #
    def simplex_constraints(self) -> Tuple[np.ndarray, np.ndarray]:
        """H-representation ``(A, b)`` of the valid reduced space (``w >= 0``, ``sum <= 1``)."""
        dim = self.dimension
        A = np.vstack([-np.eye(dim), np.ones((1, dim))])
        b = np.concatenate([np.zeros(dim), [1.0]])
        return A, b

    # ------------------------------------------------------------------ #
    # scoring in reduced coordinates
    # ------------------------------------------------------------------ #
    def affine_score_form(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Affine scoring coefficients of a value matrix over the reduced space.

        Returns ``(coefficients, constants)`` such that the score of option
        ``i`` at reduced weight ``w`` is ``constants[i] + coefficients[i] . w``.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.n_attributes:
            raise DimensionMismatchError(
                f"values must be (n, {self.n_attributes}), got {values.shape}"
            )
        constants = values[:, -1].copy()
        coefficients = values[:, :-1] - constants[:, None]
        return coefficients, constants

    def scores_at_reduced(self, values: np.ndarray, reduced: Sequence[float]) -> np.ndarray:
        """Scores of all options at a reduced weight vector."""
        coefficients, constants = self.affine_score_form(values)
        return constants + coefficients @ np.asarray(reduced, dtype=float)

    def scores_at_reduced_many(self, values: np.ndarray, reduced: np.ndarray) -> np.ndarray:
        """Score matrix ``(n_options, n_weights)`` at several reduced weight vectors."""
        coefficients, constants = self.affine_score_form(values)
        reduced = np.atleast_2d(np.asarray(reduced, dtype=float))
        return constants[:, None] + coefficients @ reduced.T

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PreferenceSpace(d={self.n_attributes}, reduced_dim={self.dimension})"
