"""Hyperplanes ``a . x = b`` in arbitrary dimension.

A hyperplane is the boundary of two opposite halfspaces.  In the TopRR
algorithms hyperplanes arise as *splitting hyperplanes* ``wHP(p_i, p_j)``:
the locus of preference vectors that score two options equally
(Section 4.2.1 of the paper).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


class Hyperplane:
    """A hyperplane ``{x : a . x = b}``.

    Parameters
    ----------
    normal:
        Coefficient vector ``a``.  Must be non-zero.
    offset:
        Right-hand side ``b``.
    normalize:
        If True (default), scale ``a`` and ``b`` so that ``||a||_2 = 1``.
        Normalising makes signed distances comparable across hyperplanes.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal: Sequence[float], offset: float, normalize: bool = True):
        a = np.asarray(normal, dtype=float)
        if a.ndim != 1:
            raise InvalidParameterError("hyperplane normal must be a 1-D vector")
        norm = float(np.linalg.norm(a))
        if norm == 0.0 or not np.isfinite(norm):
            raise InvalidParameterError("hyperplane normal must be non-zero and finite")
        b = float(offset)
        if normalize:
            a = a / norm
            b = b / norm
        self.normal = a
        self.offset = b

    @property
    def dimension(self) -> int:
        """Dimension of the ambient space."""
        return self.normal.shape[0]

    def evaluate(self, point: Sequence[float]) -> float:
        """Signed distance surrogate ``a . x - b`` (true distance if normalised)."""
        return float(np.dot(self.normal, np.asarray(point, dtype=float)) - self.offset)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`evaluate` for an ``(n, d)`` array of points."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.normal - self.offset

    def side(self, point: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> int:
        """Classify ``point``: -1 (negative side), 0 (on the plane), +1 (positive side)."""
        value = self.evaluate(point)
        if tol.is_zero(value):
            return 0
        return 1 if value > 0 else -1

    def contains(self, point: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> bool:
        """Return True if ``point`` lies on the hyperplane within tolerance."""
        return tol.is_zero(self.evaluate(point))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        terms = " + ".join(f"{c:.4g}*x{i}" for i, c in enumerate(self.normal))
        return f"Hyperplane({terms} = {self.offset:.4g})"
