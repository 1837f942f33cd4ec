"""Halfspaces ``a . x <= b``.

Halfspaces appear in two roles in the paper:

* *impact halfspaces* ``oH(w)`` in the option space (Definition 2), whose
  intersection is the TopRR output region ``oR``;
* *preference halfspaces* ``wH(p_i, p_j)`` in the preference space, which
  bound the rank-invariant regions produced during test-and-split.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.hyperplane import Hyperplane
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


class Halfspace:
    """A closed halfspace ``{x : a . x <= b}``.

    The halfspace stores a normalised boundary :class:`Hyperplane`; the
    *interior* direction is ``-a`` (points with smaller ``a . x``).
    """

    __slots__ = ("boundary",)

    def __init__(self, normal: Sequence[float], offset: float, normalize: bool = True):
        self.boundary = Hyperplane(normal, offset, normalize=normalize)

    @classmethod
    def from_hyperplane(cls, hyperplane: Hyperplane) -> "Halfspace":
        """Halfspace on the negative side of ``hyperplane``."""
        return cls(hyperplane.normal, hyperplane.offset, normalize=False)

    @property
    def normal(self) -> np.ndarray:
        """Outward normal ``a`` of the constraint ``a . x <= b``."""
        return self.boundary.normal

    @property
    def offset(self) -> float:
        """Right-hand side ``b`` of the constraint ``a . x <= b``."""
        return self.boundary.offset

    @property
    def dimension(self) -> int:
        """Dimension of the ambient space."""
        return self.boundary.dimension

    def contains(self, point: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> bool:
        """Return True if ``point`` satisfies ``a . x <= b`` within tolerance."""
        return self.boundary.evaluate(point) <= tol.geometry

    def contains_many(self, points: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Vectorised :meth:`contains` for an ``(n, d)`` array of points."""
        return self.boundary.evaluate_many(points) <= tol.geometry

    def violation(self, point: Sequence[float]) -> float:
        """Positive amount by which ``point`` violates the constraint (0 if satisfied)."""
        return max(0.0, self.boundary.evaluate(point))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        terms = " + ".join(f"{c:.4g}*x{i}" for i, c in enumerate(self.normal))
        return f"Halfspace({terms} <= {self.offset:.4g})"
