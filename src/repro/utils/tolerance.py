"""Centralised numerical tolerances.

All geometric predicates in the package (vertex classification against a
hyperplane, score ties, emptiness of a polytope, ...) go through a single
:class:`Tolerance` object so that the behaviour of the whole pipeline can be
tightened or relaxed in one place.  The defaults were chosen so that the
paper's worked examples and the property-based tests pass with wide margins
while degenerate splits (hyperplanes grazing a vertex) are still handled
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerance:
    """Bundle of the numerical tolerances used by the geometric kernel.

    Attributes
    ----------
    geometry:
        Absolute tolerance used when classifying points against hyperplanes
        and when testing halfspace membership.
    score:
        Absolute tolerance used when comparing option scores (ties in top-k
        computations are broken by option index within this tolerance).
    radius:
        Minimum Chebyshev radius for a polytope to be considered
        full-dimensional.  Children of a split whose inscribed ball is
        smaller than this are discarded as measure-zero slivers.
    dedup:
        Tolerance used when de-duplicating vertices (two vertices closer
        than this in infinity norm are considered the same point).
    """

    geometry: float = 1e-9
    score: float = 1e-9
    radius: float = 1e-10
    dedup: float = 1e-8

    def is_zero(self, value: float) -> bool:
        """Return True if ``value`` is geometrically indistinguishable from zero."""
        return abs(value) <= self.geometry


#: Package-wide default tolerance bundle.
DEFAULT_TOL = Tolerance()
