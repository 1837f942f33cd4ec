"""Preference regions: convex polytopes in the reduced preference space.

A :class:`PreferenceRegion` is the input ``wR`` of TopRR and, during
test-and-split, also the intermediate sub-regions ``wR_i``.  It wraps a
:class:`~repro.geometry.polytope.ConvexPolytope` over the reduced
``(d-1)``-dimensional preference space and adds:

* convenient constructors (axis-aligned hyper-rectangles, intervals for the
  2-attribute case, arbitrary halfspace lists),
* access to the defining vertices both in reduced and in full (normalised,
  ``d``-dimensional) weight coordinates,
* splitting by a scoring hyperplane ``wHP(p_i, p_j)``, preserving the paper's
  facet-based representation semantics (shared splitting facet, vertices on
  the hyperplane belong to both children).

The geometry itself runs on the backend the wrapped polytope was built with
(see :mod:`repro.geometry.polytope`): for 2-D and 3-D preference spaces —
``d = 3`` / ``d = 4`` attributes, the paper's two experimental settings —
the exact polygon / polyhedron backends answer every split, emptiness test
and vertex enumeration in closed form with zero LP/qhull calls.  Split
children inherit the parent's backend, so choosing it at region
construction (``backend=`` or :func:`repro.geometry.polytope.use_backend`)
fixes it for a whole solve.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EmptyRegionError, InvalidParameterError
from repro.geometry.halfspace import Halfspace
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polytope import ConvexPolytope
from repro.preference.space import PreferenceSpace
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


class PreferenceRegion:
    """A convex polytope ``wR`` in the reduced preference space.

    Parameters
    ----------
    polytope:
        The underlying geometry (dimension ``d - 1``).
    n_attributes:
        Number of option attributes ``d``.  When omitted it is inferred as
        ``polytope.dimension + 1``.
    """

    def __init__(
        self,
        polytope: ConvexPolytope,
        n_attributes: Optional[int] = None,
        tol: Tolerance = DEFAULT_TOL,
    ):
        self._polytope = polytope
        self.space = PreferenceSpace(n_attributes or polytope.dimension + 1)
        if self.space.dimension != polytope.dimension:
            raise InvalidParameterError(
                f"polytope dimension {polytope.dimension} does not match a preference space "
                f"for {self.space.n_attributes} attributes"
            )
        self._tol = tol

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def hyperrectangle(
        cls,
        intervals: Sequence[Tuple[float, float]],
        tol: Tolerance = DEFAULT_TOL,
        backend: Optional[str] = None,
    ) -> "PreferenceRegion":
        """Axis-aligned box ``[lo_1, hi_1] x ... x [lo_{d-1}, hi_{d-1}]`` in reduced space.

        This is the region shape used throughout the paper's experiments
        (``wR`` is an axis-aligned hyper-cube of side length ``sigma``).
        ``backend`` optionally overrides the geometry backend
        (``"auto"``/``"qhull"``/``"polygon"``, see
        :mod:`repro.geometry.polytope`); split children inherit it.
        """
        lower = np.array([interval[0] for interval in intervals], dtype=float)
        upper = np.array([interval[1] for interval in intervals], dtype=float)
        if np.any(lower < 0) or np.any(upper > 1) or np.any(lower > upper):
            raise InvalidParameterError(
                "hyperrectangle intervals must satisfy 0 <= lo <= hi <= 1 in every axis"
            )
        if lower.sum() > 1.0 + tol.geometry:
            raise InvalidParameterError(
                "hyperrectangle lies outside the weight simplex (sum of lower bounds > 1)"
            )
        polytope = ConvexPolytope.from_box(lower, upper, tol=tol, backend=backend)
        return cls(polytope, n_attributes=lower.shape[0] + 1, tol=tol)

    @classmethod
    def interval(
        cls,
        low: float,
        high: float,
        tol: Tolerance = DEFAULT_TOL,
        backend: Optional[str] = None,
    ) -> "PreferenceRegion":
        """The 1-D preference region ``[low, high]`` for 2-attribute datasets."""
        return cls.hyperrectangle([(low, high)], tol=tol, backend=backend)

    @classmethod
    def full_simplex(
        cls,
        n_attributes: int,
        tol: Tolerance = DEFAULT_TOL,
        backend: Optional[str] = None,
    ) -> "PreferenceRegion":
        """The entire valid preference space for ``n_attributes`` attributes."""
        space = PreferenceSpace(n_attributes)
        A, b = space.simplex_constraints()
        return cls(ConvexPolytope(A, b, tol=tol, backend=backend), n_attributes=n_attributes, tol=tol)

    @classmethod
    def from_halfspaces(
        cls,
        halfspaces: Iterable[Halfspace],
        n_attributes: Optional[int] = None,
        tol: Tolerance = DEFAULT_TOL,
        backend: Optional[str] = None,
    ) -> "PreferenceRegion":
        """Region bounded by an explicit collection of preference halfspaces."""
        polytope = ConvexPolytope.from_halfspaces(halfspaces, tol=tol, backend=backend)
        return cls(polytope, n_attributes=n_attributes, tol=tol)

    # ------------------------------------------------------------------ #
    # geometry passthroughs
    # ------------------------------------------------------------------ #
    @property
    def polytope(self) -> ConvexPolytope:
        """The underlying reduced-space polytope."""
        return self._polytope

    @property
    def n_attributes(self) -> int:
        """Number of option attributes ``d``."""
        return self.space.n_attributes

    @property
    def dimension(self) -> int:
        """Dimension of the reduced preference space (``d - 1``)."""
        return self._polytope.dimension

    @property
    def vertices(self) -> np.ndarray:
        """Defining vertices in reduced coordinates, shape ``(m, d-1)``."""
        return self._polytope.vertices

    @property
    def n_vertices(self) -> int:
        """Number of defining vertices."""
        return self._polytope.n_vertices

    def full_vertices(self) -> np.ndarray:
        """Defining vertices lifted to full, normalised weight vectors, shape ``(m, d)``."""
        return self.space.to_full_many(self.vertices)

    def is_empty(self) -> bool:
        """True if the region contains no weight vector."""
        return self._polytope.is_empty()

    def is_full_dimensional(self) -> bool:
        """True if the region has positive ``(d-1)``-dimensional volume."""
        if self.dimension == 1:
            try:
                verts = self._polytope.vertices
            except Exception:
                return False
            return verts.shape[0] >= 2
        return self._polytope.is_full_dimensional()

    def contains(self, reduced_weight: Sequence[float]) -> bool:
        """True if the reduced weight vector lies inside the region."""
        return self._polytope.contains(reduced_weight)

    def volume(self) -> float:
        """Volume of the region in reduced coordinates."""
        return self._polytope.volume()

    def centroid(self) -> np.ndarray:
        """Mean of the defining vertices (a convenient interior point)."""
        verts = self.vertices
        if verts.shape[0] == 0:
            raise EmptyRegionError("empty preference region has no centroid")
        return verts.mean(axis=0)

    def sample_weights(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Random reduced weight vectors inside the region (for the verifier)."""
        return self._polytope.sample(n_samples, rng)

    # ------------------------------------------------------------------ #
    # scoring hyperplanes and splitting
    # ------------------------------------------------------------------ #
    def scoring_hyperplane(self, option_a: np.ndarray, option_b: np.ndarray) -> Hyperplane:
        """The hyperplane ``wHP(option_a, option_b)`` where both options score equally.

        Oriented so that the *negative* side is where ``option_a`` scores
        higher than ``option_b`` — i.e. the halfspace ``wH(option_a, option_b)``
        of the paper is ``{w : normal . w <= offset}``.
        """
        option_a = np.asarray(option_a, dtype=float)
        option_b = np.asarray(option_b, dtype=float)
        diff = option_b - option_a
        constant = float(diff[-1])
        coefficients = diff[:-1] - constant
        # S_w(option_b) - S_w(option_a) = coefficients . w + constant <= 0
        return Hyperplane(coefficients, -constant)

    def split(self, hyperplane: Hyperplane) -> Tuple["PreferenceRegion", "PreferenceRegion"]:
        """Split the region by ``hyperplane`` into the (<=) and the (>=) side."""
        below, above = self._polytope.split(hyperplane)
        return (
            PreferenceRegion(below, n_attributes=self.n_attributes, tol=self._tol),
            PreferenceRegion(above, n_attributes=self.n_attributes, tol=self._tol),
        )

    def intersect_halfspace(self, halfspace: Halfspace) -> "PreferenceRegion":
        """Intersect the region with one more preference halfspace."""
        return PreferenceRegion(
            self._polytope.intersect_halfspace(halfspace),
            n_attributes=self.n_attributes,
            tol=self._tol,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PreferenceRegion(d={self.n_attributes}, reduced_dim={self.dimension}, "
            f"constraints={self._polytope.n_constraints})"
        )
