"""Convex polytopes with the hybrid facet-based representation of the paper.

A :class:`ConvexPolytope` keeps three coordinated views of the same body
(Section 4.2.2 of the paper):

* the H-representation ``A x <= b`` (one row per bounding halfspace),
* the V-representation (the defining vertices), and
* the "facet-based representation" (each facet is a hyperplane augmented
  with the defining vertices lying on it), which the closed-form backends
  below keep as labelled polygon edges and labelled polyhedron face rings.

Splitting a polytope by a hyperplane — the core geometric operation of the
test-and-split algorithms — classifies the vertices by side, reuses the
parent's facets, adds the splitting hyperplane as a new facet on each child,
and re-enumerates vertices.  Children whose Chebyshev radius is below
tolerance are reported as empty.

Three interchangeable **geometry backends** implement the primitives:

``"qhull"``
    The general-dimension path: Chebyshev centre / feasibility via a scipy
    ``linprog`` round trip, vertex enumeration via a qhull halfspace
    intersection (the same library the paper's C++ implementation calls).

``"polygon"``
    The exact 2-D path (:mod:`repro.geometry.polygon`): the body is an
    ordered vertex list; splitting is one closed-form Sutherland–Hodgman
    pass that both children inherit, and centre/radius/emptiness come from
    a closed-form facet-triple enumeration.  **No LP, no qhull.**

``"polyhedron"``
    The exact 3-D path (:mod:`repro.geometry.polyhedron`): the body is a
    vertex array plus facet→vertex-ring faces; splitting is one closed-form
    clip pass over the face rings in which both children share the cut
    facet, and centre/radius/emptiness come from a closed-form facet
    4-tuple enumeration.  **No LP, no qhull.**

``backend="auto"`` (the default) selects ``"polygon"`` for 2-D bodies and
``"polyhedron"`` for 3-D bodies — the paper's two experimental settings
(``d = 3`` / ``d = 4`` attributes) — and ``"qhull"`` otherwise.  All
backends finish vertex output with the same canonicalisation
(:func:`~repro.geometry.vertex_enum.canonicalize_polygon_vertices` /
:func:`~repro.geometry.vertex_enum.canonicalize_polyhedron_vertices`),
so their vertices are bit-identical and in the same canonical order; the
parity suites in ``tests/test_geometry_polygon.py``,
``tests/test_polygon_backend.py``, ``tests/test_geometry_polyhedron.py``,
``tests/test_polyhedron_backend.py`` and the cross-backend fuzz harness
``tests/test_backend_differential.py`` pin this down to solver-level
``V_all`` equality.  Use :func:`use_backend` (or a ``backend=`` override)
to force the LP/qhull path, e.g. for parity testing and benchmarking.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence, Tuple
import warnings

import numpy as np

from repro.exceptions import DegeneratePolytopeError, EmptyRegionError
from repro.geometry.chebyshev import chebyshev_center
from repro.geometry.counters import geometry_counters
from repro.geometry.halfspace import Halfspace
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polygon import (
    Polygon,
    polygon_chebyshev,
    polygon_from_halfspaces,
    polygon_is_consistent,
)
from repro.geometry.polyhedron import (
    DEFAULT_BOUND,
    Polyhedron,
    polyhedron_chebyshev,
    polyhedron_from_halfspaces,
    polyhedron_is_consistent,
)
from repro.geometry.vertex_enum import (
    canonicalize_polygon_vertices,
    canonicalize_polyhedron_vertices,
    deduplicate_points,
    enumerate_vertices,
)
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Backend specifications accepted by :class:`ConvexPolytope`.
BACKENDS = ("auto", "qhull", "polygon", "polyhedron")

#: Module-wide default backend specification (see :func:`set_default_backend`).
_DEFAULT_BACKEND = "auto"

#: Warn-once latch for closed-form backend demotions (every demotion is still
#: counted in ``geometry_counters.n_backend_fallbacks``).
_WARNED_BACKEND_FALLBACK = False


def _warn_backend_fallback_once(kind: str) -> None:
    """Warn the first time a closed-form backend body fails its health check."""
    global _WARNED_BACKEND_FALLBACK
    if _WARNED_BACKEND_FALLBACK:
        return
    _WARNED_BACKEND_FALLBACK = True
    warnings.warn(
        f"inconsistent {kind} backend body detected; this region falls back to "
        f"the generic LP/qhull geometry path (results stay exact). Further "
        f"fallbacks are counted in SolverStats.n_backend_fallbacks without "
        f"warning again.",
        RuntimeWarning,
        stacklevel=4,
    )


def set_default_backend(backend: str) -> None:
    """Set the module-wide backend specification (one of :data:`BACKENDS`).

    Applies to polytopes constructed *afterwards* without an explicit
    ``backend=`` argument; existing polytopes keep (and propagate to their
    children) the specification they were built with.
    """
    global _DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(f"unknown geometry backend {backend!r}; expected one of {BACKENDS}")
    _DEFAULT_BACKEND = backend


@contextmanager
def use_backend(backend: str) -> Iterator[None]:
    """Context manager scoping :func:`set_default_backend` to a ``with`` block.

    The parity suites use ``with use_backend("qhull"):`` to build a
    reference region whose whole split tree runs on the LP/qhull path.

    The default is a process-wide setting, not thread-local: polytopes
    constructed on *any* thread during the ``with`` block pick it up.  Use
    explicit ``backend=`` arguments instead when other threads may be
    constructing regions concurrently (split children always inherit their
    parent's specification, so in-flight solves are unaffected either way).
    """
    previous = _DEFAULT_BACKEND
    set_default_backend(backend)
    try:
        yield
    finally:
        set_default_backend(previous)


class ConvexPolytope:
    """A bounded convex polytope ``{x : A x <= b}``.

    Instances are immutable from the caller's point of view: all operations
    (intersection, splitting) return new polytopes.

    Parameters
    ----------
    A, b:
        H-representation.  Rows with (numerically) zero normals are dropped;
        the remaining rows are normalised to unit normals (idempotently —
        already-normalised rows keep their exact bytes, so facet rows are
        bit-stable across parent/child polytopes).
    vertices:
        Optional pre-computed vertex array.  When omitted, vertices are
        enumerated lazily on first access.
    tol:
        Tolerance bundle used by all geometric predicates on this polytope.
    backend:
        Geometry backend specification: ``"auto"`` (default; the exact
        polygon backend for 2-D bodies, the exact polyhedron backend for
        3-D bodies, LP/qhull otherwise), ``"qhull"``, ``"polygon"``, or
        ``"polyhedron"``.  ``None`` uses the module default
        (:func:`set_default_backend`).  Derived polytopes (intersections,
        split children) inherit the parent's specification.
    polygon:
        Internal: a pre-clipped :class:`~repro.geometry.polygon.Polygon`
        consistent with ``(A, b)`` (edge labels indexing its rows), handed
        down by the parent on incremental clips.  Ignored unless the polygon
        backend is active.
    polyhedron:
        Internal: the 3-D analogue — a pre-clipped
        :class:`~repro.geometry.polyhedron.Polyhedron` consistent with
        ``(A, b)`` (face labels indexing its rows), handed down by the
        parent on incremental clips.  Ignored unless the polyhedron backend
        is active.
    """

    def __init__(
        self,
        A: np.ndarray,
        b: np.ndarray,
        vertices: Optional[np.ndarray] = None,
        tol: Tolerance = DEFAULT_TOL,
        backend: Optional[str] = None,
        polygon: Optional[Polygon] = None,
        polyhedron: Optional[Polyhedron] = None,
    ):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b must have the same number of rows")
        norms = np.linalg.norm(A, axis=1)
        keep = norms > tol.geometry
        # Normalise rows so that facet identification and slack values are
        # scale-free.  Idempotent: rows that are already unit-norm are left
        # bit-for-bit untouched, so a child's inherited facet rows equal the
        # parent's exactly (which keeps facet-snapped vertex bytes — and the
        # solver's vertex-score memo keys — stable across the split tree).
        A = A[keep]
        b = b[keep]
        norms = norms[keep]
        rescale = np.abs(norms - 1.0) > 1e-12
        if np.any(rescale):
            A = A.copy()
            b = b.copy()
            A[rescale] /= norms[rescale][:, None]
            b[rescale] /= norms[rescale]
        self._A = A
        self._b = b
        self._tol = tol
        if backend is None:
            backend = _DEFAULT_BACKEND
        if backend not in BACKENDS:
            raise ValueError(f"unknown geometry backend {backend!r}; expected one of {BACKENDS}")
        self._backend_spec = backend
        self._use_polygon = backend == "polygon" or (
            backend == "auto" and A.shape[1] == 2
        )
        self._use_polyhedron = backend == "polyhedron" or (
            backend == "auto" and A.shape[1] == 3
        )
        if self._use_polygon and A.shape[1] != 2:
            raise ValueError("the polygon backend requires a 2-D polytope")
        if self._use_polyhedron and A.shape[1] != 3:
            raise ValueError("the polyhedron backend requires a 3-D polytope")
        self._polygon: Optional[Polygon] = polygon if (self._use_polygon and np.all(keep)) else None
        self._polyhedron: Optional[Polyhedron] = (
            polyhedron if (self._use_polyhedron and np.all(keep)) else None
        )
        self._vertices = None if vertices is None else np.asarray(vertices, dtype=float)
        # Only a body built from (A, b) alone has vertices that are a function
        # of its representation key (see representation_key).
        self._self_contained = vertices is None and polygon is None and polyhedron is None
        self._volume: Optional[float] = None
        self._chebyshev: Optional[Tuple[Optional[np.ndarray], float]] = None
        self._interior: Optional[bool] = None
        self._backend_health: Optional[bool] = None
        self._read_only = False

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_box(
        cls,
        lower: Sequence[float],
        upper: Sequence[float],
        tol: Tolerance = DEFAULT_TOL,
        backend: Optional[str] = None,
    ) -> "ConvexPolytope":
        """Axis-aligned box ``[lower, upper]`` as a polytope."""
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if np.any(upper < lower):
            raise ValueError("box upper bounds must not be below lower bounds")
        dim = lower.shape[0]
        eye = np.eye(dim)
        A = np.vstack([eye, -eye])
        b = np.concatenate([upper, -lower])
        return cls(A, b, tol=tol, backend=backend)

    @classmethod
    def from_halfspaces(
        cls,
        halfspaces: Iterable[Halfspace],
        tol: Tolerance = DEFAULT_TOL,
        backend: Optional[str] = None,
    ) -> "ConvexPolytope":
        """Polytope bounded by an iterable of :class:`Halfspace` objects."""
        halfspaces = list(halfspaces)
        if not halfspaces:
            raise ValueError("at least one halfspace is required")
        A = np.vstack([h.normal for h in halfspaces])
        b = np.array([h.offset for h in halfspaces], dtype=float)
        return cls(A, b, tol=tol, backend=backend)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Dimension of the ambient space."""
        return self._A.shape[1]

    @property
    def n_constraints(self) -> int:
        """Number of stored bounding halfspaces (possibly including redundant ones)."""
        return self._A.shape[0]

    @property
    def halfspaces(self) -> Tuple[np.ndarray, np.ndarray]:
        """H-representation ``(A, b)`` with ``A x <= b`` (copies)."""
        return self._A.copy(), self._b.copy()

    def representation_key(self) -> Optional[tuple]:
        """A hashable key of everything the vertex enumeration reads, or ``None``.

        The key is the normalised ``(A, b)`` bytes and shape, the tolerance
        bundle and the backend specification: two polytopes with equal keys
        enumerate bit-identical :attr:`vertices`.  ``None`` for a body that
        was handed pre-computed vertices or a pre-clipped polygon/polyhedron
        (split children, intersections), whose vertices also depend on that
        inherited state.
        """
        if not self._self_contained:
            return None
        return (
            self._A.shape,
            self._A.tobytes(),
            self._b.tobytes(),
            self._tol,
            self._backend_spec,
        )

    def make_read_only(self) -> None:
        """Freeze ``(A, b)`` and the vertices, including ones enumerated later.

        For bodies shared between callers (cached query answers): a caller
        writing into them gets a ``ValueError`` instead of changing what
        every later holder sees.
        """
        self._read_only = True
        for array in (self._A, self._b, self._vertices):
            if array is not None:
                array.setflags(write=False)

    @property
    def tol(self) -> Tolerance:
        """Tolerance bundle used by this polytope."""
        return self._tol

    @property
    def backend(self) -> str:
        """The geometry backend in effect: ``"polygon"``, ``"polyhedron"`` or ``"qhull"``."""
        if self._use_polygon:
            return "polygon"
        if self._use_polyhedron:
            return "polyhedron"
        return "qhull"

    def _ensure_polygon(self) -> Polygon:
        """The backing polygon, built from ``(A, b)`` by clipping if needed."""
        if self._polygon is None:
            self._polygon = polygon_from_halfspaces(self._A, self._b, tol=self._tol)
        return self._polygon

    def _ensure_polyhedron(self) -> Polyhedron:
        """The backing polyhedron, built from ``(A, b)`` by clipping if needed."""
        if self._polyhedron is None:
            self._polyhedron = polyhedron_from_halfspaces(self._A, self._b, tol=self._tol)
        return self._polyhedron

    def _demote_backend(self) -> None:
        """Numeric graceful degradation: drop to the generic LP/qhull path.

        Called when the closed-form body fails its consistency check.  The
        demotion is per-region: derived polytopes (children, intersections)
        keep the original backend *specification* and rebuild their own body
        from their H-representation, so one broken region never poisons the
        rest of the split tree.  Counted in
        ``geometry_counters.n_backend_fallbacks`` (surfaced as
        ``SolverStats.n_backend_fallbacks``); warns once per process.
        """
        kind = "polygon" if self._use_polygon else "polyhedron"
        self._use_polygon = False
        self._use_polyhedron = False
        self._polygon = None
        self._polyhedron = None
        self._chebyshev = None
        self._volume = None
        geometry_counters.n_backend_fallbacks += 1
        _warn_backend_fallback_once(kind)

    def _backend_body_ok(self) -> bool:
        """Validate the active closed-form body once; demote this region on failure."""
        if self._backend_health is None:
            if self._use_polygon:
                self._backend_health = polygon_is_consistent(self._ensure_polygon())
            elif self._use_polyhedron:
                self._backend_health = polyhedron_is_consistent(self._ensure_polyhedron())
            else:
                self._backend_health = True
            if not self._backend_health:
                self._demote_backend()
        return self._backend_health

    def _polygon_backend_active(self) -> bool:
        """True when the polygon backend is selected *and* its body is healthy."""
        return self._use_polygon and self._backend_body_ok()

    def _polyhedron_backend_active(self) -> bool:
        """True when the polyhedron backend is selected *and* its body is healthy."""
        return self._use_polyhedron and self._backend_body_ok()

    def _cheb(self) -> Tuple[Optional[np.ndarray], float]:
        """Cached ``(centre, radius)`` from the active backend."""
        if self._chebyshev is None:
            if self._polygon_backend_active():
                self._chebyshev = polygon_chebyshev(
                    self._A, self._b, self._ensure_polygon(), tol=self._tol
                )
            elif self._polyhedron_backend_active():
                self._chebyshev = polyhedron_chebyshev(
                    self._A, self._b, self._ensure_polyhedron(), tol=self._tol
                )
            else:
                self._chebyshev = chebyshev_center(self._A, self._b)
        return self._chebyshev

    @property
    def chebyshev_radius(self) -> float:
        """Radius of the largest inscribed ball (``-inf`` if empty)."""
        return self._cheb()[1]

    @property
    def chebyshev_center(self) -> Optional[np.ndarray]:
        """Centre of the largest inscribed ball (``None`` if empty)."""
        center = self._cheb()[0]
        return None if center is None else center.copy()

    def _interior_certified(self) -> bool:
        """True when a certified bound puts the Chebyshev radius above ``tol.radius``.

        The closed-form routines (:func:`polygon_chebyshev`,
        :func:`polyhedron_chebyshev`) score the body's vertex mean as one of
        their centre candidates: its smallest slack over the facet rows (the
        body's non-negative edge or face labels), capped at the safety
        bound.  Their exact radius is the best candidate's, so it is never
        below that slack.  The slack is recomputed here with a different
        matrix product, which may round differently by a few ulps of
        ``|b_i| + ||c||_1`` (``c`` the mean, rows unit-norm), so it must
        clear ``tol.radius`` by the margin ``1e-12 * (1 + max |b_i| +
        ||c||_1)``, hundreds of times that rounding.  When it does not, the
        callers run the exact routine; either way :meth:`is_empty`,
        :meth:`is_full_dimensional` and :meth:`vertices` return the exact
        routine's verdicts.  Regions on the LP/qhull path and 3-D bodies
        without faces are never certified.
        """
        if self._interior is None:
            self._interior = False
            if self._polygon_backend_active():
                polygon = self._ensure_polygon()
                points = polygon.points
                rows = np.unique(polygon.edge_labels[polygon.edge_labels >= 0])
            elif self._polyhedron_backend_active() and self._ensure_polyhedron().n_faces:
                points = self._ensure_polyhedron().points
                rows = self._ensure_polyhedron().facet_labels()
            else:
                return False
            if points.shape[0]:
                center = points.mean(axis=0)
                slack = np.min(self._b[rows] - self._A[rows] @ center, initial=DEFAULT_BOUND)
                margin = 1e-12 * (
                    1.0 + float(np.abs(self._b[rows]).max(initial=0.0)) + float(np.abs(center).sum())
                )
                self._interior = bool(slack - margin > self._tol.radius)
        return self._interior

    def is_empty(self) -> bool:
        """Return True if the polytope has no point at all."""
        if self._interior_certified():
            return False
        return self._cheb()[0] is None

    def is_full_dimensional(self) -> bool:
        """Return True if the polytope has a non-empty interior."""
        if self._interior_certified():
            return True
        return self._cheb()[1] > self._tol.radius

    @property
    def vertices(self) -> np.ndarray:
        """Defining vertices as an ``(m, d)`` array (enumerated lazily).

        For 2-D and 3-D bodies the vertices are *canonical* regardless of
        backend: facet-snapped coordinates in lexicographic order (see
        :func:`~repro.geometry.vertex_enum.canonicalize_polygon_vertices`
        and :func:`~repro.geometry.vertex_enum.canonicalize_polyhedron_vertices`).
        """
        if self._vertices is None:
            self._vertices = self._enumerate_vertices()
            if self._read_only:
                self._vertices.setflags(write=False)
        return self._vertices

    def _enumerate_vertices(self) -> np.ndarray:
        """Canonical vertices from the active backend (see :attr:`vertices`).

        A body whose interior :meth:`_interior_certified` certifies goes
        straight to the closed-form snap; any other body first gets the
        exact Chebyshev verdict, which rules out empty and lower-dimensional
        bodies.
        """
        if not self._interior_certified():
            center, radius = self._cheb()
            if center is None:
                return np.empty((0, self.dimension))
            if radius <= self._tol.radius and self.dimension > 1:
                raise DegeneratePolytopeError(
                    "cannot enumerate vertices of a lower-dimensional polytope"
                )
        if self._polygon_backend_active() and not self._ensure_polygon().touches_bound():
            return canonicalize_polygon_vertices(
                self._A, self._b, self._ensure_polygon().points, tol=self._tol
            )
        if self._polyhedron_backend_active() and not self._ensure_polyhedron().touches_bound():
            return canonicalize_polyhedron_vertices(
                self._A, self._b, self._ensure_polyhedron().points, tol=self._tol
            )
        # Generic path: qhull halfspace intersection (also the fallback for
        # unbounded 2-D/3-D H-representations, where the clipped body still
        # touches the safety box).
        return enumerate_vertices(
            self._A,
            self._b,
            interior_point=None if self.dimension == 1 else self._cheb()[0],
            tol=self._tol,
        )

    @property
    def n_vertices(self) -> int:
        """Number of defining vertices."""
        return self.vertices.shape[0]

    # ------------------------------------------------------------------ #
    # membership and measurements
    # ------------------------------------------------------------------ #
    def contains(self, point: Sequence[float], tol: Optional[Tolerance] = None) -> bool:
        """Return True if ``point`` satisfies every bounding halfspace."""
        tol = tol or self._tol
        point = np.asarray(point, dtype=float)
        return bool(np.all(self._A @ point - self._b <= tol.geometry))

    def contains_many(self, points: np.ndarray, tol: Optional[Tolerance] = None) -> np.ndarray:
        """Vectorised membership test for an ``(n, d)`` array of points."""
        tol = tol or self._tol
        points = np.asarray(points, dtype=float)
        slack = points @ self._A.T - self._b[None, :]
        return np.all(slack <= tol.geometry, axis=1)

    def volume(self) -> float:
        """Euclidean volume of the polytope (0.0 for empty or degenerate bodies).

        The polygon backend answers with the shoelace area of its ordered
        vertex list, the polyhedron backend with a closed-form fan of
        face-pyramids; the generic path builds a qhull convex hull.  The
        value is computed once and memoised, like :attr:`vertices`.
        """
        if self._volume is None:
            self._volume = self._compute_volume()
        return self._volume

    def _compute_volume(self) -> float:
        """The uncached :meth:`volume` from the active backend."""
        if self._polyhedron_backend_active() and not self._ensure_polyhedron().touches_bound():
            return self._ensure_polyhedron().volume()
        if self._polygon_backend_active() and not self._ensure_polygon().touches_bound():
            try:
                verts = self.vertices
            except DegeneratePolytopeError:
                return 0.0
            if verts.shape[0] < 3:
                return 0.0
            # Shoelace over the canonical vertices, re-ordered by angle
            # around their mean (the canonical order is lexicographic).
            center = verts.mean(axis=0)
            angles = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
            ordered = verts[np.argsort(angles)]
            x, y = ordered[:, 0], ordered[:, 1]
            return 0.5 * float(
                np.abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
            )
        try:
            verts = self.vertices
        except DegeneratePolytopeError:
            return 0.0
        if verts.shape[0] <= self.dimension:
            return 0.0
        if self.dimension == 1:
            return float(verts.max() - verts.min())
        from scipy.spatial import ConvexHull, QhullError

        try:
            return float(ConvexHull(verts).volume)
        except QhullError:
            return 0.0

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box ``(lower, upper)`` of the vertex set."""
        verts = self.vertices
        if verts.shape[0] == 0:
            raise EmptyRegionError("empty polytope has no bounding box")
        return verts.min(axis=0), verts.max(axis=0)

    # ------------------------------------------------------------------ #
    # construction of derived polytopes
    # ------------------------------------------------------------------ #
    def intersect_halfspace(self, halfspace: Halfspace) -> "ConvexPolytope":
        """Intersect with a single halfspace, returning a new polytope.

        Under the closed-form backends the child does **not** start from
        scratch: it inherits this polytope's clipped vertex structure (one
        Sutherland–Hodgman pass), and the new facet is labelled with its
        row index in the child's H-representation.
        """
        A = np.vstack([self._A, halfspace.normal[None, :]])
        b = np.concatenate([self._b, [halfspace.offset]])
        polygon = None
        polyhedron = None
        if self._polygon_backend_active():
            polygon = self._ensure_polygon().clip(
                halfspace.normal, halfspace.offset, label=self._A.shape[0], tol=self._tol
            )
        elif self._polyhedron_backend_active():
            polyhedron = self._ensure_polyhedron().clip(
                halfspace.normal, halfspace.offset, label=self._A.shape[0], tol=self._tol
            )
        return ConvexPolytope(
            A, b, tol=self._tol, backend=self._backend_spec, polygon=polygon,
            polyhedron=polyhedron,
        )

    def intersect_halfspaces(self, halfspaces: Iterable[Halfspace]) -> "ConvexPolytope":
        """Intersect with several halfspaces at once, returning a new polytope."""
        halfspaces = list(halfspaces)
        if not halfspaces:
            return ConvexPolytope(
                self._A,
                self._b,
                vertices=self._vertices,
                tol=self._tol,
                backend=self._backend_spec,
                polygon=self._polygon,
                polyhedron=self._polyhedron,
            )
        extra_A = np.vstack([h.normal for h in halfspaces])
        extra_b = np.array([h.offset for h in halfspaces], dtype=float)
        A = np.vstack([self._A, extra_A])
        b = np.concatenate([self._b, extra_b])
        polygon = None
        polyhedron = None
        if self._polygon_backend_active():
            polygon = self._ensure_polygon()
            for index, halfspace in enumerate(halfspaces):
                polygon = polygon.clip(
                    halfspace.normal,
                    halfspace.offset,
                    label=self._A.shape[0] + index,
                    tol=self._tol,
                )
                if polygon.is_empty():
                    break
        elif self._polyhedron_backend_active():
            polyhedron = self._ensure_polyhedron()
            for index, halfspace in enumerate(halfspaces):
                polyhedron = polyhedron.clip(
                    halfspace.normal,
                    halfspace.offset,
                    label=self._A.shape[0] + index,
                    tol=self._tol,
                )
                if polyhedron.is_empty():
                    break
        return ConvexPolytope(
            A, b, tol=self._tol, backend=self._backend_spec, polygon=polygon,
            polyhedron=polyhedron,
        )

    def split(self, hyperplane: Hyperplane) -> Tuple["ConvexPolytope", "ConvexPolytope"]:
        """Split by ``hyperplane`` into the (<=) side and the (>=) side.

        Both children share the splitting facet.  Either child may be empty
        (or lower-dimensional) when the hyperplane only grazes the polytope;
        callers should check :meth:`is_full_dimensional`.

        Under the closed-form backends this is the *incremental cut*: one
        classification pass over the parent's vertex structure emits both
        children, which share the cut edge/facet (same label, same
        crossing-point bytes) — no LP and no re-enumeration.
        """
        below_halfspace = Halfspace.from_hyperplane(hyperplane)
        above_halfspace = Halfspace(-hyperplane.normal, -hyperplane.offset, normalize=False)
        if self._polygon_backend_active() or self._polyhedron_backend_active():
            kind = "polygon" if self._use_polygon else "polyhedron"
            body = self._ensure_polygon() if self._use_polygon else self._ensure_polyhedron()
            below_body, above_body = body.cut(
                hyperplane.normal, hyperplane.offset, label=self._A.shape[0], tol=self._tol
            )
            below = ConvexPolytope(
                np.vstack([self._A, below_halfspace.normal[None, :]]),
                np.concatenate([self._b, [below_halfspace.offset]]),
                tol=self._tol,
                backend=self._backend_spec,
                **{kind: below_body},
            )
            above = ConvexPolytope(
                np.vstack([self._A, above_halfspace.normal[None, :]]),
                np.concatenate([self._b, [above_halfspace.offset]]),
                tol=self._tol,
                backend=self._backend_spec,
                **{kind: above_body},
            )
            return below, above
        below = self.intersect_halfspace(below_halfspace)
        above = self.intersect_halfspace(above_halfspace)
        return below, above

    def sample(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_samples`` points from the polytope by rejection inside its bounding box.

        Falls back to convex combinations of vertices when rejection sampling
        is too wasteful (thin polytopes).  Used by the sampling verifier and
        by the documentation examples; not on the hot path of the solvers.
        """
        lower, upper = self.bounding_box()
        samples = []
        attempts = 0
        max_attempts = max(10_000, 200 * n_samples)
        while len(samples) < n_samples and attempts < max_attempts:
            batch = rng.uniform(lower, upper, size=(max(64, n_samples), self.dimension))
            inside = self.contains_many(batch)
            for row in batch[inside]:
                samples.append(row)
                if len(samples) >= n_samples:
                    break
            attempts += batch.shape[0]
        while len(samples) < n_samples:
            weights = rng.dirichlet(np.ones(self.n_vertices))
            samples.append(weights @ self.vertices)
        return np.asarray(samples[:n_samples])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ConvexPolytope(dim={self.dimension}, constraints={self.n_constraints}, "
            f"backend={self.backend!r}, radius={self.chebyshev_radius:.3g})"
        )


def merge_vertex_sets(vertex_sets: Iterable[np.ndarray], tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Union several vertex arrays, removing duplicates (used to build ``V_all``)."""
    arrays = [np.atleast_2d(np.asarray(v, dtype=float)) for v in vertex_sets if np.size(v)]
    if not arrays:
        return np.empty((0, 0))
    stacked = np.vstack(arrays)
    return deduplicate_points(stacked, tol=tol)
