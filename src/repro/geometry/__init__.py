"""Computational-geometry substrate.

This subpackage replaces the C++/qhull layer used by the paper's authors.
It provides hyperplanes and halfspaces, convex polytopes with the hybrid
facet/vertex/halfspace representation of Section 4.2.2, the Chebyshev-centre
LP, vertex enumeration via halfspace intersection, polytope volume, and the
quadratic-programming placement solvers used for cost-optimal option
creation and enhancement.

Three interchangeable backends implement the polytope primitives (see
:mod:`repro.geometry.polytope`): the generic LP/qhull path, an exact 2-D
polygon path (:mod:`repro.geometry.polygon`) and an exact 3-D polyhedron
path (:mod:`repro.geometry.polyhedron`) — closed-form Sutherland–Hodgman
clipping with no ``linprog`` and no qhull calls — auto-selected for two-
and three-dimensional bodies, the paper's two experimental settings
(``d = 3`` and ``d = 4`` attributes).  The per-thread
:data:`~repro.geometry.counters.geometry_counters` make the elimination
observable (they feed the ``n_lp_calls`` / ``n_qhull_calls`` /
``n_clip_calls`` fields of :class:`~repro.core.stats.SolverStats`).
"""

from repro.geometry.halfspace import Halfspace
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polytope import (
    ConvexPolytope,
    set_default_backend,
    use_backend,
)
from repro.geometry.polygon import Polygon, polygon_from_halfspaces
from repro.geometry.polyhedron import Polyhedron, polyhedron_from_halfspaces
from repro.geometry.chebyshev import chebyshev_center
from repro.geometry.counters import geometry_counters
from repro.geometry.vertex_enum import (
    canonicalize_polygon_vertices,
    canonicalize_polyhedron_vertices,
)
from repro.geometry.qp import minimize_quadratic_cost, project_point_onto_polytope

__all__ = [
    "Hyperplane",
    "Halfspace",
    "ConvexPolytope",
    "Polygon",
    "Polyhedron",
    "polygon_from_halfspaces",
    "polyhedron_from_halfspaces",
    "canonicalize_polygon_vertices",
    "canonicalize_polyhedron_vertices",
    "set_default_backend",
    "use_backend",
    "geometry_counters",
    "chebyshev_center",
    "minimize_quadratic_cost",
    "project_point_onto_polytope",
]
