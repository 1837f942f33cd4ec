"""Tests for the exact 2-D polygon geometry backend.

Three layers:

* **property-based parity**: random halfspace sets and random split cascades
  must give *bit-identical* canonical vertices and identical
  emptiness / full-dimensionality verdicts on the polygon and the LP/qhull
  backends, with closely matching Chebyshev radii and areas;
* **degenerate cases**: segments, points, empty systems, slivers around the
  radius tolerance, and unbounded intermediate H-representations;
* **unit tests** of the :class:`~repro.geometry.polygon.Polygon` primitives
  (clipping, cutting with a shared cut edge, area, centroid, counters).
"""

import numpy as np
import pytest

from repro.exceptions import DegeneratePolytopeError
from repro.geometry.chebyshev import chebyshev_center
from repro.geometry.counters import geometry_counters
from repro.geometry.halfspace import Halfspace
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polygon import Polygon, polygon_chebyshev, polygon_from_halfspaces
from repro.geometry.polytope import ConvexPolytope, set_default_backend, use_backend
from repro.utils.tolerance import DEFAULT_TOL


def _pair(A, b, **kwargs):
    """The same H-representation on both backends."""
    return (
        ConvexPolytope(A, b, backend="polygon", **kwargs),
        ConvexPolytope(A, b, backend="qhull", **kwargs),
    )


def _random_halfspace_system(rng, n_extra):
    """Unit box plus ``n_extra`` random halfspaces through its interior."""
    A = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    b = [1.0, 0.0, 1.0, 0.0]
    for _ in range(n_extra):
        normal = rng.normal(size=2)
        normal /= np.linalg.norm(normal)
        point = rng.uniform(0.15, 0.85, size=2)
        A.append(normal)
        b.append(float(normal @ point))
    return np.asarray(A), np.asarray(b)


class TestBackendParity:
    """Polygon and LP/qhull backends must agree bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_halfspace_sets(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(25):
            A, b = _random_halfspace_system(rng, int(rng.integers(1, 7)))
            poly, ref = _pair(A, b)
            assert poly.is_empty() == ref.is_empty()
            assert poly.is_full_dimensional() == ref.is_full_dimensional()
            if poly.is_empty() or not poly.is_full_dimensional():
                continue
            assert np.array_equal(poly.vertices, ref.vertices), f"trial {trial}"
            assert poly.chebyshev_radius == pytest.approx(ref.chebyshev_radius, rel=1e-6, abs=1e-9)
            assert poly.volume() == pytest.approx(ref.volume(), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_random_split_cascades(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            poly = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0], backend="polygon")
            ref = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0], backend="qhull")
            for _ in range(8):
                normal = rng.normal(size=2)
                offset = float(normal @ rng.uniform(0.1, 0.9, size=2))
                hyperplane = Hyperplane(normal, offset)
                side = int(rng.integers(2))
                poly_child = poly.split(hyperplane)[side]
                ref_child = ref.split(hyperplane)[side]
                assert poly_child.backend == "polygon"
                assert ref_child.backend == "qhull"
                assert poly_child.is_empty() == ref_child.is_empty()
                assert poly_child.is_full_dimensional() == ref_child.is_full_dimensional()
                if poly_child.is_empty() or not poly_child.is_full_dimensional():
                    break
                assert np.array_equal(poly_child.vertices, ref_child.vertices)
                poly, ref = poly_child, ref_child

    def test_auto_backend_selects_polygon_in_2d(self):
        square = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0])
        assert square.backend == "polygon"
        cube = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3)
        assert cube.backend == "polyhedron"
        tesseract = ConvexPolytope.from_box([0.0] * 4, [1.0] * 4)
        assert tesseract.backend == "qhull"

    def test_split_children_share_cut_vertex_bytes(self):
        square = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0], backend="polygon")
        below, above = square.split(Hyperplane(np.array([1.0, 0.4]), 0.7))
        below_bytes = {v.tobytes() for v in below.vertices}
        above_bytes = {v.tobytes() for v in above.vertices}
        # The two cut vertices appear in both children with identical bytes.
        assert len(below_bytes & above_bytes) == 2

    def test_use_backend_context(self):
        with use_backend("qhull"):
            inside = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0])
        outside = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0])
        assert inside.backend == "qhull"
        assert outside.backend == "polygon"
        with pytest.raises(ValueError):
            set_default_backend("nonsense")

    def test_backend_counters(self):
        geometry_counters.reset()
        square = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0], backend="polygon")
        below, above = square.split(Hyperplane(np.array([1.0, 0.0]), 0.5))
        _ = below.vertices, above.vertices, below.chebyshev_radius
        snap = geometry_counters.snapshot()
        assert snap.n_lp_calls == 0
        assert snap.n_qhull_calls == 0
        assert snap.n_clip_calls >= 5  # 4 box clips for the parent + 1 cut
        geometry_counters.reset()
        ref = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0], backend="qhull")
        _ = ref.vertices
        snap = geometry_counters.snapshot()
        assert snap.n_lp_calls >= 1 and snap.n_qhull_calls == 1 and snap.n_clip_calls == 0


class TestDegenerateCases:
    """Slivers, segments, unbounded systems: verdicts must mirror the LP path.

    (Outside one documented band: systems infeasible by a margin between
    ``tol.geometry`` and the LP solver's own feasibility slack may report
    empty on the polygon path while HiGHS accepts them with a tiny negative
    radius — both verdicts make solvers discard the region identically; see
    :func:`repro.geometry.polygon.polygon_chebyshev`.)
    """

    SEGMENT_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    SEGMENT_B = np.array([0.5, -0.5, 1.0, 0.0])

    def test_segment_is_degenerate_on_both_backends(self):
        for polytope in _pair(self.SEGMENT_A, self.SEGMENT_B):
            assert not polytope.is_empty()
            assert not polytope.is_full_dimensional()
            with pytest.raises(DegeneratePolytopeError):
                _ = polytope.vertices

    def test_empty_system_on_both_backends(self):
        b = np.array([0.4, -0.5, 1.0, 0.0])  # x <= 0.4 and x >= 0.5
        for polytope in _pair(self.SEGMENT_A, b):
            assert polytope.is_empty()
            assert polytope.vertices.shape == (0, 2)
            assert polytope.chebyshev_radius == float("-inf")

    @pytest.mark.parametrize("width,full_dim", [(1e-9, True), (1e-11, False)])
    def test_sliver_verdicts_straddle_the_radius_tolerance(self, width, full_dim):
        b = np.array([0.5, -0.5 + width, 1.0, 0.0])
        for polytope in _pair(self.SEGMENT_A, b):
            assert polytope.is_full_dimensional() == full_dim

    def test_unbounded_intermediate_h_representation(self):
        A = np.array([[1.0, 0.0]])
        b = np.array([0.5])
        polytope = ConvexPolytope(A, b, backend="polygon")
        assert not polytope.is_empty()
        assert polytope.is_full_dimensional()
        assert polygon_from_halfspaces(A, b).touches_bound()
        # Bounding it afterwards recovers an ordinary polygon.
        bounded = polytope.intersect_halfspaces(
            [Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 1.0), Halfspace([0.0, -1.0], 0.0)]
        )
        assert not bounded._ensure_polygon().touches_bound()
        assert bounded.volume() == pytest.approx(0.5)

    def test_grazing_cut_keeps_on_vertices_in_both_children(self):
        square = ConvexPolytope.from_box([0.0, 0.0], [1.0, 1.0], backend="polygon")
        below, above = square.split(Hyperplane(np.array([1.0, 0.0]), 1.0))
        # `above` is the edge x = 1: non-empty but lower-dimensional.
        assert below.is_full_dimensional()
        assert not above.is_empty()
        assert not above.is_full_dimensional()


class TestPolygonPrimitives:
    """Unit tests of the closed-form polygon operations."""

    def test_build_clip_and_area(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0, 0.0, 1.0, 0.0])
        polygon = polygon_from_halfspaces(A, b)
        assert polygon.n_vertices == 4
        assert not polygon.touches_bound()
        assert polygon.area() == pytest.approx(1.0)
        clipped = polygon.clip(np.array([1.0, 1.0]) / np.sqrt(2), 1.0 / np.sqrt(2), label=4)
        assert clipped.area() == pytest.approx(0.5)
        assert 4 in set(clipped.edge_labels.tolist())

    def test_cut_shares_edge_label_and_crossing_bytes(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0, 0.0, 1.0, 0.0])
        polygon = polygon_from_halfspaces(A, b)
        below, above = polygon.cut(np.array([1.0, 0.0]), 0.25, label=4)
        assert below.area() + above.area() == pytest.approx(1.0)
        assert 4 in set(below.edge_labels.tolist())
        assert 4 in set(above.edge_labels.tolist())
        below_bytes = {p.tobytes() for p in below.points}
        above_bytes = {p.tobytes() for p in above.points}
        assert len(below_bytes & above_bytes) == 2

    def test_centroid_is_interior(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A, b = _random_halfspace_system(rng, 4)
            polygon = polygon_from_halfspaces(A, b)
            if polygon.n_vertices < 3:
                continue
            centroid = polygon.centroid()
            assert np.all(A @ centroid - b < 1e-9)

    def test_polygon_chebyshev_of_rectangle(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([4.0, 0.0, 1.0, 0.0])
        polygon = polygon_from_halfspaces(A, b)
        center, radius = polygon_chebyshev(A, b, polygon)
        assert radius == pytest.approx(0.5)
        assert center[1] == pytest.approx(0.5)
        lp_center, lp_radius = chebyshev_center(A, b)
        assert radius == pytest.approx(lp_radius, abs=1e-9)

    def test_empty_polygon_chebyshev(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([0.0, -1.0])
        polygon = polygon_from_halfspaces(A, b)
        assert polygon.is_empty()
        center, radius = polygon_chebyshev(A, b, polygon)
        assert center is None and radius == float("-inf")
