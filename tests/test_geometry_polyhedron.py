"""Tests for the exact 3-D polyhedron geometry backend.

Three layers, mirroring ``tests/test_geometry_polygon.py`` one dimension up:

* **property-based parity**: random halfspace sets and random split cascades
  must give *bit-identical* canonical vertices and identical
  emptiness / full-dimensionality verdicts on the polyhedron and the
  LP/qhull backends, with closely matching Chebyshev radii and volumes;
* **degenerate cases**: flat slabs, empty systems, slivers around the radius
  tolerance, grazing cuts, and unbounded intermediate H-representations;
* **unit tests** of the :class:`~repro.geometry.polyhedron.Polyhedron`
  primitives (clipping, cutting with a shared cut facet, volume, face
  structure, counters).

Every test also asserts that no body it builds demotes to the LP/qhull path
(zero ``n_backend_fallbacks``).
"""

import numpy as np
import pytest

from repro.exceptions import DegeneratePolytopeError
from repro.geometry.chebyshev import chebyshev_center
from repro.geometry.counters import geometry_counters
from repro.geometry.halfspace import Halfspace
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polyhedron import (
    Polyhedron,
    polyhedron_chebyshev,
    polyhedron_from_halfspaces,
)
from repro.geometry.polytope import ConvexPolytope

UNIT_CUBE_A = np.vstack([np.eye(3), -np.eye(3)])
UNIT_CUBE_B = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


@pytest.fixture(autouse=True)
def _no_backend_fallbacks():
    """No closed-form body built by a test here may fail validation and demote."""
    geometry_counters.reset()
    yield
    assert geometry_counters.n_backend_fallbacks == 0


def _pair(A, b, **kwargs):
    """The same H-representation on both backends."""
    return (
        ConvexPolytope(A, b, backend="polyhedron", **kwargs),
        ConvexPolytope(A, b, backend="qhull", **kwargs),
    )


def _random_halfspace_system(rng, n_extra):
    """Unit cube plus ``n_extra`` random halfspaces through its interior."""
    A = [row for row in UNIT_CUBE_A]
    b = list(UNIT_CUBE_B)
    for _ in range(n_extra):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        point = rng.uniform(0.15, 0.85, size=3)
        A.append(normal)
        b.append(float(normal @ point))
    return np.asarray(A), np.asarray(b)


class TestBackendParity:
    """Polyhedron and LP/qhull backends must agree bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_halfspace_sets(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(20):
            A, b = _random_halfspace_system(rng, int(rng.integers(1, 7)))
            poly, ref = _pair(A, b)
            assert poly.is_empty() == ref.is_empty()
            assert poly.is_full_dimensional() == ref.is_full_dimensional()
            if poly.is_empty() or not poly.is_full_dimensional():
                continue
            assert np.array_equal(poly.vertices, ref.vertices), f"trial {trial}"
            assert poly.chebyshev_radius == pytest.approx(ref.chebyshev_radius, rel=1e-6, abs=1e-9)
            assert poly.volume() == pytest.approx(ref.volume(), rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_random_split_cascades(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            poly = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend="polyhedron")
            ref = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend="qhull")
            for _ in range(7):
                normal = rng.normal(size=3)
                offset = float(normal @ rng.uniform(0.1, 0.9, size=3))
                hyperplane = Hyperplane(normal, offset)
                side = int(rng.integers(2))
                poly_child = poly.split(hyperplane)[side]
                ref_child = ref.split(hyperplane)[side]
                assert poly_child.backend == "polyhedron"
                assert ref_child.backend == "qhull"
                assert poly_child.is_empty() == ref_child.is_empty()
                assert poly_child.is_full_dimensional() == ref_child.is_full_dimensional()
                if poly_child.is_empty() or not poly_child.is_full_dimensional():
                    break
                assert np.array_equal(poly_child.vertices, ref_child.vertices)
                poly, ref = poly_child, ref_child

    def test_split_children_share_cut_vertex_bytes(self):
        cube = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend="polyhedron")
        below, above = cube.split(Hyperplane(np.array([1.0, 0.3, 0.2]), 0.8))
        below_bytes = {v.tobytes() for v in below.vertices}
        above_bytes = {v.tobytes() for v in above.vertices}
        # The cut-facet vertices appear in both children with identical bytes.
        shared = below_bytes & above_bytes
        assert len(shared) >= 3

    def test_backend_counters(self):
        geometry_counters.reset()
        cube = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend="polyhedron")
        below, above = cube.split(Hyperplane(np.array([1.0, 0.0, 0.0]), 0.5))
        _ = below.vertices, above.vertices, below.chebyshev_radius
        snap = geometry_counters.snapshot()
        assert snap.n_lp_calls == 0
        assert snap.n_qhull_calls == 0
        assert snap.n_clip_calls >= 7  # 6 cube clips for the parent + 1 cut
        geometry_counters.reset()
        ref = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend="qhull")
        _ = ref.vertices
        snap = geometry_counters.snapshot()
        assert snap.n_lp_calls >= 1 and snap.n_qhull_calls == 1 and snap.n_clip_calls == 0

    def test_vertices_match_on_the_cube(self):
        poly, ref = _pair(UNIT_CUBE_A, UNIT_CUBE_B)
        assert np.array_equal(poly.vertices, ref.vertices)
        assert poly.vertices.shape == (8, 3)


class TestDegenerateCases:
    """Flat bodies, empty systems, grazing cuts: verdicts must mirror the LP path."""

    SLAB_A = np.vstack([np.eye(3), -np.eye(3)])

    def test_flat_slab_is_degenerate_on_both_backends(self):
        b = np.array([0.5, 1.0, 1.0, -0.5, 0.0, 0.0])  # x pinned to 0.5
        for polytope in _pair(self.SLAB_A, b):
            assert not polytope.is_empty()
            assert not polytope.is_full_dimensional()
            with pytest.raises(DegeneratePolytopeError):
                _ = polytope.vertices

    def test_empty_system_on_both_backends(self):
        b = np.array([0.4, 1.0, 1.0, -0.5, 0.0, 0.0])  # x <= 0.4 and x >= 0.5
        for polytope in _pair(self.SLAB_A, b):
            assert polytope.is_empty()
            assert polytope.vertices.shape == (0, 3)
            assert polytope.chebyshev_radius == float("-inf")

    @pytest.mark.parametrize("width,full_dim", [(1e-9, True), (1e-11, False)])
    def test_sliver_verdicts_straddle_the_radius_tolerance(self, width, full_dim):
        b = np.array([0.5, 1.0, 1.0, -0.5 + width, 0.0, 0.0])
        for polytope in _pair(self.SLAB_A, b):
            assert polytope.is_full_dimensional() == full_dim

    def test_unbounded_intermediate_h_representation(self):
        A = np.array([[1.0, 0.0, 0.0]])
        b = np.array([0.5])
        polytope = ConvexPolytope(A, b, backend="polyhedron")
        assert not polytope.is_empty()
        assert polytope.is_full_dimensional()
        assert polyhedron_from_halfspaces(A, b).touches_bound()
        # Bounding it afterwards recovers an ordinary polyhedron.
        bounded = polytope.intersect_halfspaces(
            [
                Halfspace([-1.0, 0.0, 0.0], 0.0),
                Halfspace([0.0, 1.0, 0.0], 1.0),
                Halfspace([0.0, -1.0, 0.0], 0.0),
                Halfspace([0.0, 0.0, 1.0], 1.0),
                Halfspace([0.0, 0.0, -1.0], 0.0),
            ]
        )
        assert not bounded._ensure_polyhedron().touches_bound()
        assert bounded.volume() == pytest.approx(0.5)

    def test_grazing_cut_keeps_on_vertices_in_both_children(self):
        cube = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend="polyhedron")
        below, above = cube.split(Hyperplane(np.array([1.0, 0.0, 0.0]), 1.0))
        # `above` is the face x = 1: non-empty but lower-dimensional.
        assert below.is_full_dimensional()
        assert not above.is_empty()
        assert not above.is_full_dimensional()

    def test_cut_through_a_vertex(self):
        cube = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend="polyhedron")
        ref = ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend="qhull")
        # The plane x + y + z = 3 touches the cube only at (1, 1, 1).
        hyperplane = Hyperplane(np.array([1.0, 1.0, 1.0]), 3.0)
        below, above = cube.split(hyperplane)
        ref_below, ref_above = ref.split(hyperplane)
        assert below.is_full_dimensional() == ref_below.is_full_dimensional()
        assert above.is_empty() == ref_above.is_empty()
        assert above.is_full_dimensional() == ref_above.is_full_dimensional()
        assert np.array_equal(below.vertices, ref_below.vertices)


class TestPolyhedronPrimitives:
    """Unit tests of the closed-form polyhedron operations."""

    def test_build_clip_and_volume(self):
        polyhedron = polyhedron_from_halfspaces(UNIT_CUBE_A, UNIT_CUBE_B)
        assert polyhedron.n_vertices == 8
        assert polyhedron.n_faces == 6
        assert not polyhedron.touches_bound()
        assert polyhedron.volume() == pytest.approx(1.0)
        normal = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        clipped = polyhedron.clip(normal, float(normal @ [1.0, 1.0, 0.0]), label=6)
        # The corner cut at (1,1,1) removes a tetrahedron of volume 1/6.
        assert clipped.volume() == pytest.approx(1.0 - 1.0 / 6.0)
        assert 6 in set(label for _ring, label in clipped.faces)

    def test_cut_shares_cap_label_and_crossing_bytes(self):
        polyhedron = polyhedron_from_halfspaces(UNIT_CUBE_A, UNIT_CUBE_B)
        below, above = polyhedron.cut(np.array([1.0, 0.0, 0.0]), 0.25, label=6)
        assert below.volume() + above.volume() == pytest.approx(1.0)
        assert 6 in set(label for _ring, label in below.faces)
        assert 6 in set(label for _ring, label in above.faces)
        below_bytes = {p.tobytes() for p in below.points}
        above_bytes = {p.tobytes() for p in above.points}
        assert len(below_bytes & above_bytes) == 4

    def test_every_edge_is_shared_by_two_faces(self):
        rng = np.random.default_rng(11)
        A, b = _random_halfspace_system(rng, 4)
        polyhedron = polyhedron_from_halfspaces(A, b)
        counts: dict = {}
        for ring, _label in polyhedron.faces:
            m = ring.shape[0]
            for pos in range(m):
                i, j = int(ring[pos]), int(ring[(pos + 1) % m])
                key = (min(i, j), max(i, j))
                counts[key] = counts.get(key, 0) + 1
        assert counts and all(count == 2 for count in counts.values())

    def test_facet_labels_are_nonredundant_rows(self):
        A, b = _random_halfspace_system(np.random.default_rng(3), 2)
        # Append a clearly redundant constraint.
        A = np.vstack([A, np.array([[1.0, 0.0, 0.0]])])
        b = np.concatenate([b, [50.0]])
        polyhedron = polyhedron_from_halfspaces(A, b)
        assert A.shape[0] - 1 not in set(polyhedron.facet_labels().tolist())

    def test_polyhedron_chebyshev_of_a_box(self):
        A = UNIT_CUBE_A
        b = np.array([4.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        polyhedron = polyhedron_from_halfspaces(A, b)
        center, radius = polyhedron_chebyshev(A, b, polyhedron)
        assert radius == pytest.approx(0.5)
        assert center[2] == pytest.approx(0.5)
        _lp_center, lp_radius = chebyshev_center(A, b)
        assert radius == pytest.approx(lp_radius, abs=1e-9)

    def test_empty_polyhedron_chebyshev(self):
        A = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        b = np.array([0.0, -1.0])
        polyhedron = polyhedron_from_halfspaces(A, b)
        assert polyhedron.is_empty()
        center, radius = polyhedron_chebyshev(A, b, polyhedron)
        assert center is None and radius == float("-inf")
