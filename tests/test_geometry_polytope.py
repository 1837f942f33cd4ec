"""Unit tests for convex polytopes, Chebyshev centres and vertex enumeration."""

import numpy as np
import pytest

from repro.exceptions import EmptyRegionError
from repro.geometry.chebyshev import chebyshev_center
from repro.geometry.halfspace import Halfspace
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polytope import ConvexPolytope, merge_vertex_sets
from repro.geometry.vertex_enum import deduplicate_points, enumerate_vertices


class TestChebyshev:
    def test_center_of_unit_square(self):
        box = ConvexPolytope.from_box([0, 0], [1, 1])
        A, b = box.halfspaces
        center, radius = chebyshev_center(A, b)
        assert np.allclose(center, [0.5, 0.5], atol=1e-6)
        assert radius == pytest.approx(0.5, abs=1e-6)

    def test_infeasible_system(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.0, -1.0])  # x <= 0 and x >= 1
        center, radius = chebyshev_center(A, b)
        assert center is None
        assert radius == float("-inf")


class TestVertexEnumeration:
    def test_unit_square_vertices(self):
        box = ConvexPolytope.from_box([0, 0], [1, 1])
        A, b = box.halfspaces
        vertices = enumerate_vertices(A, b)
        assert vertices.shape == (4, 2)
        expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(np.round(v, 6)) for v in vertices} == expected

    def test_one_dimensional_interval(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.8, -0.2])
        vertices = enumerate_vertices(A, b)
        assert sorted(vertices.ravel().tolist()) == pytest.approx([0.2, 0.8])

    def test_one_dimensional_empty(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.2, -0.8])
        assert enumerate_vertices(A, b).shape[0] == 0

    def test_empty_region_raises(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([0.0, -1.0])
        with pytest.raises(EmptyRegionError):
            enumerate_vertices(A, b)

    def test_deduplicate_points(self):
        points = np.array([[0.1, 0.2], [0.1 + 1e-12, 0.2], [0.3, 0.4]])
        assert deduplicate_points(points).shape[0] == 2


class TestConvexPolytope:
    def test_from_box_membership(self):
        box = ConvexPolytope.from_box([0, 0], [1, 1])
        assert box.contains([0.5, 0.5])
        assert box.contains([1.0, 1.0])
        assert not box.contains([1.1, 0.5])

    def test_contains_many(self):
        box = ConvexPolytope.from_box([0, 0], [1, 1])
        mask = box.contains_many(np.array([[0.5, 0.5], [2.0, 0.0]]))
        assert mask.tolist() == [True, False]

    def test_from_halfspaces_triangle(self):
        triangle = ConvexPolytope.from_halfspaces(
            [
                Halfspace([-1.0, 0.0], 0.0),   # x >= 0
                Halfspace([0.0, -1.0], 0.0),   # y >= 0
                Halfspace([1.0, 1.0], 1.0),    # x + y <= 1
            ]
        )
        assert triangle.n_vertices == 3
        assert triangle.volume() == pytest.approx(0.5, abs=1e-6)

    def test_volume_of_box(self):
        box = ConvexPolytope.from_box([0, 0, 0], [1, 2, 3])
        assert box.volume() == pytest.approx(6.0, abs=1e-6)

    def test_empty_polytope(self):
        empty = ConvexPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
        assert empty.is_empty()
        assert not empty.is_full_dimensional()
        assert empty.volume() == 0.0

    def test_split_square_by_diagonal(self):
        box = ConvexPolytope.from_box([0, 0], [1, 1])
        below, above = box.split(Hyperplane([1.0, -1.0], 0.0))
        assert below.volume() == pytest.approx(0.5, abs=1e-6)
        assert above.volume() == pytest.approx(0.5, abs=1e-6)
        # The diagonal's endpoints are vertices of both children.
        for child in (below, above):
            rounded = {tuple(np.round(v, 6)) for v in child.vertices}
            assert (0.0, 0.0) in rounded and (1.0, 1.0) in rounded

    def test_split_missing_the_polytope_gives_empty_side(self):
        box = ConvexPolytope.from_box([0, 0], [1, 1])
        below, above = box.split(Hyperplane([1.0, 0.0], 2.0))
        assert not below.is_empty()
        assert above.is_empty()

    def test_intersect_halfspace(self):
        box = ConvexPolytope.from_box([0, 0], [1, 1])
        half = box.intersect_halfspace(Halfspace([1.0, 0.0], 0.5))
        assert half.volume() == pytest.approx(0.5, abs=1e-6)

    def test_bounding_box(self):
        triangle = ConvexPolytope.from_halfspaces(
            [Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], 0.0), Halfspace([1.0, 1.0], 1.0)]
        )
        lower, upper = triangle.bounding_box()
        assert np.allclose(lower, [0, 0], atol=1e-6)
        assert np.allclose(upper, [1, 1], atol=1e-6)

    def test_sampling_stays_inside(self):
        box = ConvexPolytope.from_box([0, 0], [1, 1])
        samples = box.sample(50, np.random.default_rng(0))
        assert samples.shape == (50, 2)
        assert np.all(box.contains_many(samples))

    def test_merge_vertex_sets_deduplicates(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[1.0, 1.0], [0.5, 0.5]])
        merged = merge_vertex_sets([a, b])
        assert merged.shape[0] == 3
