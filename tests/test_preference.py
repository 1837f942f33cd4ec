"""Unit tests for the preference space, preference regions and random region generators."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.geometry.halfspace import Halfspace
from repro.preference.random_regions import (
    centred_hypercube_region,
    random_elongated_region,
    random_hypercube_region,
)
from repro.preference.region import PreferenceRegion
from repro.preference.space import PreferenceSpace


class TestPreferenceSpace:
    def test_dimension(self):
        assert PreferenceSpace(4).dimension == 3

    def test_rejects_single_attribute(self):
        with pytest.raises(InvalidParameterError):
            PreferenceSpace(1)

    def test_to_full_and_back(self):
        space = PreferenceSpace(3)
        full = space.to_full([0.2, 0.3])
        assert np.allclose(full, [0.2, 0.3, 0.5])
        assert full.sum() == pytest.approx(1.0)
        reduced = space.to_reduced(full)
        assert np.allclose(reduced, [0.2, 0.3])

    def test_to_reduced_renormalises(self):
        space = PreferenceSpace(3)
        reduced = space.to_reduced([2.0, 3.0, 5.0])
        assert np.allclose(reduced, [0.2, 0.3])

    def test_to_reduced_rejects_zero_sum(self):
        space = PreferenceSpace(2)
        with pytest.raises(InvalidParameterError):
            space.to_reduced([0.0, 0.0])

    def test_to_full_many(self):
        space = PreferenceSpace(3)
        full = space.to_full_many(np.array([[0.1, 0.2], [0.4, 0.4]]))
        assert full.shape == (2, 3)
        assert np.allclose(full.sum(axis=1), 1.0)

    def test_dimension_mismatch(self):
        space = PreferenceSpace(3)
        with pytest.raises(DimensionMismatchError):
            space.to_full([0.2])

    def test_simplex_constraints_describe_valid_space(self):
        space = PreferenceSpace(3)
        A, b = space.simplex_constraints()
        inside = np.array([0.3, 0.3])
        outside = np.array([0.8, 0.8])
        assert np.all(A @ inside <= b + 1e-12)
        assert not np.all(A @ outside <= b + 1e-12)

    def test_affine_score_form_matches_full_scores(self, figure1):
        space = PreferenceSpace(2)
        for w1 in (0.0, 0.25, 0.6, 1.0):
            reduced = np.array([w1])
            via_affine = space.scores_at_reduced(figure1.values, reduced)
            via_full = figure1.scores(space.to_full(reduced))
            assert np.allclose(via_affine, via_full)

    def test_scores_at_reduced_many(self, table2):
        space = PreferenceSpace(3)
        reduced = np.array([[0.2, 0.1], [0.3, 0.2]])
        matrix = space.scores_at_reduced_many(table2.values, reduced)
        assert matrix.shape == (5, 2)
        full = space.to_full_many(reduced)
        assert np.allclose(matrix, table2.values @ full.T)


class TestPreferenceRegion:
    def test_interval_region(self):
        region = PreferenceRegion.interval(0.2, 0.8)
        assert region.n_attributes == 2
        assert region.dimension == 1
        assert sorted(region.vertices.ravel().tolist()) == pytest.approx([0.2, 0.8])

    def test_hyperrectangle_vertices(self, table2_region):
        assert table2_region.n_vertices == 4
        assert table2_region.n_attributes == 3

    def test_full_vertices_are_normalised(self, table2_region):
        full = table2_region.full_vertices()
        assert np.allclose(full.sum(axis=1), 1.0)
        assert np.all(full >= -1e-12)

    def test_hyperrectangle_validation(self):
        with pytest.raises(InvalidParameterError):
            PreferenceRegion.hyperrectangle([(0.5, 0.4)])
        with pytest.raises(InvalidParameterError):
            PreferenceRegion.hyperrectangle([(-0.1, 0.4)])
        with pytest.raises(InvalidParameterError):
            PreferenceRegion.hyperrectangle([(0.6, 0.8), (0.6, 0.8)])

    def test_full_simplex(self):
        region = PreferenceRegion.full_simplex(3)
        assert region.contains([0.2, 0.2])
        assert not region.contains([0.9, 0.9])
        assert region.volume() == pytest.approx(0.5, abs=1e-6)

    def test_contains_and_centroid(self, table2_region):
        centroid = table2_region.centroid()
        assert table2_region.contains(centroid)
        assert not table2_region.contains([0.9, 0.9])

    def test_scoring_hyperplane_orientation(self, table2):
        region = PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.1, 0.2)])
        p3, p4 = table2.values[2], table2.values[3]
        plane = region.scoring_hyperplane(p3, p4)
        space = PreferenceSpace(3)
        # Negative side of the plane must be where p3 scores at least as high as p4.
        for reduced in region.vertices:
            full = space.to_full(reduced)
            score_gap = full @ p3 - full @ p4
            side = plane.side(reduced)
            if side < 0:
                assert score_gap >= -1e-9
            elif side > 0:
                assert score_gap <= 1e-9

    def test_split_into_two_parts(self, table2, table2_region):
        p3, p4 = table2.values[2], table2.values[3]
        plane = table2_region.scoring_hyperplane(p3, p4)
        below, above = table2_region.split(plane)
        assert below.is_full_dimensional() and above.is_full_dimensional()
        total = below.volume() + above.volume()
        assert total == pytest.approx(table2_region.volume(), rel=1e-6)

    def test_intersect_halfspace(self, table2_region):
        smaller = table2_region.intersect_halfspace(Halfspace([1.0, 0.0], 0.25))
        assert smaller.volume() < table2_region.volume()

    def test_sample_weights_inside(self, table2_region):
        samples = table2_region.sample_weights(32, np.random.default_rng(0))
        assert all(table2_region.contains(s) for s in samples)


class TestRandomRegions:
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_hypercube_inside_simplex(self, d):
        rng = np.random.default_rng(0)
        for _ in range(5):
            region = random_hypercube_region(d, 0.05, rng=rng)
            full = region.full_vertices()
            assert np.all(full >= -1e-9)
            assert np.allclose(full.sum(axis=1), 1.0)

    def test_hypercube_side_length(self):
        region = random_hypercube_region(4, 0.1, rng=1)
        lower, upper = region.polytope.bounding_box()
        assert np.allclose(upper - lower, 0.1, atol=1e-9)

    def test_invalid_side_length(self):
        with pytest.raises(InvalidParameterError):
            random_hypercube_region(3, 0.0)
        with pytest.raises(InvalidParameterError):
            random_hypercube_region(3, 1.5)

    def test_elongated_region_keeps_volume(self):
        sigma = 0.08
        for gamma in (0.5, 2.0, 4.0):
            region = random_elongated_region(4, sigma, gamma, rng=3)
            assert region.volume() == pytest.approx(sigma**3, rel=1e-6)

    def test_elongated_region_with_gamma_one_is_cube(self):
        region = random_elongated_region(3, 0.05, 1.0, rng=2)
        lower, upper = region.polytope.bounding_box()
        assert np.allclose(upper - lower, 0.05, atol=1e-9)

    def test_elongated_invalid_gamma(self):
        with pytest.raises(InvalidParameterError):
            random_elongated_region(3, 0.05, 0.0)

    def test_centred_hypercube(self):
        region = centred_hypercube_region(3, 0.1)
        assert region.contains(np.full(2, 1.0 / 3.0))

    def test_determinism_with_seed(self):
        a = random_hypercube_region(4, 0.05, rng=9)
        b = random_hypercube_region(4, 0.05, rng=9)
        assert np.allclose(np.sort(a.vertices, axis=0), np.sort(b.vertices, axis=0))
