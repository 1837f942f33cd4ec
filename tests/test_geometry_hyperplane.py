"""Unit tests for hyperplanes and halfspaces."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.geometry.halfspace import Halfspace
from repro.geometry.hyperplane import Hyperplane


class TestHyperplane:
    def test_normalisation(self):
        plane = Hyperplane([3.0, 4.0], 10.0)
        assert np.isclose(np.linalg.norm(plane.normal), 1.0)
        assert np.isclose(plane.offset, 2.0)

    def test_no_normalisation_keeps_coefficients(self):
        plane = Hyperplane([3.0, 4.0], 10.0, normalize=False)
        assert np.allclose(plane.normal, [3.0, 4.0])
        assert plane.offset == 10.0

    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidParameterError):
            Hyperplane([0.0, 0.0], 1.0)

    def test_evaluate_signed_distance(self):
        plane = Hyperplane([1.0, 0.0], 0.5)
        assert plane.evaluate([0.5, 0.3]) == pytest.approx(0.0)
        assert plane.evaluate([0.7, 0.0]) == pytest.approx(0.2)
        assert plane.evaluate([0.2, 0.0]) == pytest.approx(-0.3)

    def test_side_classification(self):
        plane = Hyperplane([1.0, 1.0], 1.0)
        assert plane.side([0.5, 0.5]) == 0
        assert plane.side([0.9, 0.9]) == 1
        assert plane.side([0.1, 0.1]) == -1

    def test_contains(self):
        plane = Hyperplane([0.0, 1.0], 0.25)
        assert plane.contains([0.9, 0.25])
        assert not plane.contains([0.9, 0.35])

    def test_dimension(self):
        assert Hyperplane([1.0, 2.0, 3.0], 1.0).dimension == 3


class TestHalfspace:
    def test_contains_below_boundary(self):
        half = Halfspace([1.0, 0.0], 0.5)
        assert half.contains([0.4, 0.9])
        assert half.contains([0.5, 0.0])
        assert not half.contains([0.6, 0.0])

    def test_contains_many(self):
        half = Halfspace([0.0, 1.0], 0.5)
        mask = half.contains_many(np.array([[0.0, 0.2], [0.0, 0.8]]))
        assert mask.tolist() == [True, False]

    def test_violation_amount(self):
        half = Halfspace([1.0, 0.0], 0.5)
        assert half.violation([0.4, 0.0]) == 0.0
        assert half.violation([0.8, 0.0]) == pytest.approx(0.3)

    def test_from_hyperplane(self):
        plane = Hyperplane([1.0, 1.0], 1.0)
        half = Halfspace.from_hyperplane(plane)
        assert half.contains([0.2, 0.2])
