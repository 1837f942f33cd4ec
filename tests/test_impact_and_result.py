"""Unit tests for impact halfspaces, the oR construction and the TopRRResult API."""

import numpy as np
import pytest

from repro.core.impact import build_impact_region, impact_halfspace, impact_thresholds, is_top_ranking
from repro.core.toprr import make_solver, solve_toprr
from repro.core.tas_star import TASStarSolver
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.preference.space import PreferenceSpace
from repro.topk.query import top_k_score
from repro.utils.tolerance import DEFAULT_TOL


class TestImpactHalfspace:
    def test_membership_matches_definition(self, figure1):
        weight = np.array([0.5, 0.5])
        threshold = top_k_score(figure1, weight, 3)
        halfspace = impact_halfspace(weight, threshold)
        # p2 scores 0.8 >= threshold, p6 scores 0.1 < threshold.
        assert halfspace.contains(figure1.values[1])
        assert not halfspace.contains(figure1.values[5])

    def test_thresholds_match_topk_scores(self, figure1, figure1_region):
        space = PreferenceSpace(2)
        vertices = figure1_region.vertices
        thresholds = impact_thresholds(figure1, vertices, 3)
        for vertex, threshold in zip(vertices, thresholds):
            assert threshold == pytest.approx(top_k_score(figure1, space.to_full(vertex), 3))

    def test_is_top_ranking_direct(self, figure1, figure1_region):
        vertices = figure1_region.vertices
        thresholds = impact_thresholds(figure1, vertices, 3)
        space = PreferenceSpace(2)
        full = space.to_full_many(vertices)
        assert is_top_ranking([1.0, 1.0], full, thresholds)
        assert not is_top_ranking([0.0, 0.0], full, thresholds)


class TestBuildImpactRegion:
    def test_region_contains_top_corner(self, figure1, figure1_region):
        polytope, _, _ = build_impact_region(figure1, figure1_region.vertices, 3)
        assert polytope.contains(np.ones(2))

    def test_clipping_to_unit_box(self, figure1, figure1_region):
        polytope, _, _ = build_impact_region(
            figure1, figure1_region.vertices, 3, clip_to_unit_box=True
        )
        assert not polytope.contains(np.array([1.5, 1.5]))

    def test_custom_bounds(self, figure1, figure1_region):
        bounds = (np.zeros(2), np.full(2, 2.0))
        polytope, _, _ = build_impact_region(
            figure1, figure1_region.vertices, 3, clip_to_unit_box=False, bounds=bounds
        )
        assert polytope.contains(np.array([1.5, 1.5]))


class TestSolveToprrValidation:
    def test_invalid_k(self, figure1, figure1_region):
        with pytest.raises(InvalidParameterError):
            solve_toprr(figure1, 0, figure1_region)
        with pytest.raises(InvalidParameterError):
            solve_toprr(figure1, 100, figure1_region)

    def test_region_dataset_mismatch(self, table2):
        region = PreferenceRegion.interval(0.2, 0.8)  # 2-attribute region
        with pytest.raises(InvalidParameterError):
            solve_toprr(table2, 2, region)

    def test_unknown_method(self, figure1, figure1_region):
        with pytest.raises(InvalidParameterError):
            solve_toprr(figure1, 2, figure1_region, method="magic")

    def test_make_solver_passthrough(self):
        solver = TASStarSolver(use_lemma7=False)
        assert make_solver(solver) is solver
        assert make_solver("TAS").name == "TAS"
        assert make_solver("pac").name == "PAC"

    def test_no_prefilter_gives_same_region(self, figure1, figure1_region):
        # Oracle: the solver run directly on the unfiltered dataset, then Theorem 1.
        filtered = solve_toprr(figure1, 3, figure1_region)
        vall = TASStarSolver().partition(figure1, 3, figure1_region)
        _polytope, full_weights, thresholds = build_impact_region(figure1, vall, 3)
        probes = np.random.default_rng(0).random((200, 2))
        unfiltered = np.all(probes @ full_weights.T >= thresholds - DEFAULT_TOL.score, axis=1)
        assert np.array_equal(filtered.contains_many(probes), unfiltered)


class TestTopRRResultAPI:
    @pytest.fixture
    def result(self, figure1, figure1_region):
        return solve_toprr(figure1, 3, figure1_region)

    def test_summary_keys(self, result):
        summary = result.summary()
        assert {"method", "k", "n_options", "n_filtered", "n_vertices", "volume", "seconds"} <= set(
            summary
        )

    def test_contains_many_matches_contains(self, result):
        probes = np.random.default_rng(4).random((50, 2))
        vector = result.contains_many(probes)
        scalar = np.array([result.contains(p) for p in probes])
        assert np.array_equal(vector, scalar)

    def test_volume_positive_and_bounded(self, result):
        assert 0.0 < result.volume() <= 1.0

    def test_option_region_vertices_inside_unit_box(self, result):
        vertices = result.option_region_vertices
        assert np.all(vertices >= -1e-9) and np.all(vertices <= 1 + 1e-9)

    def test_not_empty(self, result):
        assert not result.is_empty()

    def test_stats_recorded(self, result):
        stats = result.stats.as_dict()
        assert stats["n_input_options"] == 6
        assert stats["n_vertices"] == result.n_vertices
        assert stats["seconds"] > 0
