"""Unit tests for the pre-filters: r-skyband, UTK filter and the comparison harness."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.generators import generate_independent
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.preference.space import PreferenceSpace
from repro.pruning.base import FILTER_NAMES, apply_filter
from repro.pruning.comparison import compare_filters
from repro.pruning.rskyband import r_skyband, vertex_score_matrix
from repro.pruning.utk_filter import utk_filter
from repro.topk.query import top_k
from repro.topk.skyband import k_skyband
from repro.utils.tolerance import Tolerance


@pytest.fixture
def ind_instance():
    dataset = generate_independent(400, 3, rng=21)
    region = PreferenceRegion.hyperrectangle([(0.3, 0.4), (0.2, 0.3)])
    return dataset, region


class TestRSkyband:
    def test_vertex_score_matrix_shape(self, ind_instance):
        dataset, region = ind_instance
        matrix = vertex_score_matrix(dataset, region)
        assert matrix.shape == (dataset.n_options, region.n_vertices)

    def test_r_skyband_subset_of_k_skyband(self, ind_instance):
        dataset, region = ind_instance
        k = 5
        r_band = set(r_skyband(dataset, k, region).tolist())
        full_band = set(k_skyband(dataset, k).tolist())
        assert r_band <= full_band

    def test_r_skyband_contains_top_k_inside_region(self, ind_instance):
        dataset, region = ind_instance
        k = 4
        band = set(r_skyband(dataset, k, region).tolist())
        space = PreferenceSpace(dataset.n_attributes)
        rng = np.random.default_rng(5)
        for reduced in region.sample_weights(20, rng):
            result = top_k(dataset, space.to_full(reduced), k)
            assert set(result.indices.tolist()) <= band

    def test_r_skyband_grows_with_k(self, ind_instance):
        dataset, region = ind_instance
        sizes = [len(r_skyband(dataset, k, region)) for k in (1, 3, 6, 10)]
        assert sizes == sorted(sizes)

    def test_invalid_k(self, ind_instance):
        dataset, region = ind_instance
        with pytest.raises(InvalidParameterError):
            r_skyband(dataset, 0, region)

    def test_r_skyband_uses_the_filter_tolerance(self):
        # Option 1 trails option 0 by 1e-4 at every vertex: a tie under a
        # geometry tolerance of 1e-3, a strict loss under the default one.
        # The filter compares vertex scores with ``tol.geometry``.
        region = PreferenceRegion.interval(0.2, 0.8)
        dataset = Dataset(np.array([[0.5, 0.5], [0.4999, 0.4999], [0.3, 0.3]]))
        loose = Tolerance(geometry=1e-3, score=1e-9)
        assert r_skyband(dataset, 1, region, tol=loose).tolist() == [0, 1]
        assert r_skyband(dataset, 1, region).tolist() == [0]

    def test_r_skyband_of_figure1(self, figure1):
        region = PreferenceRegion.interval(0.2, 0.8)
        # p1 and p2 are incomparable on [0.2, 0.8] (p1 wins at 0.8, p2 at
        # 0.2), so neither has an r-dominator.
        assert {0, 1} <= set(r_skyband(figure1, 1, region).tolist())
        # p6 = (0.1, 0.1) is r-dominated by every other laptop.
        assert 5 not in r_skyband(figure1, 5, region)
        assert 5 in r_skyband(figure1, 6, region)


class TestUTKFilter:
    def test_utk_filter_is_tightest(self, ind_instance):
        dataset, region = ind_instance
        k = 3
        utk = set(utk_filter(dataset, k, region).tolist())
        r_band = set(r_skyband(dataset, k, region).tolist())
        assert utk <= r_band

    def test_utk_filter_covers_sampled_top_k(self, ind_instance):
        dataset, region = ind_instance
        k = 3
        utk = set(utk_filter(dataset, k, region).tolist())
        space = PreferenceSpace(dataset.n_attributes)
        rng = np.random.default_rng(6)
        for reduced in np.vstack([region.sample_weights(15, rng), region.vertices]):
            result = top_k(dataset, space.to_full(reduced), k)
            assert set(result.indices.tolist()) <= utk


class TestFilterInterface:
    def test_all_filters_run(self, ind_instance):
        dataset, region = ind_instance
        for name in FILTER_NAMES:
            outcome = apply_filter(name, dataset, 3, region)
            assert outcome.retained == len(outcome.indices) > 0
            assert outcome.seconds >= 0.0

    def test_region_aware_filters_require_region(self, ind_instance):
        dataset, _ = ind_instance
        with pytest.raises(InvalidParameterError):
            apply_filter("r-skyband", dataset, 3, None)
        with pytest.raises(InvalidParameterError):
            apply_filter("utk", dataset, 3, None)

    def test_unknown_filter(self, ind_instance):
        dataset, region = ind_instance
        with pytest.raises(InvalidParameterError):
            apply_filter("mystery", dataset, 3, region)

    def test_subset_result(self, ind_instance):
        dataset, region = ind_instance
        outcome = apply_filter("r-skyband", dataset, 3, region)
        subset = outcome.subset(dataset)
        assert subset.n_options == outcome.retained

    def test_comparison_ranks_r_skyband_tighter_than_skyband(self, ind_instance):
        dataset, region = ind_instance
        comparison = compare_filters(dataset, 3, region, filters=["k-skyband", "r-skyband"])
        results = comparison.results
        assert results["r-skyband"].retained <= results["k-skyband"].retained
        normalized = comparison.normalized()
        assert max(v["retained"] for v in normalized.values()) == pytest.approx(1.0)
        assert len(comparison.rows()) == 2
