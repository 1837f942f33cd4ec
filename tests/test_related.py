"""Tests for the monochromatic reverse top-k query.

Besides checking the query's cells against pointwise ranks, these tests use
it as an oracle for TopRR: an option placed inside ``oR`` must have a
reverse top-k region covering all of ``wR``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import cheapest_new_option
from repro.core.toprr import solve_toprr
from repro.data.dataset import Dataset
from repro.data.examples import figure1_dataset
from repro.data.generators import generate_independent
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.preference.space import PreferenceSpace
from repro.related import monochromatic_reverse_top_k, reverse_top_k_contains_region
from repro.topk.query import rank_of


@pytest.fixture(scope="module")
def market():
    return generate_independent(400, 3, rng=71)


class TestMonochromaticReverseTopK:
    def test_figure1_strong_laptop_wins_everywhere(self):
        # p2 = (0.7, 0.9) is in the top-3 for every preference in [0.2, 0.8]
        # (see Figure 1(d) of the paper).
        data = figure1_dataset()
        region = PreferenceRegion.interval(0.2, 0.8)
        answer = monochromatic_reverse_top_k(
            data, data.values[1], 3, region=region, exclude_index=1
        )
        assert answer.covers_region()

    def test_figure1_weak_laptop_never_wins(self):
        # p6 = (0.1, 0.1) is dominated by every other laptop, so it is never
        # in the top-3 of the remaining five.
        data = figure1_dataset()
        answer = monochromatic_reverse_top_k(data, data.values[5], 3, exclude_index=5)
        assert answer.winning_cells == []
        assert answer.coverage() == 0.0

    def test_figure1_partial_coverage(self):
        # p4 = (0.3, 0.8) is in the top-3 only for battery-leaning preferences
        # (w[0] below roughly 0.4 in Figure 1(d)).
        data = figure1_dataset()
        region = PreferenceRegion.interval(0.2, 0.8)
        answer = monochromatic_reverse_top_k(
            data, data.values[3], 3, region=region, exclude_index=3
        )
        assert 0.0 < answer.coverage() < 1.0
        assert answer.covers(np.array([0.25]))
        assert not answer.covers(np.array([0.75]))

    def test_cells_agree_with_pointwise_ranks(self, market):
        option = np.array([0.9, 0.55, 0.6])
        k = 10
        region = PreferenceRegion.hyperrectangle([(0.2, 0.5), (0.2, 0.5)])
        answer = monochromatic_reverse_top_k(market, option, k, region=region)
        rng = np.random.default_rng(5)
        space = PreferenceSpace(3)
        samples = region.sample_weights(200, rng)
        for reduced in samples:
            expected = rank_of(market, space.to_full(reduced), option) <= k
            assert answer.covers(reduced) == expected

    def test_coverage_grows_with_k(self, market):
        option = np.array([0.8, 0.5, 0.55])
        region = PreferenceRegion.hyperrectangle([(0.2, 0.5), (0.2, 0.5)])
        coverages = [
            monochromatic_reverse_top_k(market, option, k, region=region).coverage()
            for k in (1, 5, 20)
        ]
        assert coverages == sorted(coverages)

    def test_consistency_with_toprr_placement(self, market):
        region = PreferenceRegion.hyperrectangle([(0.3, 0.36), (0.3, 0.36)])
        k = 8
        result = solve_toprr(market, k, region)
        placement = cheapest_new_option(result)
        assert reverse_top_k_contains_region(market, placement.option, k, region)
        # A clearly uncompetitive option must not cover the region.
        assert not reverse_top_k_contains_region(market, np.full(3, 0.01), k, region)

    def test_input_validation(self, market):
        with pytest.raises(InvalidParameterError):
            monochromatic_reverse_top_k(market, np.array([0.5, 0.5]), 3)
        with pytest.raises(InvalidParameterError):
            monochromatic_reverse_top_k(market, np.full(3, 0.5), 0)
        with pytest.raises(InvalidParameterError):
            monochromatic_reverse_top_k(
                market, np.full(3, 0.5), 3, region=PreferenceRegion.interval(0.2, 0.4)
            )


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=60),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_reverse_topk_membership_property(n, k, seed):
    """Property: reverse top-k cell membership equals the pointwise rank test (2-d options)."""
    rng = np.random.default_rng(seed)
    dataset = Dataset(rng.random((n, 2)))
    option = rng.random(2)
    answer = monochromatic_reverse_top_k(dataset, option, min(k, n))
    space = PreferenceSpace(2)
    for reduced in rng.random((25, 1)):
        expected = rank_of(dataset, space.to_full(reduced), option) <= min(k, n)
        covered = answer.covers(reduced)
        if covered != expected:
            # Disagreements may only occur within tolerance of a tie.
            scores = dataset.values @ space.to_full(reduced)
            own = float(option @ space.to_full(reduced))
            margin = np.min(np.abs(scores - own)) if scores.size else 1.0
            assert margin <= 1e-6
