"""Unit tests for the top-k query layer, k-skyband and onion layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.topk.onion import k_onion_layers
from repro.topk.query import rank_of, top_k, top_k_from_scores, top_k_score
from repro.topk.scoring import linear_scores
from repro.topk.skyband import count_dominators, k_skyband, skyband_of_values
from repro.utils.tolerance import DEFAULT_TOL


class TestScoring:
    def test_linear_scores(self, figure1):
        scores = linear_scores(figure1.values, [0.5, 0.5])
        assert scores[1] == pytest.approx(0.8)  # p2 = (0.7, 0.9)

    def test_dimension_mismatch(self, figure1):
        with pytest.raises(DimensionMismatchError):
            linear_scores(figure1.values, [1.0, 0.0, 0.0])


class TestTopK:
    def test_figure1_top3_at_balanced_weight(self, figure1):
        # At w = (0.5, 0.5): p2=0.8, p1=0.65, p4=0.55, p3=0.4, ...
        result = top_k(figure1, [0.5, 0.5], 3)
        assert [figure1.id_of(i) for i in result.indices] == ["p2", "p1", "p4"]
        assert result.threshold == pytest.approx(0.55)

    def test_top_k_score(self, figure1):
        assert top_k_score(figure1, [0.5, 0.5], 1) == pytest.approx(0.8)

    def test_k_larger_than_dataset(self, figure1):
        result = top_k(figure1, [1.0, 0.0], 100)
        assert len(result.indices) == 6

    def test_invalid_k(self, figure1):
        with pytest.raises(InvalidParameterError):
            top_k(figure1, [1.0, 0.0], 0)

    def test_tie_break_by_index(self):
        data = Dataset([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        result = top_k(data, [0.5, 0.5], 2)
        # All three score 0.5; ties resolved by ascending index.
        assert result.indices.tolist() == [0, 1]

    def test_top_k_from_scores_matches_top_k(self, figure1):
        weight = np.array([0.3, 0.7])
        direct = top_k(figure1, weight, 4)
        from_scores = top_k_from_scores(figure1.values @ weight, 4)
        assert direct.indices.tolist() == from_scores.indices.tolist()

    def test_top_k_large_input_uses_partition_path(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.random((10_000, 3)))
        weight = np.array([0.2, 0.3, 0.5])
        result = top_k(data, weight, 10)
        brute = np.lexsort((np.arange(10_000), -(data.values @ weight)))[:10]
        assert result.indices.tolist() == brute.tolist()

    def test_index_set_is_frozen(self, figure1):
        result = top_k(figure1, [0.5, 0.5], 2)
        assert isinstance(result.index_set, frozenset)


class TestRankOf:
    def test_new_option_dominating_everything_is_rank_one(self, figure1):
        assert rank_of(figure1, [0.5, 0.5], [1.0, 1.0]) == 1

    def test_new_option_below_everything(self, figure1):
        assert rank_of(figure1, [0.5, 0.5], [0.0, 0.0]) == 7

    def test_tie_counts_in_favour_of_new_option(self, figure1):
        # p2 scores 0.8 at the balanced weight; an equal-scoring new option gets rank 1.
        assert rank_of(figure1, [0.5, 0.5], [0.8, 0.8]) == 1


class TestSkyband:
    def test_skyline_of_figure1(self, figure1):
        # p1 (0.9, 0.4) and p2 (0.7, 0.9) are not dominated; the rest are.
        assert [figure1.id_of(i) for i in k_skyband(figure1, 1)] == ["p1", "p2"]

    def test_two_skyband_of_figure1(self, figure1):
        # p3 = (0.6, 0.2) is dominated by both p1 and p2, so it drops out of
        # the 2-skyband but re-enters the 3-skyband.
        band2 = {figure1.id_of(i) for i in k_skyband(figure1, 2)}
        assert band2 == {"p1", "p2", "p4"}
        band3 = {figure1.id_of(i) for i in k_skyband(figure1, 3)}
        assert band3 == {"p1", "p2", "p3", "p4"}

    def test_skyband_grows_with_k(self, small_ind_dataset):
        sizes = [len(k_skyband(small_ind_dataset, k)) for k in (1, 2, 4, 8)]
        assert sizes == sorted(sizes)

    def test_skyband_contains_top_k_for_any_weight(self, small_ind_dataset):
        k = 3
        band = set(k_skyband(small_ind_dataset, k).tolist())
        rng = np.random.default_rng(2)
        for _ in range(20):
            raw = rng.random(small_ind_dataset.n_attributes)
            weight = raw / raw.sum()
            result = top_k(small_ind_dataset, weight, k)
            assert set(result.indices.tolist()) <= band

    def test_dominance_count_caps(self):
        values = np.array([[0.9, 0.9], [0.5, 0.5], [0.4, 0.4], [0.1, 0.1]])
        counts = count_dominators(values, values, cap=2)
        assert counts.tolist() == [0, 1, 2, 2]

    def test_skyband_invalid_k(self, figure1):
        with pytest.raises(InvalidParameterError):
            k_skyband(figure1, 0)

    def test_skyband_of_values_empty(self):
        assert skyband_of_values(np.empty((0, 3)), 2).size == 0

    def test_duplicates_do_not_dominate_each_other(self):
        values = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert skyband_of_values(values, 1).tolist() == [0, 1]


def _brute_force_dominator_counts(values: np.ndarray, eps: float) -> np.ndarray:
    """O(n^2) pairwise dominator count under the kernel's ``eps`` rule."""
    geq = np.all(values[None, :, :] >= values[:, None, :] - eps, axis=2)
    gt = np.any(values[None, :, :] > values[:, None, :] + eps, axis=2)
    return (geq & gt).sum(axis=1)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["grid", "continuous", "perturbed"]),
    n=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_skyband_kernel_matches_brute_force(kind, n, d, k, seed):
    """Property: the sort-based kernel agrees with pairwise dominance counting.

    Integer grids give exact ties and duplicates; there the kernel must be
    exact, as on generic continuous data.  Grids perturbed by 0.3-1.7 times
    the geometry tolerance make ``eps``-dominance non-transitive, so the
    kernel may keep extra options but must never drop a band member.
    """
    rng = np.random.default_rng(seed)
    eps = DEFAULT_TOL.geometry
    if kind == "continuous":
        values = rng.random((n, d))
    else:
        values = rng.integers(0, 4, size=(n, d)).astype(float)
        if kind == "perturbed":
            jitter = rng.uniform(0.3, 1.7, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
            values = values + jitter * eps

    brute = _brute_force_dominator_counts(values, eps)
    expected = set(np.flatnonzero(brute < k).tolist())
    kept = skyband_of_values(values, k)
    band = set(kept.tolist())
    counts = count_dominators(values, values[kept], k)
    if kind == "perturbed":
        assert expected <= band
        # Counting against a subset of the options never overcounts.
        assert np.all(counts <= np.minimum(brute, k))
    else:
        assert band == expected
        assert counts.tolist() == np.minimum(brute, k).tolist()


class TestOnion:
    def test_first_layer_is_convex_hull(self, unit_square_dataset):
        layer = k_onion_layers(unit_square_dataset, 1)
        # The interior points (0.40, 0.40) and (0.20, 0.15) are not hull vertices.
        ids = set(layer.tolist())
        assert 4 not in ids or 5 not in ids

    def test_layers_grow_with_k(self, small_ind_dataset):
        sizes = [len(k_onion_layers(small_ind_dataset, k)) for k in (1, 2, 3)]
        assert sizes == sorted(sizes)

    def test_onion_contains_top_k_for_any_weight(self, small_ind_dataset):
        k = 2
        selected = set(k_onion_layers(small_ind_dataset, k).tolist())
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.random(small_ind_dataset.n_attributes)
            weight = raw / raw.sum()
            result = top_k(small_ind_dataset, weight, k)
            assert set(result.indices.tolist()) <= selected

    def test_invalid_k(self, unit_square_dataset):
        with pytest.raises(InvalidParameterError):
            k_onion_layers(unit_square_dataset, 0)
