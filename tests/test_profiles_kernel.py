"""Parity tests: the vectorized profile kernel against the per-vertex path.

The acceptance bar for the kernel refactor is that the array-backed
:class:`repro.core.profiles.RegionProfiles` produces *bit-identical*
verdicts — kIPR violations (Lemma 3), optimized-test results (Lemma 7) and
consistent top-λ reductions (Lemma 5) — to the legacy
:class:`repro.core.kipr.VertexProfile` path on randomized datasets and
regions, including tie-heavy inputs that stress the ``argpartition`` fast
path's boundary handling.
"""

import numpy as np
import pytest

from repro.core.kipr import (
    WorkingSet,
    consistent_top_lambda,
    find_kipr_violation,
    passes_lemma7,
    region_profiles,
)
from repro.core.profiles import (
    RegionProfiles,
    _topk_order_full,
    _topk_order_partition,
    affine_scores,
    topk_order_matrix,
)
from repro.core.splitting import find_swap_candidates, region_is_rank_invariant
from repro.data.dataset import Dataset
from repro.data.generators import generate_independent
from repro.preference.random_regions import random_hypercube_region
from repro.preference.region import PreferenceRegion
from repro.pruning.rskyband import r_skyband
from repro.utils.tolerance import DEFAULT_TOL


def random_instance(trial: int):
    """One randomized (working set, region) pair, r-skyband filtered."""
    rng = np.random.default_rng(trial)
    n = int(rng.integers(30, 400))
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, 9))
    dataset = generate_independent(n, d, rng=trial)
    region = random_hypercube_region(d, float(rng.uniform(0.03, 0.15)), rng=trial + 1000)
    filtered = dataset.subset(r_skyband(dataset, min(k, n), region))
    working = WorkingSet.from_dataset(filtered, min(k, n))
    return working, region


class TestScoreKernel:
    def test_affine_scores_row_subset_invariance(self):
        """Any row subset of the batched score matrix is bit-identical."""
        rng = np.random.default_rng(5)
        vertices = rng.random((12, 4))
        coefficients = rng.standard_normal((200, 4))
        constants = rng.random(200)
        full = affine_scores(vertices, coefficients, constants)
        for i in range(vertices.shape[0]):
            row = affine_scores(vertices[i : i + 1], coefficients, constants)[0]
            assert np.array_equal(row, full[i])

    def test_scores_at_matches_batched_rows(self):
        working, region = random_instance(3)
        profiles = RegionProfiles.compute(working, region.vertices)
        coefficients, constants = working.active_form()
        batched = affine_scores(region.vertices, coefficients, constants)
        for i, vertex in enumerate(region.vertices):
            assert np.array_equal(working.scores_at(vertex), batched[i])
        assert len(profiles) == region.vertices.shape[0]


class TestTopKOrder:
    def test_partition_path_matches_full_sort_on_random_rows(self):
        rng = np.random.default_rng(11)
        scores = rng.random((8, 500))
        ids = np.arange(500)
        k = 10
        fast = _topk_order_partition(scores, ids, k)
        assert fast is not None
        assert np.array_equal(fast, _topk_order_full(scores, ids, k))

    def test_partition_path_declines_on_boundary_ties(self):
        # Row with many identical scores straddling the k boundary: the fast
        # path must refuse rather than return an id-order-dependent set.
        scores = np.zeros((2, 100))
        scores[:, :3] = 1.0  # only 3 clear winners, the rest all tie at 0
        ids = np.arange(100)
        assert _topk_order_partition(scores, ids, 5) is None
        ordered = topk_order_matrix(scores, ids, 5)
        # Ties resolved by ascending id, matching the legacy lexsort.
        assert ordered.tolist() == [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]

    def test_tie_heavy_duplicated_options(self):
        """Duplicated rows give exactly-equal scores; verdicts must agree."""
        rng = np.random.default_rng(23)
        base = rng.random((40, 3))
        values = np.vstack([base, base[:20]])  # 20 exact duplicates
        dataset = Dataset(values)
        region = PreferenceRegion.hyperrectangle([(0.3, 0.4), (0.2, 0.3)])
        working = WorkingSet.from_dataset(dataset, 6)
        legacy = region_profiles(working, region)
        vec = RegionProfiles.compute(working, region.vertices)
        for i, profile in enumerate(legacy):
            assert profile.ordered == tuple(int(x) for x in vec.ordered[i])


@pytest.mark.parametrize("trial", range(12))
class TestVerdictParity:
    """Randomized equivalence of every region verdict, per trial."""

    def test_orderings_and_kth(self, trial):
        working, region = random_instance(trial)
        legacy = region_profiles(working, region)
        vec = RegionProfiles.compute(working, region.vertices)
        assert len(legacy) == len(vec)
        for i, profile in enumerate(legacy):
            assert profile.ordered == tuple(int(x) for x in vec.ordered[i])
            assert profile.kth == int(vec.kth[i])
            assert profile.top_set == vec[i].top_set

    def test_kipr_lemma5_lemma7_verdicts(self, trial):
        working, region = random_instance(trial)
        legacy = region_profiles(working, region)
        vec = RegionProfiles.compute(working, region.vertices)
        k = working.k
        assert find_kipr_violation(legacy) == find_kipr_violation(vec)
        assert passes_lemma7(legacy, k) == passes_lemma7(vec, k)
        assert consistent_top_lambda(legacy, k) == consistent_top_lambda(vec, k)

    def test_verdicts_after_lemma5_reduction(self, trial):
        working, region = random_instance(trial)
        vec = RegionProfiles.compute(working, region.vertices)
        lam, phi = vec.consistent_top_lambda(working.k)
        if lam == 0 or working.n_active - lam < 1:
            pytest.skip("Lemma 5 does not fire on this instance")
        reduced = working.without_options(phi, working.k - lam)
        legacy = region_profiles(reduced, region)
        vec2 = RegionProfiles.compute(reduced, region.vertices)
        assert find_kipr_violation(legacy) == find_kipr_violation(vec2)
        for i, profile in enumerate(legacy):
            assert profile.ordered == tuple(int(x) for x in vec2.ordered[i])

    def test_swap_candidates_and_rank_invariance(self, trial):
        working, region = random_instance(trial)
        legacy = region_profiles(working, region)
        vec = RegionProfiles.compute(working, region.vertices)
        legacy_pairs = [
            (c.option_a, c.option_b) for c in find_swap_candidates(working, legacy, DEFAULT_TOL)
        ]
        vec_pairs = [
            (c.option_a, c.option_b) for c in find_swap_candidates(working, vec, DEFAULT_TOL)
        ]
        assert legacy_pairs == vec_pairs
        assert region_is_rank_invariant(working, legacy) == region_is_rank_invariant(working, vec)


class TestLemma5Stat:
    def test_n_after_lemma5_records_root_pruning(self):
        """Table 2 of the paper: Lemma 5 removes p5 at the root (λ = 1)."""
        from repro.core.stats import SolverStats
        from repro.core.tas_star import TASStarSolver
        from repro.data.examples import table2_dataset

        table2 = table2_dataset()
        region = PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.1, 0.2)])
        working = WorkingSet.from_dataset(table2, 3)
        lam, _phi = RegionProfiles.compute(working, region.vertices).consistent_top_lambda(3)
        assert lam == 1  # the paper's worked example

        stats = SolverStats()
        TASStarSolver().partition(table2, 3, region, stats=stats)
        assert stats.n_after_lemma5 == table2.n_options - lam

    def test_n_after_lemma5_untouched_when_root_does_not_fire(self):
        from repro.core.stats import SolverStats
        from repro.core.tas import TASSolver
        from repro.core.tas_star import TASStarSolver

        dataset = generate_independent(3_000, 4, rng=7)
        region = random_hypercube_region(4, 0.05, rng=8)
        k = 10
        filtered = dataset.subset(r_skyband(dataset, k, region))
        working = WorkingSet.from_dataset(filtered, k)
        lam, _phi = RegionProfiles.compute(working, region.vertices).consistent_top_lambda(k)
        assert lam == 0  # root top-1 sets disagree on this instance

        star_stats = SolverStats()
        TASStarSolver().partition(filtered, k, region, stats=star_stats)
        # Lemma 5 fires deeper in the recursion, but those reductions are
        # subtree-local and must not masquerade as the initial pruning.
        assert star_stats.n_lemma5_reductions > 0
        assert star_stats.n_after_lemma5 == filtered.n_options

        tas_stats = SolverStats()
        TASSolver().partition(filtered, k, region, stats=tas_stats)
        # No Lemma 5 in plain TAS: the candidate set is unchanged.
        assert tas_stats.n_after_lemma5 == filtered.n_options


class TestSequenceProtocol:
    def test_getitem_and_iteration(self):
        working, region = random_instance(7)
        vec = RegionProfiles.compute(working, region.vertices)
        profiles = list(vec)
        assert len(profiles) == len(vec)
        first = vec[0]
        assert first.kth == profiles[0].kth
        assert first.prefix_set(2) == profiles[0].prefix_set(2)

    def test_without_options_isin_matches_comprehension(self):
        working, _region = random_instance(9)
        drop = [int(working.active[0]), int(working.active[-1])]
        smaller = working.without_options(drop, new_k=max(1, working.k - 1))
        expected = [int(i) for i in working.active if int(i) not in set(drop)]
        assert smaller.active.tolist() == expected
        assert smaller.k == max(1, working.k - 1)
